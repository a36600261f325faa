"""Maximum independent ones, maximum all-zero blocks, and the duality between them.

Deterministic augmenting paths; _zero_block gives the account of the
zero-block search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .binmat import BinaryMatrix, _pair_scan, ones

# _zero_block enumerates the sets of a short side's lines when there are at most this many of them: the measured
# crossover with the search, which is faster from 11 lines on; planes of order 3 and up, 13 x 13 or larger, stay on it
_SHORT_SIDE = 10


def bipartite_matching(
    adjacency: Sequence[Sequence[int]], right_size: int, partial: Sequence[int] | None = None
) -> list[int]:
    """Maximum bipartite matching via augmenting paths.

    adjacency[i] lists the right-side vertices joined to left vertex i;
    partial, which must be a matching of adjacency (distinct columns, each
    pair an edge; unchecked) in the returned form, is copied and grown from
    its unmatched left vertices. Left vertices go in increasing order and
    neighbours in list order, so the result is deterministic; a left vertex
    with no neighbours is skipped. Failed searches share one visited list: a
    failed search changes nothing, and no column it visited leads on to a
    free one. A search backing up to a row scans its list again from the
    start; every neighbour the row tried is visited, so the first unvisited
    one is where its scan stopped. Each backup undoes a step through a
    visited column, so rescans cost at most (columns visited) x (largest
    degree). Returns the left-to-right assignment, -1 for unmatched rows.
    """
    match_left = [-1] * len(adjacency) if partial is None else list(partial)
    match_right = [-1] * right_size
    for r, c in enumerate(match_left):
        if c >= 0:
            match_right[c] = r
    seen = [False] * right_size
    for start, c in enumerate(match_left):
        if c >= 0 or not adjacency[start]:
            continue
        # the alternating path, ending at row r: each row after start owns the column the row before it took
        path, r = [start], start
        while True:
            for c in adjacency[r]:
                if not seen[c]:
                    break
            else:
                path.pop()
                if not path:
                    break
                r = path[-1]
                continue
            seen[c] = True
            r = match_right[c]
            if r >= 0:
                path.append(r)
                continue
            # free column found: each row on the path takes the column it reached, last row first
            for r in reversed(path):
                match_right[c] = r
                match_left[r], c = c, match_left[r]
            seen = [False] * right_size
            break
    return match_left


@dataclass(frozen=True)
class MatchingWitness:
    """A set of 1-cells, no two sharing a row or a column."""

    size: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.size != len(self.pairs):
            raise ValueError("size disagrees with the number of pairs")
        rows = [r for r, _ in self.pairs]
        cols = [c for _, c in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("witness pairs must use distinct rows and distinct columns")


@dataclass(frozen=True)
class ZeroBlockWitness:
    """Row and column selections whose crossing is entirely zero."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.cols:
            raise ValueError("zero block needs at least one row and one column")
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise ValueError("row and column selections must be duplicate-free")

    @property
    def a(self) -> int:
        return len(self.rows)

    @property
    def b(self) -> int:
        return len(self.cols)

    @property
    def weight(self) -> int:
        return len(self.rows) + len(self.cols)


def max_independent_ones(f: BinaryMatrix) -> MatchingWitness:
    """Largest set of ones with no two in one row or column."""
    return _matching_witness(bipartite_matching(f.bits, f.cols))


def _matching_witness(match_left: Sequence[int]) -> MatchingWitness:
    pairs = tuple((r, c) for r, c in enumerate(match_left) if c >= 0)
    return MatchingWitness(len(pairs), pairs)


def _independent_selection(
    adjacency: Sequence[Sequence[int]], n_cols: int, match_left: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Largest row/column selection avoiding every edge, from a maximum matching.

    Classic cover construction: rows reachable from the unmatched ones by
    alternating paths, together with the columns no such path touches.
    """
    match_right = [-1] * n_cols
    for r, c in enumerate(match_left):
        if c >= 0:
            match_right[c] = r
    reach_rows = [match_left[r] < 0 for r in range(len(adjacency))]
    reach_cols = [False] * n_cols
    queue = [r for r in range(len(adjacency)) if reach_rows[r]]
    while queue:
        r = queue.pop()
        for c in adjacency[r]:
            if not reach_cols[c]:
                reach_cols[c] = True
                owner = match_right[c]
                if owner >= 0 and not reach_rows[owner]:
                    reach_rows[owner] = True
                    queue.append(owner)
    rows_in = [r for r, keep in enumerate(reach_rows) if keep]
    cols_in = [c for c in range(n_cols) if not reach_cols[c]]
    return rows_in, cols_in


def max_zero_submatrix(f: BinaryMatrix) -> ZeroBlockWitness | None:
    """A zero submatrix maximizing rows + cols, or None when f has no zero.

    Both selections must be nonempty. When the best selection avoiding every
    one is two-sided it is the answer; otherwise it is the heaviest block with
    the fewest rows through the row-major-first of the heaviest zero cells,
    read off an enumeration of every set of the short side's lines when there
    are at most _SHORT_SIDE of them, and otherwise grown from the cell that a
    bounded search of the zero cells, grouped by the short side's lines, finds.
    """
    return _zero_block(f, bipartite_matching(f.bits, f.cols))


def _zero_block(f: BinaryMatrix, match_left: list[int]) -> ZeroBlockWitness | None:
    """max_zero_submatrix from f and a maximum matching on its ones.

    The best selection avoiding every one weighs m + n - (maximum matching)
    and comes from the alternating-path cover. When it is one-sided, the rest
    works on the short side's lines. Forcing a zero cell (i, j) leaves a
    remainder of a rows zero at j and b columns zero in row i; the cell weighs
    2 + a + b - nu for the remainder's maximum matching nu, and its block is
    the cover's selection, the same for every maximum matching: of the
    heaviest blocks (R, C) through the cell, closed under (R & R', C | C') and
    (R | R', C & C') (Dulmage-Mendelsohn), the one with the fewest rows of f.
    With at most _SHORT_SIDE short-side lines, the sets S of them and the
    lines Z zero on all of S give every heaviest block; those through the
    row-major-first heaviest cell all have it first, so the least by weight,
    first cell, then rows of f is the answer, and no further matching is
    solved. Otherwise a cell replaces the best only when heavier, or equally
    heavy and earlier in row-major order, so the order cells are decided in
    does not matter. A cell is skipped when a bound on nu shows it cannot win:
    Konig's nu >= ceil(e / D) for a remainder of e ones and degrees at most D,
    or the global pairs inside the remainder, which also warm-start every cell
    solved. The first zero cell is solved first; the others are grouped by the
    short side's lines, heaviest bound first, and a group with two or more
    cells that can still win gets one _Relaxation, whose heavy column decides
    the group and whose caps otherwise prune the cells solved.
    """
    n = f.cols
    rows_in, cols_in = _independent_selection(f.bits, n, match_left)
    if rows_in and cols_in:
        return ZeroBlockWitness(tuple(rows_in), tuple(cols_in))
    masks, full = f.masks, (1 << n) - 1
    # cell (i, j) of f has the key i * n + j, so the earlier of two equally heavy cells has the lower key
    first = next((i * n + (~mask & mask + 1).bit_length() - 1 for i, mask in enumerate(masks) if mask != full), None)
    if first is None:
        return None

    def cell_block(key: int) -> ZeroBlockWitness:
        """The block the cover selects once the zero cell with this key is forced."""
        i, j = divmod(key, n)
        cand_rows = ones((1 << f.rows) - 1 ^ ft.masks[j] ^ 1 << i)
        cand_cols = ones(full ^ masks[i] ^ 1 << j)
        sub_adj, sub_match = _submatching(f.bits, match_left, cand_rows, cand_cols)
        sub_rows, sub_cols = _independent_selection(sub_adj, len(cand_cols), sub_match)
        rows_sel = tuple(sorted({i} | {cand_rows[r] for r in sub_rows}))
        cols_sel = tuple(sorted({j} | {cand_cols[c] for c in sub_cols}))
        return ZeroBlockWitness(rows_sel, cols_sel)

    # a one-sided selection means the matching saturates the short side (Konig): g is f with that side as rows,
    # matched in full by g_match, g's cell (i, j) has the key i * di + j * dj, and sign is -1 when g is f transposed
    if f.rows <= n:
        g, g_match, di, dj, sign = f, match_left, n, 1, 1
    else:
        g, g_match, di, dj, sign = f.transpose(), [-1] * n, 1, n, -1
        for r, c in enumerate(match_left):
            if c >= 0:
                g_match[c] = r
    g_masks, gm, gn = g.masks, g.rows, g.cols
    all_rows, all_cols = (1 << gm) - 1, (1 << gn) - 1

    if gm <= _SHORT_SIDE:
        # unions[S] is the union of the rows in S, S as a bit set; blocks rank by weight, the key of their first cell,
        # (min S, min zeros), and then f's rows, fewest first: sign * |S|
        unions = [0]
        for mask in g_masks:
            unions += [union | mask for union in unions]
        blocks = []
        for s in range(1, len(unions)):
            zeros = all_cols ^ unions[s]
            if zeros:
                key = ((s & -s).bit_length() - 1) * di + ((zeros & -zeros).bit_length() - 1) * dj
                size = s.bit_count()
                blocks.append((-size - zeros.bit_count(), key, sign * size, s))
        s = min(blocks)[3]
        lines, zeros = tuple(ones(s)), tuple(ones(all_cols ^ unions[s]))
        return ZeroBlockWitness(lines, zeros) if sign > 0 else ZeroBlockWitness(zeros, lines)

    gt, ft = (f, g) if sign < 0 else (f.transpose(),) * 2  # the transposes of g and f
    g_col_masks = gt.masks

    best = cell_block(first)
    weight = best.weight
    # a plane of order k - 1: m = n = k^2 - k + 1, k >= 3, k ones per row, no two rows sharing two columns.
    # There N N^T = (k - 1) I + J caps every zero a x b block at a + b <= n - k + 1 (expander mixing), so the
    # first zero cell, which reaches that, is a heaviest cell and wins every tie
    k = g_masks[0].bit_count()
    if gm == gn == k * k - k + 1 and k >= 3 and weight == gn - k + 1:
        if all(mask.bit_count() == k for mask in g_masks) and _pair_scan(gn, zip(g_masks, g.bits))[1] is None:
            return best

    g_adj, g_col_adj, best_key = g.bits, gt.bits, first

    def beats(w: int, key: int) -> bool:
        return w > weight or w == weight and key < best_key

    # no column of a remainder forcing column j holds more ones than col_deg[j]
    col_deg = [max([(other & ~mask).bit_count() for other in g_col_masks]) for mask in g_col_masks]
    partner = {c: 1 << r for r, c in enumerate(g_match)}
    # per row of g, the cells whose bounds beat the first cell: (best bound, i, [(bound, key, j)])
    groups = []
    for i, mask in enumerate(g_masks):
        # a remainder row r is zero at the forced column, so it holds exactly overlap[r] ones
        overlap = [(other & ~mask).bit_count() for other in g_masks]
        total, row_deg, b = sum(overlap), max(overlap), gn - 1 - len(g_adj[i])
        # the rows whose partner is a zero of row i (row i's own is a one); those zero at j keep their pair
        kept = all_rows ^ sum(partner.get(c, 0) for c in g_adj[i])
        candidates = []
        for j in ones(all_cols ^ mask):
            a = gm - 1 - len(g_col_adj[j])
            e = total - sum(map(overlap.__getitem__, g_col_adj[j]))
            delta = max(row_deg, col_deg[j], 1)
            bound = 2 + a + b - (e + delta - 1) // delta
            if bound <= weight:
                continue
            bound = min(bound, 2 + a + b - (kept & ~g_col_masks[j]).bit_count())
            key = i * di + j * dj
            if bound > weight and key != best_key:
                candidates.append((bound, key, j))
        if candidates:
            groups.append((max(candidates)[0], i, candidates))

    for _, i, candidates in sorted(groups, key=lambda group: -group[0]):
        candidates = [(bound, key, j) for bound, key, j in candidates if beats(bound, key)]
        relaxed = None
        if len(candidates) >= 2:
            relaxed = _Relaxation(g_adj, g_match, g_col_masks, i, g_masks[i])
            if relaxed.heavy:
                key = i * di + relaxed.heavy[0] * dj
                if beats(relaxed.alpha + 1, key):
                    best, weight, best_key = None, relaxed.alpha + 1, key
                continue
        for bound, key, j in candidates:
            if relaxed is not None:
                bound = min(bound, relaxed.cap(g_col_masks[j]))
                if beats(bound, key):
                    bound = min(bound, relaxed.augmented_cap(g_col_masks[j]))
            if not beats(bound, key):
                continue
            block = cell_block(key)
            if beats(block.weight, key):
                best, weight, best_key = block, block.weight, key
    return best if best is not None else cell_block(best_key)


def _submatching(
    adjacency: Sequence[Sequence[int]], match_left: Sequence[int], rows: list[int], cols: list[int]
) -> tuple[list[list[int]], list[int]]:
    """The rows against the columns given, renumbered, with a maximum matching grown from the pairs inside."""
    index = {c: k for k, c in enumerate(cols)}
    sub_adj = [[index[c] for c in adjacency[r] if c in index] for r in rows]
    return sub_adj, bipartite_matching(sub_adj, len(cols), [index.get(match_left[r], -1) for r in rows])


class _Relaxation:
    """Every zero cell of row i at once: the other rows matched against the zero columns of row i.

    alpha = rows + cols - nu is the best selection there. Cell (i, j) weighs
    1 + alpha exactly when column j is heavy: no alternating path from an
    unmatched row reaches it. Without a heavy column, the caps bound each
    cell's weight.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]], match_left: list[int], col_masks: Sequence[int], i: int,
                 mask: int) -> None:
        left = [r for r in range(len(adjacency)) if r != i]
        right = ones((1 << len(col_masks)) - 1 ^ mask)
        sub_adj, sub_match = _submatching(adjacency, match_left, left, right)
        self.alpha = len(left) + len(right) - sum(c >= 0 for c in sub_match)
        self.heavy = [right[k] for k in _independent_selection(sub_adj, len(right), sub_match)[1]]
        # the relaxation's pairs by row and column of the matrix, and its unmatched rows
        self.match = [right[c] if c >= 0 else -1 for c in sub_match]
        self.match.insert(i, -1)
        self.free = sum(1 << r for r in left if self.match[r] < 0)
        self.col_masks = col_masks

    def cap(self, col_mask: int) -> int:
        """augmented_cap without its augmentations (t = 0): no search, so it is tried first."""
        return self.alpha + 1 - max(1, (self.free & col_mask).bit_count())

    def augmented_cap(self, col_mask: int) -> int:
        """min(alpha, 1 + alpha - k - t) bounds cell (i, j) when no column is heavy.

        col_mask holds G, the rows with a one at j, k of them unmatched.
        Dropping G frees the partner of each matched row of G; a free row
        outside G with a one at a freed column augments by one edge. t such
        edges, greedy with distinct rows and columns, leave the remainder a
        matching of nu - (|G| - k) + t.
        """
        spare, t = self.free & ~col_mask, 0
        for r in ones(col_mask & ~self.free):
            hit = spare & self.col_masks[self.match[r]]
            if hit:
                spare ^= hit & -hit
                t += 1
        return self.alpha + 1 - max(1, (self.free & col_mask).bit_count() + t)


@dataclass(frozen=True)
class Biconditional:
    lhs: bool
    rhs: bool

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class DualityReport:
    """v, w, their witnesses, and the equivalences tying them together.

    dual_bound is m + n - v, the best row+column selection when one-sided
    picks are allowed; w_meets_bound records whether the two-sided w
    reaches it (None when the matrix has no zero at all).
    """

    rows: int
    cols: int
    v: int
    w: int
    v_witness: MatchingWitness
    w_witness: ZeroBlockWitness | None
    square_rule: Biconditional | None
    minmax_rule: Biconditional
    strict_rule: Biconditional
    dual_bound: int
    w_meets_bound: bool | None


def duality_report(f: BinaryMatrix) -> DualityReport:
    """Compute v and w and check the equivalences between them.

    For square matrices: v = n exactly when w <= n. In general: v equals
    min(m, n) exactly when w <= max(m, n), equivalently v falls short
    exactly when some zero block exceeds max(m, n). Since v <= min(m, n),
    the strict rule is the minmax rule negated on both sides and the square
    rule is the minmax rule at m = n, so one check covers all three. A
    violation would mean an implementation bug and raises RuntimeError.
    """
    m, n = f.rows, f.cols
    match_left = bipartite_matching(f.bits, n)
    v_wit, w_wit = _matching_witness(match_left), _zero_block(f, match_left)
    v = v_wit.size
    w = 0 if w_wit is None else w_wit.weight
    minmax_rule = Biconditional(v == min(m, n), w <= max(m, n))
    if not minmax_rule.holds:
        name = "square" if m == n else "minmax"
        raise RuntimeError(f"duality {name} rule failed on {m}x{n} matrix: v={v}, w={w}")
    square_rule = minmax_rule if m == n else None
    strict_rule = Biconditional(not minmax_rule.lhs, not minmax_rule.rhs)
    return DualityReport(
        rows=m,
        cols=n,
        v=v,
        w=w,
        v_witness=v_wit,
        w_witness=w_wit,
        square_rule=square_rule,
        minmax_rule=minmax_rule,
        strict_rule=strict_rule,
        dual_bound=m + n - v,
        w_meets_bound=None if w_wit is None else w == m + n - v,
    )


def decompose_regular(f: BinaryMatrix, k: int) -> list[BinaryMatrix]:
    """Split a k-regular square 0/1 matrix into k permutation matrices.

    Repeatedly extracts a perfect matching on the remaining ones and
    removes it; after step t the remainder is (k - t)-regular, so the next
    matching always exists.
    """
    if f.rows != f.cols:
        raise ValueError(f"matrix must be square, got {f.rows}x{f.cols}")
    if k < 1:
        raise ValueError(f"regularity degree must be positive, got {k}")
    if any(s != k for s in f.row_sums()) or any(s != k for s in f.col_sums()):
        raise ValueError(f"matrix is not {k}-regular")
    n = f.rows
    adjacency = list(map(list, f.bits))
    parts: list[BinaryMatrix] = []
    for _ in range(k):
        match_left = bipartite_matching(adjacency, n)
        if any(c < 0 for c in match_left):
            raise RuntimeError("regular matrix lost its perfect matching; this cannot happen")
        for r, c in enumerate(match_left):
            adjacency[r].remove(c)
        parts.append(BinaryMatrix.from_masks(n, [1 << c for c in match_left]))
    if any(adjacency):
        raise RuntimeError("decomposition left ones behind; this cannot happen")
    return parts
