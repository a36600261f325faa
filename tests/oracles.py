"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive and independent of the package
internals: subset enumeration, permutation backtracking and a plain
augmenting-path matching. Slow but trustworthy at the sizes the tests use.
augmenting_path_matching follows the same deterministic search order as the
package's bipartite_matching, from an empty or a given partial matching with
a fresh visited list per search, so its matchings and per_cell_zero_block's
witnesses can be compared with the package's tuple for tuple.
"""

from itertools import combinations, permutations, product


def brute_max_independent_ones(rows: int, cols: int, data) -> int:
    """Largest 1-selection with distinct rows and columns, by subset DP.

    Tracks every achievable set of used columns as a bitmask while sweeping
    the rows; fine up to about 8 columns.
    """
    masks = {0}
    for r in range(rows):
        row_cols = [c for c in range(cols) if data[r * cols + c]]
        extended = set(masks)
        for mask in masks:
            for c in row_cols:
                bit = 1 << c
                if not mask & bit:
                    extended.add(mask | bit)
        masks = extended
    return max(bin(mask).count("1") for mask in masks)


def brute_max_zero_weight(rows: int, cols: int, data) -> int:
    """Best rows + cols over all-zero submatrices with both sides nonempty.

    For a fixed column set the best row set is simply every row that is
    zero on all of those columns, so enumerating column sets is exhaustive.
    Returns 0 when the matrix has no zero entry.
    """
    best = 0
    for size in range(1, cols + 1):
        for col_set in combinations(range(cols), size):
            zero_rows = sum(
                1 for r in range(rows) if all(not data[r * cols + c] for c in col_set)
            )
            if zero_rows:
                best = max(best, zero_rows + size)
    return best


def unit_diagonal_squares(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every n x n Latin square on 1..n whose diagonal is all ones.

    Row-by-row backtracking over full permutations; the counts are
    1, 2, 24, 1344 for n = 2..5.
    """
    results: list[tuple[tuple[int, ...], ...]] = []

    def extend(rows: list[tuple[int, ...]]) -> None:
        r = len(rows)
        if r == n:
            results.append(tuple(rows))
            return
        for perm in permutations(range(1, n + 1)):
            if perm[r] != 1:
                continue
            if any(perm[c] == prev[c] for prev in rows for c in range(n)):
                continue
            extend(rows + [perm])

    extend([])
    return results


def row_agreements(row_a, row_b) -> int:
    return sum(x == y for x, y in zip(row_a, row_b))


def mpls_violations(squares):
    """verify_mpls's violation strings from a plain scan of every row pair.

    squares are row tuples; the order is square pairs i < j, then the rows
    of square i, then the rows of square j.
    """
    violations = []
    for i, j in combinations(range(len(squares)), 2):
        for ra, row_a in enumerate(squares[i]):
            for rb, row_b in enumerate(squares[j]):
                agree = row_agreements(row_a, row_b)
                if agree != 1:
                    violations.append(
                        f"squares {i} and {j}: rows {ra} and {rb} agree in {agree} columns, expected 1"
                    )
    return violations


def companion_placements(host, companion):
    """For each companion row s, the (row, column, symbol) cells where host meets it.

    A cell scan of every host row against companion row s; meant for
    projective pairs, where each host row yields exactly one cell.
    """
    n = len(host)
    return [
        [(r, c, host[r][c]) for r in range(n) for c in range(n) if host[r][c] == companion[s][c]]
        for s in range(n)
    ]


def brute_four_independent(point_count: int, lines):
    """The first 4-subset of points with no three on a common line, or None."""
    line_sets = [set(line) for line in lines]
    for quad in combinations(range(point_count), 4):
        if all(len(line & set(quad)) <= 2 for line in line_sets):
            return quad
    return None


def lines_pairwise_meet(lines) -> bool:
    """True when every two lines share a point, by intersecting every pair."""
    sets = [set(line) for line in lines]
    return all(a & b for a, b in combinations(sets, 2))


def poly_product_field_tables(p: int, modulus):
    """GF(p^k) addition, product and inverse tables from polynomial arithmetic.

    Element e is the polynomial whose coefficients are the base-p digits of
    e, lowest first. Sums add digits mod p; products are schoolbook
    convolutions reduced by long division by the monic modulus; each
    inverse is found by searching its row for 1 (0 for the zero element).
    """
    k = len(modulus) - 1
    q = p**k

    def decode(e):
        return [e // p**i % p for i in range(k)]

    def encode(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def times(a, b):
        out = [0] * (2 * k - 1)
        for i, x in enumerate(decode(a)):
            for j, y in enumerate(decode(b)):
                out[i + j] = (out[i + j] + x * y) % p
        for top in range(len(out) - 1, k - 1, -1):
            lead = out[top]
            for i, c in enumerate(modulus):
                out[top - k + i] = (out[top - k + i] - lead * c) % p
        return encode(out[:k])

    add = tuple(tuple(encode([(x + y) % p for x, y in zip(decode(a), decode(b))]) for b in range(q)) for a in range(q))
    mul = tuple(tuple(times(a, b) for b in range(q)) for a in range(q))
    inv = tuple(next((b for b in range(1, q) if mul[a][b] == 1), 0) for a in range(q))
    return add, mul, inv


def dot_product_pg2_lines(q: int, add, mul):
    """PG(2, q) lines as point-index lists, by testing every triple against every triple.

    Points and lines are the nonzero triples over 0..q-1 whose first nonzero
    coordinate is 1, sorted; point x lies on line a when
    a0*x0 + a1*x1 + a2*x2 = 0 in the given tables.
    """
    triples = sorted(t for t in product(range(q), repeat=3) if any(t) and next(c for c in t if c) == 1)

    def dot(a, x):
        return add[add[mul[a[0]][x[0]]][mul[a[1]][x[1]]]][mul[a[2]][x[2]]]

    return [[j for j, x in enumerate(triples) if not dot(a, x)] for a in triples]


def geometry_axiom_violation(point_count: int, lines):
    """The first axiom failure as (axiom, witness, message), or None.

    A plain scan with a dict of every covered point pair: lines are
    normalized to sorted point tuples, then checked one by one for range,
    size and pairs met twice, and finally every point pair is looked up.
    """
    lines = [tuple(sorted(set(line))) for line in lines]
    pair_seen = {}
    for idx, line in enumerate(lines):
        for p in line:
            if not 0 <= p < point_count:
                return "point_out_of_range", (idx, p), f"line {idx} uses point {p}, valid range is 0..{point_count - 1}"
        if len(line) < 2:
            return "line_too_small", idx, f"line {idx} has {len(line)} points, need at least 2"
        for pair in combinations(line, 2):
            if pair in pair_seen:
                return "pair_on_two_lines", pair, f"points {pair} lie on lines {pair_seen[pair]} and {idx}"
            pair_seen[pair] = idx
    for pair in combinations(range(point_count), 2):
        if pair not in pair_seen:
            return "pair_on_no_line", pair, f"points {pair} lie on no common line"
    return None


def augmenting_path_matching(adjacency, right_size, partial=None):
    """Maximum matching, rows in increasing order, neighbours in list order.

    partial, a matching in the returned form, is copied and only the rows it
    leaves unmatched start searches. Every search starts from an empty
    visited list; returns each row's column, or -1 for an unmatched row.
    """
    match_left = [-1] * len(adjacency) if partial is None else list(partial)
    match_right = [-1] * right_size
    for r, c in enumerate(match_left):
        if c >= 0:
            match_right[c] = r

    def augment(start):
        seen = [False] * right_size
        came_from = {}
        stack = [start]
        iters = {start: iter(adjacency[start])}
        while stack:
            r = stack[-1]
            advanced = False
            for c in iters[r]:
                if seen[c]:
                    continue
                seen[c] = True
                came_from[c] = r
                owner = match_right[c]
                if owner < 0:
                    while True:
                        prev_owner = came_from[c]
                        next_c = match_left[prev_owner]
                        match_left[prev_owner] = c
                        match_right[c] = prev_owner
                        if prev_owner == start:
                            return True
                        c = next_c
                stack.append(owner)
                iters[owner] = iter(adjacency[owner])
                advanced = True
                break
            if not advanced:
                stack.pop()
        return False

    for r in range(len(adjacency)):
        if match_left[r] < 0:
            augment(r)
    return match_left


def point_line_injection(point_count: int, lines):
    """incident_injection's map: each point's lines listed by hand in index order, matched by augmenting_path_matching."""
    adjacency = [[] for _ in range(point_count)]
    for idx, line in enumerate(lines):
        for p in line:
            adjacency[p].append(idx)
    return dict(enumerate(augmenting_path_matching(adjacency, len(lines))))


def _alternating_cover(adjacency, n_cols, match_left):
    """Rows reached from the unmatched rows by alternating paths, and the columns none reaches."""
    owner = {c: r for r, c in enumerate(match_left) if c >= 0}
    reach_rows = {r for r, c in enumerate(match_left) if c < 0}
    reach_cols = set()
    frontier = list(reach_rows)
    while frontier:
        for c in adjacency[frontier.pop()]:
            if c not in reach_cols:
                reach_cols.add(c)
                if c in owner and owner[c] not in reach_rows:
                    reach_rows.add(owner[c])
                    frontier.append(owner[c])
    return sorted(reach_rows), [c for c in range(n_cols) if c not in reach_cols]


def per_cell_zero_block(rows: int, cols: int, data):
    """max_zero_submatrix's witness as (rows, cols), or None, by the unpruned scan.

    When the largest zero cover from one maximum matching is one-sided,
    every zero cell is forced in turn, in row-major order, and its remainder
    solved by a fresh matching; a strictly heavier cell replaces the best.
    The matchings come from augmenting_path_matching, whose search order is
    the package's, so the witness is compared tuple for tuple, not merely by
    weight.
    """

    def cell(r, c):
        return data[r * cols + c]

    adjacency = [[c for c in range(cols) if cell(r, c)] for r in range(rows)]
    top_rows, top_cols = _alternating_cover(adjacency, cols, augmenting_path_matching(adjacency, cols))
    if top_rows and top_cols:
        return tuple(top_rows), tuple(top_cols)
    best = None
    for i, j in product(range(rows), range(cols)):
        if cell(i, j):
            continue
        cand_rows = [r for r in range(rows) if r != i and not cell(r, j)]
        cand_cols = [c for c in range(cols) if c != j and not cell(i, c)]
        sub_adj = [[k for k, c in enumerate(cand_cols) if cell(r, c)] for r in cand_rows]
        sub_rows, sub_cols = _alternating_cover(
            sub_adj, len(cand_cols), augmenting_path_matching(sub_adj, len(cand_cols))
        )
        found = (
            tuple(sorted([i] + [cand_rows[r] for r in sub_rows])),
            tuple(sorted([j] + [cand_cols[c] for c in sub_cols])),
        )
        if best is None or len(found[0]) + len(found[1]) > len(best[0]) + len(best[1]):
            best = found
    return best


def joined_inc_text(rows: int, cols: int, masks) -> str:
    """`.inc` text of the matrix whose row i has cell (i, j) at bit j of masks[i].

    The package's writer before it filled a byte template per row: each row
    is one str.join of its digits, the lines another join.
    """
    lines = [f"{rows} {cols}"]
    for mask in masks:
        lines.append(" ".join(format(mask, f"0{cols}b")[::-1]))
    return "\n".join(lines) + "\n"


def token_inc_masks(text: str):
    """An .inc text read token by token: (row masks, None), or (None, the reader's message for its first error)."""
    leftover = set(text) - set("0123456789 \n")
    if leftover:
        return None, f"illegal character {min(leftover)!r} in matrix text"
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return None, "empty matrix text"
    header = lines[0].split()
    if len(header) != 2:
        return None, "header must be exactly 'rows cols'"
    rows, cols = int(header[0]), int(header[1])
    if rows < 1 or cols < 1:
        return None, "dimensions must be positive"
    if len(lines) - 1 != rows:
        return None, f"expected {rows} data lines, found {len(lines) - 1}"
    masks = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != cols:
            return None, f"line {lineno}: expected {cols} entries, found {len(tokens)}"
        bad = [tok for tok in tokens if tok not in ("0", "1")]
        if bad:
            return None, f"line {lineno}: entry must be 0 or 1, found {bad[0]!r}"
        masks.append(sum(1 << j for j, tok in enumerate(tokens) if tok == "1"))
    return tuple(masks), None
