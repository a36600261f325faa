"""Command-line pipelines over the .inc / .ls / JSON text formats."""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .binmat import BinaryMatrix, FormatError, from_inc_text, to_inc_text

if TYPE_CHECKING:
    from .latin import MplsSet


def _decimal(text: str) -> int:
    """An integer option's value: ASCII digits after an optional minus; int() alone also takes spaces, '+', '_'
    and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pglatin",
        description="projective planes, mutually projective Latin squares, and matching duality",
    )
    parser.add_argument("--seed", type=_decimal, default=0, help="seed for randomized paths (default 0)")
    parser.add_argument("-v", "--verbose", action="store_true", help="progress chatter on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-plane", help="write the incidence matrix of PG(2, q)")
    p.add_argument("--order", type=_decimal, required=True, metavar="Q")
    p.add_argument("--out", type=Path, required=True, metavar="F.inc")
    p.add_argument("--json", type=Path, default=None, metavar="G.json", help="also write the geometry as JSON")

    p = sub.add_parser("canon", help="canonical block form of a plane incidence matrix")
    p.add_argument("--in", dest="input", type=Path, required=True, metavar="F.inc")
    p.add_argument("--out", type=Path, required=True, metavar="C.inc")
    p.add_argument("--meta", type=Path, required=True, metavar="C.json")

    p = sub.add_parser("extract", help="extract the square set from a plane incidence matrix")
    p.add_argument("--in", dest="input", type=Path, required=True, metavar="C.inc")
    p.add_argument("--out-dir", type=Path, required=True, metavar="DIR")

    p = sub.add_parser("reconstruct", help="rebuild the incidence matrix from L1.ls..Lk.ls")
    p.add_argument("--in-dir", type=Path, required=True, metavar="DIR")
    p.add_argument("--out", type=Path, required=True, metavar="F.inc")

    p = sub.add_parser("verify-plane", help="run both plane definitions against a matrix")
    p.add_argument("--in", dest="input", type=Path, required=True, metavar="F.inc")

    p = sub.add_parser("verify-mpls", help="check mutual projectivity of a square set")
    p.add_argument("--in-dir", type=Path, required=True, metavar="DIR")

    p = sub.add_parser("decompose", help="split a regular matrix into permutation matrices")
    p.add_argument("--in", dest="input", type=Path, required=True, metavar="F.inc")
    p.add_argument("--out-dir", type=Path, required=True, metavar="DIR")

    p = sub.add_parser("matching", help="report v, w, and witnesses for a matrix")
    p.add_argument("--in", dest="input", type=Path, required=True, metavar="F.inc")

    p = sub.add_parser("classify", help="pencil-with-transversal or plane, for v = b geometries")
    p.add_argument("--in", dest="input", type=Path, required=True, metavar="G.json")

    p = sub.add_parser("resolve", help="resolve square L<target> into transversals")
    p.add_argument("--in-dir", type=Path, required=True, metavar="DIR")
    p.add_argument("--target", type=_decimal, required=True, metavar="I", help="1-based, matching L<I>.ls")
    return parser


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _read_matrix(path: Path) -> BinaryMatrix:
    return from_inc_text(path.read_text())


def _numbered_files(path: Path, letter: str, suffix: str) -> list[tuple[int, Path]]:
    """(i, file) for each file in path named <letter><i><suffix> with i in ASCII digits, in name order."""
    pattern = re.compile(rf"{letter}([0-9]+){re.escape(suffix)}")
    matches = ((pattern.fullmatch(entry.name), entry) for entry in sorted(path.iterdir()))
    return [(int(match.group(1)), entry) for match, entry in matches if match]


def _refuse_stale(out_dir: Path, letter: str, suffix: str, count: int) -> bool:
    """True, after printing an error, when out_dir holds a numbered file that files 1..count would not overwrite."""
    written = {f"{letter}{i}{suffix}" for i in range(1, count + 1)}
    numbered = _numbered_files(out_dir, letter, suffix) if out_dir.is_dir() else []
    stale = [entry.name for _, entry in numbered if entry.name not in written]
    if stale:
        print(f"error: {out_dir} already holds {stale[0]}, which this run would not overwrite", file=sys.stderr)
    return bool(stale)


def _load_mpls_dir(path: Path) -> MplsSet:
    from .latin import MplsSet, from_ls_text
    found = {}
    for number, entry in _numbered_files(path, "L", ".ls"):
        if found.setdefault(number, entry) != entry:
            raise FormatError(f"{found[number].name} and {entry.name} both hold square {number}")
    if not found:
        raise FormatError(f"no L<i>.ls files in {path}")
    count = len(found)
    if sorted(found) != list(range(1, count + 1)):
        raise FormatError(f"square files must be numbered L1.ls..L{count}.ls, found {sorted(found)}")
    squares = tuple(from_ls_text(found[i].read_text()) for i in range(1, count + 1))
    for i, square in enumerate(squares[1:], start=2):
        if square.order != squares[0].order:
            raise FormatError(f"L{i}.ls has order {square.order}, expected {squares[0].order} as in L1.ls")
    return MplsSet(squares[0].order, squares)


def _cmd_gen_plane(args: argparse.Namespace) -> int:
    from .geometry import geometry_to_json
    from .planes import build_pg2
    bundle = build_pg2(args.order)
    args.out.write_text(to_inc_text(bundle.incidence))
    if args.json is not None:
        args.json.write_text(json.dumps(geometry_to_json(bundle.geometry), sort_keys=True, indent=2) + "\n")
    _note(args, f"built plane of order {args.order}")
    _emit({"b": bundle.geometry.b, "order": args.order, "out": str(args.out), "v": bundle.geometry.v})
    return 0


def _cmd_canon(args: argparse.Namespace) -> int:
    from .canonical import canonicalize
    form = canonicalize(_read_matrix(args.input))
    args.out.write_text(to_inc_text(form.matrix))
    meta = {
        "order": form.order,
        "row_perm": list(form.row_perm.images),
        "col_perm": list(form.col_perm.images),
    }
    args.meta.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    _emit({"inc": str(args.out), "meta": str(args.meta), "order": form.order})
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from .canonical import canonicalize, extract_mpls
    from .latin import to_ls_text
    form = canonicalize(_read_matrix(args.input))
    squares = extract_mpls(form)
    if _refuse_stale(args.out_dir, "L", ".ls", len(squares.squares)):
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for idx, square in enumerate(squares.squares, start=1):
        (args.out_dir / f"L{idx}.ls").write_text(to_ls_text(square))
    _emit({"count": len(squares.squares), "order": squares.order, "out_dir": str(args.out_dir)})
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    from .canonical import reconstruct
    matrix = reconstruct(_load_mpls_dir(args.in_dir))
    args.out.write_text(to_inc_text(matrix))
    _emit({"out": str(args.out), "size": matrix.rows})
    return 0


def _cmd_verify_plane(args: argparse.Namespace) -> int:
    from .geometry import geometry_from_incidence, plane_check
    geometry = geometry_from_incidence(_read_matrix(args.input))
    verdict = plane_check(geometry)
    _emit(
        {
            "b": geometry.b,
            "first_def": verdict.first_def,
            "order": verdict.order,
            "second_def": verdict.second_def,
            "v": geometry.v,
        }
    )
    return 0 if verdict.first_def and verdict.second_def else 1


def _cmd_verify_mpls(args: argparse.Namespace) -> int:
    from .latin import verify_mpls
    squares = _load_mpls_dir(args.in_dir)
    report = verify_mpls(squares)
    _emit(
        {
            "count": len(squares.squares),
            "is_complete": report.is_complete,
            "is_mpls": report.is_mpls,
            "order": squares.order,
            "violations": list(report.violations),
        }
    )
    return 0 if report.is_mpls else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .matching import decompose_regular
    matrix = _read_matrix(args.input)
    degree = matrix.masks[0].bit_count()
    parts = decompose_regular(matrix, degree)
    if _refuse_stale(args.out_dir, "P", ".inc", len(parts)):
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for idx, part in enumerate(parts, start=1):
        (args.out_dir / f"P{idx}.inc").write_text(to_inc_text(part))
    _emit({"count": len(parts), "out_dir": str(args.out_dir)})
    return 0


def _cmd_matching(args: argparse.Namespace) -> int:
    from .matching import duality_report
    report = duality_report(_read_matrix(args.input))
    w_witness = None
    if report.w_witness is not None:
        w_witness = {"cols": list(report.w_witness.cols), "rows": list(report.w_witness.rows)}
    _emit(
        {
            "cols": report.cols,
            "rows": report.rows,
            "v": report.v,
            "v_witness": [list(pair) for pair in report.v_witness.pairs],
            "w": report.w,
            "w_witness": w_witness,
        }
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .geometry import PencilWithTransversal, classify_v_eq_b, geometry_from_json
    text = args.input.read_text()
    try:
        payload = json.loads(text)
    except (RecursionError, ValueError) as exc:  # nesting too deep, a number past the int-digit limit, bad JSON
        raise FormatError(str(exc)) from None
    geometry = geometry_from_json(payload)
    shape = classify_v_eq_b(geometry)
    if isinstance(shape, PencilWithTransversal):
        _emit({"kind": "pencil_with_transversal", "top": shape.top, "transversal": list(shape.transversal)})
    else:
        _emit({"kind": "projective_plane", "order": shape.order})
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    from .latin import resolvability_report
    squares = _load_mpls_dir(args.in_dir)
    if not 1 <= args.target <= len(squares.squares):
        print(f"error: --target must sit in 1..{len(squares.squares)}", file=sys.stderr)
        return 2
    report = resolvability_report(squares, args.target - 1)
    _emit(
        {
            "resolutions": len(report.resolutions),
            "target": args.target,
            "transversals_per_resolution": squares.order,
            "verified": report.verified,
        }
    )
    return 0 if report.verified else 1


_HANDLERS = {
    "gen-plane": _cmd_gen_plane,
    "canon": _cmd_canon,
    "extract": _cmd_extract,
    "reconstruct": _cmd_reconstruct,
    "verify-plane": _cmd_verify_plane,
    "verify-mpls": _cmd_verify_mpls,
    "decompose": _cmd_decompose,
    "matching": _cmd_matching,
    "classify": _cmd_classify,
    "resolve": _cmd_resolve,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (FormatError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
