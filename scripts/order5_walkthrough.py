#!/usr/bin/env python3
"""Walk the full order-5 pipeline and print every intermediate object.

Builds the classical plane of order 5, canonicalizes its incidence matrix,
extracts the four mutually projective squares, resolves the first square
into transversals, and rebuilds the matrix to confirm the round trip.
"""

import argparse

from pglatin import (
    build_pg2,
    canonicalize,
    extract_mpls,
    pair_coverage,
    plane_check,
    reconstruct,
    resolvability_report,
    verify_mpls,
)
from pglatin.geometry import geometry_from_incidence


def show_matrix(m, label):
    print(f"{label} ({m.rows}x{m.cols}):")
    for i in range(m.rows):
        print("  " + "".join(str(x) for x in m.row(i)))
    print()


def show_square(sq, label):
    print(f"{label}:")
    for row in sq.entries:
        print("  " + " ".join(str(x) for x in row))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=5, help="plane order (prime power)")
    parser.add_argument("--matrices", action="store_true", help="also dump the 0/1 matrices")
    args = parser.parse_args()
    q = args.order

    bundle = build_pg2(q)
    print(f"plane of order {q}: v = b = {bundle.geometry.v}")
    verdict = plane_check(bundle.geometry)
    print(f"definition checks: first = {verdict.first_def}, second = {verdict.second_def}\n")

    form = canonicalize(bundle.incidence)
    if args.matrices:
        show_matrix(form.matrix, "canonical incidence matrix")

    squares = extract_mpls(form)
    print(f"extracted {len(squares.squares)} squares of order {squares.order}")
    for i, sq in enumerate(squares.squares, start=1):
        show_square(sq, f"L{i}")

    report = verify_mpls(squares)
    print(f"pairwise projective: {report.is_mpls}, complete: {report.is_complete}")

    covered = all(
        pair_coverage(squares, i, j)
        for i in range(squares.order)
        for j in range(squares.order)
        if i != j
    )
    print(f"every ordered column pair covers every ordered symbol pair: {covered}")

    if squares.order >= 3:
        res = resolvability_report(squares, 0)
        print(f"L1 resolves {len(res.resolutions)} ways into {squares.order} transversals each")
        for k, resolution in enumerate(res.resolutions, start=1):
            cells = ["".join(f"({r},{c})" for r, c, _ in t.placements) for t in resolution]
            print(f"  resolution {k} (from L{res.companion_indices[k - 1] + 1}):")
            for line in cells:
                print(f"    {line}")

    rebuilt = reconstruct(squares)
    print(f"\nreconstruction matches the canonical matrix: {rebuilt == form.matrix}")
    check = plane_check(geometry_from_incidence(rebuilt))
    print(f"rebuilt matrix passes both definitions: {check.first_def and check.second_def}")


if __name__ == "__main__":
    main()
