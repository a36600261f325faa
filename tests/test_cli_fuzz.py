"""Seeded fuzzing of every CLI subcommand with mutated .inc, .ls and geometry JSON inputs.

Every case must end in one of the documented exit codes 0, 1 or 2, with no
exception escaping `main` and no traceback on stderr.
"""

import json
import random

from pglatin.binmat import to_inc_text
from pglatin.canonical import canonicalize, extract_mpls
from pglatin.cli import main
from pglatin.geometry import geometry_to_json
from pglatin.latin import to_ls_text
from pglatin.planes import build_pg2

ALPHABET = "0123456789 \n-#.x[]{},:\"e"


def base_payloads():
    fano, pg3 = build_pg2(2), build_pg2(3)
    squares = extract_mpls(canonicalize(pg3.incidence)).squares
    return [
        to_inc_text(fano.incidence),
        to_inc_text(pg3.incidence),
        to_inc_text(canonicalize(pg3.incidence).matrix),
        to_ls_text(squares[0]),
        to_ls_text(squares[1]),
        json.dumps(geometry_to_json(fano.geometry)),
        json.dumps({"points": 4, "lines": [[0, 1, 2], [0, 3], [1, 3], [2, 3]]}),
    ]


def mutate(text, rng):
    """One random edit: digit and byte flips, truncation, header or count edits, huge numbers."""
    if not text:
        return rng.choice(ALPHABET)
    kind = rng.randrange(-3, 6)
    if kind < 0:  # swap a few digits for others the text already uses, which mostly still parses
        chars = list(text)
        digits = [i for i, ch in enumerate(chars) if ch.isdigit()]
        for _ in range(rng.randint(1, 3) if digits else 0):
            chars[rng.choice(digits)] = chars[rng.choice(digits)]
        return "".join(chars)
    if kind == 0:  # flip a few bytes to arbitrary characters
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            chars[rng.randrange(len(chars))] = rng.choice(ALPHABET)
        return "".join(chars)
    if kind == 1:  # truncate
        return text[: rng.randrange(len(text) + 1)]
    if kind == 2:  # edit the header line
        first, _, rest = text.partition("\n")
        header = " ".join(str(rng.choice([0, 1, 2, 3, 7, 13, 14, -1])) for _ in range(rng.randint(1, 3)))
        return header + "\n" + rest if rest or rng.random() < 0.5 else header
    if kind == 3:  # drop or repeat a line
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        lines[i:i + 1] = [] if rng.random() < 0.5 else [lines[i], lines[i]]
        return "\n".join(lines)
    if kind == 4:  # change one number
        digits = [i for i, ch in enumerate(text) if ch.isdigit()]
        if not digits:
            return text + "1"
        i = rng.choice(digits)
        return text[:i] + str(rng.choice([0, 2, 9, 10, 99, 10**9])) + text[i + 1 :]
    # a huge number in place of the first word, the row count of a matrix or square
    huge = str(rng.choice([10**6, 10**9, 10**30]))
    words = text.split()
    return text.replace(words[0], huge, 1) if words else huge


def subcommands(d):
    return [
        ["canon", "--in", f"{d}/x.inc", "--out", f"{d}/c.inc", "--meta", f"{d}/c.json"],
        ["extract", "--in", f"{d}/x.inc", "--out-dir", f"{d}/ext"],
        ["verify-plane", "--in", f"{d}/x.inc"],
        ["decompose", "--in", f"{d}/x.inc", "--out-dir", f"{d}/parts"],
        ["matching", "--in", f"{d}/x.inc"],
        ["verify-mpls", "--in-dir", f"{d}/sq"],
        ["reconstruct", "--in-dir", f"{d}/sq", "--out", f"{d}/r.inc"],
        ["resolve", "--in-dir", f"{d}/sq", "--target", "1"],
        ["classify", "--in", f"{d}/x.json"],
    ]


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(3)
    bases = base_payloads()
    squares = tmp_path / "sq"
    squares.mkdir()
    (squares / "L2.ls").write_text(bases[4])
    codes = set()
    for case in range(200):
        text = rng.choice(bases)
        for _ in range(rng.choice([1, 1, 2])):
            text = mutate(text, rng)
        for name in ("x.inc", "x.json", "sq/L1.ls"):
            (tmp_path / name).write_text(text)
        argvs = subcommands(tmp_path)
        if case % 25 == 0:
            argvs.append(["gen-plane", "--order", str(rng.choice([-1, 0, 1, 2, 3, 6, 33, 10**9 + 7])),
                          "--out", f"{tmp_path}/g.inc"])
        for argv in argvs:
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, text)
            assert "Traceback" not in err, (argv, text)
            codes.add(code)
    assert codes == {0, 1, 2}
