"""CLI exit codes for inputs the README classes as format or verification failures."""

import sys

import pytest

from samples import NON_PLANE_SQUARES
from pglatin.binmat import to_inc_text
from pglatin.canonical import _layout
from pglatin.cli import main
from pglatin.geometry import Geometry, incidence_from_geometry
from pglatin.latin import LatinSquare, to_ls_text


@pytest.fixture
def mixed_dir(tmp_path):
    d = tmp_path / "mixed"
    d.mkdir()
    (d / "L1.ls").write_text(to_ls_text(LatinSquare.from_rows([[1, 2, 3], [3, 1, 2], [2, 3, 1]])))
    (d / "L2.ls").write_text(to_ls_text(LatinSquare.from_rows([[1, 2], [2, 1]])))
    return d


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-mpls", "--in-dir", "{d}"],
        ["reconstruct", "--in-dir", "{d}", "--out", "{d}/out.inc"],
        ["resolve", "--in-dir", "{d}", "--target", "1"],
    ],
)
def test_mixed_square_orders_are_a_format_error(argv, mixed_dir, capsys):
    code = main([arg.format(d=mixed_dir) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "format error: L2.ls has order 2, expected 3 as in L1.ls\n"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("x.inc", ["matching", "--in", "x.inc"]),
        ("sq/L1.ls", ["verify-mpls", "--in-dir", "sq"]),
        ("g.json", ["classify", "--in", "g.json"]),
    ],
)
def test_undecodable_input_is_a_format_error(name, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sq").mkdir()
    (tmp_path / name).write_bytes(b"\xff 1\n")
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "format error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


# longer than Python's int-digit limit (4,300 digits by default); binary row digits are exempt from it
BIG = "9" * 5000


@pytest.mark.parametrize(
    "name, text, argv",
    [
        pytest.param("x.inc", f"{BIG} 1\n1\n", ["verify-plane", "--in", "x.inc"], id="inc-header"),
        pytest.param("sq/L1.ls", f"{BIG}\n1\n", ["verify-mpls", "--in-dir", "sq"], id="ls-header"),
        pytest.param("sq/L1.ls", f"2\n1 {BIG}\n2 1\n", ["verify-mpls", "--in-dir", "sq"], id="ls-entry"),
        pytest.param(
            "g.json", f'{{"points": {BIG}, "lines": []}}', ["classify", "--in", "g.json"], id="json",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="without the limit the number is a value failure"
            ),
        ),
    ],
)
def test_number_past_the_digit_limit_is_a_format_error(name, text, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sq").mkdir()
    (tmp_path / name).write_text(text)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("format error: ") and captured.err.count("\n") == 1, captured.err


def test_over_deep_json_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text("[" * 200_000)
    code = main(["classify", "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("format error: maximum recursion depth exceeded")
    assert captured.err.count("\n") == 1


def test_verify_plane_rejects_large_near_pencil(tmp_path, capsys):
    g = Geometry(120, (tuple(range(119)),) + tuple((p, 119) for p in range(119)))
    path = tmp_path / "pencil.inc"
    path.write_text(to_inc_text(incidence_from_geometry(g)))
    code = main(["verify-plane", "--in", str(path)])
    assert code == 1
    assert '"first_def": false' in capsys.readouterr().out


def test_block_layout_of_non_projective_squares_is_no_plane(tmp_path, monkeypatch, capsys):
    # the layout passes verify_block_form, but every step that needs a plane still tests for one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.inc").write_text(to_inc_text(_layout(4, NON_PLANE_SQUARES)))
    for argv in (
        ["canon", "--in", "x.inc", "--out", "c.inc", "--meta", "m.json"],
        ["extract", "--in", "x.inc", "--out-dir", "sq"],
        ["verify-plane", "--in", "x.inc"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "error: points (12, 14) lie on lines 11 and 13\n")
    assert [path.name for path in tmp_path.iterdir()] == ["x.inc"]
    assert main(["matching", "--in", "x.inc"]) == 0


def _snapshot(d):
    return {path.name: path.read_bytes() for path in d.iterdir()}


@pytest.mark.parametrize(
    "command, name, count", [("extract", "L{}.ls", lambda q: q - 1), ("decompose", "P{}.inc", lambda q: q + 1)]
)
def test_out_dir_with_stale_numbered_files_is_refused(command, name, count, tmp_path, capsys):
    for q in (2, 3):
        assert main(["gen-plane", "--order", str(q), "--out", str(tmp_path / f"p{q}.inc")]) == 0
    out = tmp_path / "out"

    def run(q):
        return main([command, "--in", str(tmp_path / f"p{q}.inc"), "--out-dir", str(out)])

    assert run(3) == 0
    written = _snapshot(out)
    assert sorted(written) == sorted(name.format(i) for i in range(1, count(3) + 1))
    assert run(3) == 0  # a rerun at the same order overwrites every file
    assert _snapshot(out) == written
    capsys.readouterr()

    assert run(2) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out} already holds {name.format(count(3))}, which this run would not overwrite\n"
    assert _snapshot(out) == written

    padded = out / name.format("01")
    padded.write_bytes(written[name.format(1)])
    assert run(3) == 2
    assert capsys.readouterr().err == f"error: {out} already holds {padded.name}, which this run would not overwrite\n"
    assert _snapshot(out) == {**written, padded.name: written[name.format(1)]}


def test_separator_line_in_a_square_file_is_a_format_error(tmp_path, capsys):
    (tmp_path / "L1.ls").write_text("2\n1 2\n2 1\n#\n2\n1 2\n2 1\n")
    code = main(["verify-mpls", "--in-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "format error: illegal character '#' in square text\n"


# file numbers are ASCII digits: L１.ls (fullwidth 1), L١.ls (Arabic-Indic 1) and L５.ls are no numbered files
def test_non_ascii_digits_do_not_number_a_square_file(tmp_path, capsys):
    only = tmp_path / "only"
    only.mkdir()
    (only / "L１.ls").write_text("2\n1 2\n2 1\n")
    assert main(["verify-mpls", "--in-dir", str(only)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"format error: no L<i>.ls files in {only}\n")

    beside = tmp_path / "beside"
    beside.mkdir()
    (beside / "L1.ls").write_text("2\n1 2\n2 1\n")
    (beside / "L١.ls").write_text("2\n1 2\n2 1\n")
    assert main(["verify-mpls", "--in-dir", str(beside)]) == 0
    assert '"is_complete": true' in capsys.readouterr().out


def test_extract_writes_beside_a_non_ascii_numbered_file(tmp_path, capsys):
    assert main(["gen-plane", "--order", "3", "--out", str(tmp_path / "p.inc")]) == 0
    out = tmp_path / "out"
    out.mkdir()
    (out / "L５.ls").write_bytes(b"kept")
    assert main(["extract", "--in", str(tmp_path / "p.inc"), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(path.name for path in out.iterdir()) == ["L1.ls", "L2.ls", "L５.ls"]
    assert (out / "L５.ls").read_bytes() == b"kept"


# integer options take ASCII digits after an optional minus only, where int() also reads all four
@pytest.mark.parametrize("value", ["３", " 3 ", "1_1", "+3"])
@pytest.mark.parametrize(
    "option, argv",
    [
        ("--order", ["gen-plane", "--out", "p.inc", "--order", "{v}"]),
        ("--seed", ["--seed", "{v}", "gen-plane", "--out", "p.inc", "--order", "3"]),
        ("--target", ["resolve", "--in-dir", "sq", "--target", "{v}"]),
    ],
)
def test_integer_options_refuse_what_only_int_reads(option, argv, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sq").mkdir()
    assert main([arg.format(v=value) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["sq"]
