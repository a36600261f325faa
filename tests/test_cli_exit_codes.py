"""CLI exit codes for inputs the README classes as format or verification failures."""

import pytest

from pglatin.binmat import to_inc_text
from pglatin.cli import main
from pglatin.geometry import Geometry
from pglatin.latin import LatinSquare, to_ls_text
from pglatin.planes import incidence_from_geometry


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


def test_verify_plane_rejects_large_near_pencil(tmp_path, capsys):
    g = Geometry(120, (tuple(range(119)),) + tuple((p, 119) for p in range(119)))
    path = tmp_path / "pencil.inc"
    path.write_text(to_inc_text(incidence_from_geometry(g)))
    code = main(["verify-plane", "--in", str(path)])
    assert code == 1
    assert '"first_def": false' in capsys.readouterr().out
