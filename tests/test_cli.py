import hashlib
import json
import random
from pathlib import Path

import pytest

from pglatin.binmat import BinaryMatrix, Permutation, from_inc_text, permute, to_inc_text
from pglatin.cli import main
from pglatin.geometry import geometry_to_json, incidence_from_geometry
from pglatin.latin import from_ls_text, to_ls_text
from samples import relabelled_plane


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(out: str):
    return json.loads(out)


class TestGenPlane:
    def test_writes_incidence(self, tmp_path, capsys):
        target = tmp_path / "p.inc"
        code, out, _ = run(capsys, "gen-plane", "--order", "3", "--out", str(target))
        assert code == 0
        payload = read_json(out)
        assert payload["v"] == 13 and payload["b"] == 13 and payload["order"] == 3
        matrix = from_inc_text(target.read_text())
        assert matrix.rows == 13 and matrix.cols == 13

    def test_optional_geometry_json(self, tmp_path, capsys):
        target = tmp_path / "p.inc"
        gjson = tmp_path / "g.json"
        code, _, _ = run(
            capsys, "gen-plane", "--order", "2", "--out", str(target), "--json", str(gjson)
        )
        assert code == 0
        payload = json.loads(gjson.read_text())
        assert payload["points"] == 7 and len(payload["lines"]) == 7

    def test_rejects_non_prime_power(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-plane", "--order", "6", "--out", str(tmp_path / "x.inc"))
        assert code == 1
        assert "prime power" in err

    def test_verbose_chatter(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "--verbose", "gen-plane", "--order", "2", "--out", str(tmp_path / "x.inc")
        )
        assert code == 0 and "order 2" in err


@pytest.fixture
def plane_file(tmp_path, plane_cache):
    path = tmp_path / "plane.inc"
    path.write_text(to_inc_text(plane_cache(3).incidence))
    return path


@pytest.fixture
def squares_dir(tmp_path, canonical_cache):
    from pglatin.canonical import extract_mpls

    squares = extract_mpls(canonical_cache(3))
    d = tmp_path / "squares"
    d.mkdir()
    for i, sq in enumerate(squares.squares, start=1):
        (d / f"L{i}.ls").write_text(to_ls_text(sq))
    return d


class TestCanon:
    def test_outputs_matrix_and_meta(self, tmp_path, capsys, plane_file, canonical_cache):
        out = tmp_path / "c.inc"
        meta = tmp_path / "c.json"
        code, stdout, _ = run(
            capsys, "canon", "--in", str(plane_file), "--out", str(out), "--meta", str(meta)
        )
        assert code == 0
        assert read_json(stdout)["order"] == 3
        canonical = from_inc_text(out.read_text())
        assert canonical == canonical_cache(3).matrix
        info = json.loads(meta.read_text())
        assert set(info) == {"order", "row_perm", "col_perm"}
        original = from_inc_text(plane_file.read_text())
        moved = permute(
            original,
            Permutation(tuple(info["row_perm"])),
            Permutation(tuple(info["col_perm"])),
        )
        assert moved == canonical

    def test_rejects_non_plane(self, tmp_path, capsys):
        bad = tmp_path / "bad.inc"
        bad.write_text(to_inc_text(BinaryMatrix.ones(3, 3)))
        code, _, err = run(
            capsys,
            "canon",
            "--in",
            str(bad),
            "--out",
            str(tmp_path / "c.inc"),
            "--meta",
            str(tmp_path / "c.json"),
        )
        assert code == 1 and "error" in err

    def test_missing_input(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "canon",
            "--in",
            str(tmp_path / "absent.inc"),
            "--out",
            str(tmp_path / "c.inc"),
            "--meta",
            str(tmp_path / "c.json"),
        )
        assert code == 2 and "io error" in err

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.inc"
        bad.write_text("not a matrix\n")
        code, _, err = run(
            capsys,
            "canon",
            "--in",
            str(bad),
            "--out",
            str(tmp_path / "c.inc"),
            "--meta",
            str(tmp_path / "c.json"),
        )
        assert code == 2 and "format error" in err


class TestExtractReconstruct:
    def test_extract_writes_numbered_files(self, tmp_path, capsys, plane_file):
        out_dir = tmp_path / "sq"
        code, stdout, _ = run(capsys, "extract", "--in", str(plane_file), "--out-dir", str(out_dir))
        assert code == 0
        payload = read_json(stdout)
        assert payload["count"] == 2 and payload["order"] == 3
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["L1.ls", "L2.ls"]
        for name in names:
            from_ls_text((out_dir / name).read_text())

    def test_reconstruct_round_trip(self, tmp_path, capsys, plane_file, canonical_cache):
        sq_dir = tmp_path / "sq"
        assert run(capsys, "extract", "--in", str(plane_file), "--out-dir", str(sq_dir))[0] == 0
        rebuilt = tmp_path / "rebuilt.inc"
        code, stdout, _ = run(capsys, "reconstruct", "--in-dir", str(sq_dir), "--out", str(rebuilt))
        assert code == 0
        assert read_json(stdout)["size"] == 13
        assert from_inc_text(rebuilt.read_text()) == canonical_cache(3).matrix

    def test_reconstruct_missing_dir(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "reconstruct", "--in-dir", str(tmp_path / "nope"), "--out", str(tmp_path / "o.inc")
        )
        assert code == 2

    def test_reconstruct_misnumbered_files(self, tmp_path, capsys, squares_dir):
        (squares_dir / "L2.ls").rename(squares_dir / "L5.ls")
        code, _, err = run(
            capsys, "reconstruct", "--in-dir", str(squares_dir), "--out", str(tmp_path / "o.inc")
        )
        assert code == 2 and "numbered" in err

    def test_reconstruct_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(
            capsys, "reconstruct", "--in-dir", str(empty), "--out", str(tmp_path / "o.inc")
        )
        assert code == 2 and "no L<i>.ls files" in err


class TestVerifyPlane:
    def test_accepts_plane(self, capsys, plane_file):
        code, out, _ = run(capsys, "verify-plane", "--in", str(plane_file))
        assert code == 0
        payload = read_json(out)
        assert payload["first_def"] and payload["second_def"] and payload["order"] == 3

    def test_rejects_near_pencil(self, tmp_path, capsys, near_pencil):
        path = tmp_path / "np.inc"
        path.write_text(to_inc_text(incidence_from_geometry(near_pencil)))
        code, out, _ = run(capsys, "verify-plane", "--in", str(path))
        assert code == 1
        payload = read_json(out)
        assert not payload["first_def"] and not payload["second_def"]

    def test_rejects_non_geometry(self, tmp_path, capsys):
        path = tmp_path / "x.inc"
        path.write_text(to_inc_text(BinaryMatrix.ones(2, 2)))
        code, out, err = run(capsys, "verify-plane", "--in", str(path))
        assert (code, out, err) == (1, "", "error: points (0, 1) lie on lines 0 and 1\n")


class TestVerifyMpls:
    def test_accepts_projective_set(self, capsys, squares_dir):
        code, out, _ = run(capsys, "verify-mpls", "--in-dir", str(squares_dir))
        assert code == 0
        payload = read_json(out)
        assert payload["is_mpls"] and payload["is_complete"]

    def test_rejects_broken_set(self, tmp_path, capsys):
        from test_latin import NON_PROJECTIVE_A, NON_PROJECTIVE_B
        from pglatin.latin import LatinSquare

        d = tmp_path / "bad"
        d.mkdir()
        (d / "L1.ls").write_text(to_ls_text(LatinSquare(NON_PROJECTIVE_A)))
        (d / "L2.ls").write_text(to_ls_text(LatinSquare(NON_PROJECTIVE_B)))
        code, out, _ = run(capsys, "verify-mpls", "--in-dir", str(d))
        assert code == 1
        payload = read_json(out)
        assert not payload["is_mpls"] and payload["violations"]


class TestDecompose:
    def test_splits_into_permutations(self, tmp_path, capsys, plane_file):
        out_dir = tmp_path / "parts"
        code, stdout, _ = run(capsys, "decompose", "--in", str(plane_file), "--out-dir", str(out_dir))
        assert code == 0
        assert read_json(stdout)["count"] == 4
        parts = [from_inc_text((out_dir / f"P{i}.inc").read_text()) for i in range(1, 5)]
        total = [0] * (13 * 13)
        for p in parts:
            for i, x in enumerate(p.data):
                total[i] += x
        assert tuple(total) == from_inc_text(plane_file.read_text()).data

    def test_rejects_irregular(self, tmp_path, capsys):
        path = tmp_path / "x.inc"
        path.write_text(to_inc_text(BinaryMatrix.from_rows([[1, 1], [1, 0]])))
        code, _, err = run(capsys, "decompose", "--in", str(path), "--out-dir", str(tmp_path / "p"))
        assert code == 1


class TestMatching:
    def test_reports_witnesses(self, tmp_path, capsys):
        path = tmp_path / "m.inc"
        path.write_text(to_inc_text(BinaryMatrix.from_rows([[1, 1, 0], [1, 1, 1]])))
        code, out, _ = run(capsys, "matching", "--in", str(path))
        assert code == 0
        payload = read_json(out)
        assert payload["v"] == 2 and payload["w"] == 2
        assert payload["w_witness"] == {"cols": [2], "rows": [0]}
        assert len(payload["v_witness"]) == 2

    def test_no_zero_block(self, tmp_path, capsys):
        path = tmp_path / "m.inc"
        path.write_text(to_inc_text(BinaryMatrix.ones(2, 2)))
        code, out, _ = run(capsys, "matching", "--in", str(path))
        assert code == 0
        payload = read_json(out)
        assert payload["w"] == 0 and payload["w_witness"] is None


# sha256 of each P{i}.inc that decompose writes for a seeded relabelling of
# PG(2, 16), and of matching's JSON for one of PG(2, 8), recorded before the
# augmenting-path search became one flat loop; the search order picks every
# permutation and witness, so a search that finds other matchings fails here
DECOMPOSE_DIGESTS = (
    "dacaa2d645f0865b37241ed3a5a352a302d675cb0acc678c7db6a281f140b9f1",
    "3263548deda70b34f6b2e71d5979126e33d6c90d4dca84409a75643e89b93485",
    "8701e991e3a5f2dbb146d0373076ae6985d423034a7e8f2ae10827e3d0d35de8",
    "7a1f99eca673ba1cc5d1ef3af1a83322e6f9e6ce06c6f49d17671bd9b93fdeb9",
    "05a01f6653a4b415d7231be281e4acac792d8880710802563fb31ac0211572d5",
    "9b77b05bd95fae70e8a02ef27f13cdac0de191f106a0a8ab4f0e11f04b4a4d8a",
    "96e17391b1355588085eca708c81b942c71bc68dc1c7f5d5877ac569370c0566",
    "2933d94b815bdaf3cf58835ed9ef69a12a829bbce30a582ab77c23de42c8df6e",
    "d1429e66ab0ba857159460f5794213e02bdc3e55c9080239657e4d63ec8a24c0",
    "55c3d90ac6aa76eaeb60f3f91b60e5ced20e402625ef5add230b3a46d8559230",
    "b68c22054978ea931e70265a449d9efff956ec1b353253ff3ff76b4c50e347c0",
    "c38bd3a0d8779b8ab5746e8256641d56a348d21da5e8ddc074dd50ced82652ce",
    "26e98d1f3016ca304475f5307443bdde65775f74235fcf283dac746ec8734cb8",
    "d48362ace8998a9b09faa26244fb5b81f09fbcfb1f90dbcff0ce2efa2aee24c1",
    "bd4d08316710ee2461c1ade71df15d1ff9c3780147a81a9a4d76b494a03b7cdc",
    "f3ee15ae6c9bdf233e9737a57081635f2f5746cf05709e6c70e5b973d2b01e61",
    "40371cb17e6694859e0d5bcb329ffadfb712b5b8d83ec0a683ebced00447f750",
)
MATCHING_DIGEST = "f5323f45587803c40375362cdf0ca8c281fbe599bacc0d4228e974ec8ea2d85e"
# sha256 of matching's JSON for seeded relabellings of PG(2, q); q = 9 and 16 recorded before
# each matrix kept its rows' bit lists, which the zero-block search reads, and q = 25 before
# the search returned a plane's first zero cell on a plane certificate
PLANE_MATCHING_DIGESTS = {
    9: "2d4a7684e84fa0d1d70e21e6b2fe356b1442d5268aeb8e50563e83659ed06fac",
    16: "c218a2efc558f7d87c5f7f965cbce19c9b26f7df61969aaf68bb4bc1a6d8904a",
    25: "a173ff00866beb664c03b1c1bf7748b8ac14610d05ddfb9478eab8cb824e1708",
}


def test_decompose_of_a_relabelled_plane_is_pinned(tmp_path, capsys):
    path = tmp_path / "p.inc"
    path.write_text(to_inc_text(relabelled_plane(16, random.Random(16))))
    code, out, _ = run(capsys, "decompose", "--in", str(path), "--out-dir", str(tmp_path / "parts"))
    assert code == 0 and read_json(out)["count"] == len(DECOMPOSE_DIGESTS)
    digests = tuple(
        hashlib.sha256((tmp_path / "parts" / f"P{i}.inc").read_bytes()).hexdigest()
        for i in range(1, len(DECOMPOSE_DIGESTS) + 1)
    )
    assert digests == DECOMPOSE_DIGESTS


def test_matching_of_a_relabelled_plane_is_pinned(tmp_path, capsys):
    path = tmp_path / "p.inc"
    path.write_text(to_inc_text(relabelled_plane(8, random.Random(8))))
    code, out, _ = run(capsys, "matching", "--in", str(path))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == MATCHING_DIGEST


@pytest.mark.parametrize("q", sorted(PLANE_MATCHING_DIGESTS))
def test_matching_of_larger_relabelled_planes_is_pinned(q, tmp_path, capsys):
    path = tmp_path / "p.inc"
    path.write_text(to_inc_text(relabelled_plane(q, random.Random(q))))
    code, out, _ = run(capsys, "matching", "--in", str(path))
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == PLANE_MATCHING_DIGESTS[q]


class TestClassify:
    def test_plane(self, tmp_path, capsys, fano):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(geometry_to_json(fano)))
        code, out, _ = run(capsys, "classify", "--in", str(path))
        assert code == 0
        assert read_json(out) == {"kind": "projective_plane", "order": 2}

    def test_pencil(self, tmp_path, capsys, near_pencil):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(geometry_to_json(near_pencil)))
        code, out, _ = run(capsys, "classify", "--in", str(path))
        assert code == 0
        payload = read_json(out)
        assert payload["kind"] == "pencil_with_transversal"
        assert payload["top"] == 3 and payload["transversal"] == [0, 1, 2]

    def test_rejects_unequal_counts(self, tmp_path, capsys, fano):
        from pglatin.geometry import subgeometry

        path = tmp_path / "g.json"
        path.write_text(json.dumps(geometry_to_json(subgeometry(fano, {3, 4, 5, 6}))))
        code, _, err = run(capsys, "classify", "--in", str(path))
        assert code == 1

    def test_rejects_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "classify", "--in", str(path))
        assert code == 2 and "format error" in err

    def test_rejects_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"points": 3}))
        code, _, _ = run(capsys, "classify", "--in", str(path))
        assert code == 2


class TestResolve:
    def test_resolves_order_five(self, tmp_path, capsys, canonical_cache):
        from pglatin.canonical import extract_mpls

        squares = extract_mpls(canonical_cache(5))
        d = tmp_path / "sq"
        d.mkdir()
        for i, sq in enumerate(squares.squares, start=1):
            (d / f"L{i}.ls").write_text(to_ls_text(sq))
        code, out, _ = run(capsys, "resolve", "--in-dir", str(d), "--target", "1")
        assert code == 0
        payload = read_json(out)
        assert payload["verified"] and payload["resolutions"] == 3
        assert payload["transversals_per_resolution"] == 5

    def test_rejects_out_of_range_target(self, capsys, squares_dir):
        code, _, err = run(capsys, "resolve", "--in-dir", str(squares_dir), "--target", "7")
        assert code == 2 and "--target" in err

    def test_rejects_incomplete_set(self, tmp_path, capsys, order5_squares):
        d = tmp_path / "partial"
        d.mkdir()
        (d / "L1.ls").write_text(to_ls_text(order5_squares[0]))
        (d / "L2.ls").write_text(to_ls_text(order5_squares[1]))
        code, _, err = run(capsys, "resolve", "--in-dir", str(d), "--target", "1")
        assert code == 1


class TestSquareFileNames:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-mpls", "--in-dir", "{d}"],
            ["reconstruct", "--in-dir", "{d}", "--out", "{d}/out.inc"],
            ["resolve", "--in-dir", "{d}", "--target", "1"],
        ],
    )
    @pytest.mark.parametrize("reverse", [False, True])
    def test_two_files_for_one_square_are_rejected(self, argv, reverse, squares_dir, capsys, monkeypatch):
        (squares_dir / "L01.ls").write_text((squares_dir / "L2.ls").read_text())
        listing = Path.iterdir
        monkeypatch.setattr(Path, "iterdir", lambda self: iter(sorted(listing(self), reverse=reverse)))
        code, out, err = run(capsys, *(arg.format(d=squares_dir) for arg in argv))
        assert (code, out) == (2, "")
        assert err == "format error: L01.ls and L1.ls both hold square 1\n"

    def test_zero_padded_name_alone_is_read(self, capsys, squares_dir):
        (squares_dir / "L2.ls").rename(squares_dir / "L002.ls")
        code, out, _ = run(capsys, "verify-mpls", "--in-dir", str(squares_dir))
        assert code == 0 and read_json(out)["is_complete"]


class TestArgumentHandling:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_seed_flag_accepted(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "--seed", "5", "gen-plane", "--order", "2", "--out", str(tmp_path / "x.inc")
        )
        assert code == 0

    def test_json_output_is_sorted(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen-plane", "--order", "2", "--out", str(tmp_path / "x.inc"))
        assert code == 0
        keys = list(read_json(out))
        assert keys == sorted(keys)
