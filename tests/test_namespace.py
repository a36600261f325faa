"""The lazy package namespace, the modules each CLI subcommand loads, and
the package's imports: standard library only, and each name read where it
is imported.

Module sets are read in a fresh interpreter, since this one has imported
every module already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pglatin
from pglatin.binmat import to_inc_text
from pglatin.canonical import canonicalize, extract_mpls
from pglatin.latin import to_ls_text
from pglatin.planes import build_pg2

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("binmat", "canonical", "geometry", "latin", "matching", "planes")

# runs the CLI on its arguments, then prints the pglatin submodules it loaded and whether it loaded
# dataclasses (None when the interpreter had loaded it before the CLI was imported)
CLI_THEN_MODULES = """
import json, sys
preloaded = "dataclasses" in sys.modules
from pglatin.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m[8:] for m in sys.modules if m.startswith("pglatin."))))
print(json.dumps(None if preloaded else "dataclasses" in sys.modules))
sys.exit(code)
"""


def fresh_python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule_until_one_is_read():
    code = f"""
import sys, pglatin
assert sorted(m for m in sys.modules if m.startswith("pglatin")) == ["pglatin"], sys.modules.keys()
assert pglatin.__version__ == "0.1.0"
for name in {SUBMODULES!r}:
    assert getattr(pglatin, name) is sys.modules["pglatin." + name], name
assert "pglatin.cli" not in sys.modules
"""
    fresh_python(code)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pglatin import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pglatin.__all__)
    assert len(set(pglatin.__all__)) == len(pglatin.__all__) == 61 and pglatin.__all__[-1] == "__version__"


def test_each_name_is_the_object_its_module_defines():
    for name in pglatin.__all__[:-1]:
        value = getattr(pglatin, name)
        module = sys.modules[value.__module__]
        assert module.__name__ in {f"pglatin.{m}" for m in SUBMODULES}, name
        assert value.__name__ == name and getattr(module, name) is value, name


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "ones", "cli_main"):
        with pytest.raises(AttributeError, match=f"module 'pglatin' has no attribute '{name}'"):
            getattr(pglatin, name)
    assert not hasattr(pglatin, "ones")
    assert set(pglatin.__all__) | set(SUBMODULES) <= set(dir(pglatin))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A plane's incidence matrix (p.inc) and its complete square set (sq/), order 3."""
    d = tmp_path_factory.mktemp("cli-modules")
    incidence = build_pg2(3).incidence
    (d / "p.inc").write_text(to_inc_text(incidence))
    (d / "sq").mkdir()
    for idx, square in enumerate(extract_mpls(canonicalize(incidence)).squares, start=1):
        (d / "sq" / f"L{idx}.ls").write_text(to_ls_text(square))
    return d


def cli_modules(d, *argv):
    """The pglatin submodules the subcommand loaded, and whether it loaded dataclasses (None: loaded before)."""
    *report, modules, dataclasses = fresh_python(CLI_THEN_MODULES, *argv, cwd=d).splitlines()
    json.loads("\n".join(report))
    return set(json.loads(modules)), json.loads(dataclasses)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["verify-mpls", "--in-dir", "sq"], {"cli", "binmat", "latin"}),
        (["canon", "--in", "p.inc", "--out", "c.inc", "--meta", "c.json"], {"cli", "binmat", "canonical", "geometry"}),
        (["matching", "--in", "p.inc"], {"cli", "binmat", "matching"}),
        (["decompose", "--in", "p.inc", "--out-dir", "parts"], {"cli", "binmat", "matching"}),
        (["extract", "--in", "p.inc", "--out-dir", "ex"], {"cli", "binmat", "canonical", "geometry", "latin"}),
        (["reconstruct", "--in-dir", "sq", "--out", "r.inc"], {"cli", "binmat", "canonical", "geometry", "latin"}),
        (["verify-plane", "--in", "p.inc"], {"cli", "binmat", "geometry"}),
        (["gen-plane", "--order", "3", "--out", "g.inc"], {"cli", "binmat", "geometry", "planes"}),
    ],
)
def test_subcommand_loads_only_its_modules(inputs, argv, loaded):
    modules, dataclasses = cli_modules(inputs, *argv)
    assert modules == loaded
    # only matching's reports are dataclasses; the round trip's records are built without the module
    if dataclasses is not None:
        assert dataclasses == ("matching" in loaded)


@pytest.mark.parametrize(
    "argv", [["gen-plane", "--order", "3", "--out", "g.inc"], ["verify-plane", "--in", "p.inc"]]
)
def test_plane_subcommands_skip_canonical_latin_and_matching(inputs, argv):
    loaded, _ = cli_modules(inputs, *argv)
    assert "geometry" in loaded and not loaded & {"canonical", "latin", "matching"}
    # only gen-plane builds a plane; verify-plane reads its matrix through geometry alone
    assert ("planes" in loaded) == (argv[0] == "gen-plane")


def test_only_geometry_names_its_private_mask_path():
    # every other module builds or reads a Geometry's masks through geometry_from_incidence and its inverse
    private = {"_line_masks", "_certify", "_from_masks"}
    for path in sorted((SRC / "pglatin").glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = {getattr(node, field, None) for field in ("attr", "id", "name")} & private
            assert not named, f"{path.name}:{node.lineno} names {named}"


def test_only_binmat_maps_ones_over_rows():
    # a matrix's row bit lists are derived once, by BinaryMatrix.bits; every other module reads them there
    for path in sorted((SRC / "pglatin").glob("*.py")):
        if path.name == "binmat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map":
                mapped = [getattr(arg, "id", None) for arg in node.args]
                assert "ones" not in mapped, f"{path.name}:{node.lineno} maps ones over rows"


def test_every_imported_name_is_read():
    # a name a module imports but never reads is dead code or a re-export; the package names its exports in __init__
    for path in sorted((SRC / "pglatin").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                assert name in read, f"{path.name}:{node.lineno} imports {name}, which the module never reads"


def test_package_imports_only_the_standard_library():
    # the scripts also import the package itself
    allowed = {*sys.stdlib_module_names, "pglatin"}
    for path in [*sorted((SRC / "pglatin").glob("*.py")), *sorted((SRC.parent / "scripts").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


def test_only_matching_imports_dataclasses_and_nothing_runs_generated_code():
    # dataclasses costs every CLI child its import and an exec per decorated class; binmat._record replaces it
    for path in sorted((SRC / "pglatin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported = {node.module}
            else:
                imported = set()
            if path.name != "matching.py":
                assert "dataclasses" not in imported, f"{path.name}:{node.lineno} imports dataclasses"
            if isinstance(node, ast.Name):
                assert node.id not in {"exec", "eval", "compile"}, f"{path.name}:{node.lineno} names {node.id}"
