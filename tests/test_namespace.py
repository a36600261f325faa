"""The lazy package namespace, the modules each CLI subcommand loads, and
the package's standard-library-only imports.

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

# runs the CLI on its arguments, then prints the pglatin submodules it loaded
CLI_THEN_MODULES = """
import json, sys
from pglatin.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m[8:] for m in sys.modules if m.startswith("pglatin."))))
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
    assert len(set(pglatin.__all__)) == len(pglatin.__all__) == 66 and pglatin.__all__[-1] == "__version__"


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
    *report, modules = fresh_python(CLI_THEN_MODULES, *argv, cwd=d).splitlines()
    json.loads("\n".join(report))
    return set(json.loads(modules))


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["verify-mpls", "--in-dir", "sq"], {"cli", "binmat", "latin"}),
        (["matching", "--in", "p.inc"], {"cli", "binmat", "matching"}),
        (["decompose", "--in", "p.inc", "--out-dir", "parts"], {"cli", "binmat", "matching"}),
    ],
)
def test_subcommand_loads_only_its_modules(inputs, argv, loaded):
    assert cli_modules(inputs, *argv) == loaded


@pytest.mark.parametrize(
    "argv", [["gen-plane", "--order", "3", "--out", "g.inc"], ["verify-plane", "--in", "p.inc"]]
)
def test_plane_subcommands_skip_canonical_latin_and_matching(inputs, argv):
    loaded = cli_modules(inputs, *argv)
    assert {"planes", "geometry"} <= loaded and not loaded & {"canonical", "latin", "matching"}


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
