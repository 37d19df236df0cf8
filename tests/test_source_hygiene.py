"""Every name a library module imports is used in that module.

A deletion that leaves an import behind fails here.  An import line that
carries ``# noqa: F401`` is exempt: such a binding is kept on purpose
(``charsolve`` keeps ``weyl_dim`` for the benchmark tracer to wrap).

The packed monomial key format belongs to ``csmodel``: no other module
names ``pack`` or ``unpack``.  The set-up path and both solvers also run
without importing numpy, which only the torus oracle uses.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "charkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in ``source`` and never referenced."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.add(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = ("from .lie_core import (\n"
              "    RANK, ZERO_WEIGHT,\n"
              "    weyl_dim,  # noqa: F401\n"
              ")\n"
              "import os.path\n"
              "print(RANK)\n")
    assert unused_imports(source) == ["ZERO_WEIGHT", "os"]


def packed_key_names(source):
    """Every mention of ``pack`` or ``unpack`` in ``source``: a name, an
    attribute or an imported binding."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name.split(".")[-1] for alias in node.names]
    return sorted(n for n in found if n in ("pack", "unpack"))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "csmodel.py"],
    ids=lambda p: p.name)
def test_only_csmodel_knows_the_packed_key_format(path):
    assert packed_key_names(path.read_text()) == []


def test_a_packed_key_mention_is_caught():
    source = ("from .csmodel import pack\n"
              "from . import csmodel\n"
              "print(pack((1,)), csmodel.unpack(1))\n")
    assert packed_key_names(source) == ["pack", "pack", "unpack"]


def test_setup_and_solvers_do_not_import_numpy():
    # numpy is the torus oracle's alone; importing it costs about as much
    # as the whole set-up path.
    script = (
        "import sys\n"
        "import charkit\n"
        "_, _, table = charkit.build_a(charkit.QuadraticCorpus.load_default())\n"
        "m = (0, 0, 0, 0, 0, 1, 1)\n"
        "assert table.character(m) == table.character_m2(m)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
