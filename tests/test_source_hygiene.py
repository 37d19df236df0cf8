"""The library in ``src/charkit`` holds no dead code.

Every name a library module imports is used in that module.  A deletion
that leaves an import behind fails here.  An import line that carries
``# noqa: F401`` is exempt: such a binding is kept on purpose
(``charsolve`` keeps ``weyl_dim`` for the benchmark tracer to wrap).

Every function, class and method the library defines, dunders aside, has
a caller outside the tests: a library module, a file under ``bench/`` (the
tracer names its targets by string), or the README's library session.
The check is by name, so a name that some caller uses for anything else
also counts; code that only the tests call belongs in ``tests/``.

The weight key format belongs to ``lie_core``: no other module names its
layout (``_KEY_GUARD``, ``_KEY_ONES``, ``_ROOT_STEPS``, or the closure's
table of steps by key class, ``_ClassSteps`` and ``_CLASS_STEPS``), and no
module packs a key into bytes (``from_bytes``, ``to_bytes``).  The
operator meets a support in one place: no module but ``csmodel`` names
``image_terms``, so the solvers read the operator's images only through
``Restriction.row``.  The
operator's triangle is checked in one place: ``StructuralViolationError``
is raised only in ``Delta1Operator.register_pair``, where the
coefficients enter.
The polynomial text form belongs to ``polyring``: no other module names
its factor table ``_FACTORS`` or the read table ``_READ_FACTORS``; the
read table is ``_FACTORS`` inverted, built from it rather than written out
again; and no module, ``polyring`` included, reads text by a pattern: none
imports ``re`` or names a term pattern ``_TERM_RE``.
The fixture line format belongs to ``fixtures``: only its reader
``_entries`` calls ``_iter_lines``, in the library and the tests alike,
and no other library module builds a ``chi`` line.
A module's underscore names are its own: no library module reaches
another's, neither as an attribute of an imported module
(``fixtures._integer``) nor through ``from .x import _name``.
A certificate is raised, never asserted: ``python -O`` strips an
``assert``, and a failed one reaches the user as a traceback, not as one
``error:`` line.  The only asserts in the library are ``lie_core._check``'s
checks of its constant tables at import.
A bad input is refused, never warned about and read on: no library module
imports ``warnings``.
Method 1 divides only on Python ints: ``charsolve`` names no numpy
division (``divmod``, ``floor_divide`` or ``remainder`` as an attribute,
or imported from numpy), so the builtin ``divmod`` is its one division.
No floating point enters the library: no module holds a float or complex
constant, names ``float`` or ``complex`` (or a numpy ``float*``/``complex*``
type), or imports ``math`` or ``cmath``.
No library function imports a library module in its body: the modules
import each other at module level, where a cycle shows at once.  Only
numpy is imported lazily.
The set-up path, both solvers, a decomposition's one walk and the
Freudenthal recursion also run without importing numpy on the supports
set-up, small solves and z4^3's decomposition meet, and
on the seven fundamental weight systems: numpy is imported by the torus
check (its orbit walk and sum) and by a Method-1 solve on a support of at
least ``charsolve.LEVEL_SOLVE_MIN_SUPPORT`` weights, and by nothing else.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

from charkit import polyring

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "charkit"
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


def defined_names(source):
    """Every function, class and method ``source`` defines, dunders aside."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def referenced_names(source):
    """Every name ``source`` refers to: a name, an attribute, an imported
    binding, or a component of a string that is a dotted path, such as the
    tracer's ``"charkit.csmodel:Delta1Operator"`` or ``"oracle.weyl_orbit"``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found.update(alias.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.:]+", node.value)):
            found.update(re.split(r"[.:]", node.value))
    return found


def uncalled(definitions, callers):
    """The names defined in the ``definitions`` sources that no source in
    ``callers`` refers to."""
    defined = set().union(*map(defined_names, definitions))
    referenced = set().union(*map(referenced_names, callers))
    return sorted(defined - referenced)


def test_every_src_name_has_a_caller_outside_tests():
    readme = (ROOT / "README.md").read_text()
    (session,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    callers = [p.read_text() for p in MODULES]
    callers += [p.read_text() for p in sorted((ROOT / "bench").rglob("*.py"))]
    callers.append(session)
    definitions = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert uncalled(definitions, callers) == []


def test_a_name_without_a_caller_is_caught():
    library = ("class Table:\n"
               "    def __init__(self):\n"
               "        self.rows = helper()\n"
               "    def used(self):\n"
               "        pass\n"
               "    def traced(self):\n"
               "        pass\n"
               "    def only_tested(self):\n"
               "        pass\n"
               "def helper():\n"
               "    return 'only_tested is named in prose only'\n")
    bench = ('TARGETS = (("lib:Table", "traced", "lib.traced"),)\n'
             "Table().used()\n")
    assert uncalled([library], [library, bench]) == ["only_tested"]
    assert uncalled([library], [library]) == ["Table", "only_tested",
                                              "traced", "used"]


def mentions(source, names):
    """Every mention in ``source`` of one of ``names``: a name, an
    attribute or an imported binding."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name.split(".")[-1] for alias in node.names]
    return sorted(n for n in found if n in names)


KEY_LAYOUT = ("_KEY_GUARD", "_KEY_ONES", "_ROOT_STEPS", "_ClassSteps",
              "_CLASS_STEPS")
BYTE_KEYS = ("from_bytes", "to_bytes")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_lie_core_knows_the_weight_key_layout(path):
    names = BYTE_KEYS if path.name == "lie_core.py" else KEY_LAYOUT + BYTE_KEYS
    assert mentions(path.read_text(), names) == []


def test_a_packed_key_mention_is_caught():
    source = ("from .lie_core import _ROOT_STEPS\n"
              "from . import lie_core\n"
              "q = lie_core._KEY_GUARD + int.from_bytes(bytes(e), 'big')\n"
              "e = tuple(q.to_bytes(7, 'big'))\n")
    assert mentions(source, KEY_LAYOUT + BYTE_KEYS) == [
        "_KEY_GUARD", "_ROOT_STEPS", "from_bytes", "to_bytes"]


TEXT_TABLES = ("_FACTORS", "_READ_FACTORS")
TEXT_FORMAT = TEXT_TABLES + ("_TERM_RE", "re")


def text_format_mentions(source):
    """Every mention in ``source`` of the polynomial text form's tables
    and pattern, or of the ``re`` module, imported whole or from."""
    found = mentions(source, TEXT_FORMAT)
    found += ["re" for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.ImportFrom) and node.module == "re"]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_polyring_knows_the_text_form(path):
    owned = TEXT_TABLES if path.name == "polyring.py" else ()
    found = text_format_mentions(path.read_text())
    assert [name for name in found if name not in owned] == []


def test_a_text_form_mention_is_caught():
    source = ("import re as regex\n"
              "from re import fullmatch\n"
              "from .polyring import _FACTORS\n"
              "from . import polyring\n"
              "m = polyring._TERM_RE.match(t) or polyring._READ_FACTORS[t]\n")
    assert text_format_mentions(source) == [
        "_FACTORS", "_READ_FACTORS", "_TERM_RE", "re", "re"]
    assert text_format_mentions((SRC / "polyring.py").read_text())


def test_the_read_table_is_the_factor_table_inverted():
    inverted = {text[1:]: (i, x) for i, table in enumerate(polyring._FACTORS)
                for x, text in table.items() if x}
    assert polyring._READ_FACTORS == inverted
    assert len(inverted) == 7 * 255
    assert inverted["z1"] == (0, 1) and inverted["z7^255"] == (6, 255)
    assert not {"z1^0", "z1^1", "z1^007", "z1^256", "z0", "z8"} & set(inverted)
    # Built from _FACTORS, so the text form is stated once.
    tree = ast.parse((SRC / "polyring.py").read_text())
    (value,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["_READ_FACTORS"]]
    assert isinstance(value, ast.DictComp)
    assert "_FACTORS" in {node.id for node in ast.walk(value)
                          if isinstance(node, ast.Name)}
    assert not [node for node in ast.walk(value)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]


NOT_CSMODEL = [p for p in MODULES if p.name != "csmodel.py"]


@pytest.mark.parametrize("path", NOT_CSMODEL, ids=lambda p: p.name)
def test_only_a_restriction_reads_operator_images(path):
    assert mentions(path.read_text(), ("image_terms",)) == []


def test_an_image_read_outside_a_restriction_is_caught():
    source = ("def solve(table, support, mu):\n"
              "    keys, coeffs = table.operator.image_terms(mu)\n"
              "    return support.row(support.position(mu))\n")
    assert mentions(source, ("image_terms",)) == ["image_terms"]


def scoped_sites(source, hit):
    """The qualified names of the functions in ``source`` that hold a node
    for which ``hit`` is true; a node at module or class level is reported
    under the enclosing scope."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if hit(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def is_named(node, name):
    """Whether ``node`` is ``name``, bare or as the last part of a dotted
    name."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def raise_sites(source, name):
    """The qualified names of the functions in ``source`` that raise the
    exception ``name``, a bare or a dotted name, called or not."""
    def hit(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return is_named(exc, name)

    return scoped_sites(source, hit)


def call_sites(source, name):
    """The qualified names of the functions in ``source`` that call
    ``name``, a bare or a dotted name."""
    return scoped_sites(source, lambda node: isinstance(node, ast.Call)
                        and is_named(node.func, name))


def test_the_triangle_is_refused_only_at_registration():
    sites = [f"{p.name}:{site}" for p in sorted(SRC.glob("*.py"))
             for site in raise_sites(p.read_text(), "StructuralViolationError")]
    assert sites == ["csmodel.py:Delta1Operator.register_pair"]


def test_a_second_raise_site_is_caught():
    source = ("class Op:\n"
              "    def register(self, e):\n"
              "        if e:\n"
              "            raise Refused(e)\n"
              "    def row(self, i):\n"
              "        def inner():\n"
              "            raise errors.Refused\n"
              "        raise ValueError(i)\n"
              "def solve():\n"
              "    try:\n"
              "        pass\n"
              "    except Refused:\n"
              "        raise\n"
              "raise Refused('at import')\n")
    assert raise_sites(source, "Refused") == [
        "Op.register", "Op.row.inner", "<module>"]


def assert_sites(source):
    """The qualified names of the functions in ``source`` that hold an
    ``assert`` statement, one entry per statement."""
    return scoped_sites(source, lambda node: isinstance(node, ast.Assert))


def test_library_certificates_are_raised_not_asserted():
    sites = {f"{p.name}:{site}" for p in sorted(SRC.glob("*.py"))
             for site in assert_sites(p.read_text())}
    assert sites == {"lie_core.py:_check"}


def test_a_library_assert_is_caught():
    source = ("def _check():\n"
              "    assert len(ROOTS) == 63\n"
              "def size(num, den):\n"
              "    q, rem = divmod(num, den)\n"
              "    assert rem == 0, (num, den)\n"
              "    if rem:\n"
              "        raise InvariantError(num)\n"
              "class Table:\n"
              "    def load(self):\n"
              "        assert self.ok\n"
              "assert RANK == 7\n")
    assert assert_sites(source) == ["_check", "size", "Table.load",
                                    "<module>"]


PYTHON_FILES = sorted(SRC.glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def test_only_the_line_reader_reads_fixture_lines():
    sites = [f"{p.name}:{site}" for p in PYTHON_FILES
             for site in call_sites(p.read_text(), "_iter_lines")]
    assert sites == ["fixtures.py:_entries"]


def test_a_second_line_reader_is_caught():
    source = ("def load_a_table(path):\n"
              "    for lineno, line in fixtures._iter_lines(path):\n"
              "        yield line\n"
              "class Reader:\n"
              "    def lines(self, path):\n"
              "        return list(_iter_lines(path))\n"
              "reader = _iter_lines\n")
    assert call_sites(source, "_iter_lines") == ["load_a_table",
                                                  "Reader.lines"]


def is_library(node):
    """Whether an import node imports from the library: a relative import,
    or one of ``charkit``."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "charkit"
    return any(alias.name.split(".")[0] == "charkit" for alias in node.names)


def foreign_private_names(source):
    """Every underscore name, dunders aside, of another library module
    that ``source`` reaches, as sorted ``lineno: what`` strings: one
    imported by ``from .x import _name``, or an attribute of a name bound
    to a library module (``from . import x``, ``import charkit.x as x``),
    directly or down a dotted path."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    found = []
    modules = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or not is_library(node):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            whole = isinstance(node, ast.Import) \
                or node.module in (None, "charkit")
            if whole:
                modules.add(bound)
            elif private(alias.name):
                found.append(f"{node.lineno}: {alias.name}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not private(node.attr):
            continue
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_another_modules_private_names(path):
    assert foreign_private_names(path.read_text()) == []


def test_a_private_name_reached_from_outside_is_caught():
    source = ("from . import fixtures, polyring as poly\n"
              "from .lie_core import RANK, _ROOT_STEPS\n"
              "import charkit.oracle\n"
              "from charkit import csmodel\n"
              "from charkit.tensor import _subtractive_decompose, __doc__\n"
              "n = fixtures._integer(text) + poly._FACTORS[0][RANK]\n"
              "m = charkit.oracle._point_set(1, 2) or csmodel.Table._memo\n"
              "table._cache, self._memo = fixtures.__name__, RANK._bits\n")
    assert foreign_private_names(source) == [
        "2: _ROOT_STEPS", "5: _subtractive_decompose",
        "6: fixtures._integer", "6: poly._FACTORS",
        "7: charkit.oracle._point_set", "7: csmodel.Table._memo"]


def warnings_imports(source):
    """The line numbers of the imports of ``warnings`` in ``source``,
    whole, from, or of a submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [node.lineno for mod in modules
                  if mod.split(".")[0] == "warnings"]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_warns_and_reads_on(path):
    assert warnings_imports(path.read_text()) == []


def test_a_warnings_import_is_caught():
    source = ("import os, warnings\n"
              "from warnings import warn\n"
              "import warnings as w\n"
              "from . import fixtures\n"
              "def load(path):\n"
              "    import warnings\n"
              "    warn_empty = True\n")
    assert warnings_imports(source) == [1, 2, 3, 6]


NUMPY_DIVISION = ("divmod", "floor_divide", "remainder")


def numpy_divisions(source):
    """Every numpy division in ``source``, as sorted ``lineno: what``
    strings: one of ``NUMPY_DIVISION`` as an attribute, or imported from
    numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_DIVISION:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "numpy"):
            found += [f"{node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names
                      if alias.name in NUMPY_DIVISION]
    return sorted(found)


def test_method_1_divides_only_on_python_ints():
    assert numpy_divisions((SRC / "charsolve.py").read_text()) == []


def test_a_numpy_division_is_caught():
    source = ("import numpy as np\n"
              "from numpy import floor_divide, add\n"
              "q, rem = divmod(num, gap)\n"
              "c, rem = np.divmod(num, np.maximum(gap, 1))\n"
              "c = numpy.floor_divide(num, gap) + num // gap\n"
              "bad = np.remainder(num, gap).any() or num % gap\n")
    assert numpy_divisions(source) == [
        "2: from numpy import floor_divide", "4: np.divmod",
        "5: numpy.floor_divide", "6: np.remainder"]


def chi_line_builders(source):
    """The line numbers of the string constants and f-strings in
    ``source`` that begin a ``chi`` fixture line: ``chi``, a key, then
    `` = ``, with each replacement field read as ``{}``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}"
                           for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if re.match(r"chi \S+ = ", text):
            found.add(node.lineno)
    return sorted(found)


NOT_FIXTURES = [p for p in MODULES if p.name != "fixtures.py"]


@pytest.mark.parametrize("path", NOT_FIXTURES, ids=lambda p: p.name)
def test_only_fixtures_builds_a_chi_line(path):
    assert chi_line_builders(path.read_text()) == []


def test_a_chi_line_built_elsewhere_is_caught():
    source = ('label = f"chi {format_weight(m)}"\n'
              'line = f"chi {format_weight(m)} = {chi.to_text()}\\n"\n'
              'FIXTURE = "chi 0000001 = 1*z7"\n'
              'tag = "chi"\n')
    assert chi_line_builders(source) == [2, 3]
    assert len(chi_line_builders((SRC / "fixtures.py").read_text())) == 1


def local_library_imports(source):
    """The qualified names of the functions in ``source`` whose body
    imports a library module: a relative import or one of ``charkit``."""
    def hit(node):
        return isinstance(node, (ast.Import, ast.ImportFrom)) \
            and is_library(node)

    return [site for site in scoped_sites(source, hit) if site != "<module>"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports_a_library_module(path):
    assert local_library_imports(path.read_text()) == []


def test_a_function_level_library_import_is_caught():
    source = ("from .lie_core import RANK\n"
              "import charkit.polyring\n"
              "def build(corpus):\n"
              "    from .charsolve import CharacterTable\n"
              "    import numpy as np\n"
              "class Table:\n"
              "    def load(self):\n"
              "        from . import fixtures\n"
              "        import charkit.oracle as oracle\n"
              "    def solve(self):\n"
              "        import numpy\n"
              "        from numpy import add\n")
    assert local_library_imports(source) == ["build", "Table.load",
                                             "Table.load"]


def test_setup_and_solvers_do_not_import_numpy():
    # numpy is imported only by the torus check and by Method-1 solves on
    # large supports; importing it costs about as much as the whole set-up
    # path, which stays without it, as do solves and decompositions on
    # small supports, Freudenthal, whose orbit sizes are closed-form, and
    # the minuscule rule, whose weights are found by their norm.
    script = (
        "import sys\n"
        "import charkit\n"
        "from charkit.lie_core import FUNDAMENTAL_DIMS, FUNDAMENTAL_WEIGHTS\n"
        "from charkit.oracle import freudenthal, minuscule_series\n"
        "from charkit.tensor import monomial_decompose\n"
        "_, _, table = charkit.build_a(charkit.QuadraticCorpus.load_default())\n"
        "m = (0, 0, 0, 0, 0, 1, 1)\n"
        "assert table.character(m) == table.character_m2(m)\n"
        "series = monomial_decompose((0, 0, 0, 3, 0, 0, 0), table)\n"
        "assert len(series.terms) == 305\n"
        "totals = [freudenthal(lam).total() for lam in FUNDAMENTAL_WEIGHTS]\n"
        "assert totals == list(FUNDAMENTAL_DIMS), totals\n"
        "assert len(minuscule_series(FUNDAMENTAL_WEIGHTS[3])) == 7\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def floating_point(source):
    """Every float or complex constant, ``float``/``complex`` name (bare,
    or an attribute such as ``np.float64``) and ``math``/``cmath`` import
    in ``source``, as sorted ``lineno: what`` strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))):
            found.append(f"{node.lineno}: {node.value!r}")
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name and re.fullmatch(r"(float|complex)\d*", name):
            found.append(f"{node.lineno}: {name}")
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        found += [f"{node.lineno}: import {mod}" for mod in modules
                  if mod.split(".")[0] in ("math", "cmath")]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_src_has_no_floating_point(path):
    assert floating_point(path.read_text()) == []


def test_planted_floating_point_is_caught():
    source = ("import math\n"
              "from cmath import exp\n"
              "from .lie_core import RANK\n"
              "TOL = 1e-8\n"
              "z = complex(0, 1) * 2j + np.zeros(RANK, dtype=np.float64)\n"
              "ok = float(RANK) < TOL and RANK / 2 == 3.5\n")
    assert floating_point(source) == [
        "1: import math", "2: import cmath", "4: 1e-08", "5: 2j",
        "5: complex", "5: float64", "6: 3.5", "6: float"]
