"""The package's import graph.

Every ``import`` and ``from ... import`` in ``src/detlinks/*.py``, at module
level or inside a function, is read from the syntax tree and resolved to an
absolute module name: ``from .polar import x`` and ``from . import polar``
both import ``detlinks.polar``.  Three rules hold:

* every import is of the standard library (``sys.stdlib_module_names``) or
  of ``detlinks``: the package is stdlib-only;
* the certifier's modules (``CERTIFIER``) import nothing from production or
  the command line (``PRODUCTION``), so the two routes of a polar profile
  share no code but the normalizer that calls them;
* the Schubert internals (``TRUSTING``) contain no ``raise``: they trust
  their callers, and the checks sit at the boundaries (README).

The test oracle that certifies those internals, ``tests/oracles.py``,
imports none of their ``_``-prefixed names, so that it reaches its numbers
without the route it certifies.

The process memos are listed here too (``MEMOS``), so that adding one is a
reviewed edit of this file.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "detlinks"
CERTIFIER = ("partitions", "grass_ring", "tensor_calculus")
PRODUCTION = ("polar", "links", "cache", "cli")
TRUSTING = ("grass_ring", "tensor_calculus")
MEMOS = {
    "grass_ring._pieri", "grass_ring._mul_basis",
    "partitions._box_weight", "polar.sign_record", "polar._bott_sums",
    "tensor_calculus._lascoux", "cache._written", "cache._cell", "cli._check_served",
}
MEMO_DECORATORS = ("lru_cache", "cache")  # functools'
CONTAINER_CALLS = ("dict", "list", "set")
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def imported_modules(path: Path) -> set:
    """The absolute names of the modules one package file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a package module sits one level below the package
            module = ".".join(filter(None, [PACKAGE if node.level else "", node.module]))
            if module == PACKAGE:  # the names are the package's modules
                out.update(f"{PACKAGE}.{alias.name}" for alias in node.names)
            else:
                out.add(module)
    return out


def _package(root: Path) -> dict:
    return {path.stem: imported_modules(path)
            for path in sorted((root / "src" / PACKAGE).glob("*.py"))}


def foreign_imports(root: Path) -> list:
    """``module: import`` for each import of neither the stdlib nor the package."""
    return [f"{stem}: {name}"
            for stem, names in _package(root).items()
            for name in sorted(names)
            if name.split(".")[0] not in sys.stdlib_module_names | {PACKAGE}]


def certifier_imports_of_production(root: Path) -> list:
    """``module: import`` for each production module a certifier module imports."""
    production = {f"{PACKAGE}.{stem}" for stem in PRODUCTION}
    return [f"{stem}: {name}"
            for stem, names in _package(root).items() if stem in CERTIFIER
            for name in sorted(names & production)]


def raise_statements(root: Path) -> list:
    """``module:line`` for each ``raise`` in the ``TRUSTING`` modules."""
    out = []
    for stem in TRUSTING:
        path = root / "src" / PACKAGE / f"{stem}.py"
        out.extend(f"{stem}:{node.lineno}"
                   for node in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(node, ast.Raise))
    return out


def private_schubert_imports(path: Path) -> list:
    """``module.name`` for each ``_``-prefixed name one file imports from
    a ``TRUSTING`` module."""
    internals = {f"{PACKAGE}.{stem}" for stem in TRUSTING}
    return [f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom) and node.module in internals
            for alias in node.names if alias.name.startswith("_")]


def _is_container(value) -> bool:
    """Whether an expression builds a mutable container: a dict, list or set
    display, a comprehension of one, or a call of ``dict``, ``list`` or ``set``."""
    if isinstance(value, CONTAINER_NODES):
        return True
    return isinstance(value, ast.Call) and getattr(value.func, "id", None) in CONTAINER_CALLS


def process_memos(root: Path) -> set:
    """``module.name`` for each function of the package under a functools
    memo decorator, each module name rebound under ``global`` and each name
    a module statement binds to a mutable container, which a function can
    fill in place without ``global``."""
    out = set()
    for path in sorted((root / "src" / PACKAGE).glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if _is_container(node.value):
                out.update(f"{path.stem}.{target.id}"
                           for target in targets if isinstance(target, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = target.attr if isinstance(target, ast.Attribute) else (
                        getattr(target, "id", None))
                    if name in MEMO_DECORATORS:
                        out.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Global):
                out.update(f"{path.stem}.{name}" for name in node.names)
    return out


def test_only_the_stdlib_and_the_package_are_imported():
    assert foreign_imports(ROOT) == []


def test_the_certifier_imports_no_production_module():
    assert certifier_imports_of_production(ROOT) == []


def test_the_schubert_internals_raise_nothing(tmp_path):
    assert raise_statements(ROOT) == []
    package = tmp_path / "src" / PACKAGE
    package.mkdir(parents=True)
    (package / "grass_ring.py").write_text("def spec(r, n):\n    return (r, n)\n")
    (package / "tensor_calculus.py").write_text(
        "def series(up_to):\n    if up_to < 0:\n        raise ValueError(up_to)\n")
    assert raise_statements(tmp_path) == ["tensor_calculus:3"]


def test_the_oracle_imports_no_schubert_internal(tmp_path):
    assert private_schubert_imports(ROOT / "tests" / "oracles.py") == []
    oracle = tmp_path / "oracles.py"
    oracle.write_text(
        "from detlinks.grass_ring import GrassSpec, _perm_sign\n"
        "from detlinks.polar import _validate_params\n"
        "def sign(perm):\n    from detlinks.tensor_calculus import _lascoux\n")
    assert private_schubert_imports(oracle) == [
        "detlinks.grass_ring._perm_sign", "detlinks.tensor_calculus._lascoux"]


def test_both_rules_catch_a_violation(tmp_path):
    package = tmp_path / "src" / PACKAGE
    package.mkdir(parents=True)
    (package / "grass_ring.py").write_text(
        "from __future__ import annotations\n"
        "import numpy.linalg\n"
        "from .partitions import weight\n"
        "def spec(m, n, r):\n"
        "    from .polar import _validate_params\n"
        "    from . import cache, errors\n")
    (package / "cli.py").write_text(
        "import argparse\nfrom . import polar as polar_mod\nfrom detlinks.links import DetSpec\n")
    assert foreign_imports(tmp_path) == ["grass_ring: numpy.linalg"]
    assert certifier_imports_of_production(tmp_path) == [
        "grass_ring: detlinks.cache", "grass_ring: detlinks.polar"]


def test_every_process_memo_is_listed(tmp_path):
    """A process memo outlives the command that filled it, so each one is a
    pure function of its arguments (the ``lru_cache``s) or exact by
    construction (``cache._written``, the parser's own output on the text
    last written).  A new memo must be argued so and added to ``MEMOS``."""
    assert process_memos(ROOT) == MEMOS
    package = tmp_path / "src" / PACKAGE
    package.mkdir(parents=True)
    (package / "links.py").write_text(
        "import functools\nfrom functools import lru_cache\n"
        "@lru_cache\ndef euler(m):\n    return m\n"
        "@functools.lru_cache(maxsize=8)\ndef betti(m):\n    return m\n"
        "@staticmethod\ndef plain(m):\n    return m\n"
        "def warm():\n    global _sums\n    _sums = {}\n")
    assert process_memos(tmp_path) == {"links.euler", "links.betti", "links._sums"}
    (package / "cli.py").write_text(
        "FORMATS = ('csv', 'md')\nLIMIT = 3\nFLAGS = frozenset()\n_empty: dict\n"
        "_seen = set()\n_verdicts = {}\n_log = []\n_by_key = dict()\n_order = list()\n"
        "_a = _b = {0}\n_squares: dict = {k: k * k for k in range(3)}\n"
        "_rows = [k for k in range(3)]\n_ranks = {k for k in range(3)}\n"
        "def check(prof):\n    local = {}\n    local[prof] = True\n    _seen.add(prof)\n")
    assert process_memos(tmp_path) - {"links.euler", "links.betti", "links._sums"} == {
        "cli._seen", "cli._verdicts", "cli._log", "cli._by_key", "cli._order", "cli._a",
        "cli._b", "cli._squares", "cli._rows", "cli._ranks"}
