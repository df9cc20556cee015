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
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "detlinks"
CERTIFIER = ("partitions", "grass_ring", "tensor_calculus")
PRODUCTION = ("polar", "links", "cache", "cli")
TRUSTING = ("grass_ring", "tensor_calculus")


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
