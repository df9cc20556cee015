"""Every module-level name of the package is reached from shipped code,
and every module-level name of the test oracles from the tests.

A module-level ``def``, ``class`` or assignment in ``src/detlinks/*.py``
(dunders excepted) is reached when its name is referenced somewhere under
``src/``, ``scripts/`` or ``perfbench/``: as a loaded name, an attribute,
an import alias, or a string constant equal to the name (which covers
``getattr`` and patch targets).  The package root's re-exports do not
count, so exporting a name does not make it reached, and tests do not
count: a helper only the tests call belongs in ``tests/oracles.py``.  A
module-level name of ``tests/oracles.py`` is used when a file under
``tests/``, ``oracles.py`` included, references it the same way.

A method or property defined in a module-level class of the package
(dunders excepted) is reached when a file under the shipped directories
reads it as ``.name`` outside the member's own body.  An override of a name
that a base class outside the package defines (``DetSpec._make`` of the
named tuple, ``error`` of an ``argparse.ArgumentParser``) is exempt: that
base calls it.  A base is evaluated in the scope of its module's imports.
References match by name alone, so a common name read off another object
also counts; the check catches a member that no shipped code names at all.
"""
import ast
import importlib
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("src", "scripts", "perfbench")
PACKAGE_ROOT = Path("src", "detlinks", "__init__.py")


def defined_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _referenced_in(paths) -> set:
    referenced = set()
    for path in paths:
        referenced.update(referenced_names(ast.parse(path.read_text(), str(path))))
    return referenced


def _unreferenced(paths, referenced: set) -> list:
    out = []
    for path in paths:
        for name in defined_names(ast.parse(path.read_text(), str(path))):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in referenced:
                out.append(f"{path.stem}:{name}")
    return out


def _shipped(root: Path) -> list:
    return [
        path
        for directory in SHIPPED
        for path in sorted((root / directory).rglob("*.py"))
        if path != root / PACKAGE_ROOT
    ]


def _package(root: Path) -> list:
    return sorted((root / "src" / "detlinks").glob("*.py"))


def unreached(root: Path) -> list:
    """``module:name`` for each module-level name of ``root/src/detlinks``
    that nothing under the shipped directories references."""
    return _unreferenced(_package(root), _referenced_in(_shipped(root)))


def _members(tree: ast.Module):
    """(class, member) for each method or property of a module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield cls, node


def attribute_uses(paths) -> dict:
    """Attribute name -> the places that read it: (path, class, member) for
    a read inside a member's body, the path for any other read."""
    uses = defaultdict(set)
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        owner = {
            node: (path, cls.name, member.name)
            for cls, member in _members(tree)
            for node in ast.walk(member)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                uses[node.attr].add(owner.get(node, path))
    return uses


def _imported(tree: ast.Module) -> dict:
    """The names a module's top-level absolute imports bind, to the objects
    they bind; ``tests/test_imports.py`` keeps those to the standard library."""
    scope = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = importlib.import_module(alias.name)
                if alias.asname is None:
                    top = alias.name.partition(".")[0]
                    scope[top] = importlib.import_module(top)
                else:
                    scope[alias.asname] = module
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = importlib.import_module(node.module)
            for alias in node.names:
                scope[alias.asname or alias.name] = getattr(module, alias.name)
    return scope


def _external_names(cls: ast.ClassDef, package_classes: set, scope: dict) -> set:
    """The names the bases of ``cls`` from outside the package define; a
    base is evaluated from its source, in ``scope``."""
    names = set()
    for base in cls.bases:
        if not (isinstance(base, ast.Name) and base.id in package_classes):
            names.update(dir(eval(ast.unparse(base), scope)))
    return names


def unreached_members(root: Path) -> list:
    """``module:Class.member`` for each method or property of a class in
    ``root/src/detlinks`` that no shipped file reads outside the member's
    own body."""
    uses = attribute_uses(_shipped(root))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _package(root)}
    package_classes = {cls.name for tree in trees.values() for cls, _ in _members(tree)}
    out = []
    for path, tree in trees.items():
        scope = _imported(tree)
        for cls, member in _members(tree):
            name = member.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in _external_names(cls, package_classes, scope):
                continue
            if not uses[name] - {(path, cls.name, name)}:
                out.append(f"{path.stem}:{cls.name}.{name}")
    return out


def unused_oracles(root: Path) -> list:
    """``oracles:name`` for each module-level name of ``root/tests/oracles.py``
    that no file under ``root/tests`` references."""
    tests = root / "tests"
    return _unreferenced([tests / "oracles.py"], _referenced_in(sorted(tests.rglob("*.py"))))


def test_every_module_level_name_is_reached():
    assert unreached(ROOT) == []


def test_a_helper_only_its_definition_names_is_unreached(tmp_path):
    package = tmp_path / "src" / "detlinks"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .core import exported, reexported\n__version__ = '0'\n")
    (package / "core.py").write_text(
        "LIMIT = 3\n"
        "_ROUTES = {}\n"
        "def exported(x):\n    return _helper(x) + LIMIT\n"
        "def _helper(x):\n    return x\n"
        "def _patched():\n    pass\n"
        "def _dead():\n    pass\n"
        "def reexported():\n    pass\n"
        "_ORPHAN: int = 0\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "tool.py").write_text(
        "import detlinks.core as core\ngetattr(core, '_patched')\ncore.exported(1)\n")
    assert unreached(tmp_path) == [
        "core:_ROUTES", "core:_dead", "core:reexported", "core:_ORPHAN"]


def test_every_class_member_is_reached():
    assert unreached_members(ROOT) == []


def test_a_member_only_its_own_body_or_the_tests_read_is_unreached(tmp_path):
    package = tmp_path / "src" / "detlinks"
    package.mkdir(parents=True)
    (package / "core.py").write_text(
        "import argparse\n"
        "from collections import namedtuple\n"
        "class Point(namedtuple('Point', 'x y')):\n"
        "    @classmethod\n"
        "    def _make(cls, fields):\n        return cls(*fields)\n"
        "    @property\n"
        "    def norm(self):\n        return self.x + self.y\n"
        "    def _double(self):\n        return self.norm * 2\n"
        "    def chain(self):\n        return self.chain\n"
        "    def tested(self):\n        return self._double()\n"
        "    def __repr__(self):\n        return 'P'\n"
        "class Labeled(Point):\n"
        "    def label(self):\n        return 'p'\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(message)\n"
        "    def unread(self):\n        return self.prog\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "tool.py").write_text(
        "from detlinks.core import Point\nPoint(1, 2).norm\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_core.py").write_text(
        "from detlinks.core import Labeled\nLabeled(1, 2).tested()\nLabeled(1, 2).label()\n")
    assert unreached_members(tmp_path) == [
        "core:Point.chain", "core:Point.tested", "core:Labeled.label",
        "core:Parser.unread"]


def test_every_oracle_name_is_used():
    assert unused_oracles(ROOT) == []


def test_an_oracle_helper_no_test_uses_is_unused(tmp_path):
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "oracles.py").write_text(
        "TABLE = {}\n"
        "def reference(x):\n    return _step(x)\n"
        "def _step(x):\n    return x\n"
        "def _old_step(x):\n    return x\n"
        "_SCALE: int = 2\n"
    )
    (tests / "test_thing.py").write_text(
        "from oracles import TABLE, reference\n"
        "def test_reference():\n    assert reference(1) == 1 and not TABLE\n")
    assert unused_oracles(tmp_path) == ["oracles:_old_step", "oracles:_SCALE"]
