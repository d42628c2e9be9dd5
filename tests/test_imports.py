"""Every name a module of the package imports is used in it: a name bound
by an import must occur as a Name node somewhere in the module. Every
function or class a module defines at top level is used in the package,
unless it is public. No module imports dataclasses, whose import and
per-class code generation would dominate the start-up of a CLI command.
No module tells terms apart by isinstance or issubclass with a concrete
term class, which would read a subclass as its base class: every reader
dispatches on a term's exact class."""

import ast
import symtable
from pathlib import Path
from types import ModuleType

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _package_module(node: ast.ImportFrom):
    """The package module node imports from ("" for the package itself),
    or None for a module outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "idag":
        return node.module.partition(".")[2]
    return None


def _global_reads(stmt: ast.stmt) -> set[str]:
    """The names stmt reads from its module's namespace: at top level, or in
    a nested scope where no local of that scope binds them."""
    reads = set()
    tables = [symtable.symtable(ast.unparse(stmt), "<stmt>", "exec")]
    while tables:
        table = tables.pop()
        top = table.get_type() == "module"
        reads.update(
            s.get_name() for s in table.get_symbols() if s.is_referenced() and (top or s.is_global())
        )
        tables.extend(table.get_children())
    return reads


def _dead_definitions(sources: dict[str, str]) -> set[tuple[str, str]]:
    """The (module, name) of each top-level function or class, but a dunder,
    that no module of sources uses outside its own definition. A use is a
    read of the module-level name in its own module, an import of it from
    another module, or an attribute of an alias of its module; a local
    variable, a parameter or an attribute of anything else of the same name
    is not one."""
    defined, used = set(), set()
    for mod, text in sources.items():
        tree = ast.parse(text)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (src := _package_module(node)) is not None:
                for alias in node.names:
                    if src:
                        used.add((src, alias.name))
                    else:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    used.add((aliases[node.value.id], node.attr))
        for stmt in tree.body:
            reads = _global_reads(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((mod, stmt.name))
                reads.discard(stmt.name)
            used.update((mod, name) for name in reads)
    return {(mod, name) for mod, name in defined - used if not name.startswith("__")}


def test_no_dead_top_level_definitions():
    """Each top-level function or class is used somewhere in the package
    outside its own definition; public names and dunders are exempt."""
    import idag

    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    public = {(mod, name) for mod, names in idag._NAMES_BY_MODULE.items() for name in names}
    assert sorted(_dead_definitions(sources) - public) == []


def test_a_name_used_for_something_else_does_not_keep_a_definition_alive():
    sources = {
        "a": (
            "def _box(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "def _imported(): pass\n"
            "def _aliased(): pass\n"
            "def _called(): pass\n"
            "def _entry(_box):\n"
            "    _recursive = 0\n"
            "    return _box, _recursive, _called()\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _imported\n"
            "_box = 1\n"
            "def _user(obj):\n"
            "    return obj._box, obj.box, _box, a._aliased, a._entry\n"
            "_TABLE = (_user,)\n"
        ),
    }
    assert _dead_definitions(sources) == {("a", "_box"), ("a", "_recursive")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imported.add(node.module.split(".")[0])
    assert "dataclasses" not in imported


def test_public_names_are_not_modules():
    import idag

    for name in idag.__all__:
        assert not isinstance(getattr(idag, name), ModuleType), name
    assert "annotations" not in idag.__all__
    namespace: dict = {}
    exec("from idag import *", namespace)
    assert {"parse", "evaluate", "Idag"} <= namespace.keys()
    assert not {"models", "terms", "core"} & namespace.keys()
    # the package root imports lazily but still lists and reaches everything
    assert set(idag.__all__) <= set(dir(idag))
    assert idag.sortings.MAX_DOWN_SETS == 10**5


# the concrete term classes; Expression, which tells terms from other
# parts, is not one of them
_TERM_CLASSES = {"Eta", "Nabla", "Eps", "Delta", "Node", "Anti", "Id", "Sym", "Seq", "Ten"}


def _term_class_checks(text: str) -> list[str]:
    """Each isinstance or issubclass call in text whose class argument
    names a concrete term class, alone or in a tuple, as source text, in
    the order of their lines."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
        ):
            continue
        spec = node.args[1]
        classes = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        names = {c.id if isinstance(c, ast.Name) else getattr(c, "attr", None) for c in classes}
        if names & _TERM_CLASSES:
            found.append((node.lineno, ast.unparse(node)))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_isinstance_with_a_term_class(path):
    assert _term_class_checks(path.read_text()) == []


def test_the_term_class_guard_finds_subclass_checks():
    # a fold that reads a Seq subclass as a Seq, and a chain builder that
    # reads an Id subclass as an Id; Expression and other classes pass
    text = (
        "def fold(node):\n"
        "    if isinstance(node, Seq):\n"
        "        return 1\n"
        "    elif isinstance(node, terms.Ten):\n"
        "        return 2\n"
        "def ten_all(parts):\n"
        "    return [p for p in parts if isinstance(p, (int, Id))]\n"
        "def other(x, cls):\n"
        "    return isinstance(x, Expression) or issubclass(cls, (Idag, WeightSystem))\n"
        "def kind(cls):\n"
        "    return issubclass(cls, Node)\n"
    )
    assert _term_class_checks(text) == [
        "isinstance(node, Seq)",
        "isinstance(node, terms.Ten)",
        "isinstance(p, (int, Id))",
        "issubclass(cls, Node)",
    ]
