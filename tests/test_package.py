import ast
from collections import Counter
from pathlib import Path

import qcsched


def test_every_exported_name_resolves():
    missing = [name for name in qcsched.__all__ if not hasattr(qcsched, name)]
    assert missing == []
    assert len(set(qcsched.__all__)) == len(qcsched.__all__)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, counting the names listed in
    its ``__all__`` as read and skipping imports marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{name} (line {node.lineno})")
    return unused


def test_no_module_imports_an_unused_name():
    """The package's modules and these test modules import only what
    they read."""
    paths = [*Path(qcsched.__file__).parent.rglob("*.py"),
             *Path(__file__).parent.glob("*.py")]
    found = {f"{path.parent.name}/{path.name}": _unused_imports(path.read_text())
             for path in sorted(paths)}
    assert {name: names for name, names in found.items() if names} == {}


def _private_definitions(tree: ast.Module):
    """(name, node) of each private name (``_x``, not dunder) bound at
    module level, by a def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: as a bare name, an
    attribute or an imported name."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def test_no_private_name_is_dead():
    """Every module-level private name of the package is read somewhere in
    the package outside its own definition."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(qcsched.__file__).parent.rglob("*.py"))}
    read = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [f"{module}: {name}" for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if read[name] == _references(node)[name]]
    assert dead == []


def test_no_two_modules_define_a_class_of_one_name():
    """Each record of the package (``Incumbent``, ``Schedule``, ...) is
    defined in one module only."""
    where: dict[str, list[str]] = {}
    for path in sorted(Path(qcsched.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                where.setdefault(node.name, []).append(path.name)
    assert {name: modules for name, modules in where.items()
            if len(modules) > 1} == {}
