import ast
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
