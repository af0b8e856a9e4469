"""Dead-code guard over src/rfloc: every function, method and class is
used by some module of the package, and no module imports a name it does
not use. Code that only tests call belongs in tests/util.py."""

import ast
from pathlib import Path

import rfloc

PACKAGE = Path(rfloc.__file__).parent
MODULES = {
    path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(), str(path))
    for path in sorted(PACKAGE.rglob("*.py"))
}
# __init__ modules re-export names; a re-export is not a use.
USERS = {name: tree for name, tree in MODULES.items() if not name.endswith("__init__.py")}


def _used_names(tree) -> set[str]:
    """Every identifier the module reads, as a bare name or an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_definition_is_used_by_the_package():
    used = set().union(*map(_used_names, USERS.values()))
    unused = sorted(
        f"{module}:{node.name}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )
    assert not unused, f"defined but never used by src/rfloc: {unused}"


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for module, tree in USERS.items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}:{bound}")
    assert not unused, f"imported but never used: {sorted(unused)}"
