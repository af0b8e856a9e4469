"""Dead-code guard over src/rfloc: every function, method and class is
used by some module of the package, no module imports a name it does not
use, and no __init__ module re-exports a name. Code that only tests call
belongs in tests/util.py."""

import ast
from pathlib import Path

import rfloc

PACKAGE = Path(rfloc.__file__).parent
MODULES = {
    path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(), str(path))
    for path in sorted(PACKAGE.rglob("*.py"))
}


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
    used = set().union(*map(_used_names, MODULES.values()))
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
    for module, tree in MODULES.items():
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


def test_no_init_module_imports_a_package_module():
    # Each name has one import path, the module that defines it. The one
    # import of an __init__ module is rfloc's os, to pin BLAS.
    imports = [
        (module, ast.unparse(node))
        for module, tree in MODULES.items() if module.endswith("__init__.py")
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == [("__init__.py", "import os")]
