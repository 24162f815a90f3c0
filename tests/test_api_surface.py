"""Every public function and method of the package is used by the program.

An AST scan: a public function defined at the top level of a module in
``src/cosdfl/``, or a public method of a class defined there, must be
referenced, by name or as an attribute, somewhere in ``src/`` or
``perfbench/``. Imports (the re-exports in ``__init__.py`` among them)
are not references, and neither is a reference from the function's own
body or from the body of another public function or method that is itself
unused. Tests, ``perfbench/test_*.py`` among them, are not scanned: a
function that only a test calls is dead code.

References are matched by name, so a same-named attribute elsewhere keeps a
function alive; the scan can miss dead code but never flags live code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cosdfl"
SCANNED = ("src", "perfbench")


def public_def(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


def scopes(tree: ast.Module, in_package: bool):
    """(node, owner) pairs covering a module; in the package, each public
    top-level function and each public method is owned by its name."""
    for top in tree.body:
        if not in_package:
            yield top, None
        elif isinstance(top, ast.ClassDef):
            for node in top.bases + top.keywords + top.decorator_list:
                yield node, None
            for item in top.body:
                yield item, item.name if public_def(item) else None
        else:
            yield top, top.name if public_def(top) else None


def public_functions() -> dict[str, list[str]]:
    """Name -> qualified names of the package's public functions and methods."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if public_def(node):
                found.setdefault(node.name, []).append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if public_def(item):
                        found.setdefault(item.name, []).append(
                            f"{path.stem}.{node.name}.{item.name}")
    return found


def references() -> list[tuple[str, str | None]]:
    """(referenced name, enclosing public package function or None) pairs."""
    refs = []
    for root in SCANNED:
        for path in sorted((ROOT / root).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for scope, owner in scopes(tree, path.parent == PACKAGE):
                for node in ast.walk(scope):
                    if isinstance(node, ast.Name):
                        refs.append((node.id, owner))
                    elif isinstance(node, ast.Attribute):
                        refs.append((node.attr, owner))
    return refs


def unreferenced() -> list[str]:
    defined = public_functions()
    refs = references()
    dead: set[str] = set()
    while True:  # a function only dead code calls is dead too
        live = {name for name, owner in refs
                if owner is None or (owner not in dead and owner != name)}
        now = set(defined) - live
        if now == dead:
            return sorted(qualified for name in dead for qualified in defined[name])
        dead = now


def test_every_public_function_is_used_by_the_program():
    dead = unreferenced()
    assert not dead, ("public functions or methods that nothing in src/ or perfbench/ "
                      f"uses: {', '.join(dead)}")
