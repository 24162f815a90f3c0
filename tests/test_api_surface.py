"""Every public module-level function of the package is used by the program.

An AST scan: a public function defined at the top level of a module in
``src/cosdfl/`` must be referenced, by name or as an attribute, somewhere in
``src/``, ``scripts/`` or ``perfbench/``. Imports (the re-exports in
``__init__.py`` among them) are not references, and neither is a reference
from the function's own body or from the body of another public function
that is itself unused. Tests are not scanned: a function that only its own
test calls is dead code.

References are matched by name, so a same-named attribute elsewhere keeps a
function alive; the scan can miss dead code but never flags live code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cosdfl"
SCANNED = ("src", "scripts", "perfbench")


def public_functions() -> dict[str, str]:
    """Name -> module of each public top-level function of the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name] = path.stem
    return found


def references(defined) -> list[tuple[str, str | None]]:
    """(referenced name, enclosing public package function or None) pairs."""
    refs = []
    for root in SCANNED:
        for path in sorted((ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            in_package = path.parent == PACKAGE
            for top in tree.body:
                owner = (top.name if in_package and isinstance(top, ast.FunctionDef)
                         and top.name in defined else None)
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        refs.append((node.id, owner))
                    elif isinstance(node, ast.Attribute):
                        refs.append((node.attr, owner))
    return refs


def unreferenced() -> list[str]:
    defined = public_functions()
    refs = references(defined)
    dead: set[str] = set()
    while True:  # a function only dead code calls is dead too
        live = {name for name, owner in refs
                if owner is None or (owner not in dead and owner != name)}
        now = set(defined) - live
        if now == dead:
            return sorted(f"{defined[name]}.{name}" for name in dead)
        dead = now


def test_every_public_function_is_used_by_the_program():
    dead = unreferenced()
    assert not dead, ("public functions that nothing in src/, scripts/ or perfbench/ "
                      f"uses: {', '.join(dead)}")
