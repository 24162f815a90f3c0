"""The derived-state store is the package's only process-wide memo.

An AST scan of ``src/cosdfl/``: no function or method is decorated with
``functools.lru_cache`` or ``functools.cache``, under any import form, and
``_InstanceStore`` is made exactly once, as ``problems._STORE``. State that
outlives an oracle goes through that store, which is bounded and counts
its bytes; ``cached_property`` lives and dies with its object and is allowed.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cosdfl"
MEMOS = {"lru_cache", "cache"}


def memoized(tree: ast.Module) -> list[str]:
    """The functions and methods of a module decorated by a functools memo,
    whether written ``functools.lru_cache``, ``lru_cache`` or an alias."""
    names = set(MEMOS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {alias.asname or alias.name for alias in node.names if alias.name in MEMOS}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in names:
                    found.append(node.name)
    return found


def store_constructions(tree: ast.Module) -> int:
    return sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_InstanceStore"
               for node in ast.walk(tree))


def test_the_scan_finds_every_import_form():
    source = ("import functools\nfrom functools import lru_cache as memo, cache\n"
              "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
              "@memo\ndef b(): pass\n"
              "class C:\n    @cache\n    def c(self): pass\n"
              "@property\ndef d(): pass\n")
    assert memoized(ast.parse(source)) == ["a", "b", "c"]


def test_no_module_memoizes_outside_the_one_store():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: memoized(tree) for name, tree in trees.items() if memoized(tree)} == {}
    assert {name: store_constructions(tree) for name, tree in trees.items()
            if store_constructions(tree)} == {"problems.py": 1}
