"""The package holds two process-wide memos: the derived-state store and
the run memo.

An AST scan of ``src/cosdfl/``: no function or method is decorated with
``functools.lru_cache`` or ``functools.cache``, under any import form;
``_InstanceStore`` is made exactly once, as ``problems._STORE``, and
``_RunMemo`` exactly once, as ``harness._RUNS``; and no other module-level
name holds state that a call can change, whether an instance of a class the
package defines or a value a function of its module writes to. State that
outlives an oracle goes through the store, which is bounded and counts its
bytes; ``cached_property`` lives and dies with its object and is allowed.
The run memo holds one generated dataset and the training runs on it rather
than a bounded number of them, and holds no run on a dataset that it did
not generate (a ``fit`` caller's own dataset trains). Consecutive cells
with the same ``GenSpec`` and d share them: a seed's cells of one problem in
a seed-major grid, and each benchmark ``spo+`` cell with its ``mse`` cell.
A benchmark pass over its 5 or 9 data seeds comes back to its first dataset
only after the others, so a later pass generates every dataset and trains
every run the first one did, where an LRU could hand it the earlier pass's.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cosdfl"
MEMOS = {"lru_cache", "cache"}
MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem",
            "clear", "remove", "discard"}


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


def constructions(tree: ast.Module, cls: str) -> int:
    return sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == cls
               for node in ast.walk(tree))


def module_state(tree: ast.Module, classes: set[str]) -> list[str]:
    """Module-level names bound to an instance of one of ``classes``, or
    written by a function of the module: declared ``global``, stored or
    deleted through a subscript, or changed by a container's mutator."""
    state, names = [], set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
            names.update(targets)
            if isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) in classes:
                state += targets
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                written = node.names
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                written = [getattr(node.value, "id", None)]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
                written = [getattr(node.func.value, "id", None)]
            else:
                continue
            state += [name for name in written if name in names and name not in state]
    return state


def test_the_scan_finds_every_import_form():
    source = ("import functools\nfrom functools import lru_cache as memo, cache\n"
              "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
              "@memo\ndef b(): pass\n"
              "class C:\n    @cache\n    def c(self): pass\n"
              "@property\ndef d(): pass\n")
    assert memoized(ast.parse(source)) == ["a", "b", "c"]


def test_the_scan_finds_every_kind_of_module_state():
    source = ("HELD = Store()\nSEEN = {}\nLOG = []\nLAST = None\nNAMES = {'a': 1}\n"
              "def f(x):\n    global LAST\n    LAST = x\n    SEEN[x] = 1\n"
              "    LOG.append(x)\n    return NAMES[x]\n")
    assert module_state(ast.parse(source), {"Store"}) == ["HELD", "LAST", "SEEN", "LOG"]


def test_no_module_memoizes_outside_the_one_store():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: memoized(tree) for name, tree in trees.items() if memoized(tree)} == {}
    assert {name: constructions(tree, "_InstanceStore") for name, tree in trees.items()
            if constructions(tree, "_InstanceStore")} == {"problems.py": 1}
    assert {name: constructions(tree, "_RunMemo") for name, tree in trees.items()
            if constructions(tree, "_RunMemo")} == {"harness.py": 1}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    assert {name: module_state(tree, classes) for name, tree in trees.items()
            if module_state(tree, classes)} == {"harness.py": ["_RUNS"],
                                                "problems.py": ["_STORE"]}
