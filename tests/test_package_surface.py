"""Every module-level function and class of the package has a use.

A ``def`` or ``class`` at the top level of ``src/semiconformal/*.py`` must meet
one of these:

- it is referenced by name or attribute, outside strings, somewhere in the
  package other than its own body;
- it is listed in ``semiconformal.__all__``;
- its name appears in a ``perfbench/*.py`` file.

A formula that only the tests call lives in ``tests/paper.py`` instead.
Methods are exempt: they are their class's API.  An import alone is not a
use, so a name that is imported but never called still counts as unused.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import semiconformal

ROOT = Path(__file__).resolve().parents[1]


def _references(node: ast.AST) -> Counter:
    """Names and attribute names that ``node`` uses; string constants and
    import aliases are neither."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def unused_definitions(sources: dict[str, str], exported, bench_text: str) -> list[str]:
    """``module.name`` for each top-level def or class in ``sources`` (module
    name -> source text) that meets none of the conditions above.  A use from
    inside an unused definition does not count, so a helper that only unused
    code calls is reported with it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs = [(module, node) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    own = {id(node): _references(node) for _, node in defs}
    total = sum(map(_references, trees.values()), Counter())
    kept = {node.name for _, node in defs
            if node.name in exported or re.search(rf"\b{re.escape(node.name)}\b", bench_text)}
    unused = {}
    while True:
        found = {id(node): f"{module}.{node.name}" for module, node in defs
                 if id(node) not in unused and node.name not in kept
                 and total[node.name] == own[id(node)][node.name]}
        if not found:
            return [unused[id(node)] for _, node in defs if id(node) in unused]
        unused.update(found)
        for key in found:
            total -= own[key]


def test_every_module_level_definition_has_a_caller():
    sources = {path.stem: path.read_text()
               for path in sorted((ROOT / "src" / "semiconformal").glob("*.py"))}
    bench_text = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    assert unused_definitions(sources, semiconformal.__all__, bench_text) == []


def test_the_guard_flags_what_nothing_uses():
    sources = {
        "a": (
            "import math\n"
            "from .b import imported_only\n"
            "def called():\n    return helper()\n"
            "def helper():\n    return math.pi\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
            "def named_in_a_string():\n    return 'named_in_a_string'\n"
            "class Base:\n    def method_nobody_calls(self):\n        pass\n"
            "class Child(Base):\n    pass\n"
            "def exported():\n    pass\n"
            "def benched():\n    pass\n"
        ),
        "b": "def imported_only():\n    pass\n"
             "def via_attribute():\n    pass\n"
             "def user(mod):\n    return mod.via_attribute, called\n",
    }
    unused = unused_definitions(sources, ["exported", "user"], "trace('benched')")
    # Base is used only by Child, which nothing uses
    assert unused == ["a.recursive", "a.named_in_a_string", "a.Base", "a.Child", "b.imported_only"]
