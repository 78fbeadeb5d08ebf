"""No library code that only tests reach.

Every module-level function and class of ``src/eulernerve``, and every method
of such a class, must be named as an identifier somewhere in ``src/`` outside
its own definition, or as an identifier or string in ``certbench/*.py`` other
than ``selftest.py`` (the benchmark names the spans it traces by string).
Dunder methods are called by the language and are exempt.

The check works on names, not on calls, so it misses some dead code: a
definition whose name is also a local variable, an attribute or a keyword
somewhere else (``value``, say) passes, and so does a function whose only
caller is itself unreached.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def names(tree, strings=False):
    """Identifiers a tree names (and, with ``strings``, the dotted parts of
    its string constants), with their counts."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def definitions(tree):
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def test_every_library_definition_is_reached_outside_tests():
    sources = [parse(p) for p in sorted((ROOT / "src" / "eulernerve").glob("*.py"))]
    in_src = sum((names(tree) for tree in sources), Counter())
    in_bench = sum(
        (names(parse(p), strings=True)
         for p in sorted((ROOT / "certbench").glob("*.py")) if p.name != "selftest.py"),
        Counter(),
    )
    unreached = []
    for tree in sources:
        for qualified, node in definitions(tree):
            own = names(node)[node.name]
            if in_src[node.name] - own <= 0 and not in_bench[node.name]:
                unreached.append(qualified)
    assert unreached == []
