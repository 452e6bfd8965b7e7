"""Every top-level function and class in ``src/rootrank`` has a caller in ``src/rootrank``.

A definition only tests use belongs in the tests, so each one must be
referenced, as a name, an attribute or an import alias, somewhere in the
package outside its own definition.
"""

import ast
from pathlib import Path

import rootrank

SRC = Path(rootrank.__file__).parent


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names, attribute names and import aliases used in ``tree``, outside ``skip``."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_top_level_definition_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    unused = []
    for filename, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not any(node.name in _referenced_names(other, skip=node)
                       for other in trees.values()):
                unused.append(f"{filename}: {node.name}")
    assert not unused, f"defined in src/rootrank but used only outside it: {unused}"


def test_the_check_sees_an_unreferenced_definition():
    tree = ast.parse("def used():\n    return used_too()\n\n\ndef used_too():\n    pass\n\n\n"
                     "def orphan():\n    return orphan()\n\n\nused()\n")
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "used" in _referenced_names(tree, skip=defs["used"])
    assert "used_too" in _referenced_names(tree, skip=defs["used_too"])
    assert "orphan" not in _referenced_names(tree, skip=defs["orphan"])
