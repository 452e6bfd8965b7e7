"""Every top-level function and class, and every class member, in ``src/rootrank`` has a
reader in ``src/rootrank``.

A definition only tests use belongs in the tests, so each one must be
referenced, as a name, an attribute or an import alias, somewhere in the
package outside its own definition.  A class member (a method, a
property, a dataclass field or a ``__slots__`` entry) must be read as an
attribute or passed as a keyword argument (``TrainedModel(training_log=log)``)
outside its own definition: a slot that is only written holds nothing
anyone uses.  Dunder members are called by Python itself and are exempt.
"""

import ast
from pathlib import Path

import rootrank

SRC = Path(rootrank.__file__).parent


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None,
                      members: bool = False) -> set[str]:
    """Names, attribute names and import aliases used in ``tree``, outside ``skip``; with
    ``members``, the attribute names read and the keyword argument names instead."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if members:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _class_members(cls: ast.ClassDef):
    """(name, defining node) of each method, property, annotated field and ``__slots__``
    entry of ``cls``, dunders left out."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found = [node.name]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found = [node.target.id]
        elif isinstance(node, ast.Assign) and any(isinstance(target, ast.Name)
                                                  and target.id == "__slots__"
                                                  for target in node.targets):
            found = [entry.value for entry in ast.walk(node.value)
                     if isinstance(entry, ast.Constant) and isinstance(entry.value, str)]
        else:
            continue
        yield from ((name, node) for name in found
                    if not (name.startswith("__") and name.endswith("__")))


def _unread_members(trees: dict[str, ast.AST]) -> list[str]:
    return [f"{filename}: {cls.name}.{name}"
            for filename, tree in sorted(trees.items())
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for name, node in _class_members(cls)
            if not any(name in _referenced_names(other, skip=node, members=True)
                       for other in trees.values())]


def _src_trees() -> dict[str, ast.AST]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def test_every_top_level_definition_has_a_caller_in_src():
    trees = _src_trees()
    unused = []
    for filename, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not any(node.name in _referenced_names(other, skip=node)
                       for other in trees.values()):
                unused.append(f"{filename}: {node.name}")
    assert not unused, f"defined in src/rootrank but used only outside it: {unused}"


def test_every_class_member_has_a_reader_in_src():
    unread = _unread_members(_src_trees())
    assert not unread, f"class members of src/rootrank read only outside it: {unread}"


def test_the_check_sees_an_unreferenced_definition():
    tree = ast.parse("def used():\n    return used_too()\n\n\ndef used_too():\n    pass\n\n\n"
                     "def orphan():\n    return orphan()\n\n\nused()\n")
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "used" in _referenced_names(tree, skip=defs["used"])
    assert "used_too" in _referenced_names(tree, skip=defs["used_too"])
    assert "orphan" not in _referenced_names(tree, skip=defs["orphan"])
    # members: one of each kind is read or passed by keyword; the slot ``stale`` is only
    # written, and the field ``orphan`` and the method ``unused`` are never named again
    members = ast.parse(
        "class Index:\n"
        "    __slots__ = ('bound', 'stale')\n"
        "    def __init__(self):\n"
        "        self.bound = self.stale = None\n\n\n"
        "class Plan:\n"
        "    n: int\n"
        "    log: list\n"
        "    orphan: int\n"
        "    def size(self):\n"
        "        return self.n + Index().bound\n"
        "    def unused(self):\n"
        "        return self.size()\n\n\n"
        "Plan(log=[]).size()\n")
    assert _unread_members({"members.py": members}) == [
        "members.py: Index.stale", "members.py: Plan.orphan", "members.py: Plan.unused"]


def _constructor_calls(trees: dict[str, ast.AST], name: str) -> list[tuple[str, str | None]]:
    """(file, top-level definition) of every call of ``name``, as a name or an attribute;
    None for a call outside any definition."""
    return [(filename, getattr(top, "name", None))
            for filename, tree in sorted(trees.items()) for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None))]


def test_every_plan_is_laid_out_by_one_function():
    # aggregation._kind_major lays out every plan, a union's too; a second GraphPlan call
    # would be a second layout
    assert _constructor_calls(_src_trees(), "GraphPlan") == [("aggregation.py", "_kind_major")]


def test_the_layout_check_sees_a_second_constructor_call():
    tree = ast.parse("def layout():\n    return Plan()\n\n\ndef union():\n    return m.Plan()\n\n\n"
                     "Plan()\n")
    assert _constructor_calls({"plans.py": tree}, "Plan") == [
        ("plans.py", "layout"), ("plans.py", "union"), ("plans.py", None)]
