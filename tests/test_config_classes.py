"""Settings in ``src/rootrank`` are checked once, when they are made.

Every dataclass there named ``*Config`` is frozen and defines ``__post_init__``,
so a config that exists has passed its checks and cannot change afterwards;
and no module calls a method named ``validate``, so no caller has a second
step to remember.
"""

import ast
from pathlib import Path

import rootrank

SRC = Path(rootrank.__file__).parent


def _trees() -> dict[str, ast.AST]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _validate_calls(tree: ast.AST) -> list[int]:
    """Line numbers of every call of an attribute named ``validate`` in ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "validate"]


def _dataclass_decorator(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
    return name == "dataclass"


def _frozen(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords)


def _config_classes(tree: ast.AST) -> dict[str, list[str]]:
    """Each dataclass named ``*Config`` in ``tree``, with what it lacks."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not node.name.endswith("Config"):
            continue
        decorators = [d for d in node.decorator_list if _dataclass_decorator(d)]
        if not decorators:
            continue
        lacks = []
        if not any(map(_frozen, decorators)):
            lacks.append("frozen=True")
        if not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                   for item in node.body):
            lacks.append("__post_init__")
        found[node.name] = lacks
    return found


def test_no_module_calls_validate():
    calls = {name: lines for name, tree in _trees().items() if (lines := _validate_calls(tree))}
    assert not calls, f"validate method calls in src/rootrank: {calls}"


def test_every_config_dataclass_is_frozen_and_checks_itself():
    configs = {}
    for name, tree in _trees().items():
        configs.update({f"{name}: {cls}": lacks for cls, lacks in _config_classes(tree).items()})
    assert {"network.py: ModelConfig", "synthetic.py: GenConfig"} <= set(configs)
    lacking = {cls: lacks for cls, lacks in configs.items() if lacks}
    assert not lacking, f"config dataclasses without their own checks: {lacking}"


def test_the_checks_see_a_validate_call_and_an_unchecked_config():
    tree = ast.parse("@dataclass\nclass AConfig:\n    n: int = 1\n\n\n"
                     "@dataclasses.dataclass(frozen=True)\nclass BConfig:\n"
                     "    def __post_init__(self):\n        pass\n\n\n"
                     "@dataclass(frozen=False)\nclass CConfig:\n    pass\n\n\n"
                     "AConfig().%s()\n" % "validate")
    assert _validate_calls(tree) == [17]
    assert _config_classes(tree) == {"AConfig": ["frozen=True", "__post_init__"], "BConfig": [],
                                     "CConfig": ["frozen=True", "__post_init__"]}
