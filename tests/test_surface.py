"""The program's settable values, counted and pinned.

A settable value is a parameter with a default (positional or
keyword-only), an annotated field with a value in a ``@dataclass`` class
(``ClassVar``s excluded), or a ``--set`` key of ``cli._DOMAINS``. A
change that adds or removes one moves the pin below in its own diff.
"""

import ast
from pathlib import Path

from bijepa import cli

SRC = Path(cli.__file__).parent
SETTABLE_VALUES = 46


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return isinstance(annotation, ast.Name) and annotation.id == "ClassVar"


def count_defaults(tree: ast.AST) -> int:
    """Parameters with a default and dataclass fields with a value."""
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults)
            n += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                     and not _is_classvar(s.annotation) for s in node.body)
    return n


def settable_values() -> int:
    defaults = sum(count_defaults(ast.parse(path.read_text()))
                   for path in sorted(SRC.glob("*.py")))
    return defaults + len(cli._DOMAINS)


def test_settable_value_count():
    assert settable_values() == SETTABLE_VALUES


def test_rule_counts_each_kind():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "def f(a, b=1, *c, d, e=2, **g): pass\n"
        "async def h(x=0): pass\n"
        "lam = lambda y=3: y\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    p: int\n"
        "    q: int = 0\n"
        "    r: ClassVar[int] = 1\n"
        "    s: ClassVar = 2\n"
        "class B:\n"
        "    t: int = 0\n")
    # b, e, x, y, then q; not p, r, s or the plain class's t
    assert count_defaults(tree) == 5
