"""The package computes without floats: no float() call and no float
literal appears anywhere in src/sejoin."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sejoin"


def _float_uses(source):
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            yield node.lineno, "float() call"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal %r" % (node.value,)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_outside_display(path):
    uses = ["%s:%d: %s" % (path.name, line, what)
            for line, what in _float_uses(path.read_text(encoding="utf-8"))]
    assert uses == []


def test_guard_finds_float_uses():
    src = ("x = float(1)\ny = 0.5\n"
           "class AlgebraicRoot:\n    def __float__(self):\n        return float(0.25)\n")
    assert sorted(_float_uses(src)) == [(1, "float() call"), (2, "float literal 0.5"),
                                        (5, "float literal 0.25"), (5, "float() call")]
