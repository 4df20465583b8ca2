"""Every annotation in src/sejoin resolves: ``typing.get_type_hints`` of
each function and method defined there raises nothing, so no annotation
names a type its module does not import."""

import importlib
import inspect
import pathlib
import typing

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sejoin"
MODULES = sorted("sejoin." + p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _functions(module):
    """(qualified name, function) for each function and method that
    ``module`` defines, properties, class and static methods included."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield "%s.%s" % (name, attr), member


@pytest.mark.parametrize("module_name", MODULES)
def test_type_hints_resolve(module_name):
    module = importlib.import_module(module_name)
    unresolved = []
    for name, func in _functions(module):
        try:
            typing.get_type_hints(func)
        except NameError as exc:
            unresolved.append("%s: %s" % (name, exc))
    assert unresolved == []
