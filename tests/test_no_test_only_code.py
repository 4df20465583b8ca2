"""Library code earns its place: every top-level function and class in
src/sejoin is referenced elsewhere in the package or by the acceptance
tests, so nothing survives that only unit tests call."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sejoin"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# name -> why it stays although only unit tests reach it
ALLOWED = {
    "h3_matrix": "the only code that certifies b3 = 0, which the paper states; "
                 "wiring its rank into the record changes the exported bytes",
}


def _references(tree):
    """Identifiers that ``tree`` reads, imports or accesses as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unreferenced(sources, extra_refs=()):
    """Top-level functions and classes of ``sources`` (name -> source text)
    that no other code in ``sources`` and no name in ``extra_refs`` uses;
    a definition's references to itself do not count."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    found = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = Counter(_references(node))
            if node.name not in extra_refs and refs[node.name] == own[node.name]:
                found.append("%s:%s" % (module, node.name))
    return found


def test_no_test_only_code():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    acceptance = set(_references(ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))))
    found = _unreferenced(sources, acceptance | set(ALLOWED))
    assert found == []


def test_guard_finds_unreferenced_name():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef orphan():\n    return used()\n",
        "b.py": "from .a import used\n\nclass Lonely:\n    def f(self):\n        return Lonely\n",
    }
    assert _unreferenced(sources) == ["a.py:orphan", "b.py:Lonely"]
    assert _unreferenced(sources, {"orphan"}) == ["b.py:Lonely"]
