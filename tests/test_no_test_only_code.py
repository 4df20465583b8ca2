"""Library code earns its place: every top-level function, class and method
in src/sejoin is reachable from a real entry point, so nothing survives that
only unit tests call.

The entry points are ``cli.main``, the names the acceptance tests import and
the functions the benchmark tracer wraps.  A definition is reached when
reached code names it: a function or class by its name, a method by its
attribute name on any object.  Reaching a class reaches its class body and
its dunder methods, which Python calls implicitly; its other methods must be
named by reached code.  Every function the tracer wraps must still be
defined: otherwise it would silently drop out of the entry points.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sejoin"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACER = ROOT / "benchmarks" / "tracer.py"

# name -> why it stays although only unit tests reach it
ALLOWED = {
    "h3_matrix": "the only code that certifies b3 = 0, which the paper states; "
                 "wiring its rank into the record changes the exported bytes",
}


def _names(nodes):
    """Identifiers that ``nodes`` read or access as attributes."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr


def _definitions(sources):
    """(key, name, nodes, reported) for each definition in ``sources``
    (module -> source text), keyed "module:name" or "module:Class.method".

    Top-level functions, classes and methods are reported when unreached.
    Top-level constants are followed but not reported, and the other
    module-level statements, which run on import, get the name None.  A
    class's nodes are its bases, decorators and class-level statements; its
    methods are definitions of their own."""
    for module, text in sorted(sources.items()):
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                yield "%s:%s" % (module, node.name), node.name, [node], True
            elif isinstance(node, ast.ClassDef):
                key = "%s:%s" % (module, node.name)
                rest = [n for n in node.body if not isinstance(n, ast.FunctionDef)]
                yield key, node.name, node.bases + node.decorator_list + rest, True
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        yield "%s.%s" % (key, m.name), m.name, [m], True
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        yield "%s:%s" % (module, t.id), t.id, [node], False
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                yield "%s:<module>" % module, None, [node], False


def _is_dunder(key):
    name = key.rsplit(".", 1)[-1]
    return "." in key.split(":")[1] and name.startswith("__") and name.endswith("__")


def _unreached(sources, roots):
    """Reported definitions of ``sources`` that code reachable from ``roots``
    never names; a root is a top-level name or "Class.method"."""
    defs = list(_definitions(sources))
    nodes = {}
    by_name = {}
    for key, name, body, _ in defs:
        nodes.setdefault(key, []).extend(body)
        by_name.setdefault(name, []).append(key)
    todo = by_name.get(None, []) + [key for key in nodes if key.split(":")[1] in roots]
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo.extend(k for n in _names(nodes[key]) for k in by_name.get(n, ()))
        # Python calls a reached class's dunder methods implicitly
        todo.extend(k for k in nodes if k.startswith(key + ".") and _is_dunder(k))
    return [key for key, _, _, reported in defs if reported and key not in reached]


def _wrapped():
    """(module, attribute) pairs that ``benchmarks/tracer.py`` lists in
    ``WRAPPED``, read by parsing that file."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return [(module, attr) for _, module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("%s assigns no WRAPPED" % TRACER)


def _undefined(sources, wrapped):
    """The (module, attribute) pairs of ``wrapped`` that ``sources`` do not
    define, as "module:attribute"."""
    keys = {key for key, _, _, _ in _definitions(sources)}
    return ["%s:%s" % pair for pair in wrapped if "%s.py:%s" % pair not in keys]


def _entry_points():
    """``main``, the names the acceptance tests import from sejoin, and the
    attributes ``benchmarks/tracer.py`` lists in ``WRAPPED``."""
    names = {"main"}
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sejoin"):
            names.update(alias.name for alias in node.names)
    names.update(attr for _, attr in _wrapped())
    return names


def test_no_test_only_code():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _undefined(sources, _wrapped()) == []
    assert _unreached(sources, _entry_points() | set(ALLOWED)) == []


def test_guard_finds_unreferenced_name():
    sources = {
        "a.py": "def main():\n    return used()\n\ndef used():\n    return 1\n\n"
                "def orphan():\n    return used()\n",
        "b.py": "from .a import used\n\nclass Lonely:\n    def f(self):\n        return Lonely\n",
    }
    assert _unreached(sources, {"main"}) == ["a.py:orphan", "b.py:Lonely", "b.py:Lonely.f"]
    assert _unreached(sources, {"main", "orphan"}) == ["b.py:Lonely", "b.py:Lonely.f"]


def test_guard_finds_helper_behind_a_test_only_method():
    sources = {
        "a.py": "def main():\n    return Tool().run()\n\n"
                "def _helper():\n    return 1\n\n"
                "class Tool:\n"
                "    def __init__(self):\n        self.x = 0\n\n"
                "    def run(self):\n        return self.x\n\n"
                "    def extra(self):\n        return _helper()\n",
    }
    assert _unreached(sources, {"main"}) == ["a.py:_helper", "a.py:Tool.extra"]
    assert _unreached(sources, {"main", "Tool.extra"}) == []


def test_guard_finds_undefined_wrapped_name():
    sources = {
        "kernel.py": "class Polynomial:\n    def __call__(self, x):\n        return x\n\n"
                     "def real_roots(p):\n    return []\n",
    }
    wrapped = [("kernel", "Polynomial.__call__"), ("kernel", "real_roots"),
               ("kernel", "Polynomial.degree"), ("kernel", "sturm_chain"), ("ypq", "solve")]
    assert _undefined(sources, wrapped) == [
        "kernel:Polynomial.degree", "kernel:sturm_chain", "ypq:solve"]
    assert _undefined(sources, wrapped[:2]) == []
