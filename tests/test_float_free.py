"""The package computes without floats: no float() call and no float
literal appears anywhere in src/sejoin, no coercion to Fraction takes a
float, a string or a bool, and no integer gate takes a bool."""

import ast
import pathlib

import pytest

from sejoin.bott import BottOrbifold, CohClass, h3_matrix, monoid_act
from sejoin.catalog import build_record, weight_pairs
from sejoin.join import JoinQuotient, w_from_k
from sejoin.kernel import DomainError, Polynomial
from sejoin.metric import CalabiData, CalabiProfile
from sejoin.topology import h4_torsion
from sejoin.ypq import einstein_integrand, family_member, ray_ratio

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


GOLDEN_ORB = BottOrbifold(70, 78540, 748, (1, 1, 91, 65, 255, 165))
GOLDEN_PROFILE = build_record(13, 8, k=2).profile

# every library coercion to Fraction, each called with one value x; a float's
# binary value or a parsed string would otherwise enter as a rational
COERCIONS = {
    "w_from_k": w_from_k,
    "weight_pairs.k": lambda x: weight_pairs(k=x),
    "weight_pairs.k_list": lambda x: weight_pairs(k_list=[2, x]),
    "build_record": lambda x: build_record(13, 8, k=x),
    "CalabiData.r3": lambda x: CalabiData(a=70, m2_0=91, m2_inf=65, fano_index=12, v3_0=17,
                                          v3_inf=11, m3=15, n=748, r3=x),
    "CalabiProfile.r3": lambda x: CalabiProfile(r3=x, F=GOLDEN_PROFILE.F),
    "CalabiProfile.theta": GOLDEN_PROFILE.theta,
    "BottOrbifold.m": lambda x: BottOrbifold(70, 78540, 748, (1, 1, 91, 65, 255, x)),
    "CohClass.coeffs": lambda x: CohClass(basis="xxx", coeffs=(1, x, 1), abc=(0, 0, 0)),
    "h3_matrix": lambda x: h3_matrix(GOLDEN_ORB, (1, x, 1)),
    "einstein_integrand": lambda x: einstein_integrand(13, 8, x, 1),
    "Polynomial": lambda x: Polynomial((x, 1)),
}


# a bool is an int to isinstance, but True is no rational
@pytest.mark.parametrize("bad", [1.1, "1/3", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("name", sorted(COERCIONS))
def test_coercions_take_ints_and_fractions_only(name, bad):
    # k = 1.1 is 2476979795053773/2251799813685248: its 47-digit weights
    # would send build_record into trial division that does not return
    with pytest.raises(TypeError):
        COERCIONS[name](bad)



# the fields of the golden record's quotient, (13, 8) with k = 2
GOLDEN_QUOTIENT = dict(a=70, b=78540, c=748, m=(1, 1, 91, 65, 255, 165), s=1, m3=15, n=748,
                       fano_index=12)


def _quotient_with(**change):
    return JoinQuotient(**{**GOLDEN_QUOTIENT, **change}).bott()


# every integer gate, each called with True where it checks an integer, and
# the message it raises for any other non-integer; a few gates are also
# called with a float, a string or too few entries
INTEGER_GATES = {
    "ray_ratio.q": (lambda: ray_ratio(3, True), "p, q must be integers"),
    "family_member": (lambda: family_member(True), "family parameter must be a non-negative"),
    "BottOrbifold.a": (lambda: BottOrbifold(True, 0, 0, (1,) * 6), "a must be an integer"),
    "BottOrbifold.b": (lambda: BottOrbifold(1, True, 0, (1,) * 6), "b must be an integer or"),
    "BottOrbifold.c": (lambda: BottOrbifold(1, 0, True, (1,) * 6), "c must be an integer or"),
    "CohClass.abc.a": (lambda: CohClass("xxy", (1, 2, 3), (True, 0, 0)), "a must be an integer"),
    "CohClass.abc.a-str": (lambda: CohClass("xxy", (1, 2, 3), ("a", 0, 0)),
                           "a must be an integer"),
    "CohClass.abc.b-float": (lambda: CohClass("xxy", (1, 2, 3), (1, 0.5, 0)),
                             "b must be an integer or"),
    "CohClass.abc.c": (lambda: CohClass("xxy", (1, 2, 3), (1, 0, True)),
                       "c must be an integer or"),
    "CohClass.abc.two-entries": (lambda: CohClass("xxy", (1, 2, 3), (1, 0)),
                                 "abc must have three entries"),
    **{"JoinQuotient.%s" % name: (lambda name=name: _quotient_with(**{name: True}),
                                  "%s must be an integer" % name)
       for name in ("a", "b", "c", "s", "m3", "n", "fano_index")},
    "JoinQuotient.b-float": (lambda: _quotient_with(b=78540.0), "b must be an integer"),
    "JoinQuotient.m": (lambda: _quotient_with(m=(1, True, 91, 65, 255, 165)),
                       "m must be six positive integers"),
    "h4_torsion": (lambda: h4_torsion(True, 1, 1, 1, 1, 1, 1), "v0 must be a positive integer"),
    "monoid_act.lam": (lambda: monoid_act(GOLDEN_ORB, (True,) * 6, (0,) * 6),
                       "lam entries must be integers"),
    "monoid_act.shift": (lambda: monoid_act(GOLDEN_ORB, (1,) * 6, (True,) * 6),
                         "shift entries must be integers"),
}


@pytest.mark.parametrize("name", sorted(INTEGER_GATES))
def test_integer_gates_reject_bool(name):
    call, message = INTEGER_GATES[name]
    with pytest.raises(DomainError, match=message):
        call()
