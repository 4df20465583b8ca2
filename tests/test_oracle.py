"""Records and ray ratios across the input space, checked by the
benchmark's independent checker.

``benchmarks/checker.py`` re-derives every record field with integer
arithmetic of its own and brackets each printed decimal cell by a sign change
of the defining integer polynomial, without sejoin's polynomial or root
code.  The corpus pins 14 command lines; this test draws first factors,
weights, rational k and digit counts, so a fault that no corpus input reaches
still fails here.
"""

import ast
import importlib.util
import pathlib
from fractions import Fraction
from math import gcd

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sejoin.catalog import build_record, record_to_dict
from sejoin.kernel import DomainError
from sejoin.ypq import ray_ratio

CHECKER_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "checker.py"
_spec = importlib.util.spec_from_file_location("sejoin_oracle_checker", CHECKER_PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

PAIRS = checker.quasi_regular_pairs(200)
_check_bracket = checker.check_bracket


def _bracket_from_the_bound(coeffs, interval, digits, lower_bound, what):
    """checker.check_bracket, except that a lower end exactly on
    ``lower_bound`` passes.  The checker wants it strictly above, which the
    correct one-unit cell of a root less than 10^-digits above the bound
    (the ratio of (6, 1) at 1 digit is in [1.0, 1.1]) is not; the sign change
    on the cell still puts the root strictly above its lower end."""
    if Fraction(interval[0]) == lower_bound:
        lower_bound -= 1
    _check_bracket(coeffs, interval, digits, lower_bound, what)


# patches this module's private copy of the checker only
checker.check_bracket = _bracket_from_the_bound


@st.composite
def rational_k(draw):
    """k = a/b > 1 in lowest terms with b <= 60 and a <= 8b + 1."""
    b = draw(st.integers(1, 60))
    a = draw(st.integers(b + 1, 8 * b + 1))
    assume(gcd(a, b) == 1)
    return {"k": Fraction(a, b)}


@st.composite
def weights(draw):
    """A coprime pair 10^6 >= w1 > w2 >= 1."""
    w1 = draw(st.integers(2, 10**6))
    w2 = draw(st.integers(1, w1 - 1))
    assume(gcd(w1, w2) == 1)
    return {"w": (w1, w2)}


def test_hypothesis_profile_is_deterministic():
    assert settings.default.derandomize is True
    assert settings.default.database is None


def test_checker_imports_nothing_from_sejoin():
    tree = ast.parse(CHECKER_PATH.read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [m for m in imported if m.split(".")[0] == "sejoin"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PAIRS), st.one_of(rational_k(), weights()), st.integers(1, 1000))
@example((13, 8), {"w": (5, 2)}, 1000)             # irregular
@example((13, 8), {"k": Fraction(2)}, 40)          # the golden quasi-regular record
@example((13, 8), {"w": (999999, 999998)}, 1)      # k in [1.0, 1.1]
def test_records_pass_the_independent_checker(pair, choice, digits):
    p, q = pair
    try:
        rec = build_record(p, q, **choice)
    except DomainError:
        # only a gluing that the checker rejects too: l1 shares a factor with l2*m2
        _, _, m2, _, index = checker.first_factor(p, q)
        w = choice["w"] if "w" in choice else checker.weights_from_k(choice["k"])
        l1, l2 = checker.canonical_gluing(*w, index)
        assert gcd(l1, l2 * m2) != 1
        return
    checker.check_record(record_to_dict(rec, digits), p, q, digits, **choice)


@st.composite
def coprime_pair(draw):
    p = draw(st.integers(2, 500))
    q = draw(st.integers(1, p - 1))
    assume(gcd(p, q) == 1)
    return p, q


@settings(max_examples=100, deadline=None)
@given(coprime_pair(), st.integers(1, 1000))
@example((13, 5), 40)    # irrational ratio
@example((13, 8), 40)    # rational ratio
@example((6, 1), 1)      # ratio in [1.0, 1.1]
def test_ray_ratios_pass_the_independent_checker(pair, digits):
    p, q = pair
    ratio, _ = ray_ratio(p, q)
    if isinstance(ratio, Fraction):
        census = ("r", ratio.numerator, ratio.denominator)
    else:
        census = ("i",) + ratio.decimal_bounds(digits)
    checker.check_census(p, q, census, digits)
