"""Exact-arithmetic kernel tests.

Oracle values here were computed by hand (rational-root theorem, Sturm counts
on paper) before the kernel was written; the suite then checks the kernel
reproduces them bit-exactly, plus algebraic laws on random inputs.
"""

import random
import signal
import sys
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor, gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sejoin import kernel
from sejoin.catalog import build_record
from sejoin.join import se_cubic, se_ray_from_w
from sejoin.kernel import (
    AlgebraicRoot,
    ConsistencyError,
    DomainError,
    Polynomial,
    count_roots_open,
    fraction_to_decimal,
    integer_sqrt_exact,
    integrate_sym,
    integrate_sym_ints,
    mul_ints,
    real_roots,
    sturm_chain,
    sturm_positive_on,
)
from sejoin.ypq import ray_ratio

F = Fraction


# ---------------------------------------------------------------- square roots


def test_integer_sqrt_exact_small():
    assert integer_sqrt_exact(484) == 22
    assert integer_sqrt_exact(0) == 0
    assert integer_sqrt_exact(1) == 1
    assert integer_sqrt_exact(2) is None
    assert integer_sqrt_exact(483) is None
    assert integer_sqrt_exact(485) is None


def test_integer_sqrt_exact_rejects_negative():
    with pytest.raises(DomainError):
        integer_sqrt_exact(-4)


def test_integer_sqrt_exact_512_bit():
    rng = random.Random(11)
    for _ in range(50):
        r = rng.getrandbits(256)
        assert integer_sqrt_exact(r * r) == r
        if r > 1:
            assert integer_sqrt_exact(r * r + 1) is None
            assert integer_sqrt_exact(r * r - 1) is None


# ---------------------------------------------------------------- polynomials


def test_polynomial_normalization_and_eval():
    p = Polynomial((1, 2, 0, 0))
    assert p.degree == 1
    assert p.coeffs == (F(1), F(2))
    assert p(F(3, 2)) == 4
    z = Polynomial(())
    assert z.is_zero() and z.degree == -1 and z(5) == 0


def test_polynomial_immutable():
    p = Polynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (F(9),)


def test_polynomial_arithmetic():
    p = Polynomial((1, 1))       # 1 + z
    q = Polynomial((-1, 1))      # -1 + z
    assert (p * q).coeffs == (F(-1), F(0), F(1))
    assert (p + q).coeffs == (F(0), F(2))
    assert (p - p).is_zero()
    assert (3 * p).coeffs == (F(3), F(3))


def test_polynomial_takes_ints_and_fractions_only():
    # Fraction(x) would let a float or a string in as a rational
    with pytest.raises(TypeError):
        Polynomial((0.5, "1/3"))
    for bad in (0.5, "1/3", 1e-3):
        with pytest.raises(TypeError):
            Polynomial((1, bad))
        with pytest.raises(TypeError):
            Polynomial((1, 1)) * bad
        with pytest.raises(TypeError):
            bad * Polynomial((1, 1))
    assert (Polynomial((1, 1)) * F(1, 3)).coeffs == (F(1, 3), F(1, 3))


def test_root_counts_take_ints_and_fractions_only():
    sqrt2 = Polynomial((-2, 0, 1))
    with pytest.raises(TypeError):
        count_roots_open(sqrt2, 0.5, 2.0)
    with pytest.raises(TypeError):
        count_roots_open(sqrt2, F(1, 2), "2")
    with pytest.raises(TypeError):
        sturm_positive_on(Polynomial((1,)), "0", 1e-3)
    with pytest.raises(TypeError):
        sturm_positive_on(Polynomial((1,)), 0, 1e-3)
    # the same ends as ints and Fractions are taken
    assert count_roots_open(sqrt2, F(1, 2), 2) == 1
    assert sturm_positive_on(Polynomial((1,)), 0, F(1, 1000))


def test_primitive():
    assert kernel._primitive_ints((F(1, 2), F(-3, 4))) == [-2, 3]
    assert kernel._primitive_ints((F(-2), F(-4))) == [1, 2]
    assert kernel._primitive_ints(()) == []


def _long_division(a, b):
    """Reference (quotient, remainder) of the coefficient list a by the
    nonzero list b (lowest degree first), by Fraction long division,
    independent of the kernel; the remainder has no trailing zeros."""
    a, quo = [Fraction(c) for c in a], []
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        quo.append(q)
        shift = len(a) - len(b)
        for j, c in enumerate(b):
            a[shift + j] -= q * c
        a.pop()  # the leading term cancels
    while a and a[-1] == 0:
        a.pop()
    return quo[::-1], a


def _monic_gcd(a, b):
    """Reference gcd by the Euclidean algorithm, independent of sturm_chain."""
    while not b.is_zero():
        a, b = b, Polynomial(_long_division(a.coeffs, b.coeffs)[1])
    return (1 / a.coeffs[-1]) * a


def _derivative(p):
    """p' by the power rule, independent of the kernel."""
    return Polynomial(i * c for i, c in enumerate(p.coeffs) if i)


def _antiderivative(p):
    """The antiderivative of p with constant term 0, by the power rule."""
    return Polynomial([0] + [c / (i + 1) for i, c in enumerate(p.coeffs)])


def _square_free(p):
    """p(0) != 0 and p square-free."""
    return p.coeffs[0] != 0 and _monic_gcd(p, _derivative(p)).degree == 0


def _all_divisors(n):
    """The positive divisors of n > 0, by trial division up to isqrt(n)."""
    small = [u for u in range(1, isqrt(n) + 1) if n % u == 0]
    return sorted(set(small + [n // u for u in small]))


def _unpruned_rational_roots(p):
    """Reference: every candidate +-u/v with u | p(0) and v | lead(p) on the
    primitive integer form of p, tried in turn, each root deflated out as
    often as it divides."""
    ints = kernel._primitive_ints(p.coeffs)
    roots = []
    for u in _all_divisors(abs(ints[0])):
        for v in _all_divisors(ints[-1]):
            for cand in (F(u, v), F(-u, v)):
                if cand not in roots and p(cand) == 0:
                    roots.append(cand)
                    while p.degree > 0 and p(cand) == 0:
                        p = Polynomial(_long_division(p.coeffs, (-cand, 1))[0])
    return sorted(roots), p


def _surd_roots(p):
    """The irrational roots of p, of any degree, by bisecting the Cauchy box
    of p with its rational roots deflated until each cell holds one root and
    a sign change."""
    rest = _unpruned_rational_roots(p)[1]
    if rest.degree < 1:
        return []
    m = _cauchy(rest)
    out, stack = [], [(-m, m)]
    while stack:
        lo, hi = stack.pop()
        count = count_roots_open(rest, lo, hi)
        if count == 1 and rest(lo) * rest(hi) < 0:
            out.append(AlgebraicRoot(rest, lo, hi))
        elif count:
            mid = (lo + hi) / 2
            stack += [(lo, mid), (mid, hi)]
    return out


def _cauchy(p):
    """1 + max |a_i/a_n|: every root of p has a smaller absolute value."""
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.coeffs[-1])


def _all_real_roots(p):
    """Reference: every real root of p, ascending, the rational ones from
    _unpruned_rational_roots and the irrational ones from _surd_roots, whose
    intervals are disjoint cells of one bisection."""
    def order(a, b):
        if isinstance(a, AlgebraicRoot) and isinstance(b, AlgebraicRoot):
            return -1 if a.hi <= b.lo else 1
        return -1 if a < b else 1

    return sorted(_unpruned_rational_roots(p)[0] + _surd_roots(p), key=cmp_to_key(order))


def _checked_real_roots(p):
    """real_roots(p) for p with one sign variation, checked against the
    full-root reference: the one root it returns is the one positive root of
    _all_real_roots(p), the same Fraction or in the same 40-digit cell, and
    every other root is negative since p(0) != 0.  Sturm counts on (0, m)
    and (-m, 0) for the Cauchy bound m confirm both sizes."""
    roots, full = real_roots(p), _all_real_roots(p)
    kept = [r for r in full if r > 0]
    assert len(roots) == len(kept) == 1
    (got,), (ref,) = roots, kept
    assert type(got) is type(ref)
    if isinstance(ref, Fraction):
        assert got == ref
    else:
        assert got.decimal_bounds(40) == ref.decimal_bounds(40)
    m = _cauchy(p)
    assert count_roots_open(p, 0, m) == 1
    assert count_roots_open(p, -m, 0) == len(full) - 1
    return roots


def _one_variation(p):
    """The input real_roots accepts: degree 2 or 3, p(0) != 0 and exactly one
    sign change between consecutive nonzero coefficients, read from p's own
    coefficients; by Descartes' rule p then has one positive root."""
    signs = [c > 0 for c in p.coeffs if c]
    return (p.degree in (2, 3) and p.coeffs[0] != 0
            and sum(a != b for a, b in zip(signs, signs[1:])) == 1)


def test_sturm_chain_ends_in_gcd():
    p = Polynomial((-1, 1))
    sq = p * p * Polynomial((2, 1))  # (z - 1)^2 (z + 2)
    g = Polynomial(sturm_chain(_content_free_ints(sq))[-1])
    # gcd(sq, sq') = z - 1, up to a constant factor
    assert g.degree == 1 and (1 / g.coeffs[-1]) * g == p
    assert _monic_gcd(sq, _derivative(sq)) == p


def _content_free_ints(p):
    """p's coefficients scaled to integers with content 1, keeping the sign
    of the leading one: the list count_roots_open passes to sturm_chain."""
    return kernel._content_free(kernel.clear_denominators(p.coeffs)[0])


def _fraction_horner(coeffs, x):
    """Reference value of sum coeffs[i] * x^i: Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


small_fractions = st.fractions(-20, 20, max_denominator=50)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(small_fractions, max_size=7),
    st.one_of(st.integers(-10**6, 10**6), st.fractions(-100, 100, max_denominator=10**6)),
)
def test_polynomial_call_matches_fraction_horner(coeffs, x):
    # degree 0..6 and the zero polynomial, at int and Fraction points
    value = Polynomial(coeffs)(x)
    assert type(value) is Fraction
    assert value == _fraction_horner(coeffs, x)


def _classical_sturm(p):
    """Reference Sturm sequence p, p', -rem, ... by Fraction long division on
    coefficient lists (lowest degree first), independent of the kernel."""
    chain = [list(p.coeffs), [i * c for i, c in enumerate(p.coeffs) if i > 0]]
    while chain[-1]:
        chain.append([-c for c in _long_division(chain[-2], chain[-1])[1]])
    chain.pop()
    return [Polynomial(t) for t in chain]


# zero coefficients make remainders that drop two or more degrees at once
sparse_lead = st.lists(st.just(F(0)) | small_fractions, min_size=1, max_size=5).filter(
    lambda cs: cs[-1] != 0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_lead.filter(lambda cs: len(cs) > 1), sparse_lead, st.integers(1, 3))
@example([0, 1, 0, 0, 1], [1], 1)  # z^4 + z: the third term has lead < 0 and degree 1
def test_sturm_chain_is_positive_multiple_of_classical(base, factor, e):
    # p = base * factor^e: Fraction coefficients, either sign of the leading
    # coefficient, degree gaps, and for e > 1 a repeated factor, so that
    # gcd(p, p') != 1
    p = Polynomial(base)
    for _ in range(e):
        p = p * Polynomial(factor)
    chain = [Polynomial(t) for t in sturm_chain(_content_free_ints(p))]
    classical = _classical_sturm(p)
    assert len(chain) == len(classical)
    for term, ref in zip(chain, classical):
        c = term.coeffs[-1] / ref.coeffs[-1]
        assert c > 0 and term == ref * c


@pytest.mark.parametrize("coeffs,prems,last", [
    ((-2, 0, 1), 1, 0),            # z^2 - 2: p, p', then the constant
    ((-15, -8, -1, 6), 2, 0),      # se_cubic(5, 2), square-free
    ((0, 0, 1), 1, 1),             # z^2: the last term z is gcd(p, p')
])
def test_sturm_chain_stops_at_a_constant_term(monkeypatch, coeffs, prems, last):
    # the remainder by a constant is zero, so it is not computed; a last
    # term of positive degree is found by its zero remainder
    calls = []
    prem = kernel._pseudo_remainder
    monkeypatch.setattr(kernel, "_pseudo_remainder",
                        lambda a, b: calls.append(b) or prem(a, b))
    chain = sturm_chain(list(coeffs))
    assert len(calls) == prems and len(chain[-1]) - 1 == last


# -------------------------------------------------------------- integrate_sym


def test_integrate_sym_odd_vanishes():
    assert integrate_sym(Polynomial((0, 1))) == 0
    assert integrate_sym(Polynomial((0, 84, 0, -552))) == 0


def test_integrate_sym_values():
    assert integrate_sym(Polynomial((1, 0, 1))) == F(8, 3)
    assert integrate_sym(Polynomial((0, 0, 1, 0, 1))) == F(16, 15)
    # mixed: odd part ignored entirely
    assert integrate_sym(Polynomial((84, -552, -252))) == 2 * 84 - F(2, 3) * 252


@settings(derandomize=True, database=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_integrate_sym_matches_antiderivative(coeffs):
    p = Polynomial(coeffs)
    anti = _antiderivative(p)
    assert integrate_sym(p) == anti(1) - anti(-1)


@settings(derandomize=True, database=None)
@given(st.lists(st.integers(-50, 50), max_size=6), st.lists(st.integers(-50, 50), max_size=6),
       st.integers(1, 12))
def test_integer_helpers_match_fraction_arithmetic(a, b, d):
    # the one product and the one integral, on integer lists, against the
    # schoolbook product and the antiderivative over Fractions
    prod = mul_ints(a, b)
    ref = [F(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            ref[i + j] += x * y
    assert prod == ref
    assert Polynomial(F(c, d) for c in a) * Polynomial(b) == Polynomial(F(c, d) for c in ref)
    n, den = integrate_sym_ints(prod)
    anti = _antiderivative(Polynomial(prod))
    assert den > 0 and F(n, den) == anti(1) - anti(-1)
    assert integrate_sym(Polynomial(F(c, d) for c in prod)) == F(n, den * d)


def test_integrate_sym_ints_denominator():
    assert integrate_sym_ints([]) == (0, 1)
    assert integrate_sym_ints([5, 7]) == (10, 1)
    # 2*1 + 2*1/3 + 2*1/5 over lcm(1, 3, 5)
    assert integrate_sym_ints([1, 9, 1, 9, 1]) == (30 + 10 + 6, 15)


# ------------------------------------------------------------ root counting


def test_count_roots_open():
    p = Polynomial((-21, 8, 5))  # roots -3, 7/5
    assert count_roots_open(p, -10, 10) == 2
    assert count_roots_open(p, 0, 2) == 1
    assert count_roots_open(p, -3, 2) == 1      # endpoint root excluded
    assert count_roots_open(p, F(7, 5), 2) == 0


def test_count_roots_open_square_factor():
    p = Polynomial((-1, 1)) * Polynomial((-1, 1)) * Polynomial((3, 1))
    assert count_roots_open(p, 0, 2) == 1
    assert count_roots_open(p, -10, 10) == 2


def _reference_count(p, lo, hi):
    """Distinct roots of p in (lo, hi), independent of the kernel: roots at
    the ends are divided out, then the sign variations of the classical
    Sturm sequence are read from Fraction values at lo and hi."""
    coeffs = list(p.coeffs)
    for x in (lo, hi):
        while len(coeffs) > 1 and _fraction_horner(coeffs, x) == 0:
            coeffs = _long_division(coeffs, (-x, 1))[0]
    if len(coeffs) < 2:
        return 0

    def variations(x):
        values = [_fraction_horner(t.coeffs, x) for t in _classical_sturm(Polynomial(coeffs))]
        signs = [v > 0 for v in values if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


@st.composite
def counted_intervals(draw):
    """(p, lo, hi): p = base * factor^e * (z - r)^m with Fraction
    coefficients, so p may have repeated factors, and Fraction ends, either
    or both of which may be the root r."""
    p = Polynomial(draw(sparse_lead))
    factor = Polynomial(draw(sparse_lead))
    for _ in range(draw(st.integers(0, 2))):
        p = p * factor
    r = draw(small_fractions)
    for _ in range(draw(st.integers(0, 3))):
        p = p * Polynomial((-r, 1))
    ends = st.just(r) | small_fractions
    lo, hi = draw(ends), draw(ends)
    assume(lo != hi)
    return p, min(lo, hi), max(lo, hi)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(counted_intervals())
@example((Polynomial((-1, 1)) * Polynomial((-1, 1)) * Polynomial((2, 1)), F(-2), F(1)))
@example((Polynomial((F(-1, 2), 1)) * Polynomial((-2, 0, 1)), F(1, 2), F(3, 2)))
def test_count_roots_open_matches_classical_sturm(case):
    p, lo, hi = case
    assert count_roots_open(p, lo, hi) == _reference_count(p, lo, hi)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_lead, st.fractions(-5, 5, max_denominator=6), st.integers(0, 3))
@example([F(-1, 2), 0, 1], F(1, 2), 2)  # deflated twice, then 1/2 is no root
@example([1, 2, 1], F(-1), 1)          # -1 is a root of base too
def test_deflation_matches_fraction_long_division(base, root, e):
    # p = base * (d z - n)^e, scaled to integers: the endpoint root n/d
    # repeated e times or more, as count_roots_open meets it
    n, d = root.numerator, root.denominator
    p = Polynomial(base)
    for _ in range(e):
        p = p * Polynomial((-n, d))
    ints, deflations = kernel.clear_denominators(p.coeffs)[0], 0
    while True:
        quo, rem = _long_division(ints, (-n, d))
        if rem:
            with pytest.raises(ConsistencyError):
                kernel._deflate(ints, n, d)
            break
        # Gauss's lemma: dividing by the primitive d z - n keeps integers
        assert all(q.denominator == 1 for q in quo)
        ints = kernel._deflate(ints, n, d)
        assert ints == quo
        deflations += 1
    assert deflations >= e


def test_deflation_by_a_non_root_is_a_consistency_error():
    # z^2 - 2 at 1: every division by d = 1 is exact, and the remainder -1
    # is left at the end; at 1/2 the first division by 2 is not exact
    for n, d in ((1, 1), (1, 2), (0, 1)):
        with pytest.raises(ConsistencyError):
            kernel._deflate([-2, 0, 1], n, d)
    assert kernel._deflate([0, -2, 0, 1], 0, 1) == [-2, 0, 1]


def _no_fraction_evaluation(self, x):
    raise AssertionError("Polynomial.__call__(%r, %s)" % (self, x))


def test_root_counts_build_no_fraction_values(monkeypatch):
    # the Sturm count, the sign-change test and every sign an AlgebraicRoot
    # reads run on its integer coefficients, and a root at an end of the
    # interval is divided out on them
    ends = Polynomial((-1, 0, 1)) * Polynomial((-1, 0, 1)) * Polynomial((2, -1))
    fallback = AlgebraicRoot(Polynomial((1 - F(2, 10**30), -2, 1)), 1, 3)
    ray = se_ray_from_w(5, 2)
    monkeypatch.setattr(Polynomial, "__call__", _no_fraction_evaluation)
    assert count_roots_open(se_cubic(5, 2), 1, 3) == 1
    assert count_roots_open(Polynomial((F(-1, 3), 0, F(3, 2))), F(-1, 7), F(5, 9)) == 1
    r = AlgebraicRoot(Polynomial((-2, 0, 1)), F(4, 3), F(3, 2))
    assert (r.lo, r.hi) == (F(4, 3), F(3, 2))
    # the bisection fallback of decimal_bounds (test_decimal_bounds_falls_back_to_bisection)
    assert fallback.decimal_bounds(40) == ("1.0000000000000014142135623730950488016887",
                                           "1.0000000000000014142135623730950488016888")
    assert ray.k.scaled(F(2, 5)).decimal_bounds(40) == (
        "0.6991391062958472643459309298760743599062",
        "0.6991391062958472643459309298760743599063")
    assert not ray.ratio > 1
    # a build scales its polynomial to integers once, and builds no
    # Polynomial, so no Fraction normal form either
    quad, scalings = Polynomial((F(-26, 3), F(5, 7), F(16, 3))), []
    clear = kernel.clear_denominators
    monkeypatch.setattr(kernel, "clear_denominators",
                        lambda values: scalings.append(values) or clear(values))
    monkeypatch.setattr(Polynomial, "__init__",
                        lambda self, coeffs=(): pytest.fail("Polynomial built"))
    root = AlgebraicRoot(quad, 0, 10)
    assert len(scalings) == 1 and root.coeffs == (-182, 15, 112)
    # (z^2 - 1)^2 (2 - z): the double roots at -1 and 1 are deflated out
    assert count_roots_open(ends, -1, 1) == 0 and count_roots_open(ends, 1, 3) == 1


def test_sturm_positive_on():
    assert sturm_positive_on(Polynomial((1, 0, -1)), -1, 1)      # 1 - z^2
    assert not sturm_positive_on(Polynomial((0, 1)), -1, 1)      # z changes sign
    assert not sturm_positive_on(Polynomial((-1, 0, 1)), -1, 1)  # negative inside
    # endpoint roots tolerated
    assert sturm_positive_on(Polynomial((0, 0, 1)) * Polynomial((-1,)) + Polynomial((1,)), -1, 1)


def test_sturm_positive_empty_interval():
    with pytest.raises(DomainError):
        sturm_positive_on(Polynomial((1,)), 1, 1)


# ---------------------------------------------------------------- real_roots


def test_real_roots_rational():
    # (5z - 7)(z + 3) and (4z - 5)(z + 2): the roots -3 and -2 are dropped
    assert _checked_real_roots(Polynomial((-21, 8, 5))) == [F(7, 5)]
    assert _checked_real_roots(Polynomial((-10, 3, 4))) == [F(5, 4)]
    # a constant and lines, with a positive or a negative root, have no
    # degree 2 or 3
    for coeffs in ((F(5, 3),), (F(1, 2), F(-3, 4)), (2, 1)):
        with pytest.raises(DomainError):
            real_roots(Polynomial(coeffs))


def test_real_roots_cubic_rational():
    # 33k^3 - 12k^2 - 57k - 102 = 3(k - 2)(11k^2 + 18k + 17), complex pair
    roots = real_roots(Polynomial((-102, -57, -12, 33)))
    assert roots == [F(2)]


def test_real_roots_cubic_irrational():
    # k^3 - k - 2 has one real root near 1.5214
    (root,) = real_roots(Polynomial((-2, -1, 0, 1)))
    assert isinstance(root, AlgebraicRoot)
    assert root > F(3, 2) and root < F(8, 5)
    lo, hi = root.decimal_bounds(10)
    assert lo == "1.5213797068"
    assert hi == "1.5213797069"


def test_real_roots_mixed():
    # (z - 1)(z^2 + 4z + 2): rational 1, the surds -2 -+ sqrt2 dropped
    assert _checked_real_roots(Polynomial((-1, 1)) * Polynomial((2, 4, 1))) == [1]
    # (z + 1)(z^2 - 2): sqrt2, with the rational -1 and -sqrt2 dropped
    (root,) = _checked_real_roots(Polynomial((1, 1)) * Polynomial((-2, 0, 1)))
    assert isinstance(root, AlgebraicRoot)
    assert root > F(14, 10) and root < F(15, 10)
    # (z - 1)(z^2 - 2): two positive roots, 1 and sqrt2, and two variations
    with pytest.raises(DomainError):
        real_roots(Polynomial((-1, 1)) * Polynomial((-2, 0, 1)))


def test_real_roots_repeated():
    # a repeated positive root makes two sign variations or more:
    # (z - 1)^2 and (z - 1)^2 (z + 1)
    p = Polynomial((-1, 1)) * Polynomial((-1, 1))
    for q in (p, p * Polynomial((1, 1))):
        with pytest.raises(DomainError, match="one sign variation"):
            real_roots(q)


def test_simple_positive_root_beside_a_double_negative_root():
    # (z - 2)(z + 1)^2 = z^3 - 3z - 2 has one variation, so its positive
    # root 2 is simple; the double root -1 is dropped
    p = Polynomial((-2, 1)) * Polynomial((1, 1)) * Polynomial((1, 1))
    assert p.coeffs == (-2, -3, 0, 1)
    assert _checked_real_roots(p) == [F(2)]


def test_one_positive_root_but_three_variations_rejected():
    # z^3 - z^2 + z - 1 = (z - 1)(z^2 + 1): one positive root, but the
    # contract is the sign variation, not the root count
    with pytest.raises(DomainError, match="one sign variation"):
        real_roots(Polynomial((-1, 1, -1, 1)))


def test_real_roots_outside_contract_rejected():
    with pytest.raises(DomainError):
        real_roots(Polynomial((0, -2, 0, 1)))    # z^3 - 2z, a root at 0
    sq = Polynomial((-2, 0, 1))
    with pytest.raises(DomainError):
        real_roots(sq * sq)                      # (z^2 - 2)^2, repeated surd
    with pytest.raises(DomainError):
        real_roots(Polynomial((1, -3, 0, 1)))    # z^3 - 3z + 1, two positive surds
    with pytest.raises(DomainError):
        real_roots(Polynomial((1, 0, -10, 0, 1)))  # z^4 - 10z^2 + 1, degree 4


@pytest.mark.parametrize("coeffs", [
    (1, 1, 0, 1),     # z^3 + z + 1: one real root, negative
    (1, -3, 0, 1),    # z^3 - 3z + 1: two positive roots and a negative one
    (1, 1, 1, 1),     # (z + 1)(z^2 + 1): a negative rational root only
])
def test_cubic_without_one_positive_root_rejected(coeffs):
    # a cubic with no positive rational root has its one interval (0, m)
    with pytest.raises(DomainError):
        real_roots(Polynomial(coeffs))


def _cauchy_bisection(p):
    """Reference interval of an irrational cubic root: the Fraction
    bisection of (0, m), m the Cauchy bound, down to NEWTON_START."""
    return _fraction_bisection(AlgebraicRoot(p, 0, _cauchy(p)), kernel.NEWTON_START)


def test_cubic_one_positive_root_among_three():
    # z^3 - 3z - 1: roots near -1.53, -0.35 and 1.88; the positive one is
    # isolated by bisecting (0, 4) and not by the box (0, 4) itself
    p = Polynomial((-1, -3, 0, 1))
    (root,) = _checked_real_roots(p)
    assert (root.lo, root.hi) == _cauchy_bisection(p)
    assert F(187, 100) < root.lo < root.hi < F(189, 100)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 10**6), st.integers(1, 10**4))
@example(5, 2)
@example(10**6, 1)
def test_cubic_root_interval_is_the_bisection_of_the_cauchy_box(w1, w2):
    # narrower than NEWTON_START, inside (0, m), with a sign change, and the
    # bisection of (0, m) to that width, built on integers
    assume(w2 < w1 and gcd(w1, w2) == 1)
    p = se_cubic(w1, w2)
    (root,) = real_roots(p)
    assume(isinstance(root, AlgebraicRoot))
    assert root.hi - root.lo < kernel.NEWTON_START
    assert 0 <= root.lo < root.hi <= _cauchy(p)
    assert p(root.lo) * p(root.hi) < 0
    assert (root.lo, root.hi) == _cauchy_bisection(p)


def test_printed_cubic_roots_bisect_no_further(monkeypatch):
    # k and its ratio k*w2/w1 start decimal_bounds' Newton steps from their
    # own intervals, with no polynomial evaluated to get there
    rays = [se_ray_from_w(*w) for w in ((5, 2), (7, 3), (35, 11), (10**6 + 1, 7))]

    def evaluated(*args):
        pytest.fail("evaluated %r" % (args,))

    monkeypatch.setattr(kernel, "_scaled_value", evaluated)
    monkeypatch.setattr(Polynomial, "__call__", evaluated)
    for ray in rays:
        for root in (ray.k, ray.ratio):
            assert root.refined_interval(kernel.NEWTON_START) == (root.lo, root.hi)


def test_missed_rational_root_is_a_consistency_error(monkeypatch):
    # z^3 - 1 has its root 1 at the first midpoint of (0, 2); with no trial
    # candidates the bisection meets it, which trial division rules out
    monkeypatch.setattr(kernel, "_divisors", lambda n: [])
    with pytest.raises(ConsistencyError, match="trial division missed"):
        real_roots(Polynomial((-1, 0, 0, 1)))


def test_real_roots_zero_poly_rejected():
    with pytest.raises(DomainError):
        real_roots(Polynomial(()))


# --------------------------------------------------------- AlgebraicRoot API


def test_algebraic_root_validation():
    p = Polynomial((-2, 0, 1))
    with pytest.raises(DomainError):
        AlgebraicRoot(p, 2, 1)          # empty interval
    with pytest.raises(DomainError):
        AlgebraicRoot(p, 2, 3)          # no sign change
    with pytest.raises(DomainError):
        AlgebraicRoot(p, -2, 2)         # two roots
    # a list is taken as primitive integer coefficients, and checked as such
    assert AlgebraicRoot([-2, 0, 1], 1, 2).coeffs == AlgebraicRoot(p, 1, 2).coeffs
    for coeffs in ([2, 0, -1], [-4, 0, 2], [-2, 0, 1, 0], []):
        with pytest.raises(DomainError):
            AlgebraicRoot(coeffs, 1, 2)


def test_algebraic_root_refinement_pure():
    r = AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 2)
    lo, hi = r.refined_interval(F(1, 10**6))
    assert hi - lo < F(1, 10**6)
    assert (r.lo, r.hi) == (F(1), F(2))
    assert lo >= r.lo and hi <= r.hi


def test_algebraic_root_decimal_bounds_certified():
    r = AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 2)
    lo, hi = r.decimal_bounds(30)
    # sqrt(2) = 1.414213562373095048801688724209(69...)
    assert lo == "1.414213562373095048801688724209"
    assert hi == "1.414213562373095048801688724210"
    assert len(lo.split(".")[1]) == 30 and len(hi.split(".")[1]) == 30


def _assert_incomparable(a, b):
    """a < b and a > b raise TypeError at once; the alarm fails the test
    instead of letting a comparison that never returns hang the suite."""
    def hang(signum, frame):
        raise AssertionError("comparison of %r and %r did not return" % (a, b))
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(TypeError):
            a < b
        with pytest.raises(TypeError):
            a > b
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_algebraic_root_comparisons():
    sqrt2 = AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 2)
    sqrt3 = AlgebraicRoot(Polynomial((-3, 0, 1)), 1, 2)
    _assert_incomparable(sqrt2, sqrt3)
    _assert_incomparable(sqrt3, sqrt2)
    # the same number twice: bisecting both intervals would never separate them
    _assert_incomparable(sqrt2, AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 3))
    _assert_incomparable(sqrt2, AlgebraicRoot(Polynomial((-4, 0, 0, 0, 1)), 1, 2))
    assert sqrt2 > F(14, 10)
    assert sqrt2 < F(142, 100)
    assert sqrt2 > 1
    assert not (sqrt2 < F(7, 5)) or not (sqrt2 > F(7, 5))


def test_algebraic_root_rejects_bool():
    # a bool is an int, but no rational operand, as at every other gate
    ratio = se_ray_from_w(2, 1).ratio
    for flag in (True, False):
        with pytest.raises(TypeError):
            ratio < flag
        with pytest.raises(TypeError):
            ratio > flag
    assert ratio > 0 and ratio < 1


def test_algebraic_root_equality():
    sqrt2 = AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 2)
    assert sqrt2 == AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 3)
    assert sqrt2 == AlgebraicRoot([-2, 0, 1], F(7, 5), F(3, 2))
    assert hash(sqrt2) == hash(AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 3))
    # -sqrt(2) has the same coeffs; the intervals tell them apart
    minus = AlgebraicRoot(Polynomial((-2, 0, 1)), -2, -1)
    assert minus.coeffs == sqrt2.coeffs
    assert sqrt2 != minus and minus != sqrt2
    # -sqrt(2) and sqrt(2) on intervals that overlap, but hold one root each
    assert AlgebraicRoot([-2, 0, 1], -2, F(1, 2)) != AlgebraicRoot([-2, 0, 1], 0, 2)
    # another polynomial, or no AlgebraicRoot at all
    assert sqrt2 != AlgebraicRoot(Polynomial((-3, 0, 1)), 1, 2)
    assert sqrt2 != F(7, 5) and sqrt2 != 1
    # a scaled copy is the same number as the root built on its polynomial
    t, _ = ray_ratio(5, 2)
    assert t.scaled(F(1, 3)) == AlgebraicRoot(t.scaled(F(1, 3)).coeffs, 0, 1)
    # equal irregular records, rebuilt
    assert build_record(13, 8, w=(5, 2)) == build_record(13, 8, w=(5, 2))
    assert build_record(13, 8, w=(5, 2)) != build_record(13, 8, w=(7, 2))


def test_algebraic_root_immutable():
    r = AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 2)
    with pytest.raises(AttributeError):
        r.lo = F(0)


@pytest.mark.parametrize("lo,hi,width", [(1.0, 1.5, 1e-5), ("1", "3/2", "1/100000")])
def test_algebraic_root_takes_ints_and_fractions_only(lo, hi, width):
    # Fraction(x) would let a float or a string in as a rational
    t, _ = ray_ratio(5, 2)
    sqrt2 = Polynomial((-2, 0, 1))
    for bad in (lo, hi, width):
        with pytest.raises(TypeError):
            t < bad
        with pytest.raises(TypeError):
            t > bad
        with pytest.raises(TypeError):
            t.scaled(bad)
    with pytest.raises(TypeError):
        t.refined_interval(width)
    with pytest.raises(TypeError):
        AlgebraicRoot(sqrt2, lo, 2)
    with pytest.raises(TypeError):
        AlgebraicRoot(sqrt2, 1, hi)
    # the same values as Fractions are taken
    assert t > F(lo) and t < F(hi) + 1
    assert t.refined_interval(F(width)) == t.refined_interval(F(1, 10**5))
    assert AlgebraicRoot(sqrt2, F(lo), F(hi)).decimal_bounds(3) == ("1.414", "1.415")


# ----------------------------------------------------------- decimal strings


def test_fraction_to_decimal_rounding():
    assert fraction_to_decimal(F(1, 3), 5) == "0.33333"
    assert fraction_to_decimal(F(-1, 3), 5) == "-0.33334"
    assert fraction_to_decimal(F(1, 2), 3) == "0.500"
    assert fraction_to_decimal(F(5), 2) == "5.00"


# -------------------------------------------------------------- random laws


@settings(max_examples=40, derandomize=True, database=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
def test_real_roots_are_roots_and_counted(coeffs):
    # every drawn p, of degree -1 to 4: one sign variation gives the one
    # positive root, anything else DomainError
    p = Polynomial(coeffs)
    if not _one_variation(p):
        with pytest.raises(DomainError):
            real_roots(p)
        return
    (r,) = _checked_real_roots(p)
    if isinstance(r, Fraction):
        assert p(r) == 0
    else:
        # r isolates the positive root of p itself: an isqrt interval of a
        # quadratic, or (0, m) for a cubic, as (z+1)(z^2-2) on (0, 3)
        assert r.poly(r.lo) * r.poly(r.hi) < 0 and r.lo >= 0
        assert r.poly.degree == p.degree and not _long_division(p.coeffs, r.poly.coeffs)[1]


def _below_sqrt(x, d):
    """x < sqrt(d), decided exactly for d > 0."""
    return x < 0 or x * x < d


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.fractions(-5, 5, max_denominator=4).filter(bool),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 3), st.integers(1, 3)),
             max_size=2),
    st.integers(-10, 12).filter(lambda d: d < 0 or integer_sqrt_exact(d) is None),
    st.integers(1, 3),
    st.fractions(-6, 6, max_denominator=3),
    st.fractions(-6, 6, max_denominator=3),
)
@example(F(1), [], 2, 1, F(-6), F(6))  # z^2 - 2: its vertex 0 ends both intervals
def test_repeated_factors_counted_once(c, linear, d, f, lo, hi):
    # p = c * prod (b z - a)^e * (z^2 - d)^f, with d not a square
    p = Polynomial((c,))
    for a, b, e in linear:
        for _ in range(e):
            p = p * Polynomial((-a, b))
    for _ in range(f):
        p = p * Polynomial((-d, 0, 1))
    rational = sorted({F(a, b) for a, b, _ in linear})
    surds = d > 0  # the roots -sqrt(d) and sqrt(d), both irrational
    assume(lo != hi)
    lo, hi = min(lo, hi), max(lo, hi)
    expected = sum(1 for r in rational if lo < r < hi)
    if surds:
        # lo < -sqrt(d) < hi, then lo < sqrt(d) < hi; no rational equals either
        expected += (not _below_sqrt(-lo, d)) and _below_sqrt(-hi, d)
        expected += _below_sqrt(lo, d) and not _below_sqrt(hi, d)
    assert count_roots_open(p, lo, hi) == expected
    if not _one_variation(p):
        with pytest.raises(DomainError):
            real_roots(p)
        return
    # Descartes: one variation, so one positive root counted with its
    # multiplicity, the sum of the exponents of its factors
    positive = [r for r in rational if r > 0]
    multiplicity = sum(e for a, b, e in linear if F(a, b) > 0) + surds * f
    assert multiplicity == 1
    (root,) = _checked_real_roots(p)
    if positive:
        assert [root] == positive
    else:
        # sqrt(d), isolated as a root of p itself
        assert isinstance(root, AlgebraicRoot)
        assert root.poly.degree == p.degree and not _long_division(p.coeffs, root.poly.coeffs)[1]
        # the interval lies on the root's side of 0, which may be one end
        assert root.lo >= 0 and root.hi > 0
        sqrt_d = AlgebraicRoot(Polynomial((-d, 0, 1)), 0, d + 1)
        assert root.decimal_bounds(40) == sqrt_d.decimal_bounds(40)


# ------------------------------------------------------ integer bisection


def _fraction_bisection(root, width):
    """Reference: the plain Fraction bisection that refined_interval must
    reproduce step for step, midpoint-root collapse included, for every
    degree but 2."""
    lo, hi = root.lo, root.hi
    flo = root.poly(lo)
    while hi - lo >= width:
        mid = (lo + hi) / 2
        fmid = root.poly(mid)
        if fmid == 0:
            eps = width / 4
            return mid - eps, mid + eps
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return lo, hi


def _fraction_cmp(root, x):
    """Reference sign of root - x by Fraction bisection."""
    if root.poly(x) == 0 and root.lo < x < root.hi:
        return 0
    lo, hi = root.lo, root.hi
    flo = root.poly(lo)
    while lo < x < hi:
        mid = (lo + hi) / 2
        fmid = root.poly(mid)
        if fmid == 0:
            return -1 if x > mid else 1
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return -1 if hi <= x else 1


def _widened(root):
    """root on the widest interval (c - 5/2^j, c + 5/2^j) about the centre c
    of its refinement below 10^-30 that still isolates it with a sign change."""
    c, half = sum(root.refined_interval(F(1, 10**30))) / 2, F(5)
    while (count_roots_open(root.poly, c - half, c + half) != 1
           or root.poly(c - half) * root.poly(c + half) >= 0):
        half /= 2
        assert half > F(1, 10**30), "no isolating interval about %s" % (c,)
    return AlgebraicRoot(root.poly, c - half, c + half)


def _wide_surd_roots(p):
    """The irrational roots of p, each on a wide isolating interval."""
    return [_widened(r) for r in _surd_roots(p)]


def _isqrt_cell(root, width):
    """Reference for a quadratic's refined_interval(width): with
    d = 2aN, N = ceil(1/width), the cell (j/d, (j + 1)/d) of j = floor(x d)
    clipped to (lo, hi), found by Fraction bisection below 1/d and one
    Fraction sign test at the grid point that its interval may hold; for a
    rational root x, which is then j/d, (x - width/4, x + width/4) clipped."""
    d = 2 * root.poly.coeffs[2] * ceil(1 / width)
    lo, hi = _fraction_bisection(root, F(1, d))
    j = floor(lo * d)
    g = root.poly(F(j + 1, d))
    if F(j + 1, d) < hi and (g == 0 or (g > 0) == (root.poly(lo) > 0)):
        j += 1
    x = F(j, d)
    if root.poly(x) == 0:
        return max(root.lo, x - width / 4), min(root.hi, x + width / 4)
    return max(root.lo, x), min(root.hi, F(j + 1, d))


def _assert_bisection_agrees(root, digits, probes=()):
    # a decimal width, and a width that some bisection step meets exactly;
    # a quadratic refines to its isqrt cell instead
    reference = _isqrt_cell if len(root.coeffs) == 3 else _fraction_bisection
    for width in (F(1, 10**digits), (root.hi - root.lo) / 2**digits):
        assert root.refined_interval(width) == reference(root, width)
    for x in (root.lo, root.hi, (root.lo + root.hi) / 2) + tuple(probes):
        assert root._cmp(x.numerator, x.denominator) == _fraction_cmp(root, x)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=5),
    st.integers(-20, 20).filter(bool),
    st.integers(1, 60),
    st.fractions(0, 1, max_denominator=999),
    st.fractions(0, 1, max_denominator=999),
)
def test_integer_bisection_matches_fraction_bisection(low, lead, digits, f1, f2):
    p = Polynomial(low + [lead])
    assume(_square_free(p))
    roots = _wide_surd_roots(p)
    assume(roots)
    for root in roots:
        _assert_bisection_agrees(root, digits)
        # shrink towards an inner bracket with non-dyadic ends; the outer
        # interval isolates, so any ends between the two still do
        inner_lo, inner_hi = _fraction_bisection(root, (root.hi - root.lo) / 8)
        lo = root.lo + (inner_lo - root.lo) * f1
        hi = root.hi - (root.hi - inner_hi) * f2
        shrunk = AlgebraicRoot(root.poly, lo, hi)
        probes = (inner_lo + (inner_hi - inner_lo) * f1, lo - 1, hi + F(1, 3))
        _assert_bisection_agrees(shrunk, digits, probes)


@pytest.mark.parametrize("w", [(5, 2), (7, 3), (35, 11)])
def test_integer_bisection_on_se_ray_roots(w):
    ray = se_ray_from_w(*w)
    (k,) = _checked_real_roots(se_cubic(*w))
    assert (k.lo, k.hi) == (ray.k.lo, ray.k.hi) == _cauchy_bisection(se_cubic(*w))
    # the ratio interval is w2/w1 times k's interval, with an upper end
    # that is not dyadic
    s = F(w[1], w[0])
    assert (ray.ratio.lo, ray.ratio.hi) == (s * k.lo, s * k.hi)
    d = ray.ratio.hi.denominator
    assert d & (d - 1)
    for root in (ray.k, ray.ratio):
        for digits in (1, 20, 60):
            _assert_bisection_agrees(root, digits)


@pytest.mark.parametrize("poly,lo,hi,root", [
    (Polynomial((-1, 2)), 0, 1, F(1, 2)),          # first midpoint
    (Polynomial((-3, 8)), 0, 1, F(3, 8)),          # third midpoint
    (Polynomial((-5, 12)), F(1, 3), F(1, 2), F(5, 12)),  # non-dyadic ends
])
def test_integer_bisection_midpoint_root(poly, lo, hi, root):
    r = AlgebraicRoot(poly, lo, hi)
    for digits in (1, 5, 40):
        width = F(1, 10**digits)
        assert r.refined_interval(width) == (root - width / 4, root + width / 4)
        assert r.refined_interval(width) == _fraction_bisection(r, width)
    assert r._cmp(root.numerator, root.denominator) == 0
    assert r < root + F(1, 10**50) and r > root - F(1, 10**50)
    for x in (root - F(1, 7), root + F(1, 9), lo, hi):
        assert r._cmp(x.numerator, x.denominator) == _fraction_cmp(r, x)


@st.composite
def quadratic_roots(draw):
    """Both roots of a drawn quadratic with distinct real roots, each on an
    isolating interval with non-dyadic ends: the side of its vertex v in the
    Cauchy box (-m, m), shrunk towards an inner bisection bracket.  One draw
    in three is reducible, (u1 - v1 z)(u2 - v2 z), with rational roots."""
    if draw(st.integers(0, 2)) == 0:
        u1, u2 = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
        v1, v2 = draw(st.integers(1, 60)), draw(st.integers(1, 60))
        assume(u1 * v2 != u2 * v1)
        p = Polynomial((u1, -v1)) * Polynomial((u2, -v2))
    else:
        c, b, a = (draw(st.integers(-10**4, 10**4)) for _ in range(3))
        assume(a and b * b - 4 * a * c > 0)
        p = Polynomial((c, b, a))
    _, b, a = p.coeffs
    v, m = -b / (2 * a), _cauchy(p)
    roots = []
    for lo, hi in ((-m, v), (v, m)):
        root = AlgebraicRoot(p, lo, hi)
        inner_lo, inner_hi = _fraction_bisection(root, (hi - lo) / 8)
        f1, f2 = (draw(st.fractions(0, 1, max_denominator=999)) for _ in range(2))
        roots.append(AlgebraicRoot(p, lo + (inner_lo - lo) * f1, hi - (hi - inner_hi) * f2))
    return roots


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(quadratic_roots(), st.integers(0, 400), st.integers(0, 60))
@example([AlgebraicRoot(Polynomial((-3, 5, 8)), 0, 1)], 40, 3)  # (8z - 3)(z + 1)
# hi = -14142/10^4 lies 10^-4 above the smaller root -sqrt(2), inside its
# cell (-3/2, -1) at width 1, which is clipped to (-3/2, hi)
@example([AlgebraicRoot(Polynomial((-2, 0, 1)), -2, F(-14142, 10**4))], 0, 0)
def test_quadratic_refinement_in_closed_form(roots, digits, halvings):
    # the isqrt cell, with no bisection, at widths from 1 down to 10^-400,
    # also for a rational root (a square discriminant): on (0, 1) the root
    # 3/8 of (8z - 3)(z + 1) collapses to (3/8 - width/4, 3/8 + width/4)
    for root in roots:
        widths = (F(1), F(1, 10**digits), (root.hi - root.lo) / 2**halvings)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_bisection", pytest.fail)
            intervals = [root.refined_interval(width) for width in widths]
        assert intervals == [_isqrt_cell(root, width) for width in widths]
        # both sides of the root at 2^-halvings of (lo, hi), and one side
        # at 10^-digits
        probes = (root.lo, root.hi, (root.lo + root.hi) / 2, root.lo - 1,
                  root.hi + F(1, 3), intervals[1][0]) + intervals[2]
        assert [root._cmp(x.numerator, x.denominator) for x in probes] == [
            _fraction_cmp(root, x) for x in probes]


# ------------------------------------------------------ canonical decimal cell


def _cell(lo, hi, digits):
    """The integer n of a decimal pair (n, n + 1)/10^digits, checked to be
    one unit apart."""
    assert len(lo.split(".")[1]) == len(hi.split(".")[1]) == digits
    n_lo, n_hi = (int(t.replace(".", "")) for t in (lo, hi))
    assert n_hi - n_lo == 1
    return n_lo


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=5),
    st.integers(-20, 20).filter(bool),
    st.integers(1, 40),
    st.fractions(0, 1, max_denominator=999),
    st.fractions(0, 1, max_denominator=999),
)
def test_decimal_bounds_is_the_cell_of_the_number(low, lead, digits, f1, f2):
    p = Polynomial(low + [lead])
    assume(_square_free(p))
    roots = _wide_surd_roots(p)
    assume(roots)
    for root in roots:
        bounds = root.decimal_bounds(digits)
        n = _cell(*bounds, digits)
        # floor(x * 10^digits) = n: x lies strictly inside the cell
        assert root > F(n, 10**digits) and root < F(n + 1, 10**digits)
        # the same number from other isolating intervals, dyadic or not
        inner_lo, inner_hi = _fraction_bisection(root, (root.hi - root.lo) / 8)
        lo = root.lo + (inner_lo - root.lo) * f1
        hi = root.hi - (root.hi - inner_hi) * f2
        for other in (AlgebraicRoot(root.poly, lo, hi),
                      AlgebraicRoot(root.poly, inner_lo, inner_hi),
                      AlgebraicRoot(root.poly, *root.refined_interval(F(1, 10**(digits + 3))))):
            assert other.decimal_bounds(digits) == bounds


@pytest.mark.parametrize("poly,lo,hi,digits,bounds", [
    (Polynomial((-1, 10)), 0, 1, 3, ("0.100", "0.101")),
    (Polynomial((-1, 2)), 0, 1, 3, ("0.500", "0.501")),
    (Polynomial((1, 10)), -1, 0, 3, ("-0.100", "-0.099")),
    (Polynomial((-1, 10)), F(-1, 3), F(1, 7), 1, ("0.1", "0.2")),
    # brackets narrower than a cell that hold a grid point: the root is
    # below it, above it, or on it
    (Polynomial((-1, 7)), F(1425, 10**4), F(1505, 10**4), 2, ("0.14", "0.15")),
    (Polynomial((-1, 7)), F(139, 1000), F(1435, 10**4), 2, ("0.14", "0.15")),
    (Polynomial((-3, 20)), F(1495, 10**4), F(1505, 10**4), 2, ("0.15", "0.16")),
    (Polynomial((-2, 0, 1)), F(14139, 10**4), F(14145, 10**4), 3, ("1.414", "1.415")),
])
def test_decimal_bounds_rational_root_on_the_grid(poly, lo, hi, digits, bounds):
    assert AlgebraicRoot(poly, lo, hi).decimal_bounds(digits) == bounds


@st.composite
def irregular_rays(draw):
    """(ray, s): an irregular SE Reeb ray of weights (w1, w2), with w1 drawn
    decade by decade up to 10^13, and s = w2/w1."""
    decade = draw(st.integers(1, 13))
    w1 = draw(st.integers(max(2, 10**(decade - 1)), 10**decade))
    # trial division of the cubic costs about sqrt(w2) per divisor of w1
    w2 = draw(st.integers(1, min(w1 - 1, 10**4)))
    assume(gcd(w1, w2) == 1)
    ray = se_ray_from_w(w1, w2)
    assume(not ray.quasi_regular)
    return ray, F(w2, w1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(irregular_rays(), st.integers(1, 400))
def test_scaled_root_matches_a_certified_root(case, digits):
    # the ratio k*w2/w1 that se_ray_from_w returns is k.scaled(w2/w1)
    ray, s = case
    k, scaled = ray.k, ray.k.scaled(s)
    # poly(z/s), built on Fractions
    fresh = AlgebraicRoot(Polynomial(c / s**i for i, c in enumerate(k.poly.coeffs)),
                          s * k.lo, s * k.hi)
    for root in (scaled, ray.ratio):
        assert (root.poly, root.lo, root.hi) == (fresh.poly, fresh.lo, fresh.hi)
        assert root.decimal_bounds(digits) == fresh.decimal_bounds(digits)


@pytest.mark.parametrize("s", [0, -1, F(-2, 5)])
def test_scaled_root_needs_a_positive_factor(s):
    with pytest.raises(DomainError):
        AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 2).scaled(s)


def _counted_refinements(patch):
    """The widths of the refined_interval calls made while ``patch`` holds."""
    calls = []
    refined_interval = AlgebraicRoot.refined_interval

    def counted(self, width):
        calls.append(width)
        return refined_interval(self, width)

    patch.setattr(AlgebraicRoot, "refined_interval", counted)
    return calls


def test_roots_are_refined_only_to_print_digits(monkeypatch):
    calls = _counted_refinements(monkeypatch)
    (k,) = real_roots(se_cubic(5, 2))
    t, _ = ray_ratio(13, 5)
    assert k > 1 and t > 1
    assert calls == []
    assert k.decimal_bounds(40) == ("1.7478477657396181608648273246901858997656",
                                    "1.7478477657396181608648273246901858997657")
    assert t.decimal_bounds(40) == ("1.2197063340164078567239922342723212312558",
                                    "1.2197063340164078567239922342723212312559")
    # one refinement per printed root: the cubic's to the bracket that Newton
    # starts from, the quadratic's in closed form to the printed cell
    assert calls == [F(1, 2**16), F(1, 10**40)]


def test_quadratic_refinement_holds_no_grid_point():
    # refined_interval(10^-d) of a Y^{p,q} ray ratio is its isqrt cell on a
    # grid that 10^-d divides, so no k/10^d lies inside it, and the printed
    # cell is floor(lo 10^d)
    for p in range(2, 101):
        for q in range(1, p):
            if gcd(p, q) > 1:
                continue
            ratio, _ = ray_ratio(p, q)
            if isinstance(ratio, Fraction):
                continue
            for digits in (1, 2, 7, 40):
                scale = 10**digits
                lo, hi = ratio.refined_interval(F(1, scale))
                assert F(floor(lo * scale) + 1, scale) >= hi
                assert ratio.decimal_bounds(digits)[0] == fraction_to_decimal(lo, digits)


def _plain_cell(root, digits):
    """Reference: floor(x * 10^digits) for the root x of root.poly in
    (root.lo, root.hi), by Fraction bisection, with the polynomial summed
    term by term, until the bracket lies in one cell."""
    def value(x):
        return sum(c * x**i for i, c in enumerate(root.poly.coeffs))

    scale = 10**digits
    lo, hi = root.lo, root.hi
    lo_positive = value(lo) > 0
    while True:
        n = floor(lo * scale)
        if hi <= F(n + 1, scale):
            return n
        mid = (lo + hi) / 2
        v = value(mid)
        if v == 0:
            return floor(mid * scale)
        if (v > 0) == lo_positive:
            lo = mid
        else:
            hi = mid


@st.composite
def printed_roots(draw):
    """The irrational roots that records print: the SE cubic's k and its
    ratio k*w2/w1, with w1 drawn decade by decade up to 10^13, or a Y^{p,q}
    ray ratio with p <= 500."""
    if draw(st.booleans()):
        ray, _ = draw(irregular_rays())
        return [ray.k, ray.ratio]
    p = draw(st.integers(2, 500))
    q = draw(st.integers(1, p - 1))
    assume(gcd(p, q) == 1)
    ratio, _ = ray_ratio(p, q)
    assume(not isinstance(ratio, Fraction))
    return [ratio]


@settings(max_examples=60, deadline=None)
@given(printed_roots(), st.integers(1, 400))
@example(ray_ratio(13, 5)[:1], 400)
def test_newton_cells_match_plain_bisection(roots, digits):
    with pytest.MonkeyPatch.context() as patch:
        calls = _counted_refinements(patch)
        cells = [_cell(*root.decimal_bounds(digits), digits) for root in roots]
    assert cells == [_plain_cell(root, digits) for root in roots]
    # a cubic's Newton cell passed the exact test, so no cubic root fell back
    # to bisection; a quadratic's root is refined once, to the printed cell
    assert calls == [F(1, 2**16) if len(root.coeffs) == 4 else F(1, 10**digits)
                     for root in roots]


@pytest.mark.parametrize("hi,digits", [(3, 40), (1 + F(1, 2**20), 1)])
def test_decimal_bounds_falls_back_to_bisection(monkeypatch, hi, digits):
    # (z - 1)^2 (z + 1) - 4*10^-30 has roots 1 +- sqrt(2)*10^-15 about its
    # critical point 1, and one near -1.  On (1, 3) Newton nears the double
    # root only linearly and its 40-digit cells fail the exact test; on
    # (1, 1 + 2^-20) its first iterate at 20 bits is 1, where poly' = 0
    root = AlgebraicRoot(Polynomial((1 - F(4, 10**30), -1, -1, 1)), 1, hi)
    calls = _counted_refinements(monkeypatch)
    assert _cell(*root.decimal_bounds(digits), digits) == _plain_cell(root, digits)
    assert calls == [F(1, 2**16), F(1, 10**digits)]


def test_decimal_bounds_cost_grows_with_newton_steps(monkeypatch):
    # 24 evaluations were measured: eleven Newton steps of two each and the
    # cell test.  real_roots already bisected k down to the 2^-16 bracket.
    # One-bit bisection to 4000 digits needs about 13,300.
    calls = []
    scaled_value = kernel._scaled_value

    def counted(coeffs, m, d):
        calls.append(d)
        return scaled_value(coeffs, m, d)

    (k,) = real_roots(se_cubic(5, 2))
    monkeypatch.setattr(kernel, "_scaled_value", counted)
    lo, _ = k.decimal_bounds(4000)
    assert lo.startswith("1.7478477657396181608648273246901858997656")
    assert len(calls) <= 48


def test_census_cells_evaluate_nothing_after_the_build(monkeypatch):
    # a quadratic knows its side of the vertex from the sign stored at lo,
    # so each 40-digit cell of the census is isqrt work alone
    ratios = [ray_ratio(p, q)[0] for p in range(2, 61) for q in range(1, p)
              if gcd(p, q) == 1]
    ratios = [r for r in ratios if not isinstance(r, Fraction)]
    assert len(ratios) > 900

    def fail(*args):
        pytest.fail("_scaled_value%r after the build" % (args,))

    monkeypatch.setattr(kernel, "_scaled_value", fail)
    for ratio in ratios:
        ratio.decimal_bounds(40)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(printed_roots(), st.integers(1, 40),
       st.fractions(F(1, 100), 100, max_denominator=100))
def test_stored_lower_sign_and_cmp_match_the_references(roots, digits, s):
    # _lo_positive is poly's sign at lo, also on a scaled copy, which counts
    # nothing; _cmp places each end of the cells decimal_bounds tries (the
    # Newton cell, its neighbours, the fallback's grid point) as Fraction
    # bisection does
    scale = 10**digits
    for root in roots + [root.scaled(s) for root in roots]:
        assert root._lo_positive == (root.poly(root.lo) > 0)
        n = _cell(*root.decimal_bounds(digits), digits)
        for m in (n - 1, n, n + 1, n + 2):
            assert root._cmp(m, scale) == _fraction_cmp(root, F(m, scale))


@pytest.mark.parametrize("coeffs,root", [
    ((-1, 1, 6), F(1, 3)),                      # 6z^2 + z - 1 = (3z - 1)(2z + 1)
    ((-3, 0, 2), ("1.2247448713", "1.2247448714")),  # 2z^2 - 3: discriminant 24
    ((1, 0, 1), DomainError),                   # z^2 + 1: no sign variation
    ((F(3, 2), F(-1, 4), F(-1, 4)), F(2)),      # -(z - 2)(z + 3)/4: a negative lead
], ids=("rational", "irrational", "no-variation", "negative-lead"))
def test_quadratic_rational_roots_by_discriminant(monkeypatch, coeffs, root):
    # the discriminant, not trial division, decides whether the root is rational
    monkeypatch.setattr(kernel, "_divisors", pytest.fail)
    p = Polynomial(coeffs)
    if root is DomainError:
        with pytest.raises(DomainError):
            real_roots(p)
        return
    (got,) = _checked_real_roots(p)
    if isinstance(root, Fraction):
        assert got == root
    else:
        assert got.decimal_bounds(10) == root


def test_quadratic_vertex_value_is_cross_checked(monkeypatch):
    # p(-b/2a) * a < 0 holds for every accepted quadratic, since a and c
    # have opposite signs; a vertex value of the wrong sign raises
    monkeypatch.setattr(Polynomial, "__call__", lambda self, x: F(1))
    with pytest.raises(ConsistencyError, match="vertex"):
        real_roots(Polynomial((-3, 0, 2)))


def test_quadratic_zero_discriminant_is_a_repeated_root(monkeypatch):
    # a zero discriminant b^2 = 4ac needs ac > 0, so c and a have one sign:
    # the double root 1 of +-(z - 1)^2 makes two variations, and -1 of
    # (z + 1)^2 none
    monkeypatch.setattr(kernel, "_divisors", pytest.fail)
    for coeffs in ((1, -2, 1), (-1, 2, -1), (1, 2, 1)):
        with pytest.raises(DomainError, match="one sign variation"):
            real_roots(Polynomial(coeffs))


def _cauchy_box_roots(p):
    """Reference: the two irrational roots of the quadratic p on the
    intervals (-m, v) and (v, m) between its vertex v and its Cauchy bound m,
    which decimal_bounds bisects down to NEWTON_START."""
    _, b, a = p.coeffs
    v, m = -b / (2 * a), _cauchy(p)
    return [AlgebraicRoot(p, -m, v), AlgebraicRoot(p, v, m)]


def _assert_isqrt_interval(p):
    # the reference holds both roots, one on each side of 0; real_roots
    # returns the positive one
    (root,), refs = real_roots(p), _cauchy_box_roots(p)
    (ref,) = [r for r in refs if r > 0]
    m = _cauchy(p)
    assert count_roots_open(p, 0, m) == count_roots_open(p, -m, 0) == 1
    assert root.hi - root.lo < kernel.NEWTON_START and root.lo >= 0
    assert count_roots_open(p, root.lo, root.hi) == 1
    # floor(x 10^d) = floor(floor(x 10^200) / 10^(200 - d))
    cell = int(ref.decimal_bounds(200)[0].replace(".", ""))
    for digits in (1, 40, 200):
        n = cell // 10**(200 - digits)
        assert root.decimal_bounds(digits) == (
            kernel._scaled_to_decimal(n, digits), kernel._scaled_to_decimal(n + 1, digits))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6).filter(bool),
    st.fractions(-50, 50, max_denominator=60).filter(bool),
)
@example(-1, 1, 1, F(1))          # z^2 + z - 1: discriminant 5
@example(-2, 0, 1, F(-2, 3))      # the roots of z^2 - 2, a negative content
@example(1, 10**6, -1, F(1))      # roots near 0 and 10^6, a negative lead
@example(1, -3, 1, F(1))          # z^2 - 3z + 1: both roots positive
@example(1, 3, 1, F(1))           # z^2 + 3z + 1: both roots negative
def test_quadratic_roots_isolated_by_isqrt(c, b, a, content):
    disc = b * b - 4 * a * c
    assume(disc > 0 and integer_sqrt_exact(disc) is None)
    p = Polynomial((c, b, a)) * content
    if not _one_variation(p):
        # a*c > 0: both roots lie on one side of 0
        with pytest.raises(DomainError):
            real_roots(p)
        return
    _assert_isqrt_interval(p)


def test_ray_quadratic_roots_isolated_by_isqrt(monkeypatch):
    # the Y^{p,q} ray quadratic 2 beta t^2 + (alpha - beta) t - 2 alpha of
    # every irregular pair with p <= 200, isolated by isqrt with no trial
    # division
    monkeypatch.setattr(kernel, "_divisors", pytest.fail)
    for p in range(2, 201):
        for q in range(1, p):
            l = gcd(p + q, p - q)
            alpha, beta = (p + q) // l, (p - q) // l
            if gcd(p, q) == 1 and integer_sqrt_exact(4 * p * p - 3 * q * q) is None:
                _assert_isqrt_interval(Polynomial((-2 * alpha, alpha - beta, 2 * beta)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.integers(-40, 40).filter(bool), st.integers(1, 40)),
             min_size=1, max_size=3),
    st.lists(st.integers(-9, 9), max_size=3),
    st.fractions(-6, 6, max_denominator=5).filter(bool),
)
@example([(97, 12)], [1, 1, 1], F(1))    # (12z - 97)(z^2 + z + 1): the root a0/an
@example([(-97, 12), (1, 1)], [], F(6))  # 6(12z + 97)(z - 1): root 1, -a0/an dropped
@example([(97, 12)], [1, 0, 1], F(1))    # (12z - 97)(z^2 + 1): three variations
@example([(4, 6), (-3, 9)], [5, 7], F(1, 2))  # non-primitive factors
def test_pruned_trial_division_finds_every_rational_root(planted, extra, content):
    # p = content * prod (v z - u) * extra: rational roots planted in a
    # quadratic or a cubic with non-primitive coefficients, repeated
    # factors included
    p = Polynomial((content,)) * Polynomial(extra or [1])
    for u, v in planted:
        p = p * Polynomial((-u, v))
    assume(p.degree in (2, 3))
    if not _one_variation(p):
        with pytest.raises(DomainError):
            real_roots(p)
        return
    positive = [r for r in _unpruned_rational_roots(p)[0] if r > 0]
    (root,) = _checked_real_roots(p)
    # the one positive root is the positive rational root, if there is one
    assert [r for r in (root,) if isinstance(r, Fraction)] == positive


def _trial_candidates(patch):
    """The points num/den at which real_roots itself evaluates a cubic,
    den^3 * p(num/den) on integers, while ``patch`` holds: its trial
    candidates, in order.  Its bisection and the AlgebraicRoot build
    evaluate from frames of their own.  Polynomial.__call__ fails the test,
    so no candidate is tried on Fractions."""
    tried = []
    scaled_value = kernel._scaled_value

    def recorded(coeffs, m, d):
        if sys._getframe(1).f_code is kernel.real_roots.__code__:
            tried.append(F(m, d))
        return scaled_value(coeffs, m, d)

    patch.setattr(kernel, "_scaled_value", recorded)
    patch.setattr(Polynomial, "__call__", pytest.fail)
    return tried


def test_trial_division_tries_each_candidate_once(monkeypatch):
    # only +num/den is tried, and candidates with gcd(num, den) > 1 or at
    # least the Cauchy bound are skipped; trying every +-num/den took 396
    # evaluations, and +-num/den below the bound 202
    tried = _trial_candidates(monkeypatch)
    for w1 in range(2, 8):
        for w2 in range(1, w1):
            if gcd(w1, w2) == 1:
                real_roots(se_cubic(w1, w2))
    assert len(tried) == 101


def test_each_irrational_root_gets_one_sturm_count(monkeypatch):
    # the SE cubic's irrational root costs one chain, the Y^{p,q}
    # quadratic's one positive root one, and the rational root 2 of
    # se_cubic(34, 11) none
    chains = []
    sturm = kernel.sturm_chain

    def counted(p):
        chains.append(p)
        return sturm(p)

    monkeypatch.setattr(kernel, "sturm_chain", counted)
    counts = []
    for call in (lambda: real_roots(se_cubic(5, 2)), lambda: ray_ratio(13, 5),
                 lambda: real_roots(se_cubic(34, 11))):
        del chains[:]
        call()
        counts.append(len(chains))
    assert counts == [1, 1, 0]


def test_trial_division_stops_at_the_first_root(monkeypatch):
    # one variation means one positive root: trial division of
    # se_cubic(34, 11) ends at the first root it finds, 2
    tried = _trial_candidates(monkeypatch)
    assert real_roots(se_cubic(34, 11)) == [F(2)]
    assert len(tried) == 4 and tried[-1] == 2


def test_ray_ratio_scales_its_quadratic_to_integers_once(monkeypatch):
    # in real_roots, which builds the AlgebraicRoot from that integer list
    calls = []
    primitive = kernel._primitive_ints
    monkeypatch.setattr(kernel, "_primitive_ints", lambda c: calls.append(c) or primitive(c))
    ratio, quad = ray_ratio(13, 5)
    assert isinstance(ratio, AlgebraicRoot)
    assert calls == [quad.coeffs]
    assert ratio.coeffs == tuple(primitive(quad.coeffs))


def test_se_ray_scales_its_cubic_to_integers_once(monkeypatch):
    # in real_roots, which builds k's AlgebraicRoot from that integer list
    calls = []
    primitive = kernel._primitive_ints
    monkeypatch.setattr(kernel, "_primitive_ints", lambda c: calls.append(c) or primitive(c))
    ray = se_ray_from_w(5, 2)
    assert isinstance(ray.k, AlgebraicRoot)
    assert calls == [se_cubic(5, 2).coeffs]
    assert ray.k.coeffs == tuple(primitive(se_cubic(5, 2).coeffs))


def test_irregular_record_certifies_one_root(monkeypatch):
    # k gets one Sturm count; its ratio k*w2/w1 inherits k's certificate
    chains, builds = [], []
    sturm, init = kernel.sturm_chain, AlgebraicRoot.__init__

    def counted_chain(p):
        chains.append(p)
        return sturm(p)

    def counted_init(self, poly, lo, hi):
        builds.append(poly)
        init(self, poly, lo, hi)

    monkeypatch.setattr(kernel, "sturm_chain", counted_chain)
    monkeypatch.setattr(AlgebraicRoot, "__init__", counted_init)
    record = build_record(13, 8, w=(5, 2))
    assert isinstance(record.ray.ratio, AlgebraicRoot)
    assert (len(chains), len(builds)) == (1, 1)


def test_real_roots_exact_order_below_float_resolution(monkeypatch):
    # r = 131836323/93222358 exceeds sqrt(2) by about 4e-17, under the
    # spacing of floats near 1.41.  In (z^2 - 2)(93222358 z + 131836323) it
    # is a trial candidate; only the exact test rejects it, and only an
    # exact comparison orders it after the root sqrt(2)
    r = F(131836323, 93222358)
    p = Polynomial((-2, 0, 1)) * Polynomial((r.numerator, r.denominator))
    tried = _trial_candidates(monkeypatch)
    (root,) = real_roots(p)
    monkeypatch.undo()
    assert r in tried
    _checked_real_roots(p)
    assert root > F(1414213562373095048, 10**18) and root < r


# ------------------------------------------------------- integer endpoints


def _larger_root_cell(coeffs, n):
    """(j/e, (j + 1)/e), e = 2an, the isqrt cell of the larger, irrational
    root of the quadratic with integer coefficients (c, b, a), a > 0."""
    c, b, a = coeffs
    j, e = -b * n + isqrt((b * b - 4 * a * c) * n * n), 2 * a * n
    return F(j, e), F(j + 1, e)


class _FractionInterval:
    """Reference: the answers of a root whose isolating interval (lo, hi) is
    kept as two Fractions and read on Fractions.  A quadratic's larger root
    refines to its isqrt cell (j/e, (j + 1)/e), e = 2aN, N = ceil(1/width),
    clipped by max and min; any other degree by plain Fraction bisection.
    Comparisons bisect on Fractions too, and the root s*x lies in
    (s*lo, s*hi)."""

    def __init__(self, root, lo, hi):
        self.coeffs, self.poly, self.lo, self.hi = root.coeffs, root.poly, lo, hi

    def refined_interval(self, width):
        if self.poly.degree != 2:
            return _fraction_bisection(self, width)
        lo, hi = _larger_root_cell(self.coeffs, ceil(1 / F(width)))
        return max(self.lo, lo), min(self.hi, hi)


@st.composite
def integer_endpoint_roots(draw):
    """(root, reference) for an irrational root on the interval that
    real_roots isolates it in: the SE cubic's k for coprime weights with
    w1 <= 10^6 on the bisection of (0, Cauchy bound) below NEWTON_START,
    or a Y^{p,q} ray ratio with coprime p <= 10^4 on its isqrt cell at
    N = 2^16."""
    if draw(st.booleans()):
        w1 = draw(st.integers(2, 10**6))
        # trial division of the cubic costs about sqrt(w2) per divisor of w1
        w2 = draw(st.integers(1, min(w1 - 1, 10**4)))
        assume(gcd(w1, w2) == 1)
        (root,) = real_roots(se_cubic(w1, w2))
        assume(isinstance(root, AlgebraicRoot))
        return root, _FractionInterval(root, *_cauchy_bisection(root.poly))
    p = draw(st.integers(2, 10**4))
    q = draw(st.integers(1, p - 1))
    assume(gcd(p, q) == 1)
    root, _ = ray_ratio(p, q)
    assume(isinstance(root, AlgebraicRoot))
    return root, _FractionInterval(root, *_larger_root_cell(root.coeffs, 2**16))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    integer_endpoint_roots(),
    st.integers(1, 10**6),
    st.integers(0, 200),
    st.integers(1, 200),
    st.fractions(-1, 2, max_denominator=10**6),
    st.fractions(F(1, 10**6), 10**6, max_denominator=10**6),
)
def test_integer_endpoints_match_fraction_endpoints(case, mantissa, places, digits, f, s):
    root, ref = case
    assert (root.lo, root.hi) == (ref.lo, ref.hi)
    assert type(root.lo) is type(root.hi) is Fraction
    # a drawn width, an int one and the interval's own width
    for width in (F(mantissa, 10**places), mantissa, ref.hi - ref.lo):
        assert root.refined_interval(width) == ref.refined_interval(width)
    assert _cell(*root.decimal_bounds(digits), digits) == _plain_cell(ref, digits)
    # the interval's ends, rationals inside and about it, and ints
    probes = (ref.lo, ref.hi, (ref.lo + ref.hi) / 2, ref.lo + (ref.hi - ref.lo) * f,
              floor(ref.lo), ceil(ref.hi)) + ref.refined_interval(F(1, 10**places))
    for x in probes:
        sign = _fraction_cmp(ref, x)
        assert (root < x, root > x) == (sign < 0, sign > 0)
    scaled = root.scaled(s)
    assert (scaled.lo, scaled.hi) == (s * ref.lo, s * ref.hi)


def test_irrational_ratio_builds_few_fractions(monkeypatch):
    # the interval is kept, compared and printed on integers; what is left
    # is the ray quadratic's Polynomial (3), the vertex and its value (2),
    # the isqrt cell's ends (2), and the width and returned ends of the
    # one refinement (3).  Python 3.12 and later build some arithmetic
    # results without Fraction.__new__, so this is an upper bound
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    ratio, _ = ray_ratio(13, 5)
    bounds = ratio.decimal_bounds(40)
    monkeypatch.undo()
    assert bounds == ("1.2197063340164078567239922342723212312558",
                      "1.2197063340164078567239922342723212312559")
    assert len(built) <= 10
