"""Exact-arithmetic kernel tests.

Oracle values here were computed by hand (rational-root theorem, Sturm counts
on paper) before the kernel was written; the suite then checks the kernel
reproduces them bit-exactly, plus algebraic laws on random inputs.
"""

import random
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sejoin.join import se_ray_from_w
from sejoin.kernel import (
    AlgebraicRoot,
    ConsistencyError,
    DEFAULT_ROOT_WIDTH,
    DomainError,
    Polynomial,
    count_roots_open,
    fraction_to_decimal,
    integer_sqrt_exact,
    integrate_sym,
    real_roots,
    sturm_chain,
    sturm_positive_on,
)

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


def test_polynomial_divmod():
    num = Polynomial((-21, 8, 5))        # (5t - 7)(t + 3)
    den = Polynomial((3, 1))
    q, r = divmod(num, den)
    assert q.coeffs == (F(-7), F(5))
    assert r.is_zero()
    q2, r2 = divmod(Polynomial((1, 0, 1)), Polynomial((0, 1)))
    assert q2.coeffs == (F(0), F(1))
    assert r2.coeffs == (F(1),)


def test_polynomial_derivative_antiderivative():
    p = Polynomial((5, 0, -3, 2))
    assert p.derivative().coeffs == (F(0), F(-6), F(6))
    assert p.antiderivative().derivative() == p


def test_scale_arg():
    p = Polynomial((1, 2, 3))
    s = F(1, 2)
    for x in (F(0), F(1), F(-7, 3)):
        assert p.scale_arg(s)(x) == p(s * x)


def test_primitive():
    p = Polynomial((F(1, 2), F(-3, 4)))
    assert p.primitive().coeffs == (F(-2), F(3))
    q = Polynomial((-2, -4))
    assert q.primitive().coeffs == (F(1), F(2))


def _monic_gcd(a, b):
    """Reference gcd by the Euclidean algorithm, independent of sturm_chain."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return (1 / a.leading()) * a


def _solvable(p):
    """p(0) != 0 and p square-free: the input real_roots accepts."""
    return p.coeffs[0] != 0 and _monic_gcd(p, p.derivative()).degree == 0


def test_sturm_chain_ends_in_gcd():
    p = Polynomial((-1, 1))
    sq = p * p * Polynomial((2, 1))  # (z - 1)^2 (z + 2)
    g = sturm_chain(sq)[-1]
    # gcd(sq, sq') = z - 1, up to a constant factor
    assert g.degree == 1 and (1 / g.leading()) * g == p
    assert _monic_gcd(sq, sq.derivative()) == p


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
    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, c in enumerate(b):
                a[shift + j] -= q * c
            a.pop()  # the leading term cancels
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [list(p.coeffs), [i * c for i, c in enumerate(p.coeffs) if i > 0]]
    while chain[-1]:
        chain.append([-c for c in rem(chain[-2], chain[-1])])
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
    chain, classical = sturm_chain(p), _classical_sturm(p)
    assert len(chain) == len(classical)
    for term, ref in zip(chain, classical):
        c = term.leading() / ref.leading()
        assert c > 0 and term == ref * c


# -------------------------------------------------------------- integrate_sym


def test_integrate_sym_odd_vanishes():
    assert integrate_sym(Polynomial((0, 1))) == 0
    assert integrate_sym(Polynomial((0, 84, 0, -552))) == 0


def test_integrate_sym_values():
    assert integrate_sym(Polynomial((1, 0, 1))) == F(8, 3)
    assert integrate_sym(Polynomial((0, 0, 1, 0, 1))) == F(16, 15)
    # mixed: odd part ignored entirely
    assert integrate_sym(Polynomial((84, -552, -252))) == 2 * 84 - F(2, 3) * 252


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_integrate_sym_matches_antiderivative(coeffs):
    p = Polynomial(coeffs)
    anti = p.antiderivative()
    assert integrate_sym(p) == anti(1) - anti(-1)


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
    roots = real_roots(Polynomial((-21, 8, 5)))
    assert roots == [F(-3), F(7, 5)]
    roots = real_roots(Polynomial((-10, 3, 4)))
    assert roots == [F(-2), F(5, 4)]


def test_real_roots_cubic_rational():
    # 33k^3 - 12k^2 - 57k - 102 = 3(k - 2)(11k^2 + 18k + 17), complex pair
    roots = real_roots(Polynomial((-102, -57, -12, 33)))
    assert roots == [F(2)]


def test_real_roots_cubic_irrational():
    # k^3 - k - 2 has one real root near 1.5214
    (root,) = real_roots(Polynomial((-2, -1, 0, 1)))
    assert isinstance(root, AlgebraicRoot)
    assert root > F(3, 2) and root < F(8, 5)
    assert root.hi - root.lo < DEFAULT_ROOT_WIDTH
    lo, hi = root.decimal_bounds(10)
    assert lo == "1.5213797068"
    assert hi == "1.5213797069"


def test_real_roots_mixed():
    # (z - 1)(z^2 - 2): rational 1 between -sqrt2 and sqrt2
    p = Polynomial((-1, 1)) * Polynomial((-2, 0, 1))
    roots = real_roots(p)
    assert len(roots) == 3
    assert isinstance(roots[0], AlgebraicRoot)
    assert roots[1] == 1
    assert isinstance(roots[2], AlgebraicRoot)
    assert roots[2] > F(14, 10) and roots[2] < F(15, 10)


def test_real_roots_repeated():
    p = Polynomial((-1, 1)) * Polynomial((-1, 1))
    with pytest.raises(DomainError):
        real_roots(p)


def test_real_roots_outside_contract_rejected():
    with pytest.raises(DomainError):
        real_roots(Polynomial((0, -2, 0, 1)))    # z^3 - 2z, a root at 0
    sq = Polynomial((-2, 0, 1))
    with pytest.raises(DomainError):
        real_roots(sq * sq)                      # (z^2 - 2)^2, repeated surd


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


def test_algebraic_root_refinement_pure():
    r = AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 2)
    r2 = r.refined(F(1, 10**6))
    assert r2.hi - r2.lo < F(1, 10**6)
    assert (r.lo, r.hi) == (F(1), F(2))
    assert r2.lo >= r.lo and r2.hi <= r.hi


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


def test_algebraic_root_immutable():
    r = AlgebraicRoot(Polynomial((-2, 0, 1)), 1, 2)
    with pytest.raises(AttributeError):
        r.lo = F(0)


# ----------------------------------------------------------- decimal strings


def test_fraction_to_decimal_rounding():
    assert fraction_to_decimal(F(1, 3), 5) == "0.33333"
    assert fraction_to_decimal(F(-1, 3), 5) == "-0.33334"
    assert fraction_to_decimal(F(1, 2), 3) == "0.500"
    assert fraction_to_decimal(F(5), 2) == "5.00"


# -------------------------------------------------------------- random laws


@settings(max_examples=60)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
def test_poly_divmod_law(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    if pb.is_zero():
        return
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert r.is_zero() or r.degree < pb.degree


@settings(max_examples=40)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
def test_real_roots_are_roots_and_counted(coeffs):
    p = Polynomial(coeffs)
    if p.degree < 1:
        return
    if not _solvable(p):
        with pytest.raises(DomainError):
            real_roots(p)
        return
    roots = real_roots(p)
    for r in roots:
        if isinstance(r, Fraction):
            assert p(r) == 0
        else:
            assert p(r.lo) * p(r.hi) < 0
    bound = 1 + max(abs(c) for c in p.coeffs) * 10
    assert count_roots_open(p, -bound, bound) == len(roots)


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
    fractions = [F(a, b) for a, b, _ in linear]
    square_free = (f == 1 and all(e == 1 for _, _, e in linear)
                   and len(set(fractions)) == len(fractions))
    if 0 in fractions or not square_free:
        with pytest.raises(DomainError):
            real_roots(p)
        return
    roots = real_roots(p)
    assert [r for r in roots if isinstance(r, Fraction)] == rational
    surd_roots = [r for r in roots if isinstance(r, AlgebraicRoot)]
    assert len(surd_roots) == 2 * surds
    for root, sign in zip(surd_roots, (-1, 1)):
        assert root.poly == Polynomial((-d, 0, 1))
        assert root.lo * sign > 0 and root.hi * sign > 0


# ------------------------------------------------------ integer bisection


def _fraction_bisection(root, width):
    """Reference: the plain Fraction bisection that refined_interval must
    reproduce step for step, midpoint-root collapse included."""
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
    of its isolating interval that still isolates it with a sign change."""
    c, half = (root.lo + root.hi) / 2, F(5)
    while (count_roots_open(root.poly, c - half, c + half) != 1
           or root.poly(c - half) * root.poly(c + half) >= 0):
        half /= 2
    return AlgebraicRoot(root.poly, c - half, c + half)


def _wide_surd_roots(p):
    """The irrational roots of p, each on a wide isolating interval."""
    return [_widened(r) for r in real_roots(p) if isinstance(r, AlgebraicRoot)]


def _assert_bisection_agrees(root, digits, probes=()):
    # a decimal width, and a width that some bisection step meets exactly
    for width in (F(1, 10**digits), (root.hi - root.lo) / 2**digits):
        assert root.refined_interval(width) == _fraction_bisection(root, width)
    for x in (root.lo, root.hi, (root.lo + root.hi) / 2) + tuple(probes):
        assert root._cmp_fraction(x) == _fraction_cmp(root, x)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=5),
    st.integers(-20, 20).filter(bool),
    st.integers(1, 60),
    st.fractions(0, 1, max_denominator=999),
    st.fractions(0, 1, max_denominator=999),
)
def test_integer_bisection_matches_fraction_bisection(low, lead, digits, f1, f2):
    p = Polynomial(low + [lead])
    assume(_solvable(p))
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
    # the ratio interval is w2/w1 times the dyadic interval of k
    assert all(d & (d - 1) for d in (ray.ratio.lo.denominator, ray.ratio.hi.denominator))
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
    assert r._cmp_fraction(root) == 0
    assert r < root + F(1, 10**50) and r > root - F(1, 10**50)
    for x in (root - F(1, 7), root + F(1, 9), lo, hi):
        assert r._cmp_fraction(x) == _fraction_cmp(r, x)


# ------------------------------------------------------ canonical decimal cell


def _cell(lo, hi, digits):
    """The integer n of a decimal pair (n, n + 1)/10^digits, checked to be
    one unit apart."""
    assert len(lo.split(".")[1]) == len(hi.split(".")[1]) == digits
    n_lo, n_hi = (int(t.replace(".", "")) for t in (lo, hi))
    assert n_hi - n_lo == 1
    return n_lo


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=5),
    st.integers(-20, 20).filter(bool),
    st.integers(1, 40),
    st.fractions(0, 1, max_denominator=999),
    st.fractions(0, 1, max_denominator=999),
)
def test_decimal_bounds_is_the_cell_of_the_number(low, lead, digits, f1, f2):
    p = Polynomial(low + [lead])
    assume(_solvable(p))
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
                      root.refined(F(1, 10**(digits + 3)))):
            assert other.decimal_bounds(digits) == bounds


@pytest.mark.parametrize("poly,lo,hi,digits,bounds", [
    (Polynomial((-1, 10)), 0, 1, 3, ("0.100", "0.101")),
    (Polynomial((-1, 2)), 0, 1, 3, ("0.500", "0.501")),
    (Polynomial((1, 10)), -1, 0, 3, ("-0.100", "-0.099")),
    (Polynomial((-1, 10)), F(-1, 3), F(1, 7), 1, ("0.1", "0.2")),
])
def test_decimal_bounds_rational_root_on_the_grid(poly, lo, hi, digits, bounds):
    assert AlgebraicRoot(poly, lo, hi).decimal_bounds(digits) == bounds


def test_real_roots_exact_order_below_float_resolution():
    # 131836323/93222358 exceeds sqrt(2) by about 4e-17, under the spacing
    # of floats near 1.41; only an exact comparison orders the two
    r = F(131836323, 93222358)
    roots = real_roots(Polynomial((-2, 0, 1)) * Polynomial((-r.numerator, r.denominator)))
    assert roots[2] == r
    assert roots[0] < 0 < roots[1] < r
