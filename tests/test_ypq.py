"""Oracle and property tests for the Y^{p,q} transverse-Einstein layer.

Expected values were frozen from hand derivations before the module was
written: the ray quadratic 2*beta*t^2 + (alpha-beta)*t - 2*alpha = 0 follows
from expanding the defining integral, and each quotient tuple below was
computed longhand from it.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from sejoin import kernel, ypq
from sejoin.catalog import enumerate_ypq
from sejoin.cli import main
from sejoin.kernel import (
    AlgebraicRoot,
    ConsistencyError,
    DomainError,
    Polynomial,
    _primitive_ints,
    integrate_sym,
    real_roots,
    sturm_chain,
)
from sejoin.ypq import (
    YpqEinstein,
    einstein_integrand,
    einstein_ray,
    family_member,
    fano_index,
    hirzebruch_quotient,
    is_quasi_regular,
    ray_ratio,
    solve,
)


# independent oracle: quasi-regularity is a perfect-square condition
def _square_oracle(p, q):
    d = 4 * p * p - 3 * q * q
    r = isqrt(d)
    return r * r == d


def _ray_quadratic(p, q):
    """2*beta*t^2 + (alpha - beta)*t - 2*alpha with (alpha, beta) = (p+q, p-q)/l,
    l = gcd(p+q, p-q)."""
    l = gcd(p + q, p - q)
    alpha, beta = (p + q) // l, (p - q) // l
    return Polynomial((-2 * alpha, alpha - beta, 2 * beta))


class TestValidation:
    def test_rejects_p_not_greater(self):
        with pytest.raises(DomainError):
            is_quasi_regular(5, 5)
        with pytest.raises(DomainError):
            is_quasi_regular(3, 4)

    def test_rejects_q_below_one(self):
        with pytest.raises(DomainError):
            is_quasi_regular(5, 0)

    def test_rejects_common_factor(self):
        with pytest.raises(DomainError):
            is_quasi_regular(14, 6)

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            is_quasi_regular(Fraction(13, 1), 8)

    def test_hirzebruch_quotient_rejects_bad_ray(self):
        with pytest.raises(DomainError):
            hirzebruch_quotient(13, 8, 14, 10)  # not coprime
        with pytest.raises(DomainError):
            hirzebruch_quotient(13, 8, 5, 7)  # v0 <= vinf


class TestQuasiRegular:
    def test_examples(self):
        assert is_quasi_regular(13, 8) is True
        assert is_quasi_regular(13, 5) is False
        assert is_quasi_regular(7, 3) is True

    def test_matches_square_oracle_exhaustive(self):
        for p in range(2, 120):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                assert is_quasi_regular(p, q) == _square_oracle(p, q)


class TestEinsteinRay:
    def test_paper_pairs(self):
        assert einstein_ray(13, 8) == (7, 5)
        assert einstein_ray(13, 7) == (4, 3)

    def test_derived_pairs(self):
        assert einstein_ray(7, 3) == (5, 4)
        assert einstein_ray(7, 5) == (3, 2)
        assert einstein_ray(19, 5) == (8, 7)
        assert einstein_ray(19, 16) == (5, 3)
        assert einstein_ray(37, 33) == (7, 4)

    def test_irrational_ray_raises(self):
        with pytest.raises(DomainError):
            einstein_ray(13, 5)

    def test_ray_ratio_quadratic_13_8(self):
        ratio, quad = ray_ratio(13, 8)
        assert ratio == Fraction(7, 5)
        # l = 1, alpha = 21, beta = 5: 10 t^2 + 16 t - 42
        assert quad.coeffs == (-42, 16, 10)

    def test_ray_ratio_quadratic_37_33(self):
        ratio, quad = ray_ratio(37, 33)
        assert ratio == Fraction(7, 4)
        # l = 2, alpha = 35, beta = 2
        assert quad.coeffs == (-70, 33, 4)
        assert quad(Fraction(7, 4)) == 0

    def test_irrational_ratio_is_bracketed_root(self):
        ratio, quad = ray_ratio(2, 1)
        assert isinstance(ratio, AlgebraicRoot)
        # t^2 + t - 3 after clearing the content of 2t^2 + 2t - 6
        assert ratio.poly.coeffs == (-3, 1, 1)
        assert ratio > 1
        lo, hi = ratio.decimal_bounds(10)
        assert lo == "1.3027756377"

    def test_rational_ratio_matches_closed_form(self):
        # reference: when r^2 = 4p^2 - 3q^2, the ray quadratic's positive
        # root is (r - q)/(2(p - q)); ray_ratio reads it from real_roots
        pairs = []
        for p in range(2, 3001):
            for q in range(1, p):
                d = 4 * p * p - 3 * q * q
                r = isqrt(d)
                if r * r == d and gcd(p, q) == 1:
                    pairs.append((p, q, r))
        assert len(pairs) == 828
        for p, q, r in pairs:
            assert ray_ratio(p, q)[0] == Fraction(r - q, 2 * (p - q))

    def test_integrand_vanishes_only_on_the_ray(self):
        assert integrate_sym(einstein_integrand(13, 8, 7, 5)) == 0
        assert integrate_sym(einstein_integrand(13, 8, 3, 2)) != 0
        assert integrate_sym(einstein_integrand(13, 7, 4, 3)) == 0

    def test_discriminant_identity(self):
        # (alpha-beta)^2 + 16 alpha beta = 4 (4p^2 - 3q^2) / l^2
        for p in range(2, 60):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                l = gcd(p + q, p - q)
                alpha, beta = (p + q) // l, (p - q) // l
                lhs = (alpha - beta) ** 2 + 16 * alpha * beta
                assert lhs * l * l == 4 * (4 * p * p - 3 * q * q)

    def test_ray_quadratic_is_square_free(self):
        # real_roots needs p(0) != 0 and one sign variation, here -, +, +,
        # and the quadratic is square-free; ray_ratio returns this quadratic
        # (checked for p < 60 above), and solving it for every p < 200 would
        # take about 16 s
        for p in range(2, 200):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    quad = _ray_quadratic(p, q)
                    assert Polynomial(sturm_chain(_primitive_ints(quad.coeffs))[-1]).degree == 0
                    assert quad.coeffs[0] != 0
                    signs = [c > 0 for c in quad.coeffs if c]
                    assert sum(a != b for a, b in zip(signs, signs[1:])) == 1

    def test_ray_rational_iff_quasi_regular(self):
        for p in range(2, 60):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                ratio, quad = ray_ratio(p, q)
                assert quad == _ray_quadratic(p, q)
                assert isinstance(ratio, Fraction) == is_quasi_regular(p, q)
                # both sides above share one square test, so also check the
                # ratio against its quadratic directly
                if isinstance(ratio, Fraction):
                    assert quad(ratio) == 0 and ratio > 1
                else:
                    assert ratio.coeffs == tuple(_primitive_ints(quad.coeffs))
                    assert quad(ratio.lo) * quad(ratio.hi) < 0


class TestHirzebruchQuotient:
    def test_paper_examples(self):
        assert hirzebruch_quotient(13, 8, 7, 5) == (13, 91, 65, 70)
        assert hirzebruch_quotient(13, 7, 4, 3) == (13, 52, 39, 36)

    def test_derived_examples(self):
        assert hirzebruch_quotient(7, 3, 5, 4) == (7, 35, 28, 20)
        assert hirzebruch_quotient(7, 5, 3, 2) == (7, 21, 14, 18)
        assert hirzebruch_quotient(19, 5, 8, 7) == (19, 152, 133, 56)
        assert hirzebruch_quotient(19, 16, 5, 3) == (19, 95, 57, 90)
        assert hirzebruch_quotient(37, 33, 7, 4) == (37, 259, 148, 252)

    def test_twist_always_integral_over_enumeration(self):
        for sol in enumerate_ypq(150):
            p, q = sol.p, sol.q
            v0, vinf = einstein_ray(p, q)
            m2, m2_0, m2_inf, a = hirzebruch_quotient(p, q, v0, vinf)
            assert (m2_0, m2_inf) == (m2 * v0, m2 * vinf)
            assert a > 0
            assert ((p + q) * m2_inf - (p - q) * m2_0) == a * p


class TestFanoIndex:
    def test_examples(self):
        assert fano_index(13, 7, 5, 70) == 12
        assert fano_index(13, 4, 3, 36) == 7
        assert fano_index(7, 3, 2, 18) == 5

    def test_index_divides_anticanonical_pair(self):
        sol = solve(13, 8)
        assert sol.anticanonical_coefficients() == (105, 1)
        sol = solve(13, 7)
        assert sol.anticanonical_coefficients() == (60, 1)


class TestSolve:
    def test_golden_a(self):
        sol = solve(13, 8)
        assert sol == YpqEinstein(
            p=13, q=8, v2_0=7, v2_inf=5,
            m2=13, m2_0=91, m2_inf=65, a=70, fano_index=12,
        )

    def test_golden_b(self):
        sol = solve(13, 7)
        # l = gcd(20, 6) = 2 reduces the quadratic to alpha, beta = 10, 3
        assert ray_ratio(13, 7)[1].coeffs == (-20, 7, 6)
        assert (sol.v2_0, sol.v2_inf) == (4, 3)
        assert (sol.m2, sol.m2_0, sol.m2_inf) == (13, 52, 39)
        assert (sol.a, sol.fano_index) == (36, 7)

    def test_irregular_returns_none(self):
        # an irrational ray raises, with the text the CLI prints
        for p, q in ((2, 1), (13, 5)):
            with pytest.raises(DomainError) as exc:
                solve(p, q)
            assert str(exc.value) == (
                "(%d, %d) has no quasi-regular transverse-Einstein ray" % (p, q))

    def test_square_test_alone_rejects_irrational(self, monkeypatch, capsys):
        # the square test decides quasi-regularity, so no root of an
        # irrational ray's quadratic is isolated; a rational ray still reads
        # its ratio from real_roots
        def exact_only(poly):
            roots = real_roots(poly)
            if isinstance(roots[0], AlgebraicRoot):
                raise AssertionError("isolated a root of %r" % (poly,))
            return roots

        monkeypatch.setattr(ypq, "real_roots", exact_only)
        with pytest.raises(DomainError):
            solve(13, 5)
        with pytest.raises(DomainError):
            einstein_ray(13, 5)
        assert (solve(13, 8).v2_0, solve(13, 8).v2_inf) == (7, 5)
        assert main(["join", "--p", "10000000000000061", "--q", "2", "--k", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: (10000000000000061, 2) has no quasi-regular "
                       "transverse-Einstein ray\n")

    def test_solve_makes_two_square_tests(self, monkeypatch):
        # one in is_quasi_regular and one for the isqrt cell in real_roots
        calls = []
        root = kernel.isqrt
        monkeypatch.setattr(kernel, "isqrt", lambda n: calls.append(n) or root(n))
        assert solve(13, 8).v2_0 == 7
        assert len(calls) == 2

    def test_record_is_immutable(self):
        sol = solve(13, 8)
        with pytest.raises(Exception):
            sol.p = 1


def _pairs(p_max):
    return [(s.p, s.q) for s in enumerate_ypq(p_max)]


class TestEnumerate:
    def test_up_to_13(self):
        assert _pairs(13) == [(7, 3), (7, 5), (13, 7), (13, 8)]

    def test_up_to_19(self):
        assert _pairs(19) == [
            (7, 3), (7, 5), (13, 7), (13, 8), (19, 5), (19, 16),
        ]

    def test_contains_37_33(self):
        assert (37, 33) in _pairs(40)

    def test_small_bounds_empty(self):
        assert _pairs(2) == []
        assert _pairs(6) == []


class TestFamily:
    def test_member_zero(self):
        sol = family_member(0)
        assert (sol.p, sol.q) == (7, 5)
        assert (sol.v2_0, sol.v2_inf) == (3, 2)
        assert (sol.m2, sol.a, sol.fano_index) == (7, 18, 5)

    def test_member_one(self):
        sol = family_member(1)
        assert (sol.p, sol.q) == (37, 33)
        assert (sol.v2_0, sol.v2_inf) == (7, 4)
        assert (sol.m2, sol.a, sol.fano_index) == (37, 252, 11)

    def test_member_two(self):
        sol = family_member(2)
        assert (sol.p, sol.q) == (91, 85)
        assert (sol.v2_0, sol.v2_inf) == (11, 6)
        assert sol.m2 == 91
        assert sol.a == 6 * 3 * 5 * 11
        assert sol.fano_index == 17

    def test_member_ten(self):
        # 12*100 + 180 + 7 and 12*100 + 160 + 5
        sol = family_member(10)
        assert (sol.p, sol.q) == (1387, 1365)
        assert (sol.v2_0, sol.v2_inf) == (43, 22)
        assert sol.fano_index == 65

    def test_matches_generic_pipeline_to_50(self):
        for k2 in range(0, 51):
            sol = family_member(k2)
            assert sol == solve(sol.p, sol.q)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            family_member(-1)
        with pytest.raises(DomainError):
            family_member(Fraction(1, 2))


def test_integer_integral_matches_fraction_integral():
    # ray_ratio's check reads the integrand's integer coefficients; they are
    # einstein_integrand's, and vanish on the SE ray exactly when its
    # integral over Fractions does
    rng = random.Random(31)
    pairs = _pairs(200)
    cases = [(p, q) + einstein_ray(p, q) for p, q in pairs]
    cases += [(p, q, v0 + rng.randrange(1, 4), vinf) for p, q, v0, vinf in cases]
    while len(cases) < 400:
        p = rng.randrange(2, 500)
        q = rng.randrange(1, p)
        if gcd(p, q) == 1:
            cases.append((p, q, rng.randrange(1, 10**4), rng.randrange(1, 10**4)))
    hits = 0
    for p, q, v0, vinf in cases:
        ints = ypq._integrand_ints(p, q, v0, vinf)
        assert Polynomial(ints) == einstein_integrand(p, q, v0, vinf)
        vanishes = integrate_sym(einstein_integrand(p, q, v0, vinf)) == 0
        assert (kernel.integrate_sym_ints(ints)[0] == 0) is vanishes
        hits += vanishes
    assert hits == len(pairs)


def test_failed_integral_check_is_an_error(monkeypatch):
    monkeypatch.setattr(ypq, "integrate_sym_ints", lambda coeffs: (1, 1))
    with pytest.raises(ConsistencyError):
        ray_ratio(13, 8)
    # an irrational ratio has no integral to check
    assert isinstance(ray_ratio(5, 2)[0], AlgebraicRoot)


def test_random_quasi_regular_rays_integrate_to_zero():
    rng = random.Random(20260814)
    pairs = _pairs(200)
    assert len(pairs) >= 8
    for p, q in pairs:
        v0, vinf = einstein_ray(p, q)
        assert integrate_sym(einstein_integrand(p, q, v0, vinf)) == 0
    # perturbed rays never integrate to zero
    for p, q in pairs:
        v0, vinf = einstein_ray(p, q)
        d0 = rng.choice([1, 2, 3])
        assert integrate_sym(einstein_integrand(p, q, v0 + d0, vinf)) != 0
