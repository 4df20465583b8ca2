"""Oracle and property tests for the join layer.

The two fully worked joins (Y^{13,8} and Y^{13,7} with weights (34,11)) and
the (17,3) family member serve as frozen fixtures; every derived quantity
below was recomputed by hand before being asserted.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sejoin import join
from sejoin.bott import BottOrbifold
from sejoin.catalog import enumerate_joins, enumerate_ypq
from sejoin.join import (
    JoinQuotient,
    JoinSpec,
    ReebRay,
    canonical_l,
    quotient_orbifold,
    se_cubic,
    se_ray_from_w,
    smoothness_check,
    verify_se_ray,
    w_from_k,
)
from sejoin.kernel import (
    AlgebraicRoot,
    ConsistencyError,
    DegenerateEquationError,
    DomainError,
    Polynomial,
    _primitive_ints,
    count_roots_open,
    integrate_sym,
    real_roots,
    sturm_chain,
)
from sejoin.ypq import solve

YPQ_A = solve(13, 8)
YPQ_B = solve(13, 7)
FAMILY0 = solve(7, 5)


class TestCanonicalL:
    def test_worked_examples(self):
        assert canonical_l(34, 11, 12) == (4, 15)
        assert canonical_l(34, 11, 7) == (7, 45)

    def test_family_form(self):
        for t in range(1, 6):
            l1 = 306 * t + 13
            assert canonical_l(17, 3, 5 * l1) == (l1, 4)

    def test_family_base_member(self):
        assert canonical_l(17, 3, 5) == (1, 4)

    def test_output_coprime(self):
        rng = random.Random(7)
        for _ in range(300):
            w2 = rng.randrange(1, 40)
            w1 = rng.randrange(w2 + 1, 80)
            if gcd(w1, w2) != 1:
                continue
            idx = rng.randrange(1, 60)
            l1, l2 = canonical_l(w1, w2, idx)
            assert gcd(l1, l2) == 1
            assert l1 * gcd(w1 + w2, idx) == idx
            assert l2 * gcd(w1 + w2, idx) == w1 + w2

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            canonical_l(11, 34, 12)
        with pytest.raises(DomainError):
            canonical_l(34, 12, 12)
        with pytest.raises(DomainError):
            canonical_l(34, 11, 0)


class TestJoinSpec:
    def test_valid(self):
        spec = JoinSpec(YPQ_A, 4, 15, 34, 11)
        assert (spec.l1, spec.l2) == (4, 15)

    def test_rejects_l1_sharing_factor_with_l2(self):
        with pytest.raises(DomainError):
            JoinSpec(YPQ_A, 6, 15, 34, 11)

    def test_rejects_l1_sharing_factor_with_m2(self):
        with pytest.raises(DomainError):
            JoinSpec(YPQ_A, 13, 15, 34, 11)

    def test_rejects_nonpositive_l(self):
        with pytest.raises(DomainError):
            JoinSpec(YPQ_A, 0, 15, 34, 11)

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            JoinSpec(YPQ_A, 4, 15, 11, 34)

    def test_canonical_gluing_accepted_on_p_up_to_3000(self):
        # canonical_l's l1 divides I and is coprime to l2, so gcd(I, m2) = 1
        # gives gcd(l1, l2*m2) = 1: JoinSpec accepts every canonical gluing
        # of these first factors, whatever the weights
        sols = enumerate_ypq(3000)
        assert len(sols) == 828
        for sol in sols:
            assert sol.m2 == sol.p
            assert sol.fano_index == sol.v2_0 + sol.v2_inf
            assert gcd(sol.fano_index, sol.m2) == 1


class TestSmoothness:
    def test_golden_a_smooth(self):
        smooth, wit = smoothness_check(JoinSpec(YPQ_A, 4, 15, 34, 11))
        assert smooth is True
        assert wit == []

    def test_l1_7_fails_with_witness(self):
        smooth, wit = smoothness_check(JoinSpec(YPQ_A, 7, 15, 34, 11))
        assert smooth is False
        # gcd(15*13*7, 7*34) = 7; the second weight shares it too
        assert (0, 1, 7) in wit
        assert wit == [(0, 1, 7), (0, 2, 7)]

    def test_golden_b_not_smooth(self):
        smooth, wit = smoothness_check(JoinSpec(YPQ_B, 7, 45, 34, 11))
        assert smooth is False
        assert wit == [(0, 1, 2)]

    def test_family_base_not_smooth(self):
        smooth, wit = smoothness_check(JoinSpec(FAMILY0, 1, 4, 17, 3))
        assert smooth is False
        assert wit == [(0, 2, 3)]


class TestSeCubic:
    def test_examples(self):
        assert se_cubic(34, 11).coeffs == (-102, -57, -12, 33)
        assert se_cubic(17, 3).coeffs == (-51, -31, -11, 9)
        assert se_cubic(2, 1).coeffs == (-6, -3, 0, 3)

    def test_known_roots(self):
        assert se_cubic(34, 11)(2) == 0
        assert se_cubic(17, 3)(3) == 0

    def test_unique_root_in_one_infinity(self):
        rng = random.Random(11)
        for _ in range(200):
            w2 = rng.randrange(1, 50)
            w1 = rng.randrange(w2 + 1, 120)
            if gcd(w1, w2) != 1:
                continue
            cubic = se_cubic(w1, w2)
            bound = 1 + max(abs(c) for c in cubic.coeffs) // cubic.coeffs[-1] + 1
            assert count_roots_open(cubic, 1, Fraction(bound)) == 1
            assert cubic(1) < 0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 18), st.data())
    def test_one_simple_real_root(self, digits, data):
        # one real root, simple, above 1 (README, library layout); and the
        # contract real_roots checks: the constant term -3*w1 is nonzero and
        # the signs -, -, any, + of the coefficients change once
        w1 = data.draw(st.integers(max(2, 10**(digits - 1)), 10**digits))
        w2 = data.draw(st.integers(1, w1 - 1))
        assume(gcd(w1, w2) == 1)
        cubic = se_cubic(w1, w2)
        signs = [c > 0 for c in cubic.coeffs if c]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1
        bound = 1 + max(abs(c) for c in cubic.coeffs[:-1]) / cubic.coeffs[-1]
        assert count_roots_open(cubic, -bound, bound) == 1
        assert len(Polynomial(sturm_chain(_primitive_ints(cubic.coeffs))[-1]).coeffs) == 1
        if w1 < 10**4:
            # trial division in real_roots grows with sqrt(w1)
            (root,) = real_roots(cubic)
            assert root > 1


class TestSeRay:
    def test_ray_34_11(self):
        ray = se_ray_from_w(34, 11)
        assert ray.quasi_regular is True
        assert ray.k == 2
        assert (ray.v3_0, ray.v3_inf) == (17, 11)
        assert ray.ratio == Fraction(11, 17)

    def test_ray_17_3(self):
        ray = se_ray_from_w(17, 3)
        assert ray.quasi_regular is True
        assert ray.k == 3
        assert (ray.v3_0, ray.v3_inf) == (17, 9)

    def test_ray_2_1_irregular(self):
        ray = se_ray_from_w(2, 1)
        assert ray.quasi_regular is False
        assert ray.v3_0 is None and ray.v3_inf is None
        assert isinstance(ray.k, AlgebraicRoot)
        assert ray.k.poly.coeffs == (-2, -1, 0, 1)
        assert isinstance(ray.ratio, AlgebraicRoot)
        assert ray.ratio.poly.coeffs == (-1, -1, 0, 4)
        assert Fraction(1, 2) < ray.ratio < 1
        lo, hi = ray.k.decimal_bounds(10)
        assert lo == "1.5213797068"

    def test_reebray_validation(self):
        irregular = se_ray_from_w(2, 1)
        # k and ratio are both Fractions or both algebraic
        with pytest.raises(DomainError):
            ReebRay(Fraction(2), irregular.ratio)
        with pytest.raises(DomainError):
            ReebRay(irregular.k, Fraction(11, 17))
        # the ratio is positive
        for bad in (Fraction(0), Fraction(-11, 17)):
            with pytest.raises(DomainError):
                ReebRay(Fraction(2), bad)

    def test_components_are_read_from_the_ratio(self):
        # a Fraction is in lowest terms, so 22/34 is the ray (17, 11)
        ray = ReebRay(Fraction(2), Fraction(22, 34))
        assert ray.quasi_regular is True
        assert (ray.v3_0, ray.v3_inf) == (17, 11)


class TestWFromK:
    def test_worked_values(self):
        assert w_from_k(2) == (34, 11)
        assert w_from_k(3) == (17, 3)
        assert w_from_k(Fraction(3, 2)) == (43, 22)

    def test_rejects_k_at_most_one(self):
        with pytest.raises(DomainError):
            w_from_k(1)
        with pytest.raises(DomainError):
            w_from_k(Fraction(1, 2))

    @staticmethod
    def _reference(k):
        """The weights of k from the Fraction closed form, as w_from_k
        computed them before it moved to integers."""
        ratio = (3 + 2 * k + k * k) / (k * (1 + 2 * k + 3 * k * k))
        return ratio.denominator, ratio.numerator

    def test_matches_fraction_closed_form(self):
        rng = random.Random(33)
        for _ in range(500):
            b = rng.randrange(1, 10 ** rng.randrange(1, 7))
            k = Fraction(b + rng.randrange(1, 10 ** rng.randrange(1, 7)), b)
            assert w_from_k(k) == self._reference(k)
            if k.denominator == 1:
                assert w_from_k(k.numerator) == self._reference(k)

    def test_failed_cubic_check_is_an_error(self, monkeypatch):
        # the weights are still checked against the cubic at k
        monkeypatch.setattr(join, "_se_cubic_ints", lambda w1, w2: [1 - 3 * w1, 0, 0, 3 * w2])
        with pytest.raises(ConsistencyError, match="do not solve the cubic at k=2"):
            w_from_k(2)

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(150):
            k = Fraction(rng.randrange(2, 400), rng.randrange(1, 200))
            if k <= 1:
                continue
            w1, w2 = w_from_k(k)
            assert gcd(w1, w2) == 1 and w1 > w2 >= 1
            ray = se_ray_from_w(w1, w2)
            assert ray.quasi_regular and ray.k == k
            assert ray.ratio == k * w2 / w1
            assert verify_se_ray(w1, w2, ray.v3_0, ray.v3_inf)


class TestVerifySeRay:
    def test_examples(self):
        assert verify_se_ray(34, 11, 17, 11) is True
        assert verify_se_ray(17, 3, 17, 9) is True
        assert verify_se_ray(2, 1, 1, 1) is False

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            verify_se_ray(34, 11, 0, 11)

    def test_scaling_invariance(self):
        # the condition depends only on the two rays, not their scale
        assert verify_se_ray(34, 11, 34, 22) is True
        assert verify_se_ray(68, 22, 17, 11) is True

    @staticmethod
    def _reference(w1, w2, v3_0, v3_inf):
        """The ray integral over Fractions, as verify_se_ray computed it
        before it moved to integer coefficient lists."""
        c, d = v3_0 - v3_inf, v3_0 + v3_inf
        sq = Polynomial((w1 * v3_inf + w2 * v3_0, w1 * v3_inf - w2 * v3_0))
        return integrate_sym(Polynomial((c, -d)) * sq * sq) == 0

    def test_matches_fraction_integral(self):
        # the SE rays of drawn rational k, their multiples, and near misses
        rng = random.Random(31)
        solutions = misses = 0
        for _ in range(300):
            k = Fraction(rng.randrange(2, 3000), rng.randrange(1, 1000))
            if k <= 1:
                continue
            w1, w2 = w_from_k(k)
            ratio = k * w2 / w1
            lam = rng.randrange(1, 4)
            cases = [(lam * ratio.denominator, lam * ratio.numerator),
                     (ratio.denominator + rng.randrange(1, 3), ratio.numerator),
                     (rng.randrange(1, 10**6), rng.randrange(1, 10**6))]
            for v3_0, v3_inf in cases:
                expected = self._reference(w1, w2, v3_0, v3_inf)
                assert verify_se_ray(w1, w2, v3_0, v3_inf) is expected
                solutions += expected
                misses += not expected
        assert solutions >= 250 and misses >= 500

    def test_disagreeing_integral_is_an_error(self, monkeypatch):
        # the closed form 3CA^2 + CB^2 - 2ABD still judges the integral
        monkeypatch.setattr(join, "integrate_sym_ints", lambda coeffs: (1, 1))
        with pytest.raises(ConsistencyError):
            verify_se_ray(34, 11, 17, 11)
        monkeypatch.setattr(join, "integrate_sym_ints", lambda coeffs: (0, 1))
        with pytest.raises(ConsistencyError):
            verify_se_ray(2, 1, 1, 1)


class TestQuotientOrbifold:
    def test_golden_a(self):
        spec = JoinSpec(YPQ_A, 4, 15, 34, 11)
        quo = quotient_orbifold(spec, se_ray_from_w(34, 11))
        assert (quo.a, quo.b, quo.c) == (70, 78540, 748)
        assert quo.m == (1, 1, 91, 65, 255, 165)
        assert (quo.s, quo.m3, quo.n) == (1, 15, 748)
        assert YPQ_A.anticanonical_coefficients() == (105, 1)
        assert (quo.b, quo.c) == (quo.n * 105, quo.n * 1)

    def test_golden_a_bott_carries_fiber_twist(self):
        spec = JoinSpec(YPQ_A, 4, 15, 34, 11)
        quo = quotient_orbifold(spec, se_ray_from_w(34, 11))
        # c1(L_n) = 748*(36/13, 12/455)/12 and (b, c) = 455*c1(L_n)
        orb = quo.bott()
        assert orb.abc == (70, Fraction(2244, 13), Fraction(748, 455))
        assert orb.m == quo.m

    def test_bott_rejects_inconsistent_twist(self):
        spec = JoinSpec(YPQ_A, 4, 15, 34, 11)
        quo = quotient_orbifold(spec, se_ray_from_w(34, 11))
        with pytest.raises(ConsistencyError):
            JoinQuotient(a=quo.a, b=quo.b, c=quo.c + 1, m=quo.m, s=quo.s, m3=quo.m3,
                         n=quo.n, fano_index=quo.fano_index).bott()

    @staticmethod
    def _reference_bott(quo):
        """JoinQuotient.bott() over Fractions, as it was computed before the
        integer c1^orb: c1(L_n) = n*c1^orb(N)/I, checked against (b, c)/K."""
        a, m = quo.a, quo.m
        base = (Fraction(1, m[0]) + Fraction(1, m[1]) + Fraction(a, m[2]),
                Fraction(1, m[2]) + Fraction(1, m[3]))
        twist = tuple(quo.n * x / quo.fano_index for x in base)
        scale = lcm(m[2], m[3])
        if (quo.b, quo.c) != tuple(scale * t for t in twist):
            raise ConsistencyError("inconsistent twist")
        return BottOrbifold(a, twist[0], twist[1], m)

    def test_bott_matches_fraction_reference(self):
        k_list = [2, 3, Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)]
        count = 0
        for sol in enumerate_ypq(60):
            for record in enumerate_joins(sol, k_list=k_list):
                if record.quotient is not None:
                    assert record.quotient.bott() == self._reference_bott(record.quotient)
                    count += 1
        assert count > 50

    @pytest.mark.parametrize("change", [
        lambda q: {"b": q.b + 1},
        lambda q: {"n": q.n + 1},
        lambda q: {"fano_index": q.fano_index + 1},
        lambda q: {"m": q.m[:2] + (q.m[3], q.m[2]) + q.m[4:]},
    ], ids=["b+1", "n+1", "fano_index+1", "m2-swapped"])
    def test_bott_rejects_each_inconsistent_field(self, change):
        spec = JoinSpec(YPQ_A, 4, 15, 34, 11)
        quo = quotient_orbifold(spec, se_ray_from_w(34, 11))
        fields = dict(a=quo.a, b=quo.b, c=quo.c, m=quo.m, s=quo.s, m3=quo.m3, n=quo.n,
                      fano_index=quo.fano_index)
        with pytest.raises(ConsistencyError, match=r"is not 455\*c1\(L_n\)"):
            JoinQuotient(**{**fields, **change(quo)}).bott()

    @pytest.mark.parametrize("m", [(1, 0, 91, 65, 255, 165), (1, 1, 91, 65, 255),
                                   (1, 1, Fraction(91), 65, 255, 165)],
                             ids=["zero", "five-entries", "fraction"])
    def test_rejects_m_other_than_six_positive_ints(self, m):
        with pytest.raises(DomainError, match="m must be six positive integers"):
            JoinQuotient(a=70, b=78540, c=748, m=m, s=1, m3=15, n=748, fano_index=12)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["s", "m3", "n", "fano_index"])
    def test_rejects_counts_below_one(self, name, value):
        # quotient_orbifold builds these positive; fano_index = 0 used to
        # reach bott() and raise ZeroDivisionError there
        fields = dict(a=70, b=78540, c=748, m=(1, 1, 91, 65, 255, 165), s=1, m3=15, n=748,
                      fano_index=12)
        with pytest.raises(DomainError, match="^%s must be positive, got %d$" % (name, value)):
            JoinQuotient(**{**fields, name: value})

    def test_golden_b(self):
        spec = JoinSpec(YPQ_B, 7, 45, 34, 11)
        quo = quotient_orbifold(spec, se_ray_from_w(34, 11))
        assert (quo.a, quo.b, quo.c) == (36, 78540, 1309)
        assert quo.m == (1, 1, 52, 39, 765, 495)
        assert (quo.s, quo.m3, quo.n) == (1, 45, 1309)

    def test_family_base(self):
        spec = JoinSpec(FAMILY0, 1, 4, 17, 3)
        quo = quotient_orbifold(spec, se_ray_from_w(17, 3))
        assert (quo.a, quo.b, quo.c) == (18, 1224, 51)
        assert quo.m == (1, 1, 21, 14, 34, 18)
        assert (quo.s, quo.m3, quo.n) == (2, 2, 51)

    def test_rejects_irregular_ray(self):
        spec = JoinSpec(YPQ_A, 4, 15, 34, 11)
        with pytest.raises(DomainError):
            quotient_orbifold(spec, se_ray_from_w(2, 1))

    def test_degenerate_ray(self):
        ray = ReebRay(Fraction(3), Fraction(1, 3))
        spec = JoinSpec(YPQ_A, 1, 1, 3, 1)
        with pytest.raises(DegenerateEquationError):
            quotient_orbifold(spec, ray)

    def test_wrong_orientation(self):
        ray = ReebRay(Fraction(2), Fraction(1, 5))
        spec = JoinSpec(YPQ_A, 1, 1, 3, 2)
        with pytest.raises(DomainError):
            quotient_orbifold(spec, ray)

    def test_n_coprime_m3_over_samples(self):
        rng = random.Random(17)
        count = 0
        for _ in range(200):
            k = Fraction(rng.randrange(3, 40), rng.randrange(1, 20))
            if k <= 1:
                continue
            w1, w2 = w_from_k(k)
            l1, l2 = canonical_l(w1, w2, YPQ_A.fano_index)
            try:
                spec = JoinSpec(YPQ_A, l1, l2, w1, w2)
            except DomainError:
                continue
            quo = quotient_orbifold(spec, se_ray_from_w(w1, w2))
            assert gcd(quo.n, quo.m3) == 1
            assert quo.s * quo.m3 == l2
            b_hat, c_hat = YPQ_A.anticanonical_coefficients()
            assert (quo.b, quo.c) == (quo.n * b_hat, quo.n * c_hat)
            count += 1
        assert count > 100
