"""Oracle and property tests for the Bott orbifold layer.

The Kaehler-cone test gets an independent oracle here: wall-curve relations
recomputed from the fan by exact linear algebra, with no reference to the
four-basis formulas under test.
"""

import itertools
import random
from fractions import Fraction

import pytest

from sejoin.bott import (
    BASES,
    BottOrbifold,
    CohClass,
    basis_change,
    c1_orb,
    h3_matrix,
    is_log_fano,
    monoid_act,
    _to_x,
)
from sejoin.catalog import build_record
from sejoin.join import JoinSpec, quotient_orbifold, se_ray_from_w
from sejoin.kernel import DomainError
from sejoin.ypq import solve

# The integer-twist Bott orbifold (70, 78540, 748) of the golden record.
# Its last stage is twisted by the K-scaled integers (b, c) = 455*c1(L_n);
# the quotient orbifold itself, JoinQuotient.bott(), carries c1(L_n) =
# (2244/13, 748/455) and is log Fano.
GOLDEN_A = BottOrbifold(70, 78540, 748, (1, 1, 91, 65, 255, 165))


# ---------------------------------------------------------------- wall oracle


def _solve_wall_relation(n1, n2, rhs):
    """Exact (alpha, beta) with alpha*n1 + beta*n2 = rhs, rhs in span(n1,n2)."""
    for i, j in itertools.combinations(range(3), 2):
        det = n1[i] * n2[j] - n1[j] * n2[i]
        if det == 0:
            continue
        alpha = Fraction(rhs[i] * n2[j] - rhs[j] * n2[i], det)
        beta = Fraction(n1[i] * rhs[j] - n1[j] * rhs[i], det)
        for k in range(3):
            assert alpha * n1[k] + beta * n2[k] == rhs[k]
        return alpha, beta
    raise AssertionError("shared wall rays are collinear")


def _wall_numbers(abc, x_coeffs):
    """Intersection numbers of the class A*x1 + B*x2 + C*x3 with every
    invariant wall curve of the fan, derived from scratch."""
    a, b, c = abc
    rays = {
        "v1": (1, 0, 0), "v2": (0, 1, 0), "v3": (0, 0, 1),
        "u1": (-1, -a, -b), "u2": (0, -1, -c), "u3": (0, 0, -1),
    }
    # divisor representative: coefficients on u1, u2, u3 only
    dcoef = {"u1": x_coeffs[0], "u2": x_coeffs[1], "u3": x_coeffs[2],
             "v1": 0, "v2": 0, "v3": 0}
    numbers = []
    for slot in range(3):
        others = [s for s in range(3) if s != slot]
        for pick in itertools.product("vu", repeat=2):
            shared = ["%s%d" % (tag, s + 1) for tag, s in zip(pick, others)]
            vi = "v%d" % (slot + 1)
            ui = "u%d" % (slot + 1)
            rhs = tuple(-(p + q) for p, q in zip(rays[vi], rays[ui]))
            alpha, beta = _solve_wall_relation(rays[shared[0]], rays[shared[1]], rhs)
            numbers.append(
                dcoef[vi] + dcoef[ui]
                + alpha * dcoef[shared[0]] + beta * dcoef[shared[1]]
            )
    assert len(numbers) == 12
    return numbers


def _in_kahler_cone_by_walls(abc, x_coeffs) -> bool:
    return all(n > 0 for n in _wall_numbers(abc, x_coeffs))


def _reference_c1(orb):
    """The x-basis c1^orb over Fractions, as c1_orb computed it before it
    read the integer routine."""
    a, b, c = orb.abc
    m1_0, m1_inf, m2_0, m2_inf, m3_0, m3_inf = orb.m
    return (1 / m1_0 + 1 / m1_inf + a / m2_0 + b / m3_0,
            1 / m2_0 + 1 / m2_inf + c / m3_0,
            1 / m3_0 + 1 / m3_inf)


def _reference_log_fano(orb) -> bool:
    """The four-basis Fraction test is_log_fano ran before its integer sign
    tests: every coefficient of c1^orb positive in xxx, xxy, xyx and xyy."""
    a, b, c = orb.abc
    big_a, big_b, big_c = _reference_c1(orb)
    beta = big_b - big_c * c
    bases = ((big_a, big_b, big_c),
             (big_a - big_c * b, beta, big_c),
             (big_a - a * big_b, big_b, big_c),
             (big_a - a * beta - b * big_c, beta, big_c))
    return all(v > 0 for coeffs in bases for v in coeffs)


def _drawn_orbifolds():
    """Criterion 7a's sampler, then rational last-stage twists as the
    quotients of quasi-regular joins carry, with Fraction ramification."""
    rng = random.Random(70001)
    orbs = []
    for _ in range(1000):
        abc = tuple(rng.randrange(-4, 5) for _ in range(3))
        orbs.append(BottOrbifold(*abc, tuple(rng.randrange(1, 7) for _ in range(6))))
    for _ in range(300):
        b, c = (Fraction(rng.randrange(-40, 41), rng.randrange(1, 8)) for _ in range(2))
        m = tuple(Fraction(rng.randrange(1, 9), rng.randrange(1, 3)) for _ in range(6))
        orbs.append(BottOrbifold(rng.randrange(-4, 5), b, c, m))
    return orbs


def _positive_in_all_bases(abc, x_coeffs) -> bool:
    cls = CohClass(basis="xxx", coeffs=tuple(Fraction(x) for x in x_coeffs), abc=abc)
    return all(
        coeff > 0 for basis in BASES for coeff in basis_change(cls, basis).coeffs
    )


class TestC1Orb:
    def test_unit_m(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b, c = (rng.randrange(-20, 21) for _ in range(3))
            orb = BottOrbifold(a, b, c, (1,) * 6)
            assert c1_orb(orb).coeffs == (2 + a + b, 2 + c, 2)

    def test_golden_a_x_basis(self):
        cls = c1_orb(GOLDEN_A, "xxx")
        assert cls.coeffs == (
            Fraction(4040, 13), Fraction(808, 273), Fraction(28, 2805),
        )

    def test_third_coefficient_shared(self):
        for basis in BASES:
            assert c1_orb(GOLDEN_A, basis).coeffs[2] == Fraction(28, 2805)

    def test_golden_a_xxy_goes_negative(self):
        # b/m3_inf = 78540/165 = 476 swamps 2 + 10/13; this is why the
        # integer-twist Bott orbifold (70, 78540, 748) fails the cone test
        cls = c1_orb(GOLDEN_A, "xxy")
        assert cls.coeffs[0] == Fraction(-6152, 13)
        assert cls.coeffs[1] == Fraction(-6152, 1365)

    def test_golden_a_y2_bases(self):
        F = Fraction
        assert c1_orb(GOLDEN_A, "xyx").coeffs == (F(4040, 39), F(808, 273), F(28, 2805))
        assert c1_orb(GOLDEN_A, "xyy").coeffs == (F(-6152, 39), F(-6152, 1365), F(28, 2805))

    def test_golden_quotient_all_bases(self):
        # the log-Fano quotient of the golden record (13, 8, k=2): positive
        # in every basis
        F = Fraction
        orb = build_record(13, 8, k=2).quotient.bott()
        assert {basis: c1_orb(orb, basis).coeffs for basis in BASES} == {
            "xxx": (F(224, 65), F(32, 975), F(28, 2805)),
            "xxy": (F(112, 65), F(16, 975), F(28, 2805)),
            "xyx": (F(224, 195), F(32, 975), F(28, 2805)),
            "xyy": (F(112, 195), F(16, 975), F(28, 2805)),
        }

    def test_matches_fraction_reference(self):
        for orb in _drawn_orbifolds():
            assert _to_x(c1_orb(orb)) == _reference_c1(orb)

    def test_sum_of_divisor_classes_at_unit_m(self):
        a, b, c = 4, -7, 3
        abc = (a, b, c)
        x1 = CohClass("xxx", (1, 0, 0), abc)
        x2 = CohClass("xxx", (0, 1, 0), abc)
        x3 = CohClass("xxx", (0, 0, 1), abc)
        y1 = CohClass("xxx", (1, 0, 0), abc)
        y2 = CohClass("xxx", (a, 1, 0), abc)
        y3 = CohClass("xxx", (b, c, 1), abc)
        total = [
            sum(cls.coeffs[i] for cls in (x1, x2, x3, y1, y2, y3))
            for i in range(3)
        ]
        orb = BottOrbifold(a, b, c, (1,) * 6)
        assert tuple(total) == c1_orb(orb).coeffs


class TestBasisChange:
    def test_substitution_identity(self):
        rng = random.Random(9)
        for _ in range(30):
            a, b, c = (rng.randrange(-10, 11) for _ in range(3))
            src = CohClass("xxy", (2 + a - b, 2 - c, 2), (a, b, c))
            out = basis_change(src, "xxx")
            assert out.coeffs == (2 + a + b, 2 + c, 2)

    def test_identity_when_same_basis(self):
        cls = c1_orb(GOLDEN_A, "xyx")
        assert basis_change(cls, "xyx") == cls

    def test_four_c1_classes_agree_in_x_basis(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c = (rng.randrange(-50, 51) for _ in range(3))
            m = tuple(
                Fraction(rng.randrange(1, 100), rng.randrange(1, 8)) for _ in range(6)
            )
            orb = BottOrbifold(a, b, c, m)
            images = {
                basis_change(c1_orb(orb, basis), "xxx").coeffs for basis in BASES
            }
            assert len(images) == 1

    def test_round_trip_every_pair(self):
        cls = CohClass("xxx", (Fraction(5, 3), Fraction(-2, 7), Fraction(1, 2)), (3, -4, 5))
        for mid in BASES:
            there = basis_change(cls, mid)
            back = basis_change(there, "xxx")
            assert back.coeffs == cls.coeffs

    def test_rejects_unknown_basis(self):
        cls = c1_orb(GOLDEN_A)
        with pytest.raises(DomainError):
            basis_change(cls, "yyy")
        with pytest.raises(DomainError):
            c1_orb(GOLDEN_A, "yyy")


class TestLogFano:
    def test_product_orbifold(self):
        assert is_log_fano(BottOrbifold(0, 0, 0, (1,) * 6)) is True

    def test_large_twist_without_branch_divisors(self):
        assert is_log_fano(BottOrbifold(70, 78540, 748, (1,) * 6)) is False

    def test_golden_a_orbifold_fails_cone_test(self):
        # on the integer-twist Bott orbifold (70, 78540, 748) the twist
        # b = 78540 is far beyond what the branch corrections (at most a
        # factor 1/165 here) can compensate; see the xxy basis coefficients
        # frozen above
        assert is_log_fano(GOLDEN_A) is False

    def test_matches_wall_oracle_on_c1(self):
        rng = random.Random(13)
        for _ in range(400):
            a, b, c = (rng.randrange(-6, 7) for _ in range(3))
            m = tuple(Fraction(rng.randrange(1, 9)) for _ in range(6))
            orb = BottOrbifold(a, b, c, m)
            xc = _to_x(c1_orb(orb))
            assert is_log_fano(orb) == _in_kahler_cone_by_walls(orb.abc, xc)

    def test_matches_c1_orb_in_every_basis(self):
        orbs = _drawn_orbifolds()
        hits = 0
        for orb in orbs:
            expected = all(c > 0 for b in BASES for c in c1_orb(orb, b).coeffs)
            assert _reference_log_fano(orb) is expected
            assert is_log_fano(orb) is expected
            hits += expected
        assert 0 < hits < len(orbs)

    def test_four_basis_positivity_equals_wall_positivity(self):
        # arbitrary classes, not just c1: the two cone descriptions coincide
        rng = random.Random(17)
        agree_pos = 0
        for _ in range(600):
            abc = tuple(rng.randrange(-5, 6) for _ in range(3))
            xc = tuple(Fraction(rng.randrange(-12, 13), rng.randrange(1, 4)) for _ in range(3))
            bywalls = _in_kahler_cone_by_walls(abc, xc)
            bybases = _positive_in_all_bases(abc, xc)
            assert bywalls == bybases
            agree_pos += bywalls
        assert agree_pos > 0  # the sample actually hits the cone


class TestH3Matrix:
    def test_product_case(self):
        mat, rank = h3_matrix(BottOrbifold(0, 0, 0, (1,) * 6), (1, 1, 1))
        assert mat == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
        assert rank == 3

    def test_rank_drop_outside_cone(self):
        _, rank = h3_matrix(BottOrbifold(2, 0, 0, (1,) * 6), (1, 1, 1))
        assert rank == 2

    def test_golden_a_rank_three(self):
        xc = _to_x(c1_orb(GOLDEN_A))
        _, rank = h3_matrix(GOLDEN_A, xc)
        assert rank == 3

    def test_rejects_nonpositive_class(self):
        with pytest.raises(DomainError):
            h3_matrix(GOLDEN_A, (1, 0, 1))
        with pytest.raises(DomainError):
            h3_matrix(GOLDEN_A, (1, 1, -2))

    def test_matrix_shape_general(self):
        orb = BottOrbifold(4, -1, 2, (1,) * 6)
        mat, _ = h3_matrix(orb, (Fraction(7, 2), 3, 1))
        assert mat[0] == [3, Fraction(7, 2) - 12, 0]
        assert mat[1] == [1, 0, Fraction(7, 2) + 1]
        assert mat[2] == [0, 1, 1]


class TestMonoid:
    def test_identity(self):
        out = monoid_act(GOLDEN_A, (1,) * 6, (0,) * 6)
        assert out == GOLDEN_A

    def test_scale_third_pair(self):
        out = monoid_act(GOLDEN_A, (1, 1, 1, 1, 2, 2), (0,) * 6)
        assert out.m == (1, 1, 91, 65, 510, 330)
        assert out.abc == GOLDEN_A.abc

    def test_uniform_scaling_preserves_log_fano(self):
        rng = random.Random(23)
        found = 0
        for _ in range(600):
            a, b, c = (rng.randrange(-2, 3) for _ in range(3))
            m = tuple(rng.randrange(1, 6) for _ in range(6))
            orb = BottOrbifold(a, b, c, m)
            if not is_log_fano(orb):
                continue
            found += 1
            lam = rng.randrange(1, 7)
            scaled = monoid_act(orb, (lam,) * 6, (0,) * 6)
            assert is_log_fano(scaled) is True
        assert found > 100

    def test_per_slot_scaling_can_leave_the_cone(self):
        # smallest counterexample found by search: scaling only the second
        # ramification pair shrinks 1/m2_0 + 1/m2_inf below c/m3_inf
        orb = BottOrbifold(0, 0, 1, (1, 1, 1, 1, 1, 2))
        assert is_log_fano(orb) is True
        acted = monoid_act(orb, (1, 1, 9, 9, 1, 1), (0,) * 6)
        assert acted.m == (1, 1, 9, 9, 1, 2)
        assert is_log_fano(acted) is False
        assert c1_orb(acted, "xxy").coeffs[1] == Fraction(-5, 18)

    def test_validation(self):
        with pytest.raises(DomainError):
            monoid_act(GOLDEN_A, (0,) * 6, (0,) * 6)
        with pytest.raises(DomainError):
            monoid_act(GOLDEN_A, (1,) * 6, (-1,) * 6)
        with pytest.raises(DomainError):
            monoid_act(GOLDEN_A, (Fraction(3, 2),) * 6, (0,) * 6)
        with pytest.raises(DomainError):
            monoid_act(GOLDEN_A, (1,) * 5, (0,) * 6)


class TestConstruction:
    def test_orbifold_validation(self):
        with pytest.raises(DomainError):
            BottOrbifold(Fraction(1, 2), 0, 0, (1,) * 6)
        with pytest.raises(DomainError):
            BottOrbifold(1, 0, 0, (1,) * 5)
        with pytest.raises(DomainError):
            BottOrbifold(1, 0, 0, (1, 1, 1, 1, 1, 0))

    def test_cohclass_validation(self):
        with pytest.raises(DomainError):
            CohClass("zzz", (1, 1, 1), (0, 0, 0))

    def test_rational_last_stage_twist(self):
        orb = BottOrbifold(70, Fraction(2244, 13), Fraction(748, 455),
                           (1, 1, 91, 65, 255, 165))
        assert c1_orb(orb).coeffs == (
            Fraction(224, 65), Fraction(32, 975), Fraction(28, 2805))
        with pytest.raises(DomainError):
            BottOrbifold(1, 0.5, 0, (1,) * 6)
        with pytest.raises(DomainError):
            BottOrbifold(1, 0, "1", (1,) * 6)

    def test_rational_m_allowed(self):
        orb = BottOrbifold(1, 1, 1, (Fraction(3, 2),) * 6)
        assert c1_orb(orb).coeffs[2] == Fraction(4, 3)


class TestJoinRecordsRankThree:
    def test_both_worked_joins(self):
        for pq, l in (((13, 8), (4, 15)), ((13, 7), (7, 45))):
            sol = solve(*pq)
            spec = JoinSpec(sol, l[0], l[1], 34, 11)
            quo = quotient_orbifold(spec, se_ray_from_w(34, 11))
            orb = quo.bott()
            xc = _to_x(c1_orb(orb))
            _, rank = h3_matrix(orb, tuple(abs(x) for x in xc))
            assert rank == 3
