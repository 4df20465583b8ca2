"""Oracle tests for the Calabi ansatz layer.

The family profile F(z) = (4z - (9/2)z^2 - 4z^3 - (13/16)z^4)/153 + 5/144
was integrated by hand from (1 + t/2)^2 ((1-t)/18 - (1+t)/34) and serves as
the main frozen fixture.
"""

import random
from fractions import Fraction
import pytest

from sejoin import catalog, metric
from sejoin.bott import _to_x, c1_orb
from sejoin.catalog import build_record, enumerate_joins, enumerate_ypq, family_record
from sejoin.join import (
    JoinSpec,
    ReebRay,
    canonical_l,
    quotient_orbifold,
    se_ray_from_w,
    w_from_k,
)
from sejoin.kernel import (
    ConsistencyError,
    DegenerateEquationError,
    DomainError,
    Polynomial,
    sturm_positive_on,
)
from sejoin.metric import (
    CalabiData,
    ke_conditions,
    ke_profile,
    r3_from_ray,
)
from sejoin.ypq import solve

GOLDEN_A_DATA = CalabiData(
    a=70, m2_0=91, m2_inf=65, fano_index=12,
    v3_0=17, v3_inf=11, m3=15, n=748, r3=Fraction(1, 3),
)
FAMILY0_DATA = CalabiData(
    a=18, m2_0=21, m2_inf=14, fano_index=5,
    v3_0=17, v3_inf=9, m3=2, n=51, r3=Fraction(1, 2),
)


def _replaced(data, **change):
    """``data`` with the fields in ``change`` replaced, rebuilt by the
    CalabiData constructor, which checks it."""
    fields = dict(a=data.a, m2_0=data.m2_0, m2_inf=data.m2_inf, fano_index=data.fano_index,
                  v3_0=data.v3_0, v3_inf=data.v3_inf, m3=data.m3, n=data.n, r3=data.r3)
    return CalabiData(**{**fields, **change})


FAMILY_F = (
    Polynomial((0, 4, Fraction(-9, 2), -4, Fraction(-13, 16))) * Fraction(1, 153)
    + Polynomial((Fraction(5, 144),))
)


def _derivative(p):
    """p' by the power rule."""
    return Polynomial(i * c for i, c in enumerate(p.coeffs) if i)


class TestR3:
    def test_examples(self):
        assert r3_from_ray(34, 11, 17, 11) == Fraction(1, 3)
        assert r3_from_ray(17, 3, 17, 9) == Fraction(1, 2)

    def test_degenerate(self):
        with pytest.raises(DegenerateEquationError):
            r3_from_ray(1, 1, 1, 1)
        with pytest.raises(DegenerateEquationError):
            r3_from_ray(3, 1, 3, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            r3_from_ray(34, 11, 0, 11)

    def test_negative_orientation_allowed(self):
        assert r3_from_ray(3, 2, 5, 1) == Fraction(3 - 10, 3 + 10)


class TestCalabiData:
    def test_from_join_golden_a(self):
        spec = JoinSpec(solve(13, 8), 4, 15, 34, 11)
        ray = se_ray_from_w(34, 11)
        data = CalabiData.from_join(spec, ray, quotient_orbifold(spec, ray))
        assert data == GOLDEN_A_DATA
        assert (data.m3_0, data.m3_inf) == (255, 165)

    def test_from_join_family_base(self):
        spec = JoinSpec(solve(7, 5), 1, 4, 17, 3)
        ray = se_ray_from_w(17, 3)
        data = CalabiData.from_join(spec, ray, quotient_orbifold(spec, ray))
        assert data == FAMILY0_DATA
        assert (data.m3_0, data.m3_inf) == (34, 18)

    def test_validation(self):
        with pytest.raises(DomainError):  # core not coprime
            CalabiData(a=70, m2_0=91, m2_inf=65, fano_index=12,
                       v3_0=4, v3_inf=2, m3=15, n=748, r3=Fraction(1, 3))
        with pytest.raises(DomainError):  # gcd(n, m3) != 1
            CalabiData(a=70, m2_0=91, m2_inf=65, fano_index=12,
                       v3_0=17, v3_inf=11, m3=11, n=748, r3=Fraction(1, 3))
        with pytest.raises(DomainError):  # r3 out of range
            CalabiData(a=70, m2_0=91, m2_inf=65, fano_index=12,
                       v3_0=17, v3_inf=11, m3=15, n=748, r3=Fraction(3, 2))
        with pytest.raises(DomainError):  # sign mismatch
            CalabiData(a=70, m2_0=91, m2_inf=65, fano_index=12,
                       v3_0=17, v3_inf=11, m3=15, n=-748, r3=Fraction(1, 3))
        with pytest.raises(DomainError):  # r3 = 0
            CalabiData(a=70, m2_0=91, m2_inf=65, fano_index=12,
                       v3_0=17, v3_inf=11, m3=15, n=748, r3=0)


class TestKEConditions:
    def test_golden_a(self):
        assert ke_conditions(GOLDEN_A_DATA) == (True, True)
        # the identity behind ke1
        assert Fraction(2, 187) == Fraction(4, 495) + Fraction(2, 765)

    def test_family(self):
        assert ke_conditions(FAMILY0_DATA) == (True, True)
        assert Fraction(5, 51) == Fraction(1, 12) + Fraction(1, 68)

    def test_family_later_members(self):
        for t in (1, 2, 3):
            l1 = 306 * t + 13
            data = CalabiData(
                a=18, m2_0=21, m2_inf=14, fano_index=5 * l1,
                v3_0=17, v3_inf=9, m3=2, n=51 * l1, r3=Fraction(1, 2),
            )
            assert ke_conditions(data) == (True, True)

    def test_perturbed_pair(self):
        data = CalabiData(
            a=70, m2_0=91, m2_inf=65, fano_index=12,
            v3_0=255, v3_inf=166, m3=1, n=748, r3=Fraction(1, 3),
        )
        assert ke_conditions(data) == (False, False)

    def test_symmetric_fiber_fails_ke2(self):
        data = CalabiData(
            a=70, m2_0=91, m2_inf=65, fano_index=12,
            v3_0=1, v3_inf=1, m3=15, n=748, r3=Fraction(1, 3),
        )
        ke1, ke2 = ke_conditions(data)
        assert ke2 is False


class TestKEProfile:
    def test_family_exact_coefficients(self):
        profile = ke_profile(FAMILY0_DATA)
        assert profile.F == FAMILY_F
        assert profile.F.coeffs == (
            Fraction(5, 144),
            Fraction(4, 153),
            Fraction(-1, 34),
            Fraction(-4, 153),
            Fraction(-13, 2448),
        )

    def test_family_boundary(self):
        profile = ke_profile(FAMILY0_DATA)
        assert profile.F(-1) == 0
        assert profile.F(1) == 0
        # Theta'(-1) = F'(-1)/(1-r3)^2 = 2/m3_inf, likewise at +1
        deriv = _derivative(profile.F)
        assert deriv(-1) / (1 - profile.r3) ** 2 == Fraction(1, 9)
        assert deriv(1) / (1 + profile.r3) ** 2 == Fraction(-1, 17)
        assert profile.theta(-1) == 0
        assert profile.theta(1) == 0
        assert profile.theta(0) == Fraction(5, 144)

    def test_golden_a_profile(self):
        profile = ke_profile(GOLDEN_A_DATA)
        assert profile.F(-1) == 0 and profile.F(1) == 0
        assert profile.F.degree == 4
        assert sturm_positive_on(profile.F, -1, 1)
        deriv = _derivative(profile.F)
        assert deriv(-1) / (1 - profile.r3) ** 2 == Fraction(2, 165)
        assert deriv(1) / (1 + profile.r3) ** 2 == Fraction(-2, 255)

    def test_derivative_identity(self):
        # d/dz [Theta * (1 + r3 z)^2] = (1 + r3 z)^2 R(z) as polynomials
        for data in (GOLDEN_A_DATA, FAMILY0_DATA):
            profile = ke_profile(data)
            weight = Polynomial((1, profile.r3))
            slope = Polynomial((
                Fraction(1, data.m3_inf) - Fraction(1, data.m3_0),
                -(Fraction(1, data.m3_inf) + Fraction(1, data.m3_0)),
            ))
            assert _derivative(profile.F) == weight * weight * slope

    def test_rejects_non_ke_data(self):
        data = CalabiData(
            a=70, m2_0=91, m2_inf=65, fano_index=12,
            v3_0=255, v3_inf=166, m3=1, n=748, r3=Fraction(1, 3),
        )
        with pytest.raises(DomainError):
            ke_profile(data)

    def test_theta_outside_interval(self):
        profile = ke_profile(FAMILY0_DATA)
        with pytest.raises(DomainError):
            profile.theta(2)

    def test_grid(self):
        profile = ke_profile(FAMILY0_DATA)
        pts = profile.grid(4)
        assert [z for z, _ in pts] == [
            Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1),
        ]
        assert pts[0][1] == 0 and pts[-1][1] == 0
        assert pts[2][1] == Fraction(5, 144)
        with pytest.raises(DomainError):
            profile.grid(0)


def _reference_ke(data):
    """(ke1, ke2, F) by the Fraction formulas the metric layer used before
    it moved to integer coefficient lists: ke1 as stated, ke2 as the
    integral of (1 + r3 t)^2 R(t) over [-1, 1], and F as that integrand's
    antiderivative minus its value at -1."""
    r3, m0, minf = data.r3, Fraction(data.m3_0), Fraction(data.m3_inf)
    ke1 = 2 * r3 * data.fano_index / data.n == (1 + r3) / minf + (1 - r3) / m0
    weight = Polynomial((1, r3))
    integrand = weight * weight * Polynomial((1 / minf - 1 / m0, -(1 / minf + 1 / m0)))
    ke2 = sum(2 * c / (i + 1) for i, c in enumerate(integrand.coeffs) if i % 2 == 0) == 0
    anti = Polynomial([0] + [c / (i + 1) for i, c in enumerate(integrand.coeffs)])
    return ke1, ke2, anti + Polynomial((-anti(-1),))


def _drawn_ke_data():
    """The Calabi data of drawn rational k, as in the rational-k benchmark:
    k = a/b with four a in each doubling stratum up to 1536 and 1 <= b < a,
    joined to every quasi-regular first factor with p <= 40 whose canonical
    gluing is accepted.  The ray is read off k, with no root finding."""
    rng = random.Random("metric reference")
    ks = []
    for lo in (3, 6, 12, 24, 48, 96, 192, 384, 768):
        for _ in range(4):
            a = rng.randrange(lo, 2 * lo)
            ks.append(Fraction(a, rng.randrange(1, a)))
    out = []
    for sol in enumerate_ypq(40):
        for k in ks:
            w1, w2 = w_from_k(k)
            try:
                spec = JoinSpec(sol, *canonical_l(w1, w2, sol.fano_index), w1, w2)
            except DomainError:
                continue
            ray = ReebRay(k, k * w2 / w1)
            out.append(CalabiData.from_join(spec, ray, quotient_orbifold(spec, ray)))
    return out


class TestIntegerPathMatchesFractions:
    DATA = _drawn_ke_data()

    def test_drawn_data(self):
        assert len(self.DATA) >= 250
        assert max(d.m3_0 for d in self.DATA) > 10**9
        for data in self.DATA:
            ke1, ke2, f = _reference_ke(data)
            assert ke_conditions(data) == (ke1, ke2) == (True, True)
            assert ke_profile(data).F == f
            # the same reduced Fractions, stored once
            assert ke_profile(data).F.coeffs == f.coeffs

    def test_mutations_raise(self):
        for data in self.DATA[::5]:
            r3 = data.r3
            for change in (dict(n=data.n + 1), dict(n=2 * data.n),
                           dict(r3=r3 * Fraction(1000, 1001)),
                           dict(r3=r3 + Fraction(1, 10 * r3.denominator)),
                           dict(v3_0=data.v3_0 + 1), dict(m3=data.m3 + 1)):
                try:
                    bad = _replaced(data, **change)
                except DomainError:
                    continue
                ke1, ke2, _ = _reference_ke(bad)
                assert ke_conditions(bad) == (ke1, ke2) != (True, True)
                with pytest.raises(DomainError):
                    ke_profile(bad)

    def test_disagreeing_closed_form_is_an_error(self, monkeypatch):
        # the integral and the closed form of ke2 must agree both ways
        monkeypatch.setattr(metric, "integrate_sym_ints", lambda coeffs: (1, 1))
        with pytest.raises(ConsistencyError):
            ke_conditions(GOLDEN_A_DATA)
        with pytest.raises(ConsistencyError):
            ke_profile(FAMILY0_DATA)
        monkeypatch.setattr(metric, "integrate_sym_ints", lambda coeffs: (0, 1))
        with pytest.raises(ConsistencyError):
            ke_conditions(_replaced(GOLDEN_A_DATA, v3_0=1, v3_inf=1))


# every rational 1 < k <= 4 with denominator at most 4: 18 values
SWEEP_K = sorted({Fraction(a, b) for b in range(1, 5) for a in range(b + 1, 4 * b + 1)})


def _calabi_data(sol, l1, l2, w1, w2):
    """The Calabi data of the join of ``sol`` with weights (w1, w2), glued
    with (l1, l2)."""
    spec = JoinSpec(ypq=sol, l1=l1, l2=l2, w1=w1, w2=w2)
    ray = se_ray_from_w(w1, w2)
    return CalabiData.from_join(spec, ray, quotient_orbifold(spec, ray))


class TestBottAgreesWithMetric:
    """The quotient Bott orbifold and the Calabi data must use one fiber
    twist c1(L_n) = n*c1^orb(N)/I.  The first KE identity is the restriction
    to D_inf of c1^orb = (s3/2)*[omega_adm], where s3 = 1/m3_0 + 1/m3_inf
    and [omega_adm] has x-coordinates ((1 + 1/r3)*c1(L_n), 2)."""

    @staticmethod
    def _expected_c1(rec):
        sol, quo = rec.ypq, rec.quotient
        # c1^orb of the base Hirzebruch orbifold on x1, x2, stage 1 unbranched
        base = (2 + Fraction(sol.a, sol.m2_0),
                Fraction(1, sol.m2_0) + Fraction(1, sol.m2_inf))
        line = tuple(quo.n * x / sol.fano_index for x in base)
        s3 = Fraction(1, quo.m[4]) + Fraction(1, quo.m[5])
        scale = 1 + 1 / rec.r3
        return tuple(s3 / 2 * x for x in (scale * line[0], scale * line[1], 2))

    def _check(self, rec):
        # the record's own Calabi data satisfies both KE identities
        data = _calabi_data(rec.ypq, rec.l1, rec.l2, rec.w1, rec.w2)
        assert ke_conditions(data) == (True, True)
        assert rec.r3 == data.r3 and rec.profile == ke_profile(data)
        assert (rec.ke1, rec.ke2) == (True, True)
        assert _to_x(c1_orb(rec.quotient.bott())) == self._expected_c1(rec)
        assert rec.log_fano is True

    def test_worked_records(self):
        for rec in (build_record(13, 8, k=2), build_record(13, 7, k=2),
                    family_record(0)):
            self._check(rec)

    def test_golden_a_values(self):
        assert self._expected_c1(build_record(13, 8, k=2)) == (
            Fraction(224, 65), Fraction(32, 975), Fraction(28, 2805))

    def test_k_sweep(self):
        assert len(SWEEP_K) == 18
        count = 0
        for sol in enumerate_ypq(40):
            for k in SWEEP_K:
                self._check(build_record(sol.p, sol.q, k=k))
                count += 1
        assert count == 180


class TestEveryQuasiRegularJoinIsKE:
    """ke2 is the SE ray equation of se_ray_from_w times m3*v3_0*v3_inf*A^2,
    and ke1 reduces to I*l2 = l1*(w1 + w2), which the canonical gluing
    satisfies, so a record builds its profile on one KE evaluation and has
    no non-KE branch."""

    @pytest.mark.parametrize("l1,l2", [(1, 1), (1, 2), (5, 1), (7, 45), (4, 15)])
    def test_ke1_is_the_canonical_gluing_identity(self, l1, l2):
        # (13, 8) with w = (34, 11): only the canonical (4, 15) satisfies it
        sol, w1, w2 = solve(13, 8), 34, 11
        expected = sol.fano_index * l2 == l1 * (w1 + w2)
        assert expected == ((l1, l2) == (4, 15))
        assert ke_conditions(_calabi_data(sol, l1, l2, w1, w2)) == (expected, True)

    @staticmethod
    def _patch(monkeypatch, fake):
        # every module that binds ke_conditions, as the benchmark tracer wraps it
        original = metric.ke_conditions
        for module in (catalog, metric):
            if getattr(module, "ke_conditions", None) is original:
                monkeypatch.setattr(module, "ke_conditions", fake)

    @pytest.mark.parametrize("p,q,k", [(13, 8, 2), (13, 7, Fraction(7, 3))])
    def test_one_ke_evaluation_per_record(self, monkeypatch, p, q, k):
        seen = []
        original = metric.ke_conditions
        self._patch(monkeypatch, lambda data: seen.append(data) or original(data))
        build_record(p, q, k=k)
        assert len(seen) == 1
        # an irregular record has no quotient and evaluates nothing
        build_record(13, 8, w=(2, 1))
        assert len(seen) == 1

    def test_failed_ke_identity_is_an_error(self, monkeypatch):
        # ruled out by the derivation, so no record with ke false is built
        self._patch(monkeypatch, lambda data: (True, False))
        with pytest.raises(DomainError):
            build_record(13, 8, k=2)
        (rec,) = enumerate_joins(solve(13, 8), k=2)
        assert rec.error is not None and rec.ke1 is None and rec.profile is None
