"""Generalized Calabi ansatz over the quotient orbifold.

The transverse metric is determined by one profile function Theta on [-1, 1]:
g = (1/r3 + z)*n*g_base + dz^2/Theta + Theta*theta^2.  For Einstein metrics
Theta = F(z)/(1 + r3*z)^2 with F a quartic fixed by the endpoint slope
conditions; the two KE identities below are exactly the conditions that make
the endpoints and the Einstein equation close up.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Tuple

from .join import JoinQuotient, JoinSpec, ReebRay
from .kernel import (
    ConsistencyError,
    DegenerateEquationError,
    DomainError,
    Frozen,
    Polynomial,
    _rational,
    _scaled_value,
    integrate_sym_ints,
    mul_ints,
    sturm_positive_on,
)


def r3_from_ray(w1: int, w2: int, v3_0: int, v3_inf: int) -> Fraction:
    """Polarization constant of the join metric:
    r3 = (w1*v3_inf - w2*v3_0) / (w1*v3_inf + w2*v3_0)."""
    if min(w1, w2, v3_0, v3_inf) < 1:
        raise DomainError("all arguments must be positive integers")
    diff = w1 * v3_inf - w2 * v3_0
    if diff == 0:
        raise DegenerateEquationError("w1*v3_inf = w2*v3_0 gives r3 = 0")
    r3 = Fraction(diff, w1 * v3_inf + w2 * v3_0)
    if not 0 < abs(r3) < 1:
        raise ConsistencyError("r3 = %s out of range" % r3)
    return r3


class CalabiData(Frozen):
    """Inputs of the generalized Calabi construction: the Einstein base
    (twist a, ramifications, Fano index), the fiber data m3*(v3_0, v3_inf),
    the bundle twist n, and the polarization constant r3, a Fraction."""

    __slots__ = ("a", "m2_0", "m2_inf", "fano_index", "v3_0", "v3_inf", "m3", "n", "r3")

    def __init__(self, a: int, m2_0: int, m2_inf: int, fano_index: int, v3_0: int,
                 v3_inf: int, m3: int, n: int, r3):
        if min(a, m2_0, m2_inf, fano_index, v3_0, v3_inf, m3) < 1:
            raise DomainError("base and fiber data must be positive")
        if gcd(v3_0, v3_inf) != 1:
            raise DomainError("fiber core must be coprime")
        if n == 0:
            raise DomainError("twist n must be nonzero")
        if gcd(abs(n), m3) != 1:
            raise DomainError("need gcd(n, m3) = 1")
        r3 = Fraction(_rational(r3, "r3"))
        if not 0 < abs(r3) < 1:
            raise DomainError("need 0 < |r3| < 1")
        if (r3 > 0) != (n > 0):
            raise DomainError("r3 and n must have the same sign")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "m2_0", m2_0)
        object.__setattr__(self, "m2_inf", m2_inf)
        object.__setattr__(self, "fano_index", fano_index)
        object.__setattr__(self, "v3_0", v3_0)
        object.__setattr__(self, "v3_inf", v3_inf)
        object.__setattr__(self, "m3", m3)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r3", r3)

    @property
    def m3_0(self) -> int:
        return self.m3 * self.v3_0

    @property
    def m3_inf(self) -> int:
        return self.m3 * self.v3_inf

    @classmethod
    def from_join(cls, spec: JoinSpec, ray: ReebRay, quotient: JoinQuotient) -> "CalabiData":
        """Assemble the Calabi data of a quasi-regular join from its
        quotient orbifold."""
        return cls(
            a=spec.ypq.a,
            m2_0=spec.ypq.m2_0,
            m2_inf=spec.ypq.m2_inf,
            fano_index=spec.ypq.fano_index,
            v3_0=ray.v3_0,
            v3_inf=ray.v3_inf,
            m3=quotient.m3,
            n=quotient.n,
            r3=r3_from_ray(spec.w1, spec.w2, ray.v3_0, ray.v3_inf),
        )


def _weighted_slope(data: CalabiData) -> list:
    # (1 + r3 t)^2 R(t), with R(t) = (1 - t)/m3_inf - (1 + t)/m3_0 the affine
    # function matching the required endpoint slopes of Theta, times
    # rd^2 * m3_0 * m3_inf for r3 = rn/rd: the integer coefficients of
    # (rd + rn t)^2 ((m3_0 - m3_inf) - (m3_0 + m3_inf) t)
    weight = [data.r3.denominator, data.r3.numerator]
    return mul_ints(mul_ints(weight, weight),
                    [data.m3_0 - data.m3_inf, -(data.m3_0 + data.m3_inf)])


def ke_conditions(data: CalabiData) -> Tuple[bool, bool]:
    """The two exact Einstein conditions, read on integers.

    ke1: 2*r3*I/n = (1 + r3)/m3_inf + (1 - r3)/m3_0, cross-multiplied.
    ke2: the weighted slope integral over [-1, 1] vanishes; cross-checked
    against the closed form 3P + P*r3^2 = 2*r3*Q with
    P = 1/m3_inf - 1/m3_0, Q = 1/m3_inf + 1/m3_0, both sides times
    rd^2 * m3_0 * m3_inf for r3 = rn/rd.
    """
    rn, rd = data.r3.numerator, data.r3.denominator
    m0, minf = data.m3_0, data.m3_inf
    ke1 = (2 * rn * data.fano_index * m0 * minf
           == data.n * ((rd + rn) * m0 + (rd - rn) * minf))
    integral, _ = integrate_sym_ints(_weighted_slope(data))
    p, q = m0 - minf, m0 + minf
    closed = 3 * p * rd * rd + p * rn * rn - 2 * rn * rd * q
    if (integral == 0) != (closed == 0):
        raise ConsistencyError("KE2 integral and closed form disagree")
    return ke1, integral == 0


class CalabiProfile(Frozen):
    """The Einstein profile: Theta(z) = F(z)/(1 + r3*z)^2 with F quartic,
    F(-1) = F(1) = 0 and F > 0 inside.  The pair (r3, F) determines it;
    r3 is stored as a Fraction."""

    __slots__ = ("r3", "F")

    def __init__(self, r3, F: Polynomial):
        object.__setattr__(self, "r3", Fraction(_rational(r3, "r3")))
        object.__setattr__(self, "F", F)

    def theta(self, z) -> Fraction:
        z = Fraction(_rational(z, "z"))
        if not -1 <= z <= 1:
            raise DomainError("z must lie in [-1, 1]")
        return self.F(z) / (1 + self.r3 * z) ** 2

    def grid(self, steps: int) -> List[Tuple[Fraction, Fraction]]:
        """(z, Theta(z)) at steps+1 evenly spaced rational points."""
        if steps < 1:
            raise DomainError("need at least one step")
        return [
            (z, self.theta(z))
            for z in (Fraction(-1) + Fraction(2 * i, steps) for i in range(steps + 1))
        ]


def ke_profile(data: CalabiData) -> CalabiProfile:
    """Construct the Einstein profile for Calabi data:
    F(z) = integral from -1 to z of (1 + r3*t)^2 * R(t) dt.

    The two KE identities are evaluated here, once for a record, and raise
    DomainError unless both hold.  F is built on integers, as
    H = 12 * rd^2 * m3_0 * m3_inf * F with r3 = rn/rd, and becomes
    Fractions once, over that one denominator.  Every boundary condition
    and interior positivity is re-verified exactly; violations raise loudly
    since they cannot occur for genuine SE data.
    """
    ke1, ke2 = ke_conditions(data)
    if not (ke1 and ke2):
        raise DomainError("ke_conditions must both hold, got (%s, %s)" % (ke1, ke2))
    r3 = data.r3
    rn, rd = r3.numerator, r3.denominator
    m0, minf = data.m3_0, data.m3_inf
    # 12 * the antiderivative of the integer cubic, minus its value at -1
    h = [0] + [12 // (i + 1) * c for i, c in enumerate(_weighted_slope(data))]
    h[0] = -_scaled_value(h, -1, 1)
    if _scaled_value(h, -1, 1) or _scaled_value(h, 1, 1):
        raise ConsistencyError("profile endpoints do not vanish")
    # F has simple zeros at the endpoints, so Theta' there is F'/(1 + r3*z)^2:
    # (1 - r3)^2 * 2/m3_inf at -1 and -(1 + r3)^2 * 2/m3_0 at +1, times the scale
    dh = [i * c for i, c in enumerate(h)][1:]
    if _scaled_value(dh, -1, 1) != 24 * (rd - rn) ** 2 * m0:
        raise ConsistencyError("Theta slope at -1 is wrong")
    if _scaled_value(dh, 1, 1) != -24 * (rd + rn) ** 2 * minf:
        raise ConsistencyError("Theta slope at +1 is wrong")
    scale = 12 * rd * rd * m0 * minf
    f = Polynomial(Fraction(c, scale) for c in h)
    if not sturm_positive_on(f, -1, 1):
        raise ConsistencyError("profile is not positive on (-1, 1)")
    return CalabiProfile(r3=r3, F=f)
