"""Quasi-regular structures on the Y^{p,q} family of 5-manifolds.

Given coprime integers p > q >= 1, the transverse Kaehler structure singles
out one positive ray of Reeb parameters.  When that ray is rational the
quotient is an orbifold Hirzebruch surface; this module computes the ray, the
quotient ramification data, and the orbifold Fano index, all exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

from .kernel import (
    AlgebraicRoot,
    ConsistencyError,
    DomainError,
    Polynomial,
    integer_sqrt_exact,
    integrate_sym,
    real_roots,
)


def _validate_pq(p: int, q: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int)):
        raise DomainError("p, q must be integers")
    if not (p > q >= 1):
        raise DomainError("need p > q >= 1, got p=%s q=%s" % (p, q))
    if gcd(p, q) != 1:
        raise DomainError("p, q must be coprime, got gcd=%d" % gcd(p, q))


def _reduced_pq(p: int, q: int) -> Tuple[int, int]:
    """(alpha, beta) = ((p+q)/l, (p-q)/l) with l = gcd(p+q, p-q), for a
    valid pair."""
    _validate_pq(p, q)
    l = gcd(p + q, p - q)
    return (p + q) // l, (p - q) // l


def _ray_sqrt(p: int, q: int) -> Optional[int]:
    """r >= 0 with r^2 = 4p^2 - 3q^2 for a valid pair, or None when that is
    not a square: the transverse-Einstein ray is then irrational."""
    return integer_sqrt_exact(4 * p * p - 3 * q * q)


def einstein_integrand(p: int, q: int, v0, vinf) -> Polynomial:
    """The degree-2 polynomial in z whose vanishing integral over [-1, 1]
    characterises transverse-Einstein Reeb parameters (v0, vinf)."""
    v0, vinf = Fraction(v0), Fraction(vinf)
    lin1 = Polynomial((v0 - vinf, -(v0 + vinf)))
    lin2 = Polynomial(((p + q) * vinf + (p - q) * v0, (p + q) * vinf - (p - q) * v0))
    return lin1 * lin2


def ray_ratio(p: int, q: int) -> Tuple[Union[Fraction, AlgebraicRoot], Polynomial]:
    """Ratio t = v0/vinf of the unique positive transverse-Einstein ray,
    plus the quadratic it solves: 2*beta*t^2 + (alpha - beta)*t - 2*alpha = 0
    with alpha = (p+q)/l, beta = (p-q)/l, l = gcd(p+q, p-q).

    The ratio is the quadratic's one positive root and is > 1 always; it is
    a Fraction exactly when r^2 = 4p^2 - 3q^2 for an integer r, and is then
    (r - q) / (2(p - q)).
    """
    alpha, beta = _reduced_pq(p, q)
    quad = Polynomial((-2 * alpha, alpha - beta, 2 * beta))
    r = _ray_sqrt(p, q)
    if r is None:
        (ratio,) = real_roots(quad)
    else:
        ratio = Fraction(r - q, 2 * (p - q))
    if not ratio > 1:
        raise ConsistencyError("ray ratio %r of (%d, %d) is not above 1" % (ratio, p, q))
    if isinstance(ratio, Fraction):
        # cross-check against the defining integral, not the quadratic
        v0, vinf = ratio.numerator, ratio.denominator
        if integrate_sym(einstein_integrand(p, q, v0, vinf)) != 0:
            raise ConsistencyError("ray (%d, %d) fails the integral check" % (v0, vinf))
    return ratio, quad


def einstein_ray(p: int, q: int) -> Tuple[int, int]:
    """Coprime positive pair (v2_0, v2_inf) spanning the rational
    transverse-Einstein ray.  An irrational ray is rejected by the square
    test of is_quasi_regular, before any root is isolated."""
    if not is_quasi_regular(p, q):
        raise DomainError(
            "(%d, %d) is not quasi-regular; the Einstein ray is irrational" % (p, q)
        )
    ratio, _ = ray_ratio(p, q)
    return ratio.numerator, ratio.denominator


def is_quasi_regular(p: int, q: int) -> bool:
    """True iff the transverse-Einstein ray is rational, i.e. 4p^2 - 3q^2 is a
    perfect square."""
    _validate_pq(p, q)
    return _ray_sqrt(p, q) is not None


def hirzebruch_quotient(p: int, q: int, v0: int, vinf: int) -> Tuple[int, int, int, int]:
    """Quotient data (m2, m2_0, m2_inf, a) for the rational ray v0/vinf in
    lowest terms: ramification orders m2*(v0, vinf) over the two sections of
    an a-twisted orbifold Hirzebruch surface."""
    alpha, beta = _reduced_pq(p, q)
    if gcd(v0, vinf) != 1 or v0 <= vinf or vinf < 1:
        raise DomainError("ray must be coprime with v0 > vinf >= 1")
    m2 = p // gcd(p, abs(alpha * vinf - beta * v0))
    a_num = (p + q) * m2 * vinf - (p - q) * m2 * v0
    if a_num % p != 0:
        raise ConsistencyError("twist is not integral for (%d,%d,%d,%d)" % (p, q, v0, vinf))
    a = a_num // p
    if a <= 0:
        raise ConsistencyError("twist must be positive, got %d" % a)
    return m2, m2 * v0, m2 * vinf, a


def fano_index(m2: int, v0: int, vinf: int, a: int) -> int:
    """Divisibility index of the anticanonical class of the quotient orbifold."""
    return gcd((2 * m2 * v0 + a) * vinf, v0 + vinf)


@dataclass(frozen=True)
class YpqEinstein:
    """One quasi-regular transverse-Einstein structure on Y^{p,q} together
    with its quotient orbifold Hirzebruch data."""

    p: int
    q: int
    v2_0: int
    v2_inf: int
    m2: int
    m2_0: int
    m2_inf: int
    a: int
    fano_index: int

    def anticanonical_coefficients(self) -> Tuple[Fraction, Fraction]:
        """(b_hat, c_hat) = K*c1^orb(N)/I: the orbifold anticanonical class
        of the quotient N divided by the Fano index I, in the K-scaled basis
        (x1/K, x2/K) with K = m2*v2_0*v2_inf, in which both coordinates are
        positive integers.  On x1, x2 themselves c1^orb(N)/I has coordinates
        (b_hat, c_hat)/K."""
        i = self.fano_index
        b_hat = Fraction((2 * self.m2 * self.v2_0 + self.a) * self.v2_inf, i)
        c_hat = Fraction(self.v2_0 + self.v2_inf, i)
        if b_hat.denominator != 1 or c_hat.denominator != 1:
            raise ConsistencyError("index does not divide the anticanonical class")
        return b_hat, c_hat


def solve(p: int, q: int) -> Optional[YpqEinstein]:
    """Full quasi-regular solution for (p, q), or None if the ray is
    irrational, which the square test of is_quasi_regular decides without
    isolating a root."""
    if not is_quasi_regular(p, q):
        return None
    v0, vinf = einstein_ray(p, q)
    m2, m2_0, m2_inf, a = hirzebruch_quotient(p, q, v0, vinf)
    idx = fano_index(m2, v0, vinf, a)
    return YpqEinstein(
        p=p, q=q,
        v2_0=v0, v2_inf=vinf,
        m2=m2, m2_0=m2_0, m2_inf=m2_inf,
        a=a, fano_index=idx,
    )


def family_member(k2: int) -> YpqEinstein:
    """Member k2 >= 0 of the quadratic sub-family p = 12k2^2 + 18k2 + 7,
    q = 12k2^2 + 16k2 + 5, whose quotient data is polynomial in k2."""
    if not isinstance(k2, int) or k2 < 0:
        raise DomainError("family parameter must be a non-negative integer")
    p = 12 * k2 * k2 + 18 * k2 + 7
    q = 12 * k2 * k2 + 16 * k2 + 5
    sol = solve(p, q)
    if sol is None:
        raise ConsistencyError("family member k2=%d is not quasi-regular" % k2)
    # closed forms the family is known to satisfy; cheap to re-assert
    if (sol.v2_0, sol.v2_inf) != (3 + 4 * k2, 2 * (1 + k2)):
        raise ConsistencyError("family ray mismatch at k2=%d" % k2)
    if sol.m2 != p:
        raise ConsistencyError("family ramification mismatch at k2=%d" % k2)
    if sol.a != 6 * (1 + k2) * (1 + 2 * k2) * (3 + 4 * k2):
        raise ConsistencyError("family twist mismatch at k2=%d" % k2)
    if sol.fano_index != 5 + 6 * k2:
        raise ConsistencyError("family index mismatch at k2=%d" % k2)
    return sol
