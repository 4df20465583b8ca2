"""The join construction: gluing a quasi-regular Y^{p,q} to a weighted
3-sphere along a 2-torus quotient.

Given the first factor's Einstein data and weights w = (w1, w2), this module
picks the canonical gluing integers (l1, l2), solves the cubic that pins down
the Sasaki-Einstein Reeb ray in the w-cone, decides smoothness of the join,
and assembles the quotient Bott orbifold data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Tuple, Union

from .bott import BottOrbifold, c1_orb
from .kernel import (
    AlgebraicRoot,
    ConsistencyError,
    DegenerateEquationError,
    DomainError,
    Polynomial,
    integrate_sym,
    real_roots,
)
from .ypq import YpqEinstein


def _validate_w(w1: int, w2: int) -> None:
    if not (isinstance(w1, int) and isinstance(w2, int)):
        raise DomainError("weights must be integers")
    if not (w1 > w2 >= 1):
        raise DomainError("need w1 > w2 >= 1, got (%s, %s)" % (w1, w2))
    if gcd(w1, w2) != 1:
        raise DomainError("weights must be coprime, got gcd=%d" % gcd(w1, w2))


def canonical_l(w1: int, w2: int, fano_index: int) -> Tuple[int, int]:
    """The canonical gluing pair: l1 = I/g, l2 = (w1+w2)/g with
    g = gcd(w1+w2, I)."""
    _validate_w(w1, w2)
    if fano_index < 1:
        raise DomainError("Fano index must be >= 1")
    g = gcd(w1 + w2, fano_index)
    return fano_index // g, (w1 + w2) // g


@dataclass(frozen=True)
class JoinSpec:
    """A join of a solved Y^{p,q} with the weighted 3-sphere S^3_{(w1,w2)},
    glued with integers (l1, l2).

    Rejects unnormalized input outright instead of silently renormalizing:
    l1 must be coprime to l2*m2 (which subsumes gcd(l1, m2) = 1).
    """

    ypq: YpqEinstein
    l1: int
    l2: int
    w1: int
    w2: int

    def __post_init__(self):
        _validate_w(self.w1, self.w2)
        if self.l1 < 1 or self.l2 < 1:
            raise DomainError("gluing integers must be positive")
        if gcd(self.l1, self.l2 * self.ypq.m2) != 1:
            raise DomainError(
                "need gcd(l1, l2*m2) = 1, got gcd(%d, %d) = %d"
                % (self.l1, self.l2 * self.ypq.m2, gcd(self.l1, self.l2 * self.ypq.m2))
            )


def smoothness_check(spec: JoinSpec) -> Tuple[bool, List[Tuple[int, int, int]]]:
    """The total space is a smooth manifold iff gcd(l2*m2*v2^i, l1*w_j) = 1
    for both ray components i and both weights j.

    Returns (smooth, witnesses); each witness is (i, j, g) with i in {0, 1}
    indexing (v2_0, v2_inf), j in {1, 2} indexing (w1, w2), and g > 1 the
    offending gcd.
    """
    m2 = spec.ypq.m2
    witnesses = []
    for i, v in enumerate((spec.ypq.v2_0, spec.ypq.v2_inf)):
        for j, w in enumerate((spec.w1, spec.w2), start=1):
            g = gcd(spec.l2 * m2 * v, spec.l1 * w)
            if g != 1:
                witnesses.append((i, j, g))
    return not witnesses, witnesses


def se_cubic(w1: int, w2: int) -> Polynomial:
    """The cubic in k whose root in (1, oo) fixes the Sasaki-Einstein Reeb ray:
    3*w2*k^3 + (2*w2 - w1)*k^2 - (2*w1 - w2)*k - 3*w1."""
    _validate_w(w1, w2)
    return Polynomial((-3 * w1, -(2 * w1 - w2), 2 * w2 - w1, 3 * w2))


@dataclass(frozen=True)
class ReebRay:
    """A Reeb ray in the w-cone of the join.

    Quasi-regular rays carry coprime positive integers (v3_0, v3_inf);
    irregular rays carry the ratio v3_inf/v3_0 as an isolated algebraic
    number instead.  ``k`` is the corresponding root of the defining cubic,
    always in (1, oo).
    """

    quasi_regular: bool
    k: Union[Fraction, AlgebraicRoot]
    v3_0: Optional[int] = None
    v3_inf: Optional[int] = None
    ratio: Union[Fraction, AlgebraicRoot, None] = None

    def __post_init__(self):
        if self.quasi_regular:
            if not (isinstance(self.v3_0, int) and isinstance(self.v3_inf, int)):
                raise DomainError("quasi-regular ray needs integer components")
            if self.v3_0 < 1 or self.v3_inf < 1 or gcd(self.v3_0, self.v3_inf) != 1:
                raise DomainError("ray components must be coprime positive integers")
            if self.ratio != Fraction(self.v3_inf, self.v3_0):
                raise DomainError("ratio inconsistent with components")
        else:
            if not isinstance(self.ratio, AlgebraicRoot):
                raise DomainError("irregular ray needs an isolated algebraic ratio")
            if self.v3_0 is not None or self.v3_inf is not None:
                raise DomainError("irregular ray has no integer components")


def se_ray_from_w(w1: int, w2: int) -> ReebRay:
    """Solve the cubic for its unique root k in (1, oo) and convert to the
    Reeb ray with v3_inf/v3_0 = k*w2/w1."""
    cubic = se_cubic(w1, w2)
    (k,) = real_roots(cubic)
    if not k > 1:
        raise ConsistencyError("the positive root of %r is not above 1" % (cubic,))
    if isinstance(k, Fraction):
        ratio = k * w2 / w1
        v3_0, v3_inf = ratio.denominator, ratio.numerator
        if not verify_se_ray(w1, w2, v3_0, v3_inf):
            raise ConsistencyError(
                "cubic root k=%s fails the ray integral for w=(%d,%d)" % (k, w1, w2)
            )
        return ReebRay(True, k, v3_0, v3_inf, ratio)
    return ReebRay(False, k, ratio=k.scaled(Fraction(w2, w1)))


def w_from_k(k) -> Tuple[int, int]:
    """Coprime weights (w1, w2) realizing a chosen rational k > 1:
    w2/w1 = (3 + 2k + k^2) / (k(1 + 2k + 3k^2))."""
    k = Fraction(k)
    if k <= 1:
        raise DomainError("need k > 1, got %s" % k)
    ratio = (3 + 2 * k + k * k) / (k * (1 + 2 * k + 3 * k * k))
    w1, w2 = ratio.denominator, ratio.numerator
    if not w1 > w2:
        raise ConsistencyError("w1 <= w2 for k=%s" % k)
    if se_cubic(w1, w2)(k) != 0:
        raise ConsistencyError("weights (%d, %d) do not solve the cubic at k=%s" % (w1, w2, k))
    return w1, w2


def verify_se_ray(w1: int, w2: int, v3_0: int, v3_inf: int) -> bool:
    """Exact check that (v3_0, v3_inf) spans a Sasaki-Einstein Reeb ray for
    weights (w1, w2): the defining integral over [-1, 1] vanishes.

    Cross-checked against the closed form 3CA^2 + CB^2 - 2ABD = 0 with
    C = v3_0 - v3_inf, D = v3_0 + v3_inf, A = w1*v3_inf + w2*v3_0,
    B = w1*v3_inf - w2*v3_0.
    """
    if min(w1, w2, v3_0, v3_inf) < 1:
        raise DomainError("all arguments must be positive integers")
    c = v3_0 - v3_inf
    d = v3_0 + v3_inf
    a = w1 * v3_inf + w2 * v3_0
    b = w1 * v3_inf - w2 * v3_0
    lin = Polynomial((c, -d))
    sq = Polynomial((a, b))
    integral = integrate_sym(lin * sq * sq)
    closed = 3 * c * a * a + c * b * b - 2 * a * b * d
    if (integral == 0) != (closed == 0):
        raise ConsistencyError("integral and closed form disagree")
    return integral == 0


@dataclass(frozen=True)
class JoinQuotient:
    """Quotient Bott orbifold of a quasi-regular join: twist matrix entries
    (a, b, c), ramification vector m, and the bookkeeping integers behind
    them.

    The base N of the last stage is the a-twisted Hirzebruch orbifold with
    ramification (m1_0, m1_inf, m2_0, m2_inf) = m[:4], and the last stage is
    twisted by the line orbibundle L_n with c1(L_n) = n*c1^orb(N)/I on the
    divisor classes x1, x2.  The integers (b, c) = n*(b_hat, c_hat), with
    (b_hat, c_hat) from ``YpqEinstein.anticanonical_coefficients()``, are
    the coordinates of c1(L_n) in the K-scaled basis (x1/K, x2/K) with
    K = m2*v2_0*v2_inf = lcm(m2_0, m2_inf), in which they are integral;
    ``bott()`` carries c1(L_n) itself.
    """

    a: int
    b: int
    c: int
    m: Tuple[int, int, int, int, int, int]
    s: int
    m3: int
    n: int
    fano_index: int

    def bott(self) -> BottOrbifold:
        """The quotient as a Bott orbifold whose last stage is twisted by
        c1(L_n) = n*c1^orb(N)/I on x1, x2; raises ConsistencyError unless
        (b, c) = K*c1(L_n)."""
        base = c1_orb(BottOrbifold(self.a, 0, 0, self.m)).coeffs[:2]
        twist = tuple(self.n * x / self.fano_index for x in base)
        scale = lcm(self.m[2], self.m[3])
        if (self.b, self.c) != tuple(scale * t for t in twist):
            raise ConsistencyError(
                "(b, c) = (%d, %d) is not %d*c1(L_n) = %d*(%s, %s)"
                % (self.b, self.c, scale, scale, twist[0], twist[1])
            )
        return BottOrbifold(self.a, twist[0], twist[1], self.m)


def quotient_orbifold(spec: JoinSpec, ray: ReebRay) -> JoinQuotient:
    """Assemble the quotient orbifold data of a quasi-regular join."""
    if not ray.quasi_regular:
        raise DomainError("irregular ray has no quotient orbifold")
    diff = spec.w1 * ray.v3_inf - spec.w2 * ray.v3_0
    if diff == 0:
        raise DegenerateEquationError("w1*v3_inf = w2*v3_0 gives a degenerate class (n=0)")
    if diff < 0:
        raise DomainError("ray oriented against the join: w1*v3_inf < w2*v3_0")
    s = gcd(diff, spec.l2)
    m3 = spec.l2 // s
    n = (diff // s) * spec.l1
    if gcd(n, m3) != 1:
        raise ConsistencyError("gcd(n, m3) = %d != 1" % gcd(n, m3))
    b_hat, c_hat = (int(x) for x in spec.ypq.anticanonical_coefficients())
    m = (1, 1, spec.ypq.m2_0, spec.ypq.m2_inf, m3 * ray.v3_0, m3 * ray.v3_inf)
    return JoinQuotient(
        a=spec.ypq.a,
        b=n * b_hat,
        c=n * c_hat,
        m=m,
        s=s,
        m3=m3,
        n=n,
        fano_index=spec.ypq.fano_index,
    )
