"""The join construction: gluing a quasi-regular Y^{p,q} to a weighted
3-sphere along a 2-torus quotient.

Given the first factor's Einstein data and weights w = (w1, w2), this module
picks the canonical gluing integers (l1, l2), solves the cubic that pins down
the Sasaki-Einstein Reeb ray in the w-cone, decides smoothness of the join,
and assembles the quotient Bott orbifold data.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Tuple, Union

from .bott import BottOrbifold, _c1_x_ints
from .kernel import (
    AlgebraicRoot,
    ConsistencyError,
    DegenerateEquationError,
    DomainError,
    Frozen,
    Polynomial,
    _rational,
    _scaled_value,
    integrate_sym_ints,
    mul_ints,
    real_roots,
)
from .ypq import YpqEinstein


def validate_w(w1: int, w2: int) -> None:
    """Raise DomainError unless w1 > w2 >= 1 are coprime integers; a bool
    is no weight, although it is an int."""
    if not all(isinstance(w, int) and not isinstance(w, bool) for w in (w1, w2)):
        raise DomainError("weights must be integers")
    if not (w1 > w2 >= 1):
        raise DomainError("need w1 > w2 >= 1, got (%s, %s)" % (w1, w2))
    if gcd(w1, w2) != 1:
        raise DomainError("weights must be coprime, got gcd=%d" % gcd(w1, w2))


def canonical_l(w1: int, w2: int, fano_index: int) -> Tuple[int, int]:
    """The canonical gluing pair: l1 = I/g, l2 = (w1+w2)/g with
    g = gcd(w1+w2, I)."""
    validate_w(w1, w2)
    if fano_index < 1:
        raise DomainError("Fano index must be >= 1")
    g = gcd(w1 + w2, fano_index)
    return fano_index // g, (w1 + w2) // g


class JoinSpec(Frozen):
    """A join of a solved Y^{p,q} with the weighted 3-sphere S^3_{(w1,w2)},
    glued with integers (l1, l2).

    Rejects unnormalized input outright instead of silently renormalizing:
    l1 must be coprime to l2*m2 (which subsumes gcd(l1, m2) = 1).
    """

    __slots__ = ("ypq", "l1", "l2", "w1", "w2")

    def __init__(self, ypq: YpqEinstein, l1: int, l2: int, w1: int, w2: int):
        validate_w(w1, w2)
        if l1 < 1 or l2 < 1:
            raise DomainError("gluing integers must be positive")
        if gcd(l1, l2 * ypq.m2) != 1:
            raise DomainError(
                "need gcd(l1, l2*m2) = 1, got gcd(%d, %d) = %d"
                % (l1, l2 * ypq.m2, gcd(l1, l2 * ypq.m2))
            )
        object.__setattr__(self, "ypq", ypq)
        object.__setattr__(self, "l1", l1)
        object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)


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


def _se_cubic_ints(w1: int, w2: int) -> List[int]:
    """The integer coefficients of ``se_cubic``, lowest degree first."""
    return [-3 * w1, -(2 * w1 - w2), 2 * w2 - w1, 3 * w2]


def se_cubic(w1: int, w2: int) -> Polynomial:
    """The cubic in k whose root in (1, oo) fixes the Sasaki-Einstein Reeb ray:
    3*w2*k^3 + (2*w2 - w1)*k^2 - (2*w1 - w2)*k - 3*w1."""
    validate_w(w1, w2)
    return Polynomial(_se_cubic_ints(w1, w2))


class ReebRay(Frozen):
    """A Reeb ray in the w-cone of the join: the root ``k`` of the defining
    cubic, always in (1, oo), and the ratio v3_inf/v3_0 = k*w2/w1.  Both
    are Fractions on a quasi-regular ray, whose coprime (v3_0, v3_inf) are
    the ratio's denominator and numerator, and isolated algebraic numbers
    on an irregular ray, whose components are None."""

    __slots__ = ("k", "ratio")

    def __init__(self, k: Union[Fraction, AlgebraicRoot],
                 ratio: Union[Fraction, AlgebraicRoot]):
        kind = Fraction if isinstance(ratio, Fraction) else AlgebraicRoot
        if not (isinstance(k, kind) and isinstance(ratio, kind)):
            raise DomainError("k and ratio must both be Fractions or both AlgebraicRoots")
        if not ratio > 0:
            raise DomainError("ray ratio must be positive, got %s" % (ratio,))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "ratio", ratio)

    @property
    def quasi_regular(self) -> bool:
        return isinstance(self.ratio, Fraction)

    @property
    def v3_0(self) -> Optional[int]:
        return self.ratio.denominator if self.quasi_regular else None

    @property
    def v3_inf(self) -> Optional[int]:
        return self.ratio.numerator if self.quasi_regular else None


def se_ray_from_w(w1: int, w2: int) -> ReebRay:
    """Solve the cubic for its unique root k in (1, oo) and convert to the
    Reeb ray with v3_inf/v3_0 = k*w2/w1."""
    cubic = se_cubic(w1, w2)
    (k,) = real_roots(cubic)
    if not k > 1:
        raise ConsistencyError("the positive root of %r is not above 1" % (cubic,))
    if isinstance(k, Fraction):
        ratio = k * w2 / w1
        if not verify_se_ray(w1, w2, ratio.denominator, ratio.numerator):
            raise ConsistencyError(
                "cubic root k=%s fails the ray integral for w=(%d,%d)" % (k, w1, w2)
            )
        return ReebRay(k, ratio)
    return ReebRay(k, k.scaled(Fraction(w2, w1)))


def w_from_k(k) -> Tuple[int, int]:
    """Coprime weights (w1, w2) realizing a chosen rational k > 1:
    w2/w1 = (3 + 2k + k^2) / (k(1 + 2k + 3k^2)), which for k = a/b in lowest
    terms is w2 : w1 = b(a^2 + 2ab + 3b^2) : a(3a^2 + 2ab + b^2), reduced by
    its gcd; the cubic is then checked at k on its integer coefficients."""
    k = _rational(k, "k")
    a, b = k.numerator, k.denominator
    if a <= b:
        raise DomainError("need k > 1, got %s" % k)
    w1 = a * (3 * a * a + 2 * a * b + b * b)
    w2 = b * (a * a + 2 * a * b + 3 * b * b)
    g = gcd(w1, w2)
    w1, w2 = w1 // g, w2 // g
    if not w1 > w2:
        raise ConsistencyError("w1 <= w2 for k=%s" % k)
    if _scaled_value(_se_cubic_ints(w1, w2), a, b):
        raise ConsistencyError("weights (%d, %d) do not solve the cubic at k=%s" % (w1, w2, k))
    return w1, w2


def verify_se_ray(w1: int, w2: int, v3_0: int, v3_inf: int) -> bool:
    """Exact check that (v3_0, v3_inf) spans a Sasaki-Einstein Reeb ray for
    weights (w1, w2): the defining integral over [-1, 1] of
    (C - D z)(A + B z)^2 vanishes, read on its integer coefficients.

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
    sq = [a, b]
    integral, _ = integrate_sym_ints(mul_ints([c, -d], mul_ints(sq, sq)))
    closed = 3 * c * a * a + c * b * b - 2 * a * b * d
    if (integral == 0) != (closed == 0):
        raise ConsistencyError("integral and closed form disagree")
    return integral == 0


class JoinQuotient(Frozen):
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

    Every field is an int, and m holds six positive ints; anything else,
    a bool included, raises DomainError.
    """

    __slots__ = ("a", "b", "c", "m", "s", "m3", "n", "fano_index")

    def __init__(self, a: int, b: int, c: int, m: Tuple[int, int, int, int, int, int],
                 s: int, m3: int, n: int, fano_index: int):
        for name, val in (("a", a), ("b", b), ("c", c), ("s", s), ("m3", m3), ("n", n),
                          ("fano_index", fano_index)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise DomainError("%s must be an integer, got %r" % (name, val))
        m = tuple(m)
        if len(m) != 6 or not all(isinstance(x, int) and not isinstance(x, bool) and x > 0
                                  for x in m):
            raise DomainError("m must be six positive integers, got %r" % (m,))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "m3", m3)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "fano_index", fano_index)

    def bott(self) -> BottOrbifold:
        """The quotient as a Bott orbifold whose last stage is twisted by
        c1(L_n) = n*c1^orb(N)/I on x1, x2; raises ConsistencyError unless
        (b, c) = K*c1(L_n).

        c1^orb(N) = (A, B)/d is that of the Bott orbifold (a, 0, 0, m), so
        c1(L_n) = n*(A, B)/(d*I) and the check cross-multiplies by d*I."""
        big_a, big_b, _, d = _c1_x_ints(self.a, 0, 0, self.m)
        # c1(L_n) = (twist_b, twist_c)/den
        twist_b, twist_c, den = self.n * big_a, self.n * big_b, d * self.fano_index
        scale = lcm(self.m[2], self.m[3])
        if self.b * den != scale * twist_b or self.c * den != scale * twist_c:
            raise ConsistencyError(
                "(b, c) = (%d, %d) is not %d*c1(L_n) = %d*(%s, %s)"
                % (self.b, self.c, scale, scale, Fraction(twist_b, den), Fraction(twist_c, den))
            )
        return BottOrbifold(self.a, Fraction(twist_b, den), Fraction(twist_c, den), self.m)


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
