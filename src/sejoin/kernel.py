"""Exact arithmetic kernel.

Scalars are arbitrary-precision ``int`` and ``fractions.Fraction`` values,
polynomials are dense coefficient tuples over Fraction (degree <= 5 in all
uses here, but nothing below assumes that), and irrational roots are carried
as (square-free polynomial, isolating interval) pairs that can be refined to
any requested width.  No floats enter any computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isqrt
from typing import Iterable, Union


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class DegenerateEquationError(DomainError):
    """Input that makes a defining quantity vanish, e.g. w1*v3_inf = w2*v3_0."""


class ConsistencyError(RuntimeError):
    """An internal cross-check that should be impossible to fail has failed."""


# interval width below which isolated roots are refined by default
DEFAULT_ROOT_WIDTH = Fraction(1, 10**30)


def integer_sqrt_exact(n: int) -> Union[int, None]:
    """Exact integer square root: r with r*r == n, or None if n is not a square."""
    if n < 0:
        raise DomainError("integer_sqrt_exact: negative argument %r" % (n,))
    r = isqrt(n)
    return r if r * r == n else None


class Polynomial:
    """Dense univariate polynomial over Fraction.

    coeffs[i] is the coefficient of z^i; trailing zeros are stripped, so the
    zero polynomial has coeffs == () and degree -1.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial(c * Fraction(other) for c in self.coeffs)

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        if len(rem) <= d:
            return Polynomial(), Polynomial(rem)
        quo = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            q = rem[i] / lead
            quo[i - d] = q
            if q:
                for j in range(d + 1):
                    rem[i - d + j] -= q * other.coeffs[j]
        return Polynomial(quo), Polynomial(rem[:d])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def antiderivative(self) -> "Polynomial":
        # constant of integration 0
        return Polynomial([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def scale_arg(self, s) -> "Polynomial":
        """p(s*z) as a polynomial in z."""
        s = Fraction(s)
        return Polynomial(c * s**i for i, c in enumerate(self.coeffs))

    def primitive(self) -> "Polynomial":
        """Integer-coefficient, content-free, positive-leading normal form."""
        if self.is_zero():
            return self
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if ints[-1] < 0:
            g = -g
        return Polynomial(v // g for v in ints)

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*z^%d" % (c, i))
        return "Polynomial(%s)" % " + ".join(terms)


def integrate_sym(p: Polynomial) -> Fraction:
    """Exact integral of p over [-1, 1]: odd powers vanish, z^(2j) gives 2/(2j+1)."""
    total = Fraction(0)
    for i, c in enumerate(p.coeffs):
        if i % 2 == 0:
            total += 2 * c / (i + 1)
    return total


def sturm_chain(p: Polynomial) -> list:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_variations(chain, x) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _deflate_root(p: Polynomial, r: Fraction) -> Polynomial:
    q, rem = divmod(p, Polynomial((-r, 1)))
    if not rem.is_zero():
        raise ConsistencyError("deflation by non-root %s" % (r,))
    return q


def count_roots_open(p: Polynomial, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise DomainError("empty interval (%s, %s)" % (lo, hi))
    if p.is_zero():
        raise DomainError("zero polynomial vanishes identically")
    while p(lo) == 0:
        p = _deflate_root(p, lo)
    while p(hi) == 0:
        p = _deflate_root(p, hi)
    if p.degree < 1:
        return 0
    # Sturm's theorem: with p nonzero at both ends, the chain counts distinct
    # roots even when p has repeated factors
    chain = sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def sturm_positive_on(p: Polynomial, lo, hi) -> bool:
    """True iff p has no root in the open interval (lo, hi) and p((lo+hi)/2) > 0.

    Roots at the endpoints are allowed.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise DomainError("empty interval (%s, %s)" % (lo, hi))
    if p.is_zero():
        return False
    if count_roots_open(p, lo, hi):
        return False
    return p((lo + hi) / 2) > 0


def _scaled_value(coeffs, m: int, d: int) -> int:
    """d^deg * p(m/d) for p with integer coefficients ``coeffs`` (lowest
    degree first), by Horner's rule on integers; same sign as p(m/d), d > 0."""
    acc = coeffs[-1]
    dpow = d
    for c in reversed(coeffs[:-1]):
        acc = acc * m + c * dpow
        dpow *= d
    return acc


class AlgebraicRoot:
    """A real algebraic number: the unique root of ``poly`` in (lo, hi).

    The polynomial is stored in primitive integer form; the invariant that the
    interval isolates exactly one root (with a sign change) is checked at
    construction.  Refinement methods are pure: they return data, never mutate.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: Polynomial, lo, hi):
        poly = poly.primitive()
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise DomainError("empty isolating interval (%s, %s)" % (lo, hi))
        if poly(lo) * poly(hi) >= 0:
            raise DomainError("no sign change of %r on (%s, %s)" % (poly, lo, hi))
        if count_roots_open(poly, lo, hi) != 1:
            raise DomainError("interval (%s, %s) does not isolate one root" % (lo, hi))
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicRoot is immutable")

    def refined(self, width) -> "AlgebraicRoot":
        lo, hi = self.refined_interval(width)
        return AlgebraicRoot(self.poly, lo, hi)

    def refined_interval(self, width):
        """Bisect until hi - lo < width; returns (lo, hi) without mutating."""
        width = Fraction(width)
        if width <= 0:
            raise DomainError("refinement width must be positive")
        wn, wd = width.numerator, width.denominator
        for a, b, d in self._bisection():
            if a == b:
                # rational root: collapse to a tiny bracketing interval
                mid, eps = Fraction(a, d), width / 4
                return mid - eps, mid + eps
            if (b - a) * wd < wn * d:
                return Fraction(a, d), Fraction(b, d)

    def _bisection(self):
        """Yield the bisection intervals of the root as integer triples
        (a, b, d), meaning (a/d, b/d), starting from (lo, hi).

        Both ends share the denominator d, which doubles at each step, so a
        step costs one integer Horner evaluation of d^deg * poly(m/d) and no
        gcd.  A midpoint m/d that is a root ends the sequence with (m, m, d).
        """
        coeffs = [int(c) for c in self.poly.coeffs]
        lo, hi = self.lo, self.hi
        d = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        lo_positive = _scaled_value(coeffs, a, d) > 0
        while True:
            yield a, b, d
            m, d = a + b, 2 * d
            v = _scaled_value(coeffs, m, d)
            if v == 0:
                yield m, m, d
                return
            if (v > 0) != lo_positive:
                a, b = 2 * a, m
            else:
                a, b = m, 2 * b

    def decimal_bounds(self, digits: int = 40):
        """The one-unit decimal cell (lo_str, hi_str) containing the number x,
        with ``digits`` fractional digits: lo_str = floor(x*10^digits)/10^digits
        and hi_str one unit more.  The strings depend on x alone, not on the
        isolating interval."""
        if digits < 1:
            raise DomainError("digits must be >= 1")
        scale = 10**digits
        coeffs = [int(c) for c in self.poly.coeffs]
        for a, b, d in self._bisection():
            if (b - a) * scale > d:
                continue  # wider than a cell
            n = a * scale // d
            if b * scale <= (n + 1) * d:
                break  # (a/d, b/d) lies in the cell [n, n + 1]/scale
            # (a/d, b/d) straddles the grid point (n + 1)/scale, which
            # bisection never reaches if it is the root
            if _scaled_value(coeffs, n + 1, scale) == 0:
                n += 1
                break
        return _scaled_to_decimal(n, digits), _scaled_to_decimal(n + 1, digits)

    def _cmp_fraction(self, x: Fraction) -> int:
        xn, xd = x.numerator, x.denominator
        coeffs = [int(c) for c in self.poly.coeffs]
        if self.lo < x < self.hi and _scaled_value(coeffs, xn, xd) == 0:
            # x is a rational root of poly inside the interval: the root itself
            return 0
        for a, b, d in self._bisection():
            # x = xn/xd leaves (a/d, b/d), or the midpoint root (a == b) is not x
            if not a * xd < xn * d < b * xd:
                return -1 if b * xd <= xn * d else 1

    def __lt__(self, other):
        if isinstance(other, AlgebraicRoot):
            a, b = self, other
            while True:
                if a.hi <= b.lo:
                    return True
                if b.hi <= a.lo:
                    return False
                a = a.refined((a.hi - a.lo) / 4)
                b = b.refined((b.hi - b.lo) / 4)
        return self._cmp_fraction(Fraction(other)) < 0

    def __gt__(self, other):
        if isinstance(other, AlgebraicRoot):
            return other < self
        return self._cmp_fraction(Fraction(other)) > 0

    def __repr__(self):
        return "AlgebraicRoot(%r, (%s, %s))" % (self.poly, self.lo, self.hi)


def _scaled_to_decimal(q: int, digits: int) -> str:
    """Decimal string of q/10^digits with ``digits`` fractional digits."""
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), 10**digits)
    return "%s%d.%0*d" % (sign, whole, digits, frac)


def fraction_to_decimal(x: Fraction, digits: int) -> str:
    """Decimal string of x with ``digits`` fractional digits, rounded toward
    -infinity."""
    return _scaled_to_decimal(x.numerator * 10**digits // x.denominator, digits)


def _divisors(n: int) -> list:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return out


def _rational_roots(p: Polynomial):
    """All rational roots (each listed once) and p with them deflated out."""
    roots = []
    # factor out z^k first
    while not p.is_zero() and p.coeffs[0] == 0:
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
        p = Polynomial(p.coeffs[1:])
    if p.degree < 1:
        return roots, p
    ip = p.primitive()
    a0 = int(ip.coeffs[0])
    an = int(ip.coeffs[-1])
    for num in _divisors(a0):
        for den in _divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p(cand) == 0:
                    if cand not in roots:
                        roots.append(cand)
                    while p(cand) == 0 and p.degree >= 1:
                        p = _deflate_root(p, cand)
    return roots, p


def _cauchy_bound(p: Polynomial) -> Fraction:
    lead = abs(p.leading())
    m = max((abs(c) / lead for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m


def _isolate_irrational(p: Polynomial, width) -> list:
    """Isolating intervals for all real roots of p, which must have no rational
    roots; returns AlgebraicRoots refined below ``width``."""
    if p.degree < 1:
        return []
    chain = sturm_chain(p)
    # the chain ends in gcd(p, p'); dividing it out leaves the square-free part
    sf = p if chain[-1].degree < 1 else p // chain[-1]
    m = _cauchy_bound(sf)

    def var(x):
        return _sign_variations(chain, x)

    out = []
    stack = [(-m, m, var(-m), var(m))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        cnt = vlo - vhi
        if cnt == 0:
            continue
        if cnt == 1 and sf(lo) * sf(hi) < 0:
            out.append(AlgebraicRoot(sf, lo, hi).refined(width))
            continue
        mid = (lo + hi) / 2
        if sf(mid) == 0:
            raise ConsistencyError("unexpected rational root %s" % (mid,))
        vm = var(mid)
        stack.append((lo, mid, vlo, vm))
        stack.append((mid, hi, vm, vhi))
    out.sort(key=lambda r: r.lo)
    return out


def real_roots(p: Polynomial, width=DEFAULT_ROOT_WIDTH) -> list:
    """All distinct real roots of p, sorted ascending.

    Rational roots come back as Fractions; irrational ones as AlgebraicRoots
    with isolating intervals narrower than ``width``.
    """
    if p.is_zero():
        raise DomainError("zero polynomial vanishes identically")
    rational, rest = _rational_roots(p)
    irrational = _isolate_irrational(rest, width)
    merged = sorted(rational) + irrational
    # the roots are distinct, so a < b decides every pair exactly
    merged.sort(key=cmp_to_key(lambda a, b: -1 if a < b else 1))
    for a, b in zip(merged, merged[1:]):
        if not a < b:
            raise ConsistencyError("root ordering failed")
    return merged
