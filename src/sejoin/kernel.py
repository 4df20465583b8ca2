"""Exact arithmetic kernel.

Scalars are arbitrary-precision ``int`` and ``fractions.Fraction`` values,
polynomials are dense coefficient tuples over Fraction, and irrational roots
are carried as (square-free polynomial, isolating interval) pairs that can be
refined to any requested width.  No floats enter any computation.

``real_roots`` solves only square-free polynomials with p(0) != 0, as the SE
cubic and the Y^{p,q} quadratic are, and raises DomainError on any other
input.  ``AlgebraicRoot`` compares with rationals only.

The hot paths run on integers: ``Polynomial.__call__`` is Horner's rule on
one integer numerator and one positive integer denominator with a single
Fraction at the end, and ``sturm_chain`` is an integer pseudo-remainder
sequence.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import merge
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
        # Horner's rule on num/den, den > 0, for an int or Fraction x: no gcd
        # until the single Fraction at the end
        xn, xd = x.numerator, x.denominator
        num, den = 0, 1
        for c in reversed(self.coeffs):
            cd = c.denominator
            num, den = num * xn * cd + c.numerator * den * xd, den * xd * cd
        return Fraction(num, den)

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


def _content_free(ints: list) -> list:
    """ints, stripped of trailing zeros in place, with the positive content
    divided out."""
    while ints and ints[-1] == 0:
        ints.pop()
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _pseudo_remainder(a: list, b: list) -> list:
    """prem(a, b) = lead(b)^(deg a - deg b + 1) * a mod b, on integer
    coefficient lists (lowest degree first) with deg a >= deg b >= 0."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    for i in range(len(a) - 1, db - 1, -1):
        q = r[i]
        r = [lb * v for v in r[:i]]
        for j in range(db):
            r[i - db + j] -= q * b[j]
    return r


def sturm_chain(p: Polynomial) -> list:
    """Sturm sequence of p, computed on integers.

    p is scaled to integer coefficients by a positive factor.  Each term
    after p' is -prem(a, b) of the two terms a, b before it, with its sign
    flipped when lead(b)^(deg a - deg b + 1) < 0 and its content divided
    out.  Every term is therefore a positive multiple of the classical term
    (p, p', -rem, ...): sign-variation counts are the same, and the last
    term is gcd(p, p') up to a positive constant.
    """
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    a = _content_free([c.numerator * (den // c.denominator) for c in p.coeffs])
    b = _content_free([i * c for i, c in enumerate(a) if i > 0])
    chain = [a]
    while b:
        chain.append(b)
        r = _pseudo_remainder(a, b)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-v for v in r]
        a, b = b, _content_free(r)
    return [Polynomial(t) for t in chain]


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
    It compares with rationals only: ``<`` or ``>`` between two AlgebraicRoots
    raises TypeError, since bisecting two intervals of one number never ends.
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
            return NotImplemented
        return self._cmp_fraction(Fraction(other)) < 0

    def __gt__(self, other):
        if isinstance(other, AlgebraicRoot):
            return NotImplemented
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
    """The rational roots of p, ascending, and p with them deflated out; p(0)
    must be nonzero, and a repeated rational root raises DomainError."""
    roots = []
    ip = p.primitive()
    a0, an = int(ip.coeffs[0]), int(ip.coeffs[-1])
    for num in _divisors(a0):
        for den in _divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p(cand) == 0:
                    roots.append(cand)
                    p = _deflate_root(p, cand)
                    if p(cand) == 0:
                        raise DomainError("repeated root %s" % (cand,))
    return sorted(roots), p


def _cauchy_bound(p: Polynomial) -> Fraction:
    lead = abs(p.leading())
    m = max((abs(c) / lead for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m


def _isolate_irrational(p: Polynomial) -> list:
    """AlgebraicRoots, refined below DEFAULT_ROOT_WIDTH, for all real roots of
    p, which must be square-free with no rational roots.  They come back in
    ascending, disjoint intervals; a repeated root raises DomainError."""
    chain = sturm_chain(p)
    if chain[-1].degree >= 1:
        raise DomainError("repeated root: gcd(p, p') = %r" % (chain[-1],))
    m = _cauchy_bound(p)

    def var(x):
        return _sign_variations(chain, x)

    out = []
    stack = [(-m, m, var(-m), var(m))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        cnt = vlo - vhi
        if cnt == 0:
            continue
        if cnt == 1 and p(lo) * p(hi) < 0:
            out.append(AlgebraicRoot(p, lo, hi).refined(DEFAULT_ROOT_WIDTH))
            continue
        mid = (lo + hi) / 2
        if p(mid) == 0:
            raise ConsistencyError("unexpected rational root %s" % (mid,))
        vm = var(mid)
        stack.append((lo, mid, vlo, vm))
        stack.append((mid, hi, vm, vhi))
    out.sort(key=lambda r: r.lo)
    return out


def real_roots(p: Polynomial) -> list:
    """All real roots of p, ascending: Fractions for the rational ones and
    AlgebraicRoots narrower than DEFAULT_ROOT_WIDTH for the others.  p must be
    square-free with p(0) != 0, as the SE cubic and the Y^{p,q} quadratic are
    (README, library layout); any other p raises DomainError."""
    if p.is_zero() or p.coeffs[0] == 0:
        raise DomainError("real_roots needs p(0) != 0, got %r" % (p,))
    rational, rest = _rational_roots(p)
    # both lists ascend, so merge compares only a Fraction with an AlgebraicRoot
    merged = list(merge(rational, _isolate_irrational(rest)))
    for a, b in zip(merged, merged[1:]):
        both = isinstance(a, AlgebraicRoot) and isinstance(b, AlgebraicRoot)
        if not (a.hi <= b.lo if both else a < b):
            raise ConsistencyError("root ordering failed")
    return merged
