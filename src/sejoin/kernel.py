"""Exact arithmetic kernel.

Scalars are arbitrary-precision ``int`` and ``fractions.Fraction`` values.
A ``Polynomial`` is a dense coefficient tuple over Fraction, the form a
record stores; the computations behind it run on integer coefficient lists
(lowest degree first).  Irrational roots are carried as the primitive
integer coefficients of a square-free polynomial with an isolating
interval, refined only where a comparison or ``decimal_bounds`` needs it.
No floats enter any computation: an ``AlgebraicRoot`` takes int and
Fraction operands only, and raises TypeError on anything else.

``real_roots`` returns the one positive root of a polynomial of degree 2 or
3 with p(0) != 0 and one sign variation in its coefficients, as the SE
cubic and the Y^{p,q} quadratic are; by Descartes' rule of signs that root
exists and is simple.  It raises DomainError on any other input.  One isqrt
of a quadratic's discriminant decides whether the root is rational and
otherwise gives it an interval narrower than NEWTON_START; a cubic's root
is the first positive rational candidate that trial division finds, each
tested on integers, or else the root on the first bisection interval of
(0, m), m the Cauchy bound, narrower than NEWTON_START.  So that root,
and its copy scaled by a factor below 1, starts ``decimal_bounds``' Newton
steps with no bisection left.  ``AlgebraicRoot._cmp`` is the one exact
placement of a root against a rational: cross-multiplication outside its
interval, else one sign test against the stored sign at the lower end.

The hot paths run on integers.  ``mul_ints`` and ``integrate_sym_ints`` are
the one polynomial product and the one integral over [-1, 1], on integer
lists: ``Polynomial.__mul__`` and ``integrate_sym`` clear denominators once
and call them, and the KE profile and the two ray integrals call them
directly, with a Fraction built only where a record stores one.
``Polynomial.__call__`` is Horner's rule on one integer numerator and one
positive integer denominator with a single Fraction at the end, and
``sturm_chain`` is an integer pseudo-remainder sequence on the coefficient
list that its caller scaled to integers once, whose signs are read by
integer Horner evaluation, with no Fraction built.  Trial division and
bisection read the same integer evaluation, and ``count_roots_open``
deflates an endpoint root n/d by exact integer division by d z - n.
An ``AlgebraicRoot`` stores its interval as three integers (a, b, d),
meaning (a/d, b/d), and its sign change, Sturm count, comparisons,
clipping and scaling read them by cross-multiplication; only ``lo``,
``hi`` and the returned ends of ``refined_interval`` are Fractions.
Each ``AlgebraicRoot`` certifies its interval by one Sturm count, except a
scaled root s*x (``AlgebraicRoot.scaled``), which inherits the certificate
of x.  A quadratic root's decimal cell is read off the isqrt cell that
``_quadratic_cell`` puts it in, on a grid that 10^-d divides.  For other
degrees, ``decimal_bounds`` proposes the cell by integer Newton steps,
whose precision about doubles each step, and accepts it only on an exact
sign test, so a d-digit cell costs O(log d) evaluations instead of the
~3.3 d of bisection.

``Frozen`` is the one immutability idiom of the package: ``Polynomial``,
``AlgebraicRoot`` and the record classes of the other modules derive from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Tuple, Union


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class DegenerateEquationError(DomainError):
    """Input that makes a defining quantity vanish, e.g. w1*v3_inf = w2*v3_0."""


class ConsistencyError(RuntimeError):
    """An internal cross-check that should be impossible to fail has failed."""


class Frozen:
    """An immutable value whose fields are its class's ``__slots__``.

    A subclass's ``__init__`` sets each field with ``object.__setattr__``;
    assigning or deleting an attribute raises AttributeError.  Two
    instances are equal when they are of one class and their fields are
    equal, and an object of another class is never equal to one; the hash
    is that of the field tuple, and the repr reads ``Name(field=value, ...)``.
    This is what ``@dataclass(frozen=True)`` generates, written once instead
    of generated at every import.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


def integer_sqrt_exact(n: int) -> Union[int, None]:
    """Exact integer square root: r with r*r == n, or None if n is not a square."""
    if n < 0:
        raise DomainError("integer_sqrt_exact: negative argument %r" % (n,))
    r = isqrt(n)
    return r if r * r == n else None


def clear_denominators(values) -> Tuple[list, int]:
    """(ints, d) for Fractions values: d is the lcm of their denominators and
    ints[i] = d * values[i], an integer."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _rational(x, what: str):
    """x, when it is an int or a Fraction; TypeError otherwise, so that no
    float, string or bool enters exact arithmetic as a rational."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise TypeError("%s must be an int or a Fraction, got %r" % (what, x))


class Polynomial(Frozen):
    """Dense univariate polynomial over Fraction.

    coeffs[i] is the coefficient of z^i; trailing zeros are stripped, so the
    zero polynomial has coeffs == () and degree -1.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(_rational(c, "coefficient")) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

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
            a, da = clear_denominators(self.coeffs)
            b, db = clear_denominators(other.coeffs)
            return Polynomial(Fraction(c, da * db) for c in mul_ints(a, b))
        other = _rational(other, "scalar")
        return Polynomial(c * other for c in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*z^%d" % (c, i))
        return "Polynomial(%s)" % " + ".join(terms)


def mul_ints(a: list, b: list) -> list:
    """The integer coefficients of the product of the polynomials with
    integer coefficients ``a`` and ``b`` (lowest degree first)."""
    if not (a and b):
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def integrate_sym_ints(coeffs: list) -> Tuple[int, int]:
    """(n, d), d > 0, with n/d the integral over [-1, 1] of the polynomial
    with integer coefficients ``coeffs`` (lowest degree first): odd powers
    vanish and z^(2j) gives 2/(2j+1), so d is the lcm of those 2j+1 and n
    is 0 exactly when the integral is."""
    d = lcm(*range(1, len(coeffs) + 1, 2))
    return sum(2 * c * (d // (i + 1)) for i, c in enumerate(coeffs) if i % 2 == 0), d


def integrate_sym(p: Polynomial) -> Fraction:
    """Exact integral of p over [-1, 1], by ``integrate_sym_ints`` on the
    integer multiple of p that clears its denominators."""
    ints, scale = clear_denominators(p.coeffs)
    n, d = integrate_sym_ints(ints)
    return Fraction(n, d * scale)


def _content_free(ints: list) -> list:
    """ints, stripped of trailing zeros in place, with the positive content
    divided out."""
    while ints and ints[-1] == 0:
        ints.pop()
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _primitive_ints(coeffs) -> list:
    """The primitive integer coefficients of the polynomial with Fraction
    coefficients ``coeffs``: content 1 and a positive leading one."""
    ints = _content_free(clear_denominators(coeffs)[0])
    return [-v for v in ints] if ints and ints[-1] < 0 else ints


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


def sturm_chain(a: list) -> list:
    """Sturm sequence of the polynomial p with the content-free integer
    coefficients ``a`` (lowest degree first), as integer coefficient lists.

    Callers scale p to integers once and pass that list.  Each term
    after p' is -prem(a, b) of the two terms a, b before it, with its sign
    flipped when lead(b)^(deg a - deg b + 1) < 0 and its content divided
    out.  Every term is therefore a positive multiple of the classical term
    (p, p', -rem, ...): sign-variation counts are the same, and the last
    term is gcd(p, p') up to a positive constant.  A constant term ends the
    chain, since its remainder is zero.
    """
    b = _content_free([i * c for i, c in enumerate(a) if i > 0])
    chain = [a]
    while b:
        chain.append(b)
        if len(b) == 1:
            break
        r = _pseudo_remainder(a, b)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-v for v in r]
        a, b = b, _content_free(r)
    return chain


def _sign_variations(chain, m: int, d: int) -> int:
    """Sign variations of the integer chain ``chain`` at m/d, d > 0."""
    variations, last = 0, 0
    for term in chain:
        v = _scaled_value(term, m, d)
        if v:
            if last and (v > 0) != (last > 0):
                variations += 1
            last = v
    return variations


def _deflate(ints: list, n: int, d: int) -> list:
    """The integer coefficients of p / (d z - n), for p with integer
    coefficients ``ints`` (lowest degree first) and a root n/d in lowest
    terms, d > 0.  By Gauss's lemma the quotient has integer coefficients,
    found from the top by exact division by d; a nonzero remainder means
    n/d is no root, and raises ConsistencyError."""
    quo, q = [], 0
    for c in reversed(ints):
        q, rem = divmod(c + n * q, d)
        if rem:
            break
        quo.append(q)
    # the last step divides p(n/d) * d^deg by d, so it must leave 0
    if rem or q:
        raise ConsistencyError("deflation by non-root %s" % (Fraction(n, d),))
    return quo[-2::-1]


def count_roots_open(p: Polynomial, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi), each
    end an int or a Fraction."""
    lo, hi = Fraction(_rational(lo, "lo")), Fraction(_rational(hi, "hi"))
    if not lo < hi:
        raise DomainError("empty interval (%s, %s)" % (lo, hi))
    if p.is_zero():
        raise DomainError("zero polynomial vanishes identically")
    ints = clear_denominators(p.coeffs)[0]
    for x in (lo, hi):
        while _scaled_value(ints, x.numerator, x.denominator) == 0:
            ints = _deflate(ints, x.numerator, x.denominator)
    if len(ints) < 2:
        return 0
    # Sturm's theorem: with p nonzero at both ends, the chain counts distinct
    # roots even when p has repeated factors
    chain = sturm_chain(_content_free(ints))
    return (_sign_variations(chain, lo.numerator, lo.denominator)
            - _sign_variations(chain, hi.numerator, hi.denominator))


def sturm_positive_on(p: Polynomial, lo, hi) -> bool:
    """True iff p has no root in the open interval (lo, hi) and p((lo+hi)/2) > 0.

    Roots at the endpoints are allowed; each end is an int or a Fraction.
    """
    lo, hi = Fraction(_rational(lo, "lo")), Fraction(_rational(hi, "hi"))
    if not lo < hi:
        raise DomainError("empty interval (%s, %s)" % (lo, hi))
    if p.is_zero():
        return False
    if count_roots_open(p, lo, hi):
        return False
    return p((lo + hi) / 2) > 0


# the bracket that integer Newton steps in decimal_bounds start from, and the
# bits that each of their precisions keeps over half the next one
NEWTON_START = Fraction(1, 2**16)
NEWTON_GUARD = 8


def _scaled_value(coeffs, m: int, d: int) -> int:
    """d^deg * p(m/d) for p with integer coefficients ``coeffs`` (lowest
    degree first), by Horner's rule on integers; same sign as p(m/d), d > 0."""
    acc, dpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * m + c * dpow
        dpow *= d
    return acc


def _quadratic_cell(coeffs, n: int, larger: bool):
    """(j, d, exact) for the larger root x of a z^2 + b z + c, or the
    smaller one, given its integer coefficients (c, b, a) with a > 0 and
    D = b^2 - 4ac > 0: d = 2an and j = floor(x d), by one isqrt.

    x d = -b n +- sqrt(D n^2), so with s = isqrt(D n^2), ``exact`` (D is a
    square) means x = j/d; otherwise sqrt(D n^2) is irrational and x lies
    strictly inside (j/d, (j + 1)/d), with j = -b n + s, or -b n - s - 1
    for the smaller root."""
    c, b, a = coeffs
    dn2 = (b * b - 4 * a * c) * n * n
    s = isqrt(dn2)
    exact = s * s == dn2
    j = -b * n + s if larger else -b * n - s - (not exact)
    return j, 2 * a * n, exact


def _bisection(coeffs, a: int, b: int, d: int, wn: int, wd: int, lo_positive: bool):
    """The first bisection interval of (a/d, b/d) narrower than wn/wd, as an
    integer triple (a, b, d), for the polynomial with integer coefficients
    ``coeffs`` (lowest degree first) that changes sign once on (a/d, b/d)
    and is positive at a/d iff ``lo_positive``.

    Both ends share the denominator d, which doubles at each step, so a
    step costs one integer Horner evaluation of d^deg * poly(m/d) and no
    gcd.  A midpoint m/d that is a root ends the bisection with (m, m, d).
    An interval narrower than wn/wd already is returned with no evaluation.
    """
    while (b - a) * wd >= wn * d:
        m, d = a + b, 2 * d
        v = _scaled_value(coeffs, m, d)
        if v == 0:
            return m, m, d
        if (v > 0) != lo_positive:
            a, b = 2 * a, m
        else:
            a, b = m, 2 * b
    return a, b, d


class AlgebraicRoot(Frozen):
    """A real algebraic number: the unique root of ``poly`` in (lo, hi).

    The polynomial is stored once, as its primitive integer coefficients
    ``coeffs`` (lowest degree first, content 1, leading coefficient
    positive), and every sign test reads them by integer Horner evaluation;
    ``poly`` is a read-only view of them as a Polynomial.  The isolating
    interval is stored as three integers (a, b, d), meaning (a/d, b/d) with
    d > 0, and every internal path reads those integers; ``lo`` and ``hi``
    are read-only views of them as Fractions.  The invariant that the
    interval isolates exactly one root (with a sign change) is checked at
    construction by a Sturm count, or carried over from x to s*x by
    ``scaled``, which counts nothing; both store the sign of poly at lo,
    ``_lo_positive``.  ``_cmp`` is the one exact placement of the root
    against a rational, for ``<``, ``>`` and every cell of
    ``decimal_bounds``.  Refinement methods are pure.  It orders against
    rationals only, an int or a Fraction: ``<`` or ``>`` with anything
    else, a bool or another AlgebraicRoot included, raises TypeError, since
    bisecting two intervals of one number never ends.  ``==`` needs no
    bisection: two roots are equal when they are the same root of the same
    primitive polynomial, so it is equality of numbers for roots of
    irreducible polynomials, as every root that ``real_roots`` builds is.
    """

    __slots__ = ("coeffs", "_a", "_b", "_d", "_lo_positive")

    def __init__(self, poly, lo, hi):
        """The root of ``poly`` in (lo, hi), each end an int or a Fraction:
        ``poly`` is a Polynomial, or the primitive integer coefficients of
        one as a sequence (lowest degree first, content 1, leading
        coefficient positive), which are used as given."""
        lo, hi = _rational(lo, "lo"), _rational(hi, "hi")
        ld, hd = lo.denominator, hi.denominator
        d = lcm(ld, hd)
        a, b = lo.numerator * (d // ld), hi.numerator * (d // hd)
        if not a < b:
            raise DomainError("empty isolating interval (%s, %s)" % (lo, hi))
        if isinstance(poly, Polynomial):
            coeffs = _primitive_ints(poly.coeffs)
        else:
            coeffs = poly
            if not coeffs or coeffs[-1] <= 0 or gcd(*coeffs) != 1:
                raise DomainError("%r are not primitive integer coefficients" % (poly,))
        at_lo = _scaled_value(coeffs, a, d)
        if at_lo * _scaled_value(coeffs, b, d) >= 0:
            raise DomainError("no sign change of %r on (%s, %s)" % (poly, lo, hi))
        # neither end is a root, so Sturm's theorem applies without deflation.
        # real_roots' roots need no count by Descartes' rule, but this is the
        # one sturm_chain call of the workloads sweep-export and ypq-census
        chain = sturm_chain(coeffs)
        if _sign_variations(chain, a, d) - _sign_variations(chain, b, d) != 1:
            raise DomainError("interval (%s, %s) does not isolate one root" % (lo, hi))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_lo_positive", at_lo > 0)

    @property
    def poly(self) -> Polynomial:
        return Polynomial(self.coeffs)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, self._d)

    def scaled(self, s) -> "AlgebraicRoot":
        """The root s*x of poly(z/s) on (s*lo, s*hi), for an int or Fraction
        s > 0.

        z -> s*z maps the roots of poly to those of poly(z/s) in order and
        keeps the signs at the ends, so the scaled interval isolates s*x
        with a sign change as (lo, hi) isolates x: the certificate carries
        over, and no Sturm count runs.  With s = n/m, n^deg * poly(z/s) has
        the integer coefficients c_i * m^i * n^(deg - i), and the interval
        is (n a/(m d), n b/(m d))."""
        s = _rational(s, "scale factor")
        n, m, deg = s.numerator, s.denominator, len(self.coeffs) - 1
        if n <= 0:
            raise DomainError("scale factor must be positive, got %s" % (s,))
        out = object.__new__(AlgebraicRoot)
        object.__setattr__(out, "coeffs", tuple(_content_free(
            [c * m**i * n**(deg - i) for i, c in enumerate(self.coeffs)])))
        object.__setattr__(out, "_a", n * self._a)
        object.__setattr__(out, "_b", n * self._b)
        object.__setattr__(out, "_d", m * self._d)
        object.__setattr__(out, "_lo_positive", self._lo_positive)
        return out

    def refined_interval(self, width):
        """An isolating sub-interval (lo, hi) of Fractions narrower than
        ``width``, an int or a Fraction, without mutating.

        A quadratic's is ``_quadratic_interval``: its isqrt cell, which no
        point of the grid 1/N, N = ceil(1/width), lies inside.  Other
        degrees take the first bisection interval of (lo, hi) narrower than
        ``width``, which is (lo, hi) itself when that is narrower already;
        a midpoint that is a root ends the bisection as
        (mid - width/4, mid + width/4)."""
        width = _rational(width, "refinement width")
        wn, wd = width.numerator, width.denominator
        if wn <= 0:
            raise DomainError("refinement width must be positive")
        if len(self.coeffs) == 3:
            return self._quadratic_interval(wn, wd)
        a, b, d = _bisection(self.coeffs, self._a, self._b, self._d, wn, wd,
                             self._lo_positive)
        if a == b:
            # rational root: collapse to a tiny bracketing interval
            mid, eps = Fraction(a, d), Fraction(wn, 4 * wd)
            return mid - eps, mid + eps
        return Fraction(a, d), Fraction(b, d)

    def _quadratic_interval(self, wn: int, wd: int):
        """The cell (j/e, (j + 1)/e) of ``_quadratic_cell`` at
        N = ceil(1/width), width = wn/wd, clipped to (lo, hi).  It is
        narrower than width/2, and its ends are multiples of 1/e, e = 2aN,
        so no point of the grid 1/N lies inside it.  With a > 0, the root is
        the larger one when poly(lo) < 0, read from ``_lo_positive`` with no
        evaluation.  A rational root x gives (x - width/4, x + width/4),
        clipped."""
        a, b, d = self._a, self._b, self._d
        j, e, exact = _quadratic_cell(self.coeffs, -(-wd // wn), not self._lo_positive)
        if exact:
            x, eps = Fraction(j, e), Fraction(wn, 4 * wd)
            return max(self.lo, x - eps), min(self.hi, x + eps)
        return (Fraction(j, e) if j * d > a * e else Fraction(a, d),
                Fraction(j + 1, e) if (j + 1) * d < b * e else Fraction(b, d))

    def decimal_bounds(self, digits: int = 40):
        """The one-unit decimal cell (lo_str, hi_str) containing the number x,
        with ``digits`` fractional digits: lo_str = floor(x*10^digits)/10^digits
        and hi_str one unit more.  The strings depend on x alone, not on the
        isolating interval.

        A quadratic's ``refined_interval(10^-digits)`` holds no grid point
        k/10^digits inside it, so the cell is floor(lo * 10^digits), with
        no sign test unless the root is rational.  For other degrees,
        integer Newton steps from a bracket narrower than ``NEWTON_START``
        propose the cell n; ``_cmp`` takes n, n - 1 or n + 1 only if it holds
        x.  Else the interval is bisected below 10^-digits, and ``_cmp`` at
        the one grid point inside it, if any, settles the cell."""
        if digits < 1:
            raise DomainError("digits must be >= 1")
        scale = 10**digits
        n = None if len(self.coeffs) == 3 else self._newton_cell(
            scale, -(-10 * digits // 3) + 16)
        for cell in () if n is None else (n, n - 1, n + 1):
            if self._cmp(cell, scale) >= 0 > self._cmp(cell + 1, scale):
                break
        else:
            lo, hi = self.refined_interval(Fraction(1, scale))
            cell = lo.numerator * scale // lo.denominator
            # (lo, hi) is narrower than a cell; the one grid point
            # (cell + 1)/scale it may hold is placed against x exactly
            if (hi.numerator * scale > (cell + 1) * hi.denominator
                    and self._cmp(cell + 1, scale) >= 0):
                cell += 1
        return _scaled_to_decimal(cell, digits), _scaled_to_decimal(cell + 1, digits)

    def _newton_cell(self, scale: int, bits: int):
        """floor(x' * scale) for an approximation x' of the root within a few
        units of 2^-bits, or None if poly' vanishes at an iterate.

        From the midpoint of a bracket narrower than NEWTON_START, each step
        X <- X - floor(D^deg poly(X/D) / D^(deg-1) poly'(X/D)) with D = 2^k
        runs at a precision k that about doubles up to ``bits``, since a
        Newton step about doubles the correct bits.  A step also loses about
        log2 |poly''/2poly'| bits, and the next step doubles that loss, so
        each precision keeps NEWTON_GUARD bits over half the next.  Nothing
        here is trusted: the caller tests the cell exactly."""
        lo, hi = self.refined_interval(NEWTON_START)
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        coeffs = self.coeffs
        deriv = [i * c for i, c in enumerate(coeffs)][1:]
        # the first step starts from the bracket's 17 or so correct bits
        schedule = [bits]
        while schedule[-1] > 32:
            schedule.append(schedule[-1] // 2 + NEWTON_GUARD)
        k = schedule[-1]
        x = ((ln * hd + hn * ld) << k) // (2 * ld * hd)
        for step in reversed(schedule):
            x, k = x << (step - k), step
            slope = _scaled_value(deriv, x, 1 << k)
            if slope == 0:
                return None
            x -= _scaled_value(coeffs, x, 1 << k) // slope
            # kept in the bracket, so a diverging step cannot grow x
            x = min(max(x, (ln << k) // ld), -((-hn << k) // hd))
        return x * scale >> bits

    def _cmp(self, xn: int, xd: int) -> int:
        """The sign of x - xn/xd, xd > 0: the one exact placement of the
        root x against a rational.  The ends decide an xn/xd outside (lo,
        hi), by cross-multiplication.  Inside, x is poly's only root and
        poly changes sign there, so poly(xn/xd) is 0 at x and otherwise has
        poly's sign at lo, the stored ``_lo_positive``, exactly when xn/xd
        lies below x: one integer Horner evaluation at most."""
        a, b, d = self._a, self._b, self._d
        if xn * d <= a * xd:
            return 1
        if xn * d >= b * xd:
            return -1
        v = _scaled_value(self.coeffs, xn, xd)
        if v == 0:
            return 0
        return 1 if (v > 0) == self._lo_positive else -1

    def __lt__(self, other):
        if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._cmp(other.numerator, other.denominator) < 0

    def __gt__(self, other):
        if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._cmp(other.numerator, other.denominator) > 0

    def __eq__(self, other):
        """The same root of the same polynomial: equal ``coeffs``, and a
        sign change of poly on the intersection of the two intervals.  That
        intersection lies in each interval, whose one root is where poly
        changes sign, and its ends are ends of the two intervals, where poly
        is nonzero; so it changes sign there exactly when it holds both
        roots.  Read on integers, with no refinement."""
        if not isinstance(other, AlgebraicRoot):
            return NotImplemented
        if self.coeffs != other.coeffs:
            return False
        d = self._d * other._d
        lo = max(self._a * other._d, other._a * self._d)
        hi = min(self._b * other._d, other._b * self._d)
        return lo < hi and (_scaled_value(self.coeffs, lo, d)
                            * _scaled_value(self.coeffs, hi, d)) < 0

    def __hash__(self):
        return hash(self.coeffs)

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


def real_roots(p: Polynomial) -> list:
    """[x] for the one positive root x of p: a Fraction when x is rational,
    else an AlgebraicRoot on an isolating interval, unrefined.

    p must have degree 2 or 3, p(0) != 0 and exactly one sign variation in
    its nonzero coefficients, as the SE cubic and the Y^{p,q} quadratic do
    (README, library layout); any other p raises DomainError.  By Descartes'
    rule of signs such a p has exactly one positive root, and it is simple.
    On the primitive integers, with a positive lead, a0 < 0.  A quadratic
    (c, b, a) then has a > 0 > c, so D = b^2 - 4ac > 0, and x is its
    larger root: ``_quadratic_cell`` at N = 2^16 gives x = j/d when D is a
    square, and otherwise the cell (j/d, (j+1)/d), d = 2aN, narrower than
    NEWTON_START.  A cubic's x is the first candidate +num/den
    (num | a0, den | an) below the Cauchy bound m = bound/an with
    den^3 * p(num/den) = 0, read on the integer list; only that root
    becomes a Fraction.  With no rational root, x lies on the first
    bisection interval of (0, m) narrower than NEWTON_START, so neither x
    nor its copy scaled by a factor below 1 bisects again before
    ``decimal_bounds``' Newton steps.  Either AlgebraicRoot is built on the
    integer list already at hand.

    The name and the list are what the benchmark's tracer wraps and
    iterates over, so they stay although the list has one entry."""
    ints = _primitive_ints(p.coeffs)
    signs = [v > 0 for v in ints if v]
    if (p.degree not in (2, 3) or ints[0] == 0
            or sum(a != b for a, b in zip(signs, signs[1:])) != 1):
        raise DomainError("real_roots needs degree 2 or 3, p(0) != 0 and one "
                          "sign variation, got %r" % (p,))
    if len(ints) == 3:
        # p(-b/2a) = c - b^2/4a has the sign of c, opposite to a.  This is the
        # one poly_eval of ypq-census and sweep-export, a cross-check; ints is
        # a multiple of p, so it has p's vertex, and p(v) * lead >= 0 is read
        # on the numerators
        if p(Fraction(-ints[1], 2 * ints[2])).numerator * p.coeffs[2].numerator >= 0:
            raise ConsistencyError("%r does not change sign at its vertex" % (p,))
        j, d, exact = _quadratic_cell(ints, 1 << 16, True)
        if exact:
            return [Fraction(j, d)]
        return [AlgebraicRoot(ints, Fraction(j, d), Fraction(j + 1, d))]
    a0, an = ints[0], ints[-1]
    # every root z has |z| < bound/an (Cauchy), and num/den with
    # gcd(num, den) > 1 repeats its reduced form
    bound = an + max(abs(v) for v in ints[:-1])
    # _divisors(an) stays in the loop: hoisting it raises the benchmark's
    # peak_rss_mb through a set-up artifact (ROADMAP direction 1)
    for num in _divisors(a0):
        for den in _divisors(an):
            if num * an >= bound * den or gcd(num, den) > 1:
                continue
            if _scaled_value(ints, num, den) == 0:
                return [Fraction(num, den)]
    # every positive rational root was tried above, so no midpoint is a root
    # ints[0] = a0 < 0 is the sign at the lower end 0
    a, b, d = _bisection(ints, 0, bound, an, NEWTON_START.numerator,
                         NEWTON_START.denominator, False)
    if a == b:
        raise ConsistencyError("%r vanishes at %s, which trial division missed"
                               % (p, Fraction(a, d)))
    return [AlgebraicRoot(ints, Fraction(a, d), Fraction(b, d))]
