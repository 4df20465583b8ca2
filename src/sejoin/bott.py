"""Stage-3 Bott orbifold combinatorics and cohomology.

A stage-3 Bott manifold is encoded by three integers (a, b, c), the
below-diagonal entries of a lower-triangular unipotent matrix; the orbifold
structure adds a 6-vector m of ramification values, ordered
(m1_0, m1_inf, m2_0, m2_inf, m3_0, m3_inf), and lets the last-stage twist
(b, c) be rational.  Degree-2 classes can be written in four distinguished
bases built from the divisor classes x_i and
y_1 = x_1, y_2 = a*x_1 + x_2, y_3 = b*x_1 + c*x_2 + x_3.

The orbifold first Chern class has one formula, ``_c1_x_ints``, on integers;
``c1_orb``, ``is_log_fano`` and ``join.JoinQuotient.bott`` read it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .kernel import ConsistencyError, DomainError, Frozen, _rational, clear_denominators

# basis tags: position i is "x" or "y" for the i-th basis element;
# "xyx" means {x1, y2, x3}
BASES = ("xxx", "xxy", "xyx", "xyy")


def _check_abc(a, b, c) -> None:
    """Raise DomainError unless a is an int and b, c are each an int or a
    Fraction, none of them a bool."""
    if not isinstance(a, int) or isinstance(a, bool):
        raise DomainError("a must be an integer, got %r" % (a,))
    for name, val in (("b", b), ("c", c)):
        if not isinstance(val, (int, Fraction)) or isinstance(val, bool):
            raise DomainError("%s must be an integer or a Fraction, got %r" % (name, val))


class BottOrbifold(Frozen):
    """Bott manifold matrix entries plus ramification vector.

    Ramification values are positive; non-integer rationals are allowed and
    describe cone singularities along the invariant divisors.  The first
    twist a is an integer, since stage 1 carries no branch divisor; the
    last-stage twist (b, c) may be rational: it is then c1 of a line
    orbibundle over the stage-2 orbifold, written on x1, x2.  The six
    ramification values m are stored as a tuple of Fractions.
    """

    __slots__ = ("a", "b", "c", "m")

    def __init__(self, a: int, b, c, m: Sequence):
        _check_abc(a, b, c)
        mv = tuple(Fraction(_rational(x, "ramification value")) for x in m)
        if len(mv) != 6:
            raise DomainError("m must have six entries, got %d" % len(mv))
        if any(x <= 0 for x in mv):
            raise DomainError("ramification values must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", mv)

    @property
    def abc(self) -> Tuple[int, Union[int, Fraction], Union[int, Fraction]]:
        return (self.a, self.b, self.c)


class CohClass(Frozen):
    """A degree-2 class: three rational coefficients in one of the four
    distinguished bases, tagged with the ambient (a, b, c)."""

    __slots__ = ("basis", "coeffs", "abc")

    def __init__(self, basis: str, coeffs: Sequence, abc: Sequence):
        if basis not in BASES:
            raise DomainError("unknown basis %r" % (basis,))
        coeffs = tuple(Fraction(_rational(x, "coefficient")) for x in coeffs)
        if len(coeffs) != 3:
            raise DomainError("need exactly three coefficients")
        abc = tuple(abc)
        if len(abc) != 3:
            raise DomainError("abc must have three entries, got %d" % len(abc))
        _check_abc(*abc)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "abc", abc)


def _c1_x_ints(a: int, b, c, m: Sequence) -> Tuple[int, int, int, int]:
    """The x-basis c1^orb (s1 + a/m2_0 + b/m3_0, s2 + c/m3_0, s3), with
    s_i = 1/m_i_0 + 1/m_i_inf, as integers (A, B, C, d), d > 0, meaning
    (A/d, B/d, C/d); b, c and the positive m_j are ints or Fractions."""
    # d clears every denominator: those of b and c, and the numerators of m
    d = b.denominator * c.denominator
    for x in m:
        d *= x.numerator
    # r_j = d/m_j, an integer since d carries the numerator of m_j
    r1_0, r1_inf, r2_0, r2_inf, r3_0, r3_inf = (x.denominator * (d // x.numerator) for x in m)
    # d/m3_0 still carries the denominators of b and c
    return (r1_0 + r1_inf + a * r2_0 + b.numerator * r3_0 // b.denominator,
            r2_0 + r2_inf + c.numerator * r3_0 // c.denominator,
            r3_0 + r3_inf,
            d)


def c1_orb(orb: BottOrbifold, basis: str = "xxx") -> CohClass:
    """Orbifold first Chern class in the requested distinguished basis.

    In the x-basis it is (s1 + a/m2_0 + b/m3_0, s2 + c/m3_0, s3) with
    s_i = 1/m_i_0 + 1/m_i_inf, read from ``_c1_x_ints``; the other bases
    follow by the basis change, and the third coefficient s3 is the same in
    every basis.  An unknown basis raises DomainError from CohClass.
    """
    big_a, big_b, big_c, d = _c1_x_ints(*orb.abc, orb.m)
    x_coeffs = (Fraction(big_a, d), Fraction(big_b, d), Fraction(big_c, d))
    return CohClass(basis=basis, coeffs=_from_x(x_coeffs, basis, orb.abc), abc=orb.abc)


def _to_x(cls: CohClass) -> Tuple[Fraction, Fraction, Fraction]:
    a, b, c = cls.abc
    alpha, beta, gamma = cls.coeffs
    if cls.basis == "xxx":
        return (alpha, beta, gamma)
    if cls.basis == "xxy":
        return (alpha + gamma * b, beta + gamma * c, gamma)
    if cls.basis == "xyx":
        return (alpha + beta * a, beta, gamma)
    return (alpha + beta * a + gamma * b, beta + gamma * c, gamma)


def _from_x(xc, target: str, abc) -> Tuple[Fraction, Fraction, Fraction]:
    a, b, c = abc
    big_a, big_b, big_c = xc
    if target == "xxx":
        return (big_a, big_b, big_c)
    if target == "xxy":
        return (big_a - big_c * b, big_b - big_c * c, big_c)
    if target == "xyx":
        return (big_a - a * big_b, big_b, big_c)
    beta = big_b - big_c * c
    return (big_a - a * beta - b * big_c, beta, big_c)


def basis_change(cls: CohClass, target: str) -> CohClass:
    """Rewrite a class in another distinguished basis (exact)."""
    if target not in BASES:
        raise DomainError("unknown basis %r" % (target,))
    x_coeffs = _to_x(cls)
    out = CohClass(basis=target, coeffs=_from_x(x_coeffs, target, cls.abc), abc=cls.abc)
    if _to_x(out) != x_coeffs:
        raise ConsistencyError("basis change is not invertible")
    return out


def is_log_fano(orb: BottOrbifold) -> bool:
    """True iff the orbifold first Chern class has strictly positive
    coefficients in all four distinguished bases (equivalently, it lies in
    the Kaehler cone).

    With c1^orb = (A, B, C)/d from ``_c1_x_ints`` and b = bn/bd, c = cn/cd,
    the four bases have seven distinct coefficients: A, B, C (xxx),
    A - bC and B - cC (xxy), A - aB (xyx) and A - aB + acC - bC (xyy).
    C = d*s3 is positive, as the m_j are; each of the other six is tested
    for its sign as an integer, times the positive d, bd or cd that clears
    it.
    """
    a, b, c = orb.abc
    big_a, big_b, big_c, _ = _c1_x_ints(a, b, c, orb.m)
    bn, bd = b.numerator, b.denominator
    cn, cd = c.numerator, c.denominator
    xyx_a = big_a - a * big_b
    return (big_a > 0 and big_b > 0
            and big_a * bd > big_c * bn
            and big_b * cd > big_c * cn
            and xyx_a > 0
            and (xyx_a * cd + a * big_c * cn) * bd > big_c * bn * cd)


# ------------------------------------------------------------------ H3 matrix


def _integer_rank(rows: List[List[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(row, nrows) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        for r in range(row + 1, nrows):
            for ccol in range(col + 1, ncols):
                num = mat[r][ccol] * mat[row][col] - mat[row][ccol] * mat[r][col]
                if num % prev != 0:
                    raise ConsistencyError("Bareiss divisibility failed")
                mat[r][ccol] = num // prev
            mat[r][col] = 0
        prev = mat[row][col]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def h3_matrix(orb: BottOrbifold, kahler_coeffs: Sequence) -> Tuple[List[List[Fraction]], int]:
    """The 3x3 obstruction matrix whose full rank forces the middle
    cohomology of the total space to vanish, plus its exact rank.

    ``kahler_coeffs`` = (c1, c2, c3) are the x-basis coefficients of the
    polarizing class; all must be positive.
    """
    c1, c2, c3 = (Fraction(_rational(x, "class coefficient")) for x in kahler_coeffs)
    if c1 <= 0 or c2 <= 0 or c3 <= 0:
        raise DomainError("class coefficients must be positive")
    a, b, c = orb.abc
    mat = [
        [c2, c1 - c2 * a, Fraction(0)],
        [c3, Fraction(0), c1 - c3 * b],
        [Fraction(0), c3, c2 - c3 * c],
    ]
    return mat, _integer_rank([clear_denominators(mrow)[0] for mrow in mat])


# --------------------------------------------------------------- monoid action


def monoid_act(orb: BottOrbifold, lam: Sequence[int], shift: Sequence[int]) -> BottOrbifold:
    """Affine rescaling of the ramification vector, slot by slot:
    m_j -> lam_j * m_j + shift_j with integer lam_j >= 1, shift_j >= 0."""
    lam = tuple(lam)
    shift = tuple(shift)
    if len(lam) != 6 or len(shift) != 6:
        raise DomainError("lam and shift must have six entries")
    for x in lam:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise DomainError("lam entries must be integers >= 1")
    for x in shift:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise DomainError("shift entries must be integers >= 0")
    new_m = tuple(l * mj + sh for l, mj, sh in zip(lam, orb.m, shift))
    return BottOrbifold(orb.a, orb.b, orb.c, new_m)
