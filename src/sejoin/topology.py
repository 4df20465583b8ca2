"""Cohomological invariants of the 7-manifolds and their quotient orbifolds.

The fourth cohomology of a smooth join carries all the torsion, a direct sum
of two cyclic groups whose orders come straight out of the construction data;
comparing those groups up to isomorphism (not presentation) distinguishes
homotopy types.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Tuple

from .kernel import DomainError, Frozen


class TorsionInvariant(Frozen):
    """Orders (A, B) of the two cyclic summands presenting H^4 of a smooth
    join; compared via isomorphism class, never raw presentation."""

    __slots__ = ("A", "B")

    def __init__(self, A: int, B: int):
        if A < 1 or B < 1:
            raise DomainError("cyclic orders must be positive")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def factors(self) -> Tuple[int, ...]:
        """Invariant factors d1 | d2 of Z_A + Z_B, trivial factors dropped:
        (gcd(A, B), lcm(A, B))."""
        return tuple(d for d in (gcd(self.A, self.B), lcm(self.A, self.B)) if d > 1)


def h4_torsion(v0: int, vinf: int, m: int, l2: int, w1: int, w2: int, l1: int) -> TorsionInvariant:
    """Torsion of H^4 for a smooth join with first-factor ray (v0, vinf),
    ramification m, gluing (l1, l2) and weights (w1, w2):
    (A, B) = (v0*vinf*m^2*l2^2, w1*w2*l1^2).

    Only meaningful when the join is smooth (caller's contract).
    """
    for name, val in (("v0", v0), ("vinf", vinf), ("m", m), ("l2", l2),
                      ("w1", w1), ("w2", w2), ("l1", l1)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise DomainError("%s must be a positive integer" % name)
    return TorsionInvariant(v0 * vinf * m * m * l2 * l2, w1 * w2 * l1 * l1)


def homotopy_distinct(t1: TorsionInvariant, t2: TorsionInvariant) -> bool:
    """True iff the two torsion groups are non-isomorphic.  A False result
    only means this invariant does not separate them."""
    return t1.factors != t2.factors
