"""Cohomological invariants of the 7-manifolds and their quotient orbifolds.

The fourth cohomology of a smooth join carries all the torsion, a direct sum
of two cyclic groups whose orders come straight out of the construction data;
comparing those groups up to isomorphism (not presentation) distinguishes
homotopy types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Tuple

from .kernel import DomainError


def invariant_factors(*orders: int) -> Tuple[int, ...]:
    """Invariant factor decomposition of a direct sum of cyclic groups
    Z_{orders[0]} + Z_{orders[1]} + ..., trivial factors dropped.

    Uses only gcd/lcm pairwise reduction, no factorization: repeatedly
    replace a non-dividing pair (a, b) by (gcd, lcm) until d1 | d2 | ...
    """
    vals = []
    for d in orders:
        if not isinstance(d, int) or d < 1:
            raise DomainError("cyclic orders must be positive integers")
        if d > 1:
            vals.append(d)
    changed = True
    while changed:
        changed = False
        vals.sort()
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[j] % vals[i] != 0:
                    g = gcd(vals[i], vals[j])
                    l = vals[i] * vals[j] // g
                    vals[i], vals[j] = g, l
                    changed = True
        vals = [v for v in vals if v > 1]
    return tuple(sorted(vals))


@dataclass(frozen=True)
class AbelianGroup:
    """Isomorphism class of a finitely generated abelian group:
    free rank plus invariant factors d1 | d2 | ... (all > 1)."""

    free_rank: int
    torsion: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.free_rank < 0:
            raise DomainError("free rank must be non-negative")
        object.__setattr__(self, "torsion", invariant_factors(*self.torsion))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Order of the torsion part (the whole group if rank 0)."""
        total = 1
        for d in self.torsion:
            total *= d
        return total

    def __str__(self):
        parts = ["Z"] * self.free_rank + ["Z_%d" % d for d in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class TorsionInvariant:
    """Orders (A, B) of the two cyclic summands presenting H^4 of a smooth
    join; compared via isomorphism class, never raw presentation."""

    A: int
    B: int

    def __post_init__(self):
        if self.A < 1 or self.B < 1:
            raise DomainError("cyclic orders must be positive")

    def group(self) -> AbelianGroup:
        return AbelianGroup(0, (self.A, self.B))


def h4_torsion(v0: int, vinf: int, m: int, l2: int, w1: int, w2: int, l1: int) -> TorsionInvariant:
    """Torsion of H^4 for a smooth join with first-factor ray (v0, vinf),
    ramification m, gluing (l1, l2) and weights (w1, w2):
    (A, B) = (v0*vinf*m^2*l2^2, w1*w2*l1^2).

    Only meaningful when the join is smooth (caller's contract).
    """
    for name, val in (("v0", v0), ("vinf", vinf), ("m", m), ("l2", l2),
                      ("w1", w1), ("w2", w2), ("l1", l1)):
        if not isinstance(val, int) or val < 1:
            raise DomainError("%s must be a positive integer" % name)
    return TorsionInvariant(v0 * vinf * m * m * l2 * l2, w1 * w2 * l1 * l1)


def homotopy_distinct(t1: TorsionInvariant, t2: TorsionInvariant) -> bool:
    """True iff the two torsion groups are non-isomorphic.  A False result
    only means this invariant does not separate them."""
    return t1.group() != t2.group()
