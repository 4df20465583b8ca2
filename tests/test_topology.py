"""Oracle tests for the topological-invariant layer."""

import random

import pytest

from sejoin.kernel import DomainError
from sejoin.topology import (
    AbelianGroup,
    TorsionInvariant,
    h4_torsion,
    homotopy_distinct,
    invariant_factors,
)


class TestInvariantFactors:
    def test_known_pairs(self):
        assert invariant_factors(6, 4) == (2, 12)
        assert invariant_factors(12, 2) == (2, 12)
        assert invariant_factors(91, 65) == (13, 455)

    def test_drops_trivial(self):
        assert invariant_factors(1, 1) == ()
        assert invariant_factors(1, 5, 1) == (5,)

    def test_chain_divides(self):
        rng = random.Random(31)
        for _ in range(300):
            orders = [rng.randrange(1, 400) for _ in range(rng.randrange(1, 5))]
            fac = invariant_factors(*orders)
            for d1, d2 in zip(fac, fac[1:]):
                assert d2 % d1 == 0
            # group order is preserved
            prod = 1
            for d in orders:
                prod *= d
            prod_fac = 1
            for d in fac:
                prod_fac *= d
            assert prod == prod_fac

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            invariant_factors(0)
        with pytest.raises(DomainError):
            invariant_factors(-3)


class TestAbelianGroup:
    def test_canonicalizes(self):
        assert AbelianGroup(0, (6, 4)) == AbelianGroup(0, (12, 2))
        assert AbelianGroup(1, (1, 1)) == AbelianGroup(1)

    def test_str(self):
        assert str(AbelianGroup(1, (91, 65))) == "Z + Z_13 + Z_455"
        assert str(AbelianGroup(0)) == "0"

    def test_order(self):
        assert AbelianGroup(0, (6, 4)).order() == 24
        assert AbelianGroup(0).order() == 1

    def test_trivial(self):
        assert AbelianGroup(0).is_trivial()
        assert not AbelianGroup(1).is_trivial()
        assert not AbelianGroup(0, (2,)).is_trivial()


class TestH4Torsion:
    def test_golden_a(self):
        assert h4_torsion(7, 5, 13, 15, 34, 11, 4) == TorsionInvariant(1330875, 5984)

    def test_golden_b(self):
        assert h4_torsion(4, 3, 13, 45, 34, 11, 7) == TorsionInvariant(4106700, 18326)

    def test_homogeneous(self):
        t = h4_torsion(1, 1, 1, 1, 1, 1, 1)
        assert t == TorsionInvariant(1, 1)
        assert t.group().is_trivial()

    def test_multiplicative_in_l2(self):
        rng = random.Random(37)
        for _ in range(100):
            args = [rng.randrange(1, 12) for _ in range(7)]
            lam = rng.randrange(1, 9)
            base = h4_torsion(*args)
            scaled_args = list(args)
            scaled_args[3] *= lam
            scaled = h4_torsion(*scaled_args)
            assert scaled.A == base.A * lam * lam
            assert scaled.B == base.B
            scaled_args = list(args)
            scaled_args[6] *= lam
            scaled = h4_torsion(*scaled_args)
            assert scaled.B == base.B * lam * lam
            assert scaled.A == base.A

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            h4_torsion(0, 5, 13, 15, 34, 11, 4)
        with pytest.raises(DomainError):
            h4_torsion(7, 5, 13, 15, 34, 11, -1)


class TestHomotopyDistinct:
    def test_worked_joins_distinct(self):
        t_a = h4_torsion(7, 5, 13, 15, 34, 11, 4)
        t_b = h4_torsion(4, 3, 13, 45, 34, 11, 7)
        assert homotopy_distinct(t_a, t_b) is True

    def test_same_isomorphism_class(self):
        assert homotopy_distinct(TorsionInvariant(6, 4), TorsionInvariant(12, 2)) is False

    def test_reflexively_false(self):
        t = TorsionInvariant(1330875, 5984)
        assert homotopy_distinct(t, t) is False

    def test_symmetric(self):
        rng = random.Random(41)
        for _ in range(200):
            t1 = TorsionInvariant(rng.randrange(1, 500), rng.randrange(1, 500))
            t2 = TorsionInvariant(rng.randrange(1, 500), rng.randrange(1, 500))
            assert homotopy_distinct(t1, t2) == homotopy_distinct(t2, t1)

    def test_order_mismatch_always_distinct(self):
        t1 = TorsionInvariant(6, 4)
        t2 = TorsionInvariant(6, 5)
        assert t1.group().order() != t2.group().order()
        assert homotopy_distinct(t1, t2) is True
