"""Oracle tests for the topological-invariant layer."""

import random

import pytest

from sejoin.kernel import DomainError
from sejoin.topology import TorsionInvariant, h4_torsion, homotopy_distinct


class TestInvariantFactors:
    def test_known_pairs(self):
        assert TorsionInvariant(6, 4).factors == (2, 12)
        assert TorsionInvariant(12, 2).factors == (2, 12)
        assert TorsionInvariant(91, 65).factors == (13, 455)

    def test_drops_trivial(self):
        assert TorsionInvariant(1, 1).factors == ()
        assert TorsionInvariant(1, 5).factors == (5,)
        assert TorsionInvariant(5, 1).factors == (5,)
        assert TorsionInvariant(6, 35).factors == (210,)

    def test_chain_divides(self):
        rng = random.Random(31)
        for _ in range(300):
            a, b = rng.randrange(1, 400), rng.randrange(1, 400)
            fac = TorsionInvariant(a, b).factors
            for d1, d2 in zip(fac, fac[1:]):
                assert d2 % d1 == 0
            # group order is preserved
            prod_fac = 1
            for d in fac:
                prod_fac *= d
            assert a * b == prod_fac

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            TorsionInvariant(0, 1)
        with pytest.raises(DomainError):
            TorsionInvariant(4, -3)


class TestH4Torsion:
    def test_golden_a(self):
        assert h4_torsion(7, 5, 13, 15, 34, 11, 4) == TorsionInvariant(1330875, 5984)

    def test_golden_b(self):
        assert h4_torsion(4, 3, 13, 45, 34, 11, 7) == TorsionInvariant(4106700, 18326)

    def test_homogeneous(self):
        t = h4_torsion(1, 1, 1, 1, 1, 1, 1)
        assert t == TorsionInvariant(1, 1)
        assert t.factors == ()

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
        assert t1.A * t1.B != t2.A * t2.B
        assert homotopy_distinct(t1, t2) is True
