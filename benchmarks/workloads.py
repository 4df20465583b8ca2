"""The three benchmark workloads: seeded inputs, one operation each, and the
output check of that operation.

Inputs are made here from the seed alone, with integer arithmetic and no
sejoin code; sejoin only ever sees the generated inputs.  Each workload is a
fixed list of operations (a "pass") that the runner repeats.  The work in a
pass does not depend on the seed, so runs with different seeds are
comparable: the seed orders the pass, and on ypq-census it also picks the
pairs, whose costs are alike.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from math import gcd

import checker

DIGITS = 40  # certified decimal digits, the CLI default

# sweep-export: every quasi-regular first factor with p <= 40 (ten of them),
# each exported at every one of these weight bounds; the seed orders the 50
# exports.  Which exports a pass holds is fixed: the cost of an export
# depends on its factor, and the slowest exports set op_ms_p95
SWEEP_P_MAX = 40
SWEEP_BOUNDS = (3, 4, 5, 6, 7)

# rational-k: a fixed stratified set of k = a/b with a log-uniform in
# [3, 1500], which puts w1 between about 1e2 and 1e10, each joined to a fixed
# first factor; the seed orders the pass.  The cost of a record grows with
# sqrt(w1) and with the divisor counts of w1 and w2, which vary by orders of
# magnitude between neighbouring k and also with the first factor, so seeded
# records would change the work per run by more than a regression gate's bound.
RATIONAL_K_COUNT = 100
RATIONAL_A_RANGE = (3, 1500)

# ypq-census: one coprime pair in four for each p <= 60, picked by the seed
CENSUS_P_MAX = 60
CENSUS_SHARE = 4


def _rng(name: str, seed: int) -> random.Random:
    return random.Random("%s/%d" % (name, seed))


class _SolvesFactors:
    """Set-up that solves the workload's first factors with ``ypq.solve``."""

    factors = ()

    def setup(self, mods) -> bytes:
        return b"".join(b"%d %d %d\n" % (s.p, s.q, s.m2)
                        for s in (mods.ypq.solve(p, q) for p, q in self.factors))

    def check_setup(self, out: bytes) -> None:
        rows = [tuple(map(int, line.split())) for line in out.decode().splitlines()]
        checker.need([r[:2] for r in rows] == list(self.factors), "solved the wrong factors")
        for p, q, m2 in rows:
            checker.need(m2 == checker.first_factor(p, q)[2], "solve(%d, %d) is wrong", p, q)


class SweepExport(_SolvesFactors):
    """``sejoin export --p P --q Q --w-bound N --format json --out FILE``,
    called in process through ``sejoin.cli.main``."""

    name = "sweep-export"
    # wrapped functions (tracer.WRAPPED names) a traced pass must reach, and
    # ones it must not
    exercises = ("cli.main", "catalog.enumerate_joins", "catalog.record_to_dict",
                 "catalog.export_records", "catalog.write_export", "join.canonical_l",
                 "join.se_ray_from_w", "join.smoothness_check", "topology.h4_torsion",
                 "ypq.solve", "ypq.ray_ratio", "kernel.real_roots", "kernel.refine",
                 "kernel.algebraic_root", "kernel.decimal_bounds", "kernel.sturm_chain",
                 "kernel.poly_eval")
    bypasses = ("catalog.build_record", "join.w_from_k", "join.quotient_orbifold",
                "metric.ke_conditions", "metric.ke_profile", "bott.is_log_fano")

    def __init__(self, seed: int, out_path: str):
        self.out_path = out_path
        self.factors = checker.quasi_regular_pairs(SWEEP_P_MAX)
        self.ops = [(p, q, n) for p, q in self.factors for n in SWEEP_BOUNDS]
        _rng(self.name, seed).shuffle(self.ops)
        self.records = [len(checker.coprime_pairs(n)) for _, _, n in self.ops]

    def run(self, mods, item) -> bytes:
        p, q, n = item
        rc = mods.cli.main(["export", "--p", str(p), "--q", str(q), "--w-bound", str(n),
                            "--format", "json", "--out", self.out_path])
        if rc != 0:
            raise RuntimeError("sejoin export exited with %d" % rc)
        with open(self.out_path, "rb") as fh:
            return fh.read()

    def check(self, item, out: bytes) -> None:
        p, q, n = item
        records = json.loads(out)
        pairs = checker.coprime_pairs(n)
        checker.need(len(records) == len(pairs), "export has %d records, expected %d",
                     len(records), len(pairs))
        for rec, w in zip(records, pairs):
            checker.check_record(rec, p, q, DIGITS, w=w)


def k_corpus():
    """The fixed rational-k values, one per log-uniform stratum of a."""
    rng = random.Random("rational-k corpus")
    lo, hi = (math.log(x) for x in RATIONAL_A_RANGE)
    out = []
    for i in range(RATIONAL_K_COUNT):
        a = round(math.exp(lo + (i + rng.random()) / RATIONAL_K_COUNT * (hi - lo)))
        b = rng.randrange(1, a)
        while gcd(a, b) != 1:
            b = rng.randrange(1, a)
        out.append(Fraction(a, b))
    return out


def _admissible(p: int, q: int, k: Fraction) -> bool:
    """The canonical join of (p, q) with the weights of k is not rejected."""
    _, _, m2, _, index = checker.first_factor(p, q)
    l1, l2 = checker.canonical_gluing(*checker.weights_from_k(k), index)
    return gcd(l1, l2 * m2) == 1


class RationalK(_SolvesFactors):
    """``build_record(p, q, k=k)`` followed by ``record_to_dict``."""

    name = "rational-k"
    exercises = ("catalog.build_record", "catalog.record_to_dict", "join.w_from_k",
                 "join.canonical_l", "join.se_ray_from_w", "join.smoothness_check",
                 "join.quotient_orbifold", "metric.r3_from_ray", "metric.ke_conditions",
                 "metric.ke_profile", "bott.is_log_fano", "topology.h4_torsion",
                 "ypq.solve", "ypq.ray_ratio", "kernel.real_roots", "kernel.sturm_chain",
                 "kernel.poly_eval")
    bypasses = ("kernel.refine", "kernel.algebraic_root", "kernel.decimal_bounds",
                "catalog.enumerate_joins", "catalog.export_records", "cli.main")

    def __init__(self, seed: int):
        factors = checker.quasi_regular_pairs(SWEEP_P_MAX)
        rng = random.Random("rational-k factors")
        self.ops = []
        for k in k_corpus():
            choices = [f for f in factors if _admissible(*f, k)]
            if not choices:
                raise ValueError("no first factor joins k=%s" % k)
            self.ops.append(rng.choice(choices) + (k,))
        _rng(self.name, seed).shuffle(self.ops)
        self.factors = sorted({op[:2] for op in self.ops})
        self.records = [1] * len(self.ops)

    def run(self, mods, item) -> bytes:
        p, q, k = item
        rec = mods.catalog.record_to_dict(mods.catalog.build_record(p, q, k=k))
        return json.dumps(rec, sort_keys=True).encode()

    def check(self, item, out: bytes) -> None:
        p, q, k = item
        rec = json.loads(out)
        checker.need(rec["regular"] is True, "k=%s gave no quasi-regular record", k)
        checker.check_record(rec, p, q, DIGITS, k=k)


class YpqCensus:
    """``ray_ratio(p, q)`` for one coprime pair, plus the 40-digit
    ``decimal_bounds`` of an irrational ratio; set-up lists the quasi-regular
    first factors with ``enumerate_ypq(P)``."""

    name = "ypq-census"
    exercises = ("catalog.enumerate_ypq", "ypq.ray_ratio", "kernel.real_roots",
                 "kernel.refine", "kernel.algebraic_root", "kernel.decimal_bounds",
                 "kernel.sturm_chain", "kernel.poly_eval")
    bypasses = ("join.se_ray_from_w", "join.quotient_orbifold", "catalog.build_record",
                "catalog.record_to_dict", "catalog.export_records", "metric.ke_conditions",
                "bott.is_log_fano", "topology.h4_torsion", "cli.main")

    def __init__(self, seed: int):
        rng = _rng(self.name, seed)
        self.ops = []
        for p in range(2, CENSUS_P_MAX + 1):
            qs = [q for q in range(1, p) if gcd(p, q) == 1]
            self.ops += [(p, q) for q in rng.sample(qs, -(-len(qs) // CENSUS_SHARE))]
        rng.shuffle(self.ops)
        self.records = [1] * len(self.ops)

    def setup(self, mods) -> bytes:
        return b"".join(b"%d %d %d %d\n" % (s.p, s.q, s.v2_0, s.v2_inf)
                        for s in mods.catalog.enumerate_ypq(CENSUS_P_MAX))

    def check_setup(self, out: bytes) -> None:
        rows = [tuple(map(int, line.split())) for line in out.decode().splitlines()]
        checker.check_ypq_list(CENSUS_P_MAX, rows)

    def run(self, mods, item) -> bytes:
        p, q = item
        ratio, _ = mods.ypq.ray_ratio(p, q)
        if isinstance(ratio, Fraction):
            return checker.census_line(p, q, ("r", ratio.numerator, ratio.denominator))
        return checker.census_line(p, q, ("i",) + tuple(ratio.decimal_bounds(DIGITS)))

    def check(self, item, out: bytes) -> None:
        p, q = item
        fields = out.decode().split()
        checker.need(fields[:2] == [str(p), str(q)], "census line is for the wrong pair")
        kind, x, y = fields[2:]
        ratio = ("r", int(x), int(y)) if kind == "r" else (kind, x, y)
        checker.check_census(p, q, ratio, DIGITS)


WORKLOADS = {cls.name: cls for cls in (SweepExport, RationalK, YpqCensus)}


def make(name: str, seed: int, out_path: str):
    if name == SweepExport.name:
        return SweepExport(seed, out_path)
    return WORKLOADS[name](seed)
