"""Enumeration, record assembly, golden-value verification, and export.

A catalog record bundles everything the pipeline derives from raw inputs
(p, q) and a weight choice: first-factor Einstein data, gluing integers,
Reeb ray, quotient orbifold, torsion, KE flags, and the Einstein profile.
Exports are deterministic: sorted records, sorted keys, exact values as
strings.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .bott import is_log_fano
from .join import (
    JoinQuotient,
    JoinSpec,
    ReebRay,
    canonical_l,
    quotient_orbifold,
    se_ray_from_w,
    smoothness_check,
    w_from_k,
)
from .kernel import AlgebraicRoot, ConsistencyError, DomainError
from .metric import CalabiData, CalabiProfile, ke_conditions, ke_profile
from .topology import TorsionInvariant, h4_torsion, homotopy_distinct
from .ypq import YpqEinstein, family_member, is_quasi_regular, solve

SCHEMA_VERSION = "sejoin-record/1"

# fixed homotopy metadata shared by every manifold in the family
FIXED_NOTES = ("pi1 = 0", "pi2 = Z^2")


@dataclass(frozen=True)
class SERecord:
    """One fully derived join record; irregular rays omit the quotient
    block, failed constructions carry an ``error`` instead."""

    ypq: YpqEinstein
    w1: int
    w2: int
    l1: int
    l2: int
    ray: Optional[ReebRay] = None
    smooth: Optional[bool] = None
    smooth_witnesses: Tuple[Tuple[int, int, int], ...] = ()
    quotient: Optional[JoinQuotient] = None
    r3: Optional[Fraction] = None
    ke1: Optional[bool] = None
    ke2: Optional[bool] = None
    log_fano: Optional[bool] = None
    torsion: Optional[TorsionInvariant] = None
    profile: Optional[CalabiProfile] = None
    error: Optional[str] = None
    notes: Tuple[str, ...] = FIXED_NOTES

    @property
    def k(self) -> Union[Fraction, AlgebraicRoot, None]:
        return None if self.ray is None else self.ray.k

    @property
    def sort_key(self):
        return (self.ypq.p, self.ypq.q, self.w1, self.w2)


def quasi_regular_factor(p: int, q: int) -> YpqEinstein:
    """The solved first factor Y^{p,q}; DomainError if its ray is irrational."""
    sol = solve(p, q)
    if sol is None:
        raise DomainError(
            "(%d, %d) has no quasi-regular transverse-Einstein ray" % (p, q)
        )
    return sol


def build_record(p: int, q: int, k=None, w=None) -> SERecord:
    """Derive the full record from raw inputs, with the canonical gluing pair.

    Exactly one of ``k`` (rational > 1) and ``w`` (coprime weight pair) must
    be given.
    """
    sol = quasi_regular_factor(p, q)
    if (k is None) == (w is None):
        raise DomainError("give exactly one of k and w")
    if k is not None:
        w1, w2 = w_from_k(Fraction(k))
    else:
        w1, w2 = w
    return _assemble(sol, w1, w2)


def _assemble(sol: YpqEinstein, w1: int, w2: int) -> SERecord:
    l1, l2 = canonical_l(w1, w2, sol.fano_index)
    notes = list(FIXED_NOTES) + ["canonical gluing"]
    spec = JoinSpec(ypq=sol, l1=l1, l2=l2, w1=w1, w2=w2)
    ray = se_ray_from_w(w1, w2)
    smooth, witnesses = smoothness_check(spec)
    base = dict(
        ypq=sol,
        w1=w1,
        w2=w2,
        l1=l1,
        l2=l2,
        ray=ray,
        smooth=smooth,
        smooth_witnesses=tuple(witnesses),
    )
    if not smooth:
        notes.append("non-smooth join; torsion formula not applied")
    # torsion needs only the first factor and the gluing integers, so it is
    # available even when the ray is irregular
    torsion = None
    if smooth:
        torsion = h4_torsion(sol.v2_0, sol.v2_inf, sol.m2, l2, w1, w2, l1)
    if not ray.quasi_regular:
        notes.append("irregular ray: no quotient orbifold")
        return SERecord(torsion=torsion, notes=tuple(notes), **base)
    quotient = quotient_orbifold(spec, ray)
    data = CalabiData.from_join(spec, ray, quotient)
    ke1, ke2 = ke_conditions(data)
    profile = ke_profile(data) if (ke1 and ke2) else None
    log_fano = is_log_fano(quotient.bott())
    # a positive Kaehler-Einstein quotient has c1^orb in the Kaehler cone
    if ke1 and ke2 and not log_fano:
        raise ConsistencyError(
            "Kaehler-Einstein quotient of (%d, %d) with w = (%d, %d) is not log Fano"
            % (sol.p, sol.q, w1, w2)
        )
    return SERecord(
        quotient=quotient,
        r3=data.r3,
        ke1=ke1,
        ke2=ke2,
        log_fano=log_fano,
        torsion=torsion,
        profile=profile,
        notes=tuple(notes),
        **base,
    )


def family_k2(t: int) -> int:
    """k2 of step t of the quadratic sub-family: 255t + 10."""
    return 255 * t + 10


def family_record(k2: int) -> SERecord:
    """Record for the quadratic sub-family member k2, joined with its
    fixed weight pair (17, 3) and canonical gluing."""
    return _assemble(family_member(k2), 17, 3)


def enumerate_ypq(p_max: int) -> List[YpqEinstein]:
    """All solved quasi-regular first factors with p <= p_max."""
    if p_max < 2:
        raise DomainError("p_max must be >= 2")
    return [quasi_regular_factor(p, q) for p in range(2, p_max + 1) for q in range(1, p)
            if gcd(p, q) == 1 and is_quasi_regular(p, q)]


def enumerate_joins(sol: YpqEinstein, k_list: Optional[Sequence] = None,
                    w_bound: Optional[int] = None) -> List[SERecord]:
    """Records for a batch of weight choices: either explicit rational k
    values or every coprime pair with w_bound >= w1 > w2 >= 1.

    Per-item failures (e.g. gluing-pair rejection) become error records
    rather than aborting the batch; a failed internal cross-check is kept
    apart by the prefix "ConsistencyError: " on its error text.
    """
    if (k_list is None) == (w_bound is None):
        raise DomainError("give exactly one of k_list and w_bound")
    if k_list is not None:
        pairs = [w_from_k(Fraction(k)) for k in k_list]
    elif w_bound < 2:
        raise DomainError("w_bound must be >= 2")
    else:
        pairs = [(w1, w2) for w1 in range(2, w_bound + 1) for w2 in range(1, w1)
                 if gcd(w1, w2) == 1]
    records = []
    for w1, w2 in pairs:
        try:
            records.append(_assemble(sol, w1, w2))
        except (DomainError, ConsistencyError) as exc:
            error = str(exc)
            if isinstance(exc, ConsistencyError):
                error = "ConsistencyError: " + error
            l1, l2 = canonical_l(w1, w2, sol.fano_index)
            records.append(
                SERecord(
                    ypq=sol, w1=w1, w2=w2, l1=l1, l2=l2,
                    error=error,
                    notes=FIXED_NOTES + ("construction rejected",),
                )
            )
    records.sort(key=lambda r: r.sort_key)
    return records


# ------------------------------------------------------------- verification


@dataclass(frozen=True)
class Check:
    name: str
    expected: object
    got: object

    @property
    def ok(self) -> bool:
        return self.expected == self.got


@dataclass
class VerificationReport:
    checks: List[Check] = field(default_factory=list)

    def add(self, name, expected, got):
        self.checks.append(Check(name, expected, got))

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        lines = []
        for c in self.failures:
            lines.append("FAIL %s: expected %r, got %r" % (c.name, c.expected, c.got))
        if self.passed:
            lines.append("PASS: %d checks" % len(self.checks))
        else:
            lines.append("FAIL: %d of %d checks failed" % (len(self.failures), len(self.checks)))
        return "\n".join(lines)


def _corrupted(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, tuple) and value and isinstance(value[0], int):
        return (value[0] + 1,) + value[1:]
    return ("corrupted", value)


def verify_paper_examples(corrupt: Optional[str] = None) -> VerificationReport:
    """Re-derive both worked examples and ten family members from raw
    (p, q, k) inputs and compare every stated value.

    ``corrupt`` mangles one expected value by check name; the report must
    then fail on exactly that field (self-test hook for the harness).  A
    ``corrupt`` that names no check raises DomainError.
    """
    report = VerificationReport()

    def check(name, expected, got):
        if corrupt == name:
            expected = _corrupted(expected)
        report.add(name, expected, got)

    rec_a = build_record(13, 8, k=Fraction(2))
    sol_a = rec_a.ypq
    check("A.v2", (7, 5), (sol_a.v2_0, sol_a.v2_inf))
    check("A.m2", 13, sol_a.m2)
    check("A.m2_pair", (91, 65), (sol_a.m2_0, sol_a.m2_inf))
    check("A.a", 70, sol_a.a)
    check("A.I", 12, sol_a.fano_index)
    check("A.w", (34, 11), (rec_a.w1, rec_a.w2))
    check("A.l", (4, 15), (rec_a.l1, rec_a.l2))
    check("A.v3", (17, 11), (rec_a.ray.v3_0, rec_a.ray.v3_inf))
    check("A.s", 1, rec_a.quotient.s)
    check("A.m3", 15, rec_a.quotient.m3)
    check("A.n", 748, rec_a.quotient.n)
    check("A.b", 78540, rec_a.quotient.b)
    check("A.c", 748, rec_a.quotient.c)
    check("A.m_vector", (1, 1, 91, 65, 255, 165), rec_a.quotient.m)
    check("A.smooth", True, rec_a.smooth)
    check("A.r3", Fraction(1, 3), rec_a.r3)
    check("A.ke", (True, True), (rec_a.ke1, rec_a.ke2))
    check("A.torsion", (1330875, 5984), (rec_a.torsion.A, rec_a.torsion.B))

    rec_b = build_record(13, 7, k=Fraction(2))
    sol_b = rec_b.ypq
    check("B.v2", (4, 3), (sol_b.v2_0, sol_b.v2_inf))
    check("B.m2_pair", (52, 39), (sol_b.m2_0, sol_b.m2_inf))
    check("B.a", 36, sol_b.a)
    check("B.I", 7, sol_b.fano_index)
    check("B.l", (7, 45), (rec_b.l1, rec_b.l2))
    check("B.n", 1309, rec_b.quotient.n)
    check("B.b", 78540, rec_b.quotient.b)
    check("B.c", 1309, rec_b.quotient.c)
    check("B.m_vector", (1, 1, 52, 39, 765, 495), rec_b.quotient.m)
    check("B.ke", (True, True), (rec_b.ke1, rec_b.ke2))
    # the join itself is non-smooth, so evaluate the torsion formula on the
    # stated parameters directly
    t_b = h4_torsion(sol_b.v2_0, sol_b.v2_inf, sol_b.m2, rec_b.l2,
                     rec_b.w1, rec_b.w2, rec_b.l1)
    check("B.torsion_formula", (4106700, 18326), (t_b.A, t_b.B))

    check(
        "AB.homotopy_distinct",
        True,
        homotopy_distinct(rec_a.torsion, t_b),
    )

    for t in range(1, 11):
        rec = family_record(family_k2(t))
        prefix = "family.t%d" % t
        check(prefix + ".l", (306 * t + 13, 4), (rec.l1, rec.l2))
        check(prefix + ".n", 51 * (306 * t + 13), rec.quotient.n)
        check(prefix + ".m3", 2, rec.quotient.m3)
        check(prefix + ".m3_pair", (34, 18), rec.quotient.m[4:])
        check(prefix + ".smooth", True, rec.smooth)
        check(prefix + ".r3", Fraction(1, 2), rec.r3)
        check(prefix + ".ke", (True, True), (rec.ke1, rec.ke2))

    rec0 = family_record(0)
    check("family.k2_0.smooth", False, rec0.smooth)
    check("family.k2_0.m_vector", (1, 1, 21, 14, 34, 18), rec0.quotient.m)
    check("family.k2_0.n", 51, rec0.quotient.n)

    if corrupt is not None and corrupt not in {c.name for c in report.checks}:
        raise DomainError("no check is named %r" % (corrupt,))
    return report


# ------------------------------------------------------------------- export


def _fmt(value: Union[Fraction, AlgebraicRoot, None], digits: int):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    lo, hi = value.decimal_bounds(digits)
    return [lo, hi]


def ypq_to_dict(sol: YpqEinstein) -> Dict:
    """The first-factor keys of an exported record, as decimal strings."""
    return {
        "p": str(sol.p),
        "q": str(sol.q),
        "v2": [str(sol.v2_0), str(sol.v2_inf)],
        "m2": str(sol.m2),
        "a": str(sol.a),
        "I": str(sol.fano_index),
    }


def record_to_dict(rec: SERecord, digits: int = 40) -> Dict:
    """JSON-ready dictionary: integers as decimal strings, rationals as
    num/den strings, algebraic numbers as their one-unit decimal cells."""
    out = {
        "schema": SCHEMA_VERSION,
        **ypq_to_dict(rec.ypq),
        "w": [str(rec.w1), str(rec.w2)],
        "l1": str(rec.l1),
        "l2": str(rec.l2),
        "regular": None if rec.ray is None else rec.ray.quasi_regular,
        "k": _fmt(rec.k if isinstance(rec.k, Fraction) else None, digits),
        "k_interval": _fmt(rec.k, digits) if isinstance(rec.k, AlgebraicRoot) else None,
        "v3": None,
        "s": None,
        "m3": None,
        "n": None,
        "b": None,
        "c": None,
        "m_vector": None,
        "torsion": None,
        "smooth": rec.smooth,
        "smooth_witnesses": [list(map(str, w)) for w in rec.smooth_witnesses] or None,
        "ke1": rec.ke1,
        "ke2": rec.ke2,
        "log_fano": rec.log_fano,
        "r3": _fmt(rec.r3, digits),
        "F_coeffs": None,
        "error": rec.error,
        "notes": list(rec.notes),
    }
    if rec.ray is not None and rec.ray.quasi_regular:
        out["v3"] = [str(rec.ray.v3_0), str(rec.ray.v3_inf)]
    elif rec.ray is not None:
        out["ratio_interval"] = _fmt(rec.ray.ratio, digits)
    if rec.quotient is not None:
        quo = rec.quotient
        out.update(
            s=str(quo.s),
            m3=str(quo.m3),
            n=str(quo.n),
            b=str(quo.b),
            c=str(quo.c),
            m_vector=[str(v) for v in quo.m],
        )
    if rec.torsion is not None:
        out["torsion"] = [str(rec.torsion.A), str(rec.torsion.B)]
    if rec.profile is not None:
        coeffs = list(rec.profile.F.coeffs)
        coeffs += [Fraction(0)] * (5 - len(coeffs))
        out["F_coeffs"] = [_fmt(cf, digits) for cf in coeffs]
    return out


# (CSV column, record_to_dict key, index into a pair or None)
CSV_FIELDS = (
    ("p", "p", None), ("q", "q", None), ("v2_0", "v2", 0), ("v2_inf", "v2", 1),
    ("m2", "m2", None), ("a", "a", None), ("I", "I", None), ("w1", "w", 0),
    ("w2", "w", 1), ("l1", "l1", None), ("l2", "l2", None),
    ("regular", "regular", None), ("v3_0", "v3", 0), ("v3_inf", "v3", 1),
    ("s", "s", None), ("m3", "m3", None), ("n", "n", None), ("b", "b", None),
    ("c", "c", None), ("m_vector", "m_vector", None), ("torsion_A", "torsion", 0),
    ("torsion_B", "torsion", 1), ("smooth", "smooth", None), ("ke1", "ke1", None),
    ("ke2", "ke2", None), ("log_fano", "log_fano", None), ("r3", "r3", None),
    ("F_coeffs", "F_coeffs", None), ("k", "k", None), ("error", "error", None),
)
CSV_COLUMNS = tuple(col for col, _, _ in CSV_FIELDS)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def export_records(records: Sequence[SERecord], fmt: str, digits: int = 40) -> str:
    """Serialize records deterministically; fmt is 'json' or 'csv'."""
    ordered = sorted(records, key=lambda r: r.sort_key)
    dicts = [record_to_dict(r, digits) for r in ordered]
    if fmt == "json":
        return json.dumps(dicts, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for d in dicts:
            row = []
            for _, key, index in CSV_FIELDS:
                value = d[key]
                if index is not None and value is not None:
                    value = value[index]
                row.append(_csv_cell(value))
            writer.writerow(row)
        return buf.getvalue()
    raise DomainError("format must be json or csv, got %r" % (fmt,))


def write_export(records: Sequence[SERecord], fmt: str, path: str, digits: int = 40) -> None:
    text = export_records(records, fmt, digits)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError("cannot write %s: %s" % (path, exc)) from exc
