"""Enumeration, record assembly, golden-value verification, and export.

A catalog record bundles everything the pipeline derives from raw inputs
(p, q) and a weight choice: first-factor Einstein data, gluing integers,
Reeb ray, quotient orbifold, torsion, KE flags, and the Einstein profile.
Exports are deterministic: sorted records, sorted keys, exact values as
strings.  Every JSON text of the package is written by ``to_json``.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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
    validate_w,
    w_from_k,
)
from .kernel import AlgebraicRoot, ConsistencyError, DomainError, Frozen
from .metric import CalabiData, CalabiProfile, ke_profile
from .topology import TorsionInvariant, h4_torsion, homotopy_distinct
from .ypq import YpqEinstein, family_member, is_quasi_regular, solve

SCHEMA_VERSION = "sejoin-record/1"

# fixed homotopy metadata shared by every manifold in the family
FIXED_NOTES = ("pi1 = 0", "pi2 = Z^2")

# an exported F is a quartic, written as this many entries with zeros
# padded at the top; `sejoin profile` accepts exactly this many
F_COEFFS = 5


class SERecord(Frozen):
    """One join record, storing only what its construction decides; a
    failed construction stores an ``error`` and no ray, an irregular ray no
    quotient or profile.  ``smooth``, ``r3``, ``ke1``, ``ke2``, ``log_fano``
    and ``notes`` are read from those facts."""

    __slots__ = ("ypq", "w1", "w2", "l1", "l2", "ray", "smooth_witnesses", "torsion",
                 "quotient", "profile", "error")

    def __init__(self, ypq: YpqEinstein, w1: int, w2: int, l1: int, l2: int,
                 ray: Optional[ReebRay] = None,
                 smooth_witnesses: Tuple[Tuple[int, int, int], ...] = (),
                 torsion: Optional[TorsionInvariant] = None,
                 quotient: Optional[JoinQuotient] = None,
                 profile: Optional[CalabiProfile] = None,
                 error: Optional[str] = None):
        object.__setattr__(self, "ypq", ypq)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "l1", l1)
        object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "ray", ray)
        object.__setattr__(self, "smooth_witnesses", smooth_witnesses)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "error", error)

    @property
    def k(self) -> Union[Fraction, AlgebraicRoot, None]:
        return None if self.ray is None else self.ray.k

    @property
    def smooth(self) -> Optional[bool]:
        return None if self.ray is None else not self.smooth_witnesses

    @property
    def r3(self) -> Optional[Fraction]:
        return None if self.profile is None else self.profile.r3

    @property
    def ke1(self) -> Optional[bool]:
        """True on a record with a quotient, which _assemble builds only if
        both KE identities hold and it is log Fano; ke2 and log_fano alike."""
        return True if self.quotient is not None else None

    ke2 = log_fano = ke1

    @property
    def notes(self) -> Tuple[str, ...]:
        if self.error is not None:
            return FIXED_NOTES + ("construction rejected",)
        notes = FIXED_NOTES + ("canonical gluing",)
        notes += () if self.smooth else ("non-smooth join; torsion formula not applied",)
        notes += () if self.ray.quasi_regular else ("irregular ray: no quotient orbifold",)
        return notes

    @property
    def sort_key(self):
        return (self.ypq.p, self.ypq.q, self.w1, self.w2)

    def ray_cells(self, digits: int) -> list:
        """The one-unit decimal cells of an irregular ray's k and ratio
        k*w2/w1, both from one Newton iteration on k's cubic."""
        return self.k.decimal_bounds(digits, scales=(1, Fraction(self.w2, self.w1)))


def build_record(p: int, q: int, k=None, w=None) -> SERecord:
    """Derive the full record from raw inputs, with the canonical gluing pair.

    Exactly one of ``k`` (rational > 1) and ``w`` (coprime weight pair) must
    be given; ``weight_pairs`` checks it.  A failed construction raises.
    """
    sol = solve(p, q)
    ((w1, w2),) = weight_pairs(k=k, w=w)
    return _assemble(sol, w1, w2)


def weight_pairs(k=None, w=None, k_list=None, w_bound=None) -> List[Tuple[int, int]]:
    """The weight pairs (w1, w2) of the one weight choice given: w_from_k of
    a rational k or of each entry of k_list, the pair w, or every coprime
    pair with w_bound >= w1 > w2 >= 1.

    This is the one gate of a weight choice: none or more than one raise
    DomainError, and every range check of the choice (k > 1, coprime
    w1 > w2 >= 1, w_bound >= 2) runs here, so the homogeneous join, which
    builds no record, rejects what any join does."""
    if sum(v is not None for v in (k, w, k_list, w_bound)) != 1:
        raise DomainError("give exactly one weight choice: k (--k), w (--w), "
                          "k_list (--k-list) or w_bound (--w-bound)")
    if k is not None:
        return [w_from_k(k)]
    if w is not None:
        w1, w2 = w
        validate_w(w1, w2)
        return [(w1, w2)]
    if k_list is not None:
        return [w_from_k(k) for k in k_list]
    if w_bound < 2:
        raise DomainError("w_bound must be >= 2")
    return [(w1, w2) for w1 in range(2, w_bound + 1) for w2 in range(1, w1)
            if gcd(w1, w2) == 1]


def _assemble(sol: YpqEinstein, w1: int, w2: int) -> SERecord:
    """The record of one weight pair with the canonical gluing; raises
    ConsistencyError unless a quasi-regular join passes the quotient, KE
    and log Fano cross-checks."""
    l1, l2 = canonical_l(w1, w2, sol.fano_index)
    spec = JoinSpec(ypq=sol, l1=l1, l2=l2, w1=w1, w2=w2)
    ray = se_ray_from_w(w1, w2)
    smooth, witnesses = smoothness_check(spec)
    # torsion needs only the first factor and the gluing integers, so it is
    # available even when the ray is irregular
    torsion = h4_torsion(sol.v2_0, sol.v2_inf, sol.m2, l2, w1, w2, l1) if smooth else None
    quotient = profile = None
    if ray.quasi_regular:
        quotient = quotient_orbifold(spec, ray)
        # every quasi-regular join is Kaehler-Einstein (README, known issues):
        # ke_profile raises unless both KE identities hold, and a positive
        # Kaehler-Einstein quotient has c1^orb in the Kaehler cone
        profile = ke_profile(CalabiData.from_join(spec, ray, quotient))
        if not is_log_fano(quotient.bott()):
            raise ConsistencyError(
                "Kaehler-Einstein quotient of (%d, %d) with w = (%d, %d) is not log Fano"
                % (sol.p, sol.q, w1, w2)
            )
    return SERecord(ypq=sol, w1=w1, w2=w2, l1=l1, l2=l2, ray=ray,
                    smooth_witnesses=tuple(witnesses), torsion=torsion,
                    quotient=quotient, profile=profile)


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
    return [solve(p, q) for p in range(2, p_max + 1) for q in range(1, p)
            if gcd(p, q) == 1 and is_quasi_regular(p, q)]


def enumerate_joins(sol: YpqEinstein, k=None, w=None, k_list=None,
                    w_bound=None) -> List[SERecord]:
    """Records for the pairs of one weight choice, as ``weight_pairs`` reads
    it: a single k or w gives a batch of one.

    A construction that raises DomainError or ConsistencyError becomes an
    error record, which stores the error text and no ray, rather than
    aborting the batch; a failed internal cross-check is kept apart by the
    prefix "ConsistencyError: " on its error text.
    """
    records = []
    for w1, w2 in weight_pairs(k=k, w=w, k_list=k_list, w_bound=w_bound):
        try:
            records.append(_assemble(sol, w1, w2))
        except (DomainError, ConsistencyError) as exc:
            error = str(exc)
            if isinstance(exc, ConsistencyError):
                error = "ConsistencyError: " + error
            l1, l2 = canonical_l(w1, w2, sol.fano_index)
            records.append(SERecord(ypq=sol, w1=w1, w2=w2, l1=l1, l2=l2, error=error))
    records.sort(key=lambda r: r.sort_key)
    return records


# ------------------------------------------------------------- verification


class Check(Frozen):
    """One compared value of ``verify_paper_examples``."""

    __slots__ = ("name", "expected", "got")

    def __init__(self, name: str, expected: object, got: object):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "got", got)

    @property
    def ok(self) -> bool:
        return self.expected == self.got


class VerificationReport(Frozen):
    """The checks of ``verify_paper_examples``, in order.  Unlike the
    records it is mutable, so it has no hash; equality and the repr are
    the records'."""

    __slots__ = ("checks",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, checks: Optional[List[Check]] = None):
        self.checks = [] if checks is None else checks

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


def _fmt(value: Optional[Fraction]) -> Optional[str]:
    return None if value is None else "%d/%d" % (value.numerator, value.denominator)


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
        "k": _fmt(rec.k if isinstance(rec.k, Fraction) else None),
        "k_interval": None,
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
        "r3": _fmt(rec.r3),
        "F_coeffs": None,
        "error": rec.error,
        "notes": list(rec.notes),
    }
    if rec.ray is not None and rec.ray.quasi_regular:
        out["v3"] = [str(rec.ray.v3_0), str(rec.ray.v3_inf)]
    elif rec.ray is not None:
        k_cell, ratio_cell = rec.ray_cells(digits)
        out["k_interval"], out["ratio_interval"] = list(k_cell), list(ratio_cell)
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
        coeffs += [Fraction(0)] * (F_COEFFS - len(coeffs))
        out["F_coeffs"] = [_fmt(cf) for cf in coeffs]
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


def _json(value, pad: str) -> str:
    """``value`` as ``to_json`` writes it, nested at the newline and
    indentation ``pad``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    inner = pad + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is no str
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(key) + ": " + _json(value[key], inner)
             for key in sorted(value)]) + pad + "}"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def to_json(value) -> str:
    """The package's one JSON format: the bytes of ``json.dumps(value,
    sort_keys=True, indent=2)`` for a value built of str, None, bool, int,
    list and dict with str keys.  Anything else, a float or a Fraction
    included, raises TypeError.  ``json.dumps`` with an ``indent`` runs
    the encoder in pure Python, through a generator per container; this
    writer joins each container's strings once."""
    return _json(value, "\n")


def export_records(records: Sequence[SERecord], fmt: str, digits: int = 40) -> str:
    """Serialize records deterministically; fmt is 'json' or 'csv'."""
    ordered = sorted(records, key=lambda r: r.sort_key)
    dicts = [record_to_dict(r, digits) for r in ordered]
    if fmt == "json":
        return to_json(dicts) + "\n"
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
