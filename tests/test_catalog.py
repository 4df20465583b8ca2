"""Record assembly, enumeration, paper verification, export, and the CLI."""

import json
import sys
from fractions import Fraction

import pytest

from sejoin import catalog, cli, metric
from sejoin.catalog import (
    SERecord,
    build_record,
    enumerate_joins,
    enumerate_ypq,
    export_records,
    family_record,
    record_to_dict,
    verify_paper_examples,
    write_export,
)
from sejoin.cli import MAX_FAMILY, MAX_GRID, MAX_W_BOUND, MAX_YPQ, main
from sejoin.kernel import AlgebraicRoot, ConsistencyError, DomainError
from sejoin.metric import CalabiProfile
from sejoin.ypq import solve

GOLDEN_A_F = ["23/5049", "2/935", "-4/935", "-2/935", "-7/25245"]
FAMILY_F = ["5/144", "4/153", "-1/34", "-4/153", "-13/2448"]


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------ build_record


class TestBuildRecord:
    def test_golden_a_from_k(self):
        rec = build_record(13, 8, k=2)
        sol = rec.ypq
        assert (sol.v2_0, sol.v2_inf, sol.m2) == (7, 5, 13)
        assert (sol.m2_0, sol.m2_inf, sol.a, sol.fano_index) == (91, 65, 70, 12)
        assert (rec.w1, rec.w2, rec.l1, rec.l2) == (34, 11, 4, 15)
        assert (rec.ray.v3_0, rec.ray.v3_inf) == (17, 11)
        assert rec.k == Fraction(2)
        quo = rec.quotient
        assert (quo.s, quo.m3, quo.n, quo.b, quo.c) == (1, 15, 748, 78540, 748)
        assert quo.m == (1, 1, 91, 65, 255, 165)
        assert rec.smooth is True and rec.smooth_witnesses == ()
        assert rec.r3 == Fraction(1, 3)
        assert (rec.ke1, rec.ke2) == (True, True)
        assert (rec.torsion.A, rec.torsion.B) == (1330875, 5984)
        assert [str(cf) for cf in rec.profile.F.coeffs] == GOLDEN_A_F
        # with the fiber twist c1(L_n) = n*c1^orb(N)/I the first KE identity
        # gives c1^orb = (s3/2)*[omega_adm], a Kaehler class; the xxy
        # coefficients are (112/65, 16/975, 28/2805)
        assert rec.log_fano is True
        assert "canonical gluing" in rec.notes

    def test_ke_quotient_must_be_log_fano(self, monkeypatch):
        monkeypatch.setattr(catalog, "is_log_fano", lambda orb: False)
        with pytest.raises(ConsistencyError):
            build_record(13, 8, k=2)

    def test_golden_a_from_w_matches(self):
        assert build_record(13, 8, w=(34, 11)) == build_record(13, 8, k=2)

    def test_golden_b(self):
        rec = build_record(13, 7, k=2)
        assert (rec.ypq.a, rec.ypq.fano_index) == (36, 7)
        assert (rec.l1, rec.l2) == (7, 45)
        assert (rec.quotient.n, rec.quotient.b, rec.quotient.c) == (1309, 78540, 1309)
        assert rec.quotient.m == (1, 1, 52, 39, 765, 495)
        assert rec.smooth is False
        assert rec.smooth_witnesses == ((0, 1, 2),)
        assert rec.torsion is None
        assert "non-smooth join; torsion formula not applied" in rec.notes

    def test_irregular_weights(self):
        # w = (2, 1) has an irrational SE ray; the quotient block is absent
        # but torsion only needs the gluing integers, so it stays
        rec = build_record(13, 8, w=(2, 1))
        assert (rec.l1, rec.l2) == (4, 1)
        assert rec.quotient is None and rec.ke1 is None and rec.profile is None
        assert isinstance(rec.k, AlgebraicRoot)
        lo, hi = rec.k.decimal_bounds(10)
        assert lo == "1.5213797068"
        assert rec.smooth is True
        assert (rec.torsion.A, rec.torsion.B) == (5915, 32)
        assert "irregular ray: no quotient orbifold" in rec.notes

    def test_requires_exactly_one_weight_source(self):
        with pytest.raises(DomainError):
            build_record(13, 8, k=2, w=(34, 11))
        with pytest.raises(DomainError):
            build_record(13, 8)

    def test_rejects_irrational_first_factor(self):
        with pytest.raises(DomainError):
            build_record(2, 1, k=2)

    def test_rejects_k_at_most_one(self):
        with pytest.raises(DomainError):
            build_record(13, 8, k=1)

    def test_sort_key(self):
        rec = build_record(13, 8, k=2)
        assert rec.sort_key == (13, 8, 34, 11)


class TestFamilyRecord:
    def test_t1(self):
        rec = family_record(265)
        assert (rec.l1, rec.l2) == (319, 4)
        assert rec.quotient.n == 16269
        assert rec.quotient.m3 == 2
        assert rec.quotient.m[4:] == (34, 18)
        assert rec.smooth is True
        assert rec.r3 == Fraction(1, 2)
        assert (rec.ke1, rec.ke2) == (True, True)
        assert [str(cf) for cf in rec.profile.F.coeffs] == FAMILY_F

    def test_base_member_non_smooth(self):
        rec = family_record(0)
        assert rec.smooth is False
        assert rec.quotient.m == (1, 1, 21, 14, 34, 18)
        assert rec.quotient.n == 51


# ------------------------------------------------------------- enumeration


class TestEnumerateYpq:
    def test_up_to_13(self):
        assert [(s.p, s.q) for s in enumerate_ypq(13)] == [
            (7, 3), (7, 5), (13, 7), (13, 8)]

    def test_up_to_19(self):
        assert [(s.p, s.q) for s in enumerate_ypq(19)] == [
            (7, 3), (7, 5), (13, 7), (13, 8), (19, 5), (19, 16)]

    def test_up_to_40_contains_family_member(self):
        pairs = [(s.p, s.q) for s in enumerate_ypq(40)]
        assert (37, 33) in pairs
        assert pairs == [(7, 3), (7, 5), (13, 7), (13, 8), (19, 5), (19, 16),
                         (31, 11), (31, 24), (37, 7), (37, 33)]

    def test_records_fully_solved(self):
        for sol in enumerate_ypq(19):
            assert sol.m2_0 == sol.m2 * sol.v2_0
            assert sol.fano_index >= 1

    def test_rejects_small_bound(self):
        with pytest.raises(DomainError):
            enumerate_ypq(1)


class TestEnumerateJoins:
    def test_k_list(self):
        recs = enumerate_joins(solve(13, 8), k_list=[2, Fraction(3, 2)])
        assert [(r.w1, r.w2) for r in recs] == [(34, 11), (43, 22)]
        assert all(r.ray.quasi_regular for r in recs)
        assert recs[0].quotient.n == 748

    def test_w_bound(self):
        recs = enumerate_joins(solve(13, 8), w_bound=5)
        assert [(r.w1, r.w2) for r in recs] == [
            (2, 1), (3, 1), (3, 2), (4, 1), (4, 3),
            (5, 1), (5, 2), (5, 3), (5, 4)]
        # generic weights give irregular rays
        assert all(not r.ray.quasi_regular for r in recs)
        assert all(r.error is None for r in recs)

    def test_requires_exactly_one_batch_source(self):
        sol = solve(13, 8)
        with pytest.raises(DomainError):
            enumerate_joins(sol)
        with pytest.raises(DomainError):
            enumerate_joins(sol, k_list=[2], w_bound=5)

    def test_rejects_small_w_bound(self):
        with pytest.raises(DomainError):
            enumerate_joins(solve(13, 8), w_bound=1)

    def test_per_record_errors_do_not_abort(self, monkeypatch):
        sol = solve(13, 8)
        real = catalog._assemble

        def flaky(s, w1, w2):
            if (w1, w2) == (3, 2):
                raise DomainError("forced failure")
            return real(s, w1, w2)

        monkeypatch.setattr(catalog, "_assemble", flaky)
        recs = enumerate_joins(sol, w_bound=3)
        assert [(r.w1, r.w2) for r in recs] == [(2, 1), (3, 1), (3, 2)]
        bad = recs[2]
        assert bad.error == "forced failure"
        assert "construction rejected" in bad.notes
        assert recs[0].error is None and recs[1].error is None

    def test_consistency_error_becomes_error_record(self, monkeypatch, capsys):
        real = catalog._assemble

        def broken(s, w1, w2):
            if (w1, w2) == (3, 1):
                raise DomainError("forced rejection")
            if (w1, w2) == (3, 2):
                raise ConsistencyError("forced cross-check failure")
            return real(s, w1, w2)

        monkeypatch.setattr(catalog, "_assemble", broken)
        recs = enumerate_joins(solve(13, 8), w_bound=3)
        assert [(r.w1, r.w2) for r in recs] == [(2, 1), (3, 1), (3, 2)]
        assert recs[0].error is None
        assert recs[2].error == "ConsistencyError: forced cross-check failure"
        # the same record shape as any other rejected construction
        rejected, broken_rec = record_to_dict(recs[1]), record_to_dict(recs[2])
        assert rejected.keys() == broken_rec.keys()
        assert rejected["notes"] == broken_rec["notes"]
        code, out, _ = run_cli(["join", "--p", "13", "--q", "8", "--w-bound", "3"], capsys)
        assert code == 1
        assert "error: ConsistencyError: forced cross-check failure" in out


# ------------------------------------------------------------ verification


class TestVerifyPaperExamples:
    def test_passes(self):
        report = verify_paper_examples()
        assert report.passed
        assert len(report.checks) == 103
        assert report.summary() == "PASS: 103 checks"

    def test_covers_both_examples_and_family(self):
        names = [c.name for c in verify_paper_examples().checks]
        assert "A.m_vector" in names
        assert "B.torsion_formula" in names
        assert "AB.homotopy_distinct" in names
        assert "family.t10.ke" in names
        assert "family.k2_0.smooth" in names

    def test_corrupt_self_test(self):
        report = verify_paper_examples(corrupt="A.n")
        assert not report.passed
        assert [c.name for c in report.failures] == ["A.n"]
        assert "FAIL A.n: expected 749, got 748" in report.summary()

    def test_corrupt_tuple_field(self):
        report = verify_paper_examples(corrupt="family.t3.l")
        assert [c.name for c in report.failures] == ["family.t3.l"]

    def test_corrupt_boolean_field(self):
        report = verify_paper_examples(corrupt="A.smooth")
        assert [c.name for c in report.failures] == ["A.smooth"]

    def test_corrupt_unknown_name_rejected(self):
        with pytest.raises(DomainError, match="no check is named 'nope'"):
            verify_paper_examples(corrupt="nope")


# ------------------------------------------------------------------ export


SPEC_KEYS = {"p", "q", "v2", "m2", "a", "I", "l1", "l2", "w", "v3", "s", "m3",
             "n", "b", "c", "m_vector", "torsion", "smooth", "ke1", "ke2",
             "F_coeffs"}


class TestRecordToDict:
    def test_golden_a(self):
        d = record_to_dict(build_record(13, 8, k=2))
        assert SPEC_KEYS <= set(d)
        assert d["schema"] == "sejoin-record/1"
        assert d["p"] == "13" and d["q"] == "8"
        assert d["v2"] == ["7", "5"] and d["v3"] == ["17", "11"]
        assert d["n"] == "748" and d["b"] == "78540"
        assert d["m_vector"] == ["1", "1", "91", "65", "255", "165"]
        assert d["torsion"] == ["1330875", "5984"]
        assert d["k"] == "2/1" and d["r3"] == "1/3"
        assert d["F_coeffs"] == GOLDEN_A_F
        assert d["smooth"] is True and d["regular"] is True
        assert d["error"] is None

    def test_all_scalars_are_strings_or_flags(self):
        d = record_to_dict(build_record(13, 8, k=2))
        for key in ("p", "q", "m2", "a", "I", "l1", "l2", "s", "m3", "n", "b", "c"):
            assert isinstance(d[key], str)

    def test_irregular(self):
        d = record_to_dict(build_record(13, 8, w=(2, 1)), digits=12)
        assert d["regular"] is False
        assert d["v3"] is None and d["m_vector"] is None
        assert d["k"] is None
        assert d["k_interval"] == ["1.521379706804", "1.521379706805"]
        assert d["ratio_interval"][0].startswith("0.7606898534")
        assert d["torsion"] == ["5915", "32"]


class TestExport:
    def test_json_deterministic(self):
        recs = enumerate_joins(solve(13, 8), w_bound=5)
        assert export_records(recs, "json") == export_records(recs, "json")

    def test_json_sorted_regardless_of_input_order(self):
        recs = enumerate_joins(solve(13, 8), w_bound=4)
        text = export_records(list(reversed(recs)), "json")
        ws = [(int(d["w"][0]), int(d["w"][1])) for d in json.loads(text)]
        assert ws == sorted(ws)

    def test_json_empty(self):
        assert export_records([], "json") == "[]\n"

    def test_csv_empty_is_header_only(self):
        text = export_records([], "csv")
        assert text.splitlines() == [",".join(catalog.CSV_COLUMNS)]

    def test_csv_golden_row(self):
        text = export_records([build_record(13, 8, k=2)], "csv")
        assert "78540" in text and "1330875" in text
        row = text.splitlines()[1].split(",")
        header = text.splitlines()[0].split(",")
        assert row[header.index("n")] == "748"
        assert row[header.index("m_vector")] == "1;1;91;65;255;165"
        assert row[header.index("smooth")] == "true"

    def test_rejects_unknown_format(self):
        with pytest.raises(DomainError):
            export_records([], "xml")

    def test_write_export(self, tmp_path):
        path = tmp_path / "out.json"
        write_export([build_record(13, 8, k=2)], "json", str(path))
        assert json.loads(path.read_text())[0]["n"] == "748"

    def test_write_export_unwritable_path(self, tmp_path):
        with pytest.raises(RuntimeError, match="cannot write"):
            write_export([], "json", str(tmp_path / "no" / "dir" / "x.json"))


# --------------------------------------------------------------------- CLI


class TestCliYpq:
    def test_human_output(self, capsys):
        code, out, _ = run_cli(["ypq", "--max", "13"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("p=1 q=0  homogeneous case")
        assert "p=13 q=8  v2=(7,5) m2=13 a=70 I=12" in lines
        assert lines[-1] == "ray counts per admissible p: p=7: 2, p=13: 2"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["ypq", "--max", "13", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert [(d["p"], d["q"]) for d in data] == [
            ("7", "3"), ("7", "5"), ("13", "7"), ("13", "8")]

    def test_bad_bound_is_usage_error(self, capsys):
        code, _, err = run_cli(["ypq", "--max", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_max_bound(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "enumerate_ypq", lambda p_max: calls.append(p_max) or [])
        code, out, err = run_cli(["ypq", "--max", str(MAX_YPQ + 1)], capsys)
        assert (code, out, calls) == (2, "", [])
        assert "--max must be <= 10000" in err
        code, _, _ = run_cli(["ypq", "--max", str(MAX_YPQ), "--json"], capsys)
        assert (code, calls) == (0, [MAX_YPQ])


class TestCliJoin:
    def test_golden_a_human(self, capsys):
        code, out, _ = run_cli(["join", "--p", "13", "--q", "8", "--k", "2"], capsys)
        assert code == 0
        assert "w=(34,11) l=(4,15)" in out
        assert "ray: quasi-regular v3=(17,11) k=2" in out
        assert "quotient: s=1 m3=15 n=748 b=78540 c=748" in out
        assert "H4 torsion: Z_1330875 + Z_5984" in out

    def test_golden_a_json(self, capsys):
        code, out, _ = run_cli(
            ["join", "--p", "13", "--q", "8", "--k", "2", "--json"], capsys)
        assert code == 0
        (d,) = json.loads(out)
        assert d["n"] == "748" and d["torsion"] == ["1330875", "5984"]

    def test_w_flag_matches_k_flag(self, capsys):
        _, out_k, _ = run_cli(["join", "--p", "13", "--q", "8", "--k", "2"], capsys)
        _, out_w, _ = run_cli(["join", "--p", "13", "--q", "8", "--w", "34,11"], capsys)
        assert out_k == out_w

    def test_homogeneous_case(self, capsys):
        code, out, _ = run_cli(["join", "--p", "1", "--q", "0"], capsys)
        assert code == 0
        assert out.strip() == "p=1 q=0  homogeneous case: all parameters 1, torsion trivial"
        code, out, _ = run_cli(["join", "--p", "1", "--q", "0", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["homogeneous"] is True

    def test_irregular_human_shows_intervals(self, capsys):
        code, out, _ = run_cli(
            ["join", "--p", "13", "--q", "8", "--w", "2,1", "--digits", "10"], capsys)
        assert code == 0
        assert "ray: irregular, k in [1.5213797068, 1.5213797069]" in out
        assert "ratio v3_inf/v3_0 in [0.7606898534" in out

    def test_batch_json(self, capsys):
        code, out, _ = run_cli(
            ["join", "--p", "13", "--q", "8", "--w-bound", "3", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert [d["regular"] for d in data] == [False, False, False]

    def test_k_list(self, capsys):
        code, out, _ = run_cli(
            ["join", "--p", "13", "--q", "8", "--k-list", "2,3/2"], capsys)
        assert code == 0
        assert "w=(34,11)" in out and "w=(43,22)" in out

    def test_usage_errors(self, capsys):
        for argv in (
            ["join", "--p", "13", "--q", "8"],
            ["join", "--p", "13", "--q", "8", "--k", "2", "--w", "34,11"],
            ["join", "--p", "2", "--q", "1", "--k", "2"],
            ["join", "--p", "13", "--q", "8", "--w", "34;11"],
            ["join", "--p", "13", "--q", "8", "--k", "zebra"],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 2, argv
            assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["join", "--p", "13", "--q", "8"],
        ["join", "--p", "13", "--q", "8", "--json"],
        ["export", "--p", "13", "--q", "8", "--format", "json"],
    ])
    def test_w_bound_limit(self, argv, capsys, monkeypatch):
        def reached(*args):
            raise AssertionError("a record was built above the bound")
        monkeypatch.setattr(catalog, "_assemble", reached)
        code, out, err = run_cli(argv + ["--w-bound", str(MAX_W_BOUND + 1)], capsys)
        assert (code, out) == (2, "")
        assert "--w-bound must be <= 200" in err
        batches = []
        monkeypatch.setattr(cli, "enumerate_joins",
                            lambda sol, w_bound: batches.append(w_bound) or [])
        code, _, _ = run_cli(argv + ["--w-bound", str(MAX_W_BOUND)], capsys)
        assert (code, batches) == (0, [MAX_W_BOUND])

    def test_failed_profile_check_becomes_error_record(self, capsys, monkeypatch):
        monkeypatch.setattr(metric, "sturm_positive_on", lambda f, lo, hi: False)
        code, out, _ = run_cli(
            ["join", "--p", "13", "--q", "8", "--k-list", "2,3", "--json"], capsys)
        assert code == 1
        data = json.loads(out)
        assert [d["w"] for d in data] == [["17", "3"], ["34", "11"]]
        assert [d["error"] for d in data] == [
            "ConsistencyError: profile is not positive on (-1, 1)"] * 2

    def test_argparse_rejects_unknown_flag(self, capsys):
        code, _, _ = run_cli(["join", "--nope"], capsys)
        assert code == 2


class TestCliFamily:
    def test_t1(self, capsys):
        code, out, _ = run_cli(["family", "--t", "1"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "k2=265"
        assert "l=(319,4)" in out
        assert "n=16269" in out

    def test_k2_base_shows_witnesses(self, capsys):
        code, out, _ = run_cli(["family", "--k2", "0"], capsys)
        assert code == 0
        assert "smooth: false  witnesses [(0, 2, 3)]" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(["family", "--t", "1", "--json"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["l1"] == "319" and d["n"] == "16269"
        assert d["F_coeffs"] == FAMILY_F

    def test_usage(self, capsys):
        assert run_cli(["family"], capsys)[0] == 2
        assert run_cli(["family", "--t", "1", "--k2", "10"], capsys)[0] == 2


class TestCliVerify:
    def test_pass(self, capsys):
        code, out, _ = run_cli(["verify-paper"], capsys)
        assert code == 0
        assert out.strip() == "PASS: 103 checks"

    def test_corrupt_fails_with_field_name(self, capsys):
        code, out, _ = run_cli(["verify-paper", "--corrupt", "A.n"], capsys)
        assert code == 1
        assert out.splitlines() == ["FAIL A.n: expected 749, got 748",
                                    "FAIL: 1 of 103 checks failed"]

    def test_corrupt_unknown_name_is_usage_error(self, capsys):
        code, out, err = run_cli(["verify-paper", "--corrupt", "nope"], capsys)
        assert code == 2
        assert out == ""
        assert "no check is named 'nope'" in err


class TestCliProfileAndExport:
    def test_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "t1.json"
        code, _, _ = run_cli(
            ["export", "--family-t", "1", "--format", "json", "--out", str(path)],
            capsys)
        assert code == 0
        code, out, _ = run_cli(
            ["profile", "--record", str(path), "--grid", "4"], capsys)
        assert code == 0
        assert "F coefficients: %s" % (FAMILY_F,) in out
        assert "-1/2         25/816" in out
        assert "0            5/144" in out

    def test_decimal_column(self, tmp_path, capsys):
        path = tmp_path / "t1.json"
        run_cli(["export", "--family-t", "1", "--format", "json", "--out", str(path)],
                capsys)
        code, out, _ = run_cli(
            ["profile", "--record", str(path), "--grid", "2", "--decimal"], capsys)
        assert code == 0
        assert "0.03472222222222222222222222222222222222222222222222" in out

    def test_profile_grid_bound(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "t1.json"
        run_cli(["export", "--family-t", "1", "--format", "json", "--out", str(path)],
                capsys)
        steps = []
        monkeypatch.setattr(CalabiProfile, "grid", lambda self, n: steps.append(n) or [])
        code, out, err = run_cli(
            ["profile", "--record", str(path), "--grid", str(MAX_GRID + 1)], capsys)
        assert (code, out, steps) == (2, "", [])
        assert "--grid must be <= 100000" in err
        code, _, _ = run_cli(
            ["profile", "--record", str(path), "--grid", str(MAX_GRID)], capsys)
        assert (code, steps) == (0, [MAX_GRID])

    def test_profile_without_ke_data(self, tmp_path, capsys):
        path = tmp_path / "irr.json"
        run_cli(["export", "--p", "13", "--q", "8", "--w", "2,1",
                 "--format", "json", "--out", str(path)], capsys)
        code, _, err = run_cli(["profile", "--record", str(path)], capsys)
        assert code == 1
        assert "no Einstein profile" in err

    def test_profile_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["profile", "--record", str(tmp_path / "absent.json")], capsys)
        assert code == 1
        assert "cannot read" in err

    def test_profile_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_cli(["profile", "--record", str(path)], capsys)
        assert code == 2

    def test_export_stdout_json(self, capsys):
        code, out, _ = run_cli(
            ["export", "--p", "13", "--q", "8", "--k", "2", "--format", "json"],
            capsys)
        assert code == 0
        assert json.loads(out)[0]["b"] == "78540"

    def test_export_family_range_csv(self, capsys):
        code, out, _ = run_cli(
            ["export", "--family-t", "1:3", "--format", "csv"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 4
        assert "16269" in out

    def test_export_deterministic(self, capsys):
        argv = ["export", "--p", "13", "--q", "8", "--w-bound", "4",
                "--format", "json"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_export_unwritable(self, capsys):
        code, _, err = run_cli(
            ["export", "--family-t", "1", "--format", "json",
             "--out", "/nonexistent/x.json"], capsys)
        assert code == 1
        assert "cannot write" in err

    def test_error_records_exit_1(self, monkeypatch, capsys):
        real = catalog._assemble

        def flaky(s, w1, w2):
            if (w1, w2) == (3, 2):
                raise DomainError("forced failure")
            return real(s, w1, w2)

        monkeypatch.setattr(catalog, "_assemble", flaky)
        flags = ["--p", "13", "--q", "8", "--w-bound", "3"]
        code, out, _ = run_cli(["join"] + flags, capsys)
        assert code == 1
        assert "error: forced failure" in out
        code, out, _ = run_cli(["export"] + flags + ["--format", "json"], capsys)
        assert code == 1
        assert [d["error"] for d in json.loads(out)] == [None, None, "forced failure"]

    @pytest.mark.parametrize("argv", [
        ["join", "--p", "13", "--q", "8", "--k", "2", "--digits", "0"],
        ["family", "--t", "1", "--digits", "-1"],
        ["join", "--p", "13", "--q", "8", "--w", "5,2", "--digits", "0"],
        ["export", "--family-t", "1", "--format", "json", "--digits", "0"],
    ])
    def test_digits_below_one_is_usage_error(self, argv, monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("a record was built")

        monkeypatch.setattr(catalog, "_assemble", unreachable)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "--digits must be >= 1" in err

    @pytest.mark.parametrize("digits", ["4301", "5000"])
    @pytest.mark.parametrize("argv", [
        ["join", "--p", "13", "--q", "8", "--w", "5,2"],
        ["family", "--t", "1"],
        ["export", "--family-t", "1", "--format", "json"],
    ])
    def test_digits_above_int_str_limit_is_usage_error(self, argv, digits,
                                                       monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("a record was built")

        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        monkeypatch.setattr(catalog, "_assemble", unreachable)
        code, out, err = run_cli(argv + ["--digits", digits], capsys)
        assert code == 2
        assert out == ""
        assert "--digits must be <= 4300" in err

    def test_digits_unbounded_without_int_str_limit(self, monkeypatch, capsys):
        # the family record is rational, so --digits does not change its bytes
        _, expected, _ = run_cli(["family", "--t", "1"], capsys)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        code, out, _ = run_cli(["family", "--t", "1", "--digits", "5000"], capsys)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("text", [
        '{"F_coeffs": "abc", "r3": "1/2", "m_vector": ["1", "1", "2", "3", "4", "5"]}',
        '{"F_coeffs": ["1"], "r3": "1/2", "m_vector": ["1"]}',
        '{"F_coeffs": ["1"], "r3": [1], "m_vector": ["1", "1", "2", "3", "4", "5"]}',
        '[1]',
        '{"F_coeffs": ["1"], "r3": "1/0", "m_vector": ["1", "1", "2", "3", "4", "5"]}',
        '{"F_coeffs": ["1", "1", "1", "1", "1", "1"], "r3": "1/2",'
        ' "m_vector": ["1", "1", "2", "3", "4", "5"]}',
        '{"F_coeffs": "12345", "r3": "1/2", "m_vector": ["1", "1", "2", "3", "4", "5"]}',
        '{"F_coeffs": ["1"], "r3": "1/2", "m_vector": "112345"}',
        '{"F_coeffs": ["1"], "r3": "1/2", "m_vector": ["1", "1", "2", "3", "4", "5", "6"]}',
        '{"F_coeffs": ["1"], "r3": "1/2", "m_vector": ["1", "1", "2", "3", "0", "5"]}',
    ], ids=["coeffs-text", "short-m-vector", "r3-list", "not-an-object", "r3-zero-den",
            "six-coeffs", "coeffs-digit-text", "m-vector-text", "seven-m-vector",
            "zero-fiber"])
    def test_profile_malformed_record_is_usage_error(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(["profile", "--record", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_family_range_bound(self, capsys, monkeypatch):
        def reached(k2):
            raise AssertionError("a record was built above the bound")
        monkeypatch.setattr(cli, "family_record", reached)
        for text in ("1:%d" % (MAX_FAMILY + 1), "0:%d" % 10**30):
            code, out, err = run_cli(
                ["export", "--family-t", text, "--format", "json"], capsys)
            assert (code, out) == (2, "")
            assert "--family-t must span at most 10000 steps" in err
        rec, steps = family_record(10), []
        monkeypatch.setattr(cli, "family_record", lambda k2: steps.append(k2) or rec)
        monkeypatch.setattr(cli, "export_records", lambda records, fmt, digits: "")
        code, _, _ = run_cli(
            ["export", "--family-t", "1:%d" % MAX_FAMILY, "--format", "json"], capsys)
        assert (code, len(steps)) == (0, MAX_FAMILY)

    def test_export_flag_conflicts(self, capsys):
        code, _, err = run_cli(
            ["export", "--p", "13", "--q", "8", "--k", "2",
             "--family-t", "1", "--format", "json"], capsys)
        assert code == 2
        code, _, err = run_cli(["export", "--format", "json"], capsys)
        assert code == 2
        code, _, _ = run_cli(
            ["export", "--family-t", "3:1", "--format", "json"], capsys)
        assert code == 2
