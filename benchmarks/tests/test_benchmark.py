"""Tests of the benchmark itself (not of sejoin).

    python3 -m pytest benchmarks/tests

Each traced workload pass takes a few seconds; the whole file runs in well
under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import signal

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def mods():
    sys.path.insert(0, str(run.ROOT / "src"))
    return run.import_sejoin()


@pytest.fixture()
def out_path(tmp_path):
    return str(tmp_path / "export.json")


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_a_function_of_the_seed(name, out_path):
    first = workloads.make(name, 7, out_path)
    assert first.ops == workloads.make(name, 7, out_path).ops
    assert first.ops != workloads.make(name, 8, out_path).ops


def _work(wl):
    if wl.name == "ypq-census":
        return sorted(p for p, _ in wl.ops)  # the pairs differ, the number per p does not
    return sorted(wl.ops)  # only the order differs


@pytest.mark.parametrize("name", NAMES)
def test_work_per_pass_does_not_depend_on_the_seed(name, out_path):
    assert _work(workloads.make(name, 1, out_path)) == _work(workloads.make(name, 2, out_path))


def test_clock_counts_a_call_in_probes_and_disarms_its_timer():
    clock = speed.Clock()
    clock.time(lambda: [speed.probe() for _ in range(40)])  # a few ticks fire here
    assert 30 < clock.probes < 50
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_corruption_self_test_rejects_every_corruption(mods):
    assert run.self_test(mods) == []


def test_checker_rejects_flipped_digit_and_wrong_v3(mods):
    irregular, regular, _ = run.checker_samples(mods)
    lo, hi = irregular["k_interval"]
    bad = dict(irregular, k_interval=[lo[:-5] + str((int(lo[-5]) + 1) % 10) + lo[-4:], hi])
    with pytest.raises(checker.CheckError, match="k"):
        checker.check_record(bad, 13, 8, workloads.DIGITS)
    bad = dict(regular, v3=["18", "11"])
    with pytest.raises(checker.CheckError, match="v3"):
        checker.check_record(bad, 13, 8, workloads.DIGITS)


def test_checker_agrees_with_the_golden_record(mods):
    _, regular, _ = run.checker_samples(mods)
    assert regular["v3"] == ["17", "11"] and regular["b"] == "78540"
    checker.check_record(regular, 13, 8, workloads.DIGITS, k=Fraction(2))


def test_wrappers_rebind_every_namespace_and_come_off(mods):
    original = mods.join.se_ray_from_w
    tr = tracer.Tracer()
    tr.install({m: getattr(mods, m) for m in run.MODULES})
    try:
        import sejoin
        assert mods.catalog.se_ray_from_w is not original
        assert mods.catalog.se_ray_from_w is mods.join.se_ray_from_w is sejoin.se_ray_from_w
        # join, catalog and the package namespace all bound it
        assert tr.rebound["join.se_ray_from_w"] == 3
        assert all(tr.rebound[name] for name, _, _, _ in tracer.WRAPPED)
    finally:
        tr.uninstall()
    assert mods.catalog.se_ray_from_w is original is mods.join.se_ray_from_w


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_hits_what_the_workload_claims(name, mods, out_path):
    wl = workloads.make(name, 3, out_path)
    tally = run.Tally()
    tr = run.trace_pass(wl, mods, None, tally)
    assert tally.failed == 0
    counts = tr.counts
    assert [n for n in wl.exercises if not counts[n + ".calls"]] == []
    assert [n for n in wl.bypasses if counts[n + ".calls"]] == []
    # self time is never negative and the spans nest inside their parents
    assert min(tr.self_times().values()) >= 0
    for _, start, end, parent, _ in tr.spans:
        if parent >= 0:
            assert tr.spans[parent][1] <= start <= end <= tr.spans[parent][2]
    # counts repeat exactly
    tr2 = run.trace_pass(wl, mods, None, run.Tally())
    assert tr2.counts == counts


def test_digest_repeats_for_a_seed(mods, out_path):
    wl = workloads.make("ypq-census", 5, out_path)
    setup_out = wl.setup(mods)
    digests = [run.digest(setup_out, run.run_pass(wl, mods, None, run.Tally()))
               for _ in range(2)]
    assert digests[0] == digests[1]


def test_result_line_and_benchmark_json_agree(monkeypatch):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    monkeypatch.setattr(run, "MIN_OPS", 20)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(["--workload", "ypq-census", "--seed", "1", "--seconds", "0",
                         "--trace", "0"]) == 0
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_package_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "rational-k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
