"""sejoin benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sejoin is imported from ``src/`` of
that checkout and from nowhere else.  One process, one thread, a closed loop
with a single caller.

With ``--trace 0`` the run measures the end-to-end metrics: it repeats whole
passes over the workload's operations while the next one still fits in
``--seconds``, and until at least ``MIN_OPS`` operations are timed.  Every
operation and set-up is timed against the host-speed probe of ``speed.py``,
and the metrics give times at the probe's reference speed.  With
``--trace 1`` it times one untraced pass, then one pass with the wrappers of
``tracer.py`` installed, and reports the per-layer metrics of that traced
pass; the spans and counts go to ``benchmarks/out/``.

Before anything is timed the run checks ``verify_paper_examples()``, runs the
checker's corruption self-test and makes one reference pass whose every
output goes through the independent checker.  Timed passes then compare the
digest of each output with the reference.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED, Tracer  # noqa: E402

MIN_OPS = 200  # operations timed per run at the least, whatever --seconds says
SETUP_REPS = 3  # set-ups before the first pass; one more follows each timed pass
MODULES = ("kernel", "ypq", "join", "bott", "topology", "metric", "catalog", "cli")

END_TO_END = (
    ("records_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SPAN_METRICS = (
    "kernel.real_roots", "kernel.refine", "kernel.algebraic_root", "kernel.decimal_bounds",
    "ypq.solve", "ypq.ray_ratio", "join.se_ray_from_w", "join.w_from_k",
    "join.smoothness_check", "join.quotient_orbifold", "bott.is_log_fano",
    "topology.h4_torsion", "metric.ke_conditions", "metric.ke_profile",
    "catalog.build_record", "catalog.enumerate_joins", "catalog.record_to_dict",
    "catalog.export_records", "cli.main",
)
_CALL_METRICS = (
    "kernel.poly_eval", "kernel.real_roots", "kernel.refine", "kernel.sturm_chain",
    "kernel.decimal_bounds", "ypq.solve", "ypq.ray_ratio", "join.se_ray_from_w",
    "bott.is_log_fano", "topology.h4_torsion", "metric.ke_profile",
    "catalog.record_to_dict",
)
PER_LAYER = (
    tuple((name + ".calls", "count") for name in _CALL_METRICS)
    + (("kernel.algebraic_root.builds", "count"),)
    + tuple((name + ".self_s", "s") for name in _SPAN_METRICS)
    + tuple((layer + ".self_s", "s") for layer in MODULES)
    + (
        ("kernel.poly_eval_per_op", "count"),
        ("kernel.roots_useful_ratio", "ratio"),
        ("ypq.rational_ratio", "ratio"),
        ("join.regular_ratio", "ratio"),
        ("catalog.error_records", "count"),
        ("cli.output_bytes", "bytes"),
        ("trace.overhead_frac", "ratio"),
        ("ops_failed_frac", "ratio"),
    )
)


def import_sejoin():
    """Import sejoin afresh from ``ROOT/src``; returns its submodules."""
    for name in [n for n in sys.modules if n == "sejoin" or n.startswith("sejoin.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module("sejoin." + m) for m in MODULES})
    src = ROOT / "src"
    if Path(mods.kernel.__file__).resolve().parent.parent != src:
        raise ImportError("sejoin was imported from %s, not %s" % (mods.kernel.__file__, src))
    return mods


def set_up(wl, reps):
    """The set-up a user pays before the first operation, ``reps`` times:
    import sejoin, solve the workload's first factors, build the CLI parser.
    Returns (list of set-up times in probes, modules, set-up output)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))

    def once():
        mods = import_sejoin()
        out = wl.setup(mods)
        mods.cli.build_parser()
        return mods, out

    clock = speed.Clock()
    times = []
    for _ in range(reps):
        mods, out = clock.time(once)
        times.append(clock.probes)
    return times, mods, out


def checker_samples(mods):
    """Known-good outputs for the corruption self-test: an irregular and a
    quasi-regular record of (13, 8), and the census line of (3, 1)."""
    cat = mods.catalog
    irregular = cat.record_to_dict(cat.build_record(13, 8, w=(5, 2)))
    regular = cat.record_to_dict(cat.build_record(13, 8, k=Fraction(2)))
    ratio, _ = mods.ypq.ray_ratio(3, 1)
    census = (3, 1, ("i",) + tuple(ratio.decimal_bounds(workloads.DIGITS)))
    return irregular, regular, census


def self_test(mods) -> list:
    """Problems found before timing: the paper check and the checker's
    corruption self-test (which must reject every corrupted output)."""
    problems = []
    if not mods.catalog.verify_paper_examples().passed:
        problems.append("verify_paper_examples() failed")
    irregular, regular, census = checker_samples(mods)
    try:
        missed = checker.corruption_self_test(irregular, regular, 13, 8, census,
                                              workloads.DIGITS)
    except checker.CheckError as exc:
        problems.append("checker rejected a good output: %s" % exc)
    else:
        problems += ["checker accepted a corruption: %s" % name for name in missed]
    return problems


class Tally:
    """Latencies and outcomes of the operations of one or more passes."""

    def __init__(self):
        self.probes = {}  # operation index -> its times, in probes
        self.timed = 0
        self.wall_ns = 0
        self.attempted = 0
        self.failed = 0

    def fail(self, what, exc):
        self.failed += 1
        if self.failed <= 5:
            print("FAILED %s: %s: %s" % (what, type(exc).__name__, exc), file=sys.stderr)


def run_pass(wl, mods, ref, tally, op=None, ticks=True):
    """One pass over ``wl.ops``.  With ``ref`` None this is the reference
    pass: outputs are checked and their digests stored in a new list, which
    is returned.  Otherwise each output's digest must match ``ref``.  Each
    operation is timed in probes (``speed.Clock``)."""
    op = op or wl.run
    new_ref = [] if ref is None else None
    clock = speed.Clock(ticks)
    for i, item in enumerate(wl.ops):
        tally.attempted += 1
        try:
            out = clock.time(op, mods, item)
        except Exception as exc:  # any raise is a failed operation, not a crash
            tally.fail(item, exc)
            if new_ref is not None:
                new_ref.append(None)
            continue
        tally.probes.setdefault(i, []).append(clock.probes)
        tally.timed += 1
        tally.wall_ns += clock.wall_ns
        if new_ref is not None:
            try:
                wl.check(item, out)
            except (checker.CheckError, ValueError, KeyError, TypeError) as exc:
                tally.fail(item, exc)
                new_ref.append(None)
                continue
            new_ref.append((hashlib.sha256(out).digest(), out))
        elif ref[i] is None or hashlib.sha256(out).digest() != ref[i][0]:
            tally.fail(item, checker.CheckError("output differs from the reference pass"))
    return new_ref


def trace_pass(wl, mods, ref, tally):
    """Install the wrappers, run the workload's set-up call and one pass,
    remove the wrappers.  Returns the tracer.  No probe runs inside an
    operation, so none enters a span."""
    tracer = Tracer()
    setup_span = tracer.span("bench.setup", wl.setup)
    op_span = tracer.span("bench.op", wl.run)

    def traced_op(m, item):
        tracer.op += 1
        return op_span(m, item)

    tracer.install({m: getattr(mods, m) for m in MODULES})
    try:
        setup_span(mods)
        run_pass(wl, mods, ref, tally, traced_op, ticks=False)
        return tracer
    finally:
        tracer.uninstall()


def digest(setup_out, ref) -> str:
    h = hashlib.sha256(setup_out)
    for entry in ref:
        h.update(b"\0" if entry is None else entry[1])
    return h.hexdigest()


def op_ms(tally):
    """Each operation's median time over the passes, in ms at the reference
    speed of ``speed.py``."""
    return {i: statistics.median(t) * speed.REFERENCE_MS for i, t in tally.probes.items()}


def end_to_end(wl, tally, setup_times):
    """The end-to-end metrics, as times at the reference speed.  A pass holds
    the same operations every time, so the latency percentiles are taken over
    the operations of one pass, each at its median over the passes."""
    lat = op_ms(tally)
    records = sum(wl.records[i] for i in lat)
    return {
        "records_per_s": records / (sum(lat.values()) / 1e3),
        "op_ms_p50": statistics.median(lat.values()),
        "op_ms_p95": statistics.quantiles(lat.values(), n=20)[18],
        "setup_s": statistics.median(setup_times) * speed.REFERENCE_MS / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, ops, untraced, traced, failed_frac):
    counts = tracer.counts
    selfs = tracer.self_times()

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "builds"):
            values[name] = counts[base + ".calls"]
        elif kind == "self_s":
            values[name] = selfs[base] / 1e9
    values.update({
        "kernel.poly_eval_per_op": ratio(counts["kernel.poly_eval.calls"], ops),
        "kernel.roots_useful_ratio": ratio(counts["kernel.roots_kept"],
                                           counts["kernel.roots_refined"]),
        "ypq.rational_ratio": ratio(counts["ypq.rational"], counts["ypq.ray_ratio.calls"]),
        "join.regular_ratio": ratio(counts["join.regular"], counts["join.se_ray_from_w.calls"]),
        "catalog.error_records": counts["catalog.error_records"],
        "cli.output_bytes": counts["cli.output_bytes"],
        "trace.overhead_frac": sum(op_ms(traced).values()) / sum(op_ms(untraced).values()) - 1,
        "ops_failed_frac": failed_frac,
    })
    return values


def layer_table(tracer, total_ns) -> str:
    """Self time per layer and per span, as shares of the traced time."""
    selfs, incl = tracer.self_times(), tracer.inclusive_times()
    lines = ["%-28s %10s %7s %10s %9s" % ("span", "self_s", "self%", "incl_s", "calls")]
    names = [n for n in selfs if "." not in n] + sorted(n for n in selfs if "." in n)
    for name in names:
        lines.append("%-28s %10.4f %6.1f%% %10s %9s" % (
            name, selfs[name] / 1e9, 100 * selfs[name] / total_ns,
            "%.4f" % (incl[name] / 1e9) if "." in name else "",
            tracer.counts[name + ".calls"] if "." in name else ""))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / ("export-%d.json" % os.getpid())
    wl = workloads.make(args.workload, args.seed, str(out_path))
    try:
        setup_times, mods, setup_out = set_up(wl, SETUP_REPS)
    except ImportError as exc:
        print("cannot import sejoin from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2

    tally = Tally()
    problems = self_test(mods)
    tally.attempted += 1  # the set-up output is checked like an operation
    try:
        wl.check_setup(setup_out)
    except checker.CheckError as exc:
        tally.fail("set-up", exc)
    ref = run_pass(wl, mods, None, tally)
    run_digest = digest(setup_out, ref)

    timed, traced = Tally(), Tally()
    try:
        if args.trace:
            run_pass(wl, mods, ref, timed, ticks=False)
            tracer = trace_pass(wl, mods, ref, traced)
        else:
            # whole passes, as many as fit in --seconds
            elapsed = last = 0.0
            while elapsed + last <= args.seconds or timed.timed < MIN_OPS:
                start = perf_counter()
                run_pass(wl, mods, ref, timed)
                last = perf_counter() - start
                elapsed += last
                setup_times += set_up(wl, 1)[0]
    finally:
        if out_path.exists():
            out_path.unlink()
    for part in (timed, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed

    print("workload %s seed %d: %d ops per pass, digest %s"
          % (args.workload, args.seed, len(wl.ops), run_digest))
    for problem in problems:
        print("PROBLEM " + problem)
    if args.trace:
        values = per_layer(tracer, len(wl.ops), timed, traced, tally.failed / tally.attempted)
        units = dict(PER_LAYER)
        incl = tracer.inclusive_times()
        traced_total = incl["bench.setup"] + incl["bench.op"]
        print(layer_table(tracer, traced_total))
        print("share of traced time: join.se_ray_from_w %.1f%%, kernel.decimal_bounds %.1f%%"
              % (100 * incl["join.se_ray_from_w"] / traced_total,
                 100 * incl["kernel.decimal_bounds"] / traced_total))
        trace_path = OUT_DIR / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(dict(workload=args.workload, seed=args.seed, digest=run_digest,
                           metrics=values, **tracer.dump()), fh)
        print("spans and counts written to %s" % trace_path.relative_to(ROOT))
        missing = [name for name, _, _, _ in WRAPPED if name not in tracer.rebound
                   or not tracer.rebound[name]]
        if missing:
            problems.append("wrappers not installed: %s" % missing)
    else:
        values = end_to_end(wl, timed, setup_times)
        units = dict(END_TO_END)
        print("timed %d ops in %.3f s, %.3f s of them in the operations; %d set-ups"
              % (timed.timed, elapsed, timed.wall_ns / 1e9, len(setup_times)))
        print("host speed: the operations took %.3f times as long as at the reference speed"
              % (timed.wall_ns / 1e6 / sum(sum(t) * speed.REFERENCE_MS
                                          for t in timed.probes.values())))
    print("ops_failed_frac %.6f (%d of %d)" % (tally.failed / tally.attempted, tally.failed,
                                               tally.attempted))
    for name, value in values.items():
        print("%-32s %14.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
