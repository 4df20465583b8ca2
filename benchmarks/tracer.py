"""Timing and counting wrappers for the traced benchmark run.

The wrappers live here, not in the package: ``Tracer.install`` replaces each
function listed in ``WRAPPED`` by a wrapper and ``uninstall`` puts the
originals back.  A module-level function is replaced in every sejoin module
namespace that bound it, because ``from .kernel import real_roots`` copies
the reference into the importing module.  Methods are replaced on their
class.

A span records (name, start, end, parent span, operation index); spans stay
in memory until the run writes them out.  A span's self time is its duration
minus the durations of its child spans; a single thread runs everything, so
children never overlap.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

# (span or counter name, sejoin submodule, attribute, kind).  "count" wrappers
# only count calls; their time stays in the enclosing span.
WRAPPED = (
    ("kernel.poly_eval", "kernel", "Polynomial.__call__", "count"),
    ("kernel.sturm_chain", "kernel", "sturm_chain", "count"),
    ("kernel.real_roots", "kernel", "real_roots", "span"),
    ("kernel.refine", "kernel", "AlgebraicRoot.refined_interval", "span"),
    ("kernel.algebraic_root", "kernel", "AlgebraicRoot.__init__", "span"),
    ("kernel.decimal_bounds", "kernel", "AlgebraicRoot.decimal_bounds", "span"),
    ("ypq.solve", "ypq", "solve", "span"),
    ("ypq.ray_ratio", "ypq", "ray_ratio", "span"),
    ("join.canonical_l", "join", "canonical_l", "span"),
    ("join.se_ray_from_w", "join", "se_ray_from_w", "span"),
    ("join.w_from_k", "join", "w_from_k", "span"),
    ("join.smoothness_check", "join", "smoothness_check", "span"),
    ("join.quotient_orbifold", "join", "quotient_orbifold", "span"),
    ("bott.is_log_fano", "bott", "is_log_fano", "span"),
    ("topology.h4_torsion", "topology", "h4_torsion", "span"),
    ("metric.r3_from_ray", "metric", "r3_from_ray", "span"),
    ("metric.ke_conditions", "metric", "ke_conditions", "span"),
    ("metric.ke_profile", "metric", "ke_profile", "span"),
    ("catalog.build_record", "catalog", "build_record", "span"),
    ("catalog.enumerate_ypq", "catalog", "enumerate_ypq", "span"),
    ("catalog.enumerate_joins", "catalog", "enumerate_joins", "span"),
    ("catalog.record_to_dict", "catalog", "record_to_dict", "span"),
    ("catalog.export_records", "catalog", "export_records", "span"),
    ("catalog.write_export", "catalog", "write_export", "span"),
    ("cli.main", "cli", "main", "span"),
)

# the callers whose kept root is measured against the roots real_roots refined
ROOT_CONSUMERS = ("join.se_ray_from_w", "ypq.ray_ratio")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op]
        self.counts = Counter()
        self.rebound = {}  # wrapped name -> namespaces patched
        self.op = -1
        self._stack = []
        self._undo = []
        self._algebraic = None

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so that each call records a span and a call count."""
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            index = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(index)
            counts[calls] += 1
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result)
                return result
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # derived counts, taken where the work happens
    def _inside(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self._stack[:-1])

    def _on_real_roots(self, roots):
        if self._inside(ROOT_CONSUMERS):
            self.counts["kernel.roots_refined"] += sum(
                isinstance(r, self._algebraic) for r in roots)

    def _on_se_ray(self, ray):
        self.counts["join.regular"] += ray.quasi_regular
        self.counts["kernel.roots_kept"] += isinstance(ray.k, self._algebraic)

    def _on_ray_ratio(self, result):
        ratio = result[0]
        self.counts["ypq.rational"] += isinstance(ratio, Fraction)
        self.counts["kernel.roots_kept"] += isinstance(ratio, self._algebraic)

    def _on_enumerate_joins(self, records):
        self.counts["catalog.error_records"] += sum(r.error is not None for r in records)

    def _on_export_records(self, text):
        # the CLI is the only caller; it writes this text to a file or stdout
        self.counts["cli.output_bytes"] += len(text.encode())

    def install(self, modules: dict) -> None:
        """Wrap every ``WRAPPED`` entry; ``modules`` maps the short names in
        ``WRAPPED`` to the imported sejoin submodules."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        self._algebraic = modules["kernel"].AlgebraicRoot
        hooks = {
            "kernel.real_roots": self._on_real_roots,
            "join.se_ray_from_w": self._on_se_ray,
            "ypq.ray_ratio": self._on_ray_ratio,
            "catalog.enumerate_joins": self._on_enumerate_joins,
            "catalog.export_records": self._on_export_records,
        }
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "sejoin" or n.startswith("sejoin.")]
        for name, module, attr, kind in WRAPPED:
            owner = modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                targets = [getattr(owner, cls_name)]
                original = vars(targets[0])[attr]
            else:
                targets = namespaces
                original = getattr(owner, attr)
            if kind == "span":
                wrapper = self.span(name, original, hooks.get(name))
            else:
                wrapper = self.counter(name, original)
            patched = 0
            for ns in targets:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, original))
                        patched += 1
            self.rebound[name] = patched

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    def self_times(self) -> Counter:
        """Self time in ns by span name, and by layer (the name's prefix)."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = end - start - child[i]
            out[name] += own
            out[name.split(".")[0]] += own
        return out

    def inclusive_times(self) -> Counter:
        """Total ns inside each span name, counting nested same-name spans once."""
        out = Counter()
        for name, start, end, parent, _ in self.spans:
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                out[name] += end - start
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent_id", "op"],
            "spans": [[i] + rec for i, rec in enumerate(self.spans)],
            "counts": dict(sorted(self.counts.items())),
            "rebound_namespaces": self.rebound,
        }
