"""Per-layer tracing of one svmpath CLI invocation, from outside the package.

The tracer replaces the module attributes through which one layer of
svmpath calls the next with timing wrappers, and puts the originals back on
`restore`. Nothing under `src/` knows about it. A wrapper sits on the name in
the *calling* module's namespace (for example `svmpath.sweep.solve_reduced_distance`
times the solves the sweep layer asks for), so each span records a crossing
between two layers. A few spans sit on names that a module looks up in its
own globals (`construct.facet_strictness_check`, `goldfarb._shadow_data`,
`sweep.sweep_grid`, `sweep._refine`); they split one layer's time into its
stages: strictness check, shadow hull, grid and refinement.

Spans are kept in memory as per-name call counts and seconds. Seconds are
inclusive: `construct.pair` contains `goldfarb.shadow_cert`, `qp.solve`
contains `geometry.*`. A recursive span (`sweep.refine`) counts the time of
its outermost call only. `outer_s` is the time inside spans that no other
span encloses, so wall time minus `outer_s` is the CLI's own share.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from collections import Counter
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name). Several attributes may feed one span.
WRAPS = (
    ("svmpath.cli", "read_instance", "instance_io.read"),
    ("svmpath.cli", "write_instance", "instance_io.write"),
    ("svmpath.cli", "regenerate", "instance_io.regenerate"),
    ("svmpath.cli", "choose_stretch", "construct.stretch_search"),
    ("svmpath.cli", "build_instance", "construct.build_instance"),
    ("svmpath.instance_io", "build_instance", "construct.build_instance"),
    ("svmpath.cli", "admissible_constructions", "construct.constructions"),
    ("svmpath.construct", "admissible_constructions", "construct.constructions"),
    ("svmpath.construct", "build_pair", "construct.pair"),
    ("svmpath.construct", "facet_strictness_check", "construct.strictness"),
    ("svmpath.construct", "support_decomposition", "construct.decomposition"),
    ("svmpath.construct", "shadow_certificate", "goldfarb.shadow_cert"),
    ("svmpath.goldfarb", "_shadow_data", "goldfarb.hull"),
    # choose_stretch imports build_kkt_certificate from svmpath.qp at call time
    ("svmpath.cli", "build_kkt_certificate", "qp.kkt_cert"),
    ("svmpath.qp", "build_kkt_certificate", "qp.kkt_cert"),
    ("svmpath.sweep", "solve_reduced_distance", "qp.solve"),
    ("svmpath.qp", "solve_linear_system", "geometry.linear_solve"),
    ("svmpath.qp", "solve_linear_system_general", "geometry.singular_fallback"),
    ("svmpath.cli", "sweep_refined", "sweep.refined"),
    ("svmpath.cli", "sweep_constructed", "sweep.constructed"),
    ("svmpath.sweep", "sweep_grid", "sweep.grid"),
    ("svmpath.sweep", "_refine", "sweep.refine"),
    ("svmpath.cli", "write_sweep_report", "report_io.write"),
)

# Counts that a traced invocation must repeat exactly for the same inputs.
DETERMINISTIC = (
    "qp.solve_calls",
    "geometry.linear_solves",
    "geometry.singular_fallbacks",
    "qp.max_coeff_bits",
    "construct.strictness_calls",
    "sweep.grid_solves",
    "sweep.refine_solves",
)

P90_MIN_SOLVES = 100


def _bits(x) -> int:
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Wraps the layer crossings listed in WRAPS and aggregates their spans."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.active = Counter()
        self.depth = 0
        self.outer_s = 0.0
        self.solve_ms = []
        self.counts = Counter()
        self.max_coeff_bits = 0
        self._saved = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, span: str, fn):
        after = getattr(self, "_after_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span, perf_counter() - start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _enter(self, span: str) -> None:
        self.active[span] += 1
        self.depth += 1
        if span == "qp.solve":
            if self.active["sweep.grid"]:
                self.counts["sweep.grid_solves"] += 1
            if self.active["sweep.refine"]:
                self.counts["sweep.refine_solves"] += 1
        elif span == "construct.constructions" and self.active["construct.stretch_search"]:
            self.counts["construct.stretch_tries"] += 1

    def _leave(self, span: str, dt: float) -> None:
        self.active[span] -= 1
        self.depth -= 1
        self.calls[span] += 1
        if not self.active[span]:
            self.seconds[span] += dt
        if not self.depth:
            self.outer_s += dt
        if span == "qp.solve":
            self.solve_ms.append(dt * 1000)

    def _after_qp_solve(self, args, kwargs, pair) -> None:
        if kwargs.get("start", args[1] if len(args) > 1 else None) is not None:
            self.counts["qp.warm_calls"] += 1
        bits = max(_bits(a) for a in (*pair.alpha_plus, *pair.alpha_minus, pair.objective))
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def _after_instance_io_read(self, args, kwargs, result) -> None:
        self.counts["instance_io.bytes"] += os.path.getsize(args[0])

    def _after_instance_io_write(self, args, kwargs, result) -> None:
        self.counts["instance_io.bytes"] += os.path.getsize(args[1])

    def _after_report_io_write(self, args, kwargs, result) -> None:
        self.counts["report_io.bytes"] += os.path.getsize(args[1])

    def _after_sweep_refined(self, args, kwargs, report) -> None:
        self.counts["sweep.distinct"] += report.distinct_support_sets

    _after_sweep_constructed = _after_sweep_refined

    def summary(self) -> dict:
        """Per-layer metrics of everything traced so far, except wall-based ones."""
        s, c, n = self.seconds, self.counts, self.calls
        solves = n["qp.solve"]
        sweep_s = s["sweep.refined"] + s["sweep.constructed"]
        ms = self.solve_ms
        return {
            "goldfarb.shadow_cert_calls": n["goldfarb.shadow_cert"],
            "goldfarb.shadow_cert_s": s["goldfarb.shadow_cert"],
            "goldfarb.hull_s": s["goldfarb.hull"],
            "construct.stretch_search_s": s["construct.stretch_search"],
            "construct.stretch_tries": c["construct.stretch_tries"],
            "construct.strictness_calls": n["construct.strictness"],
            "construct.strictness_s": s["construct.strictness"],
            "construct.pair_s": s["construct.pair"],
            "construct.decomposition_s": s["construct.decomposition"],
            "construct.build_instance_s": s["construct.build_instance"],
            "qp.solve_calls": solves,
            "qp.warm_calls": c["qp.warm_calls"],
            "qp.solve_s": s["qp.solve"],
            "qp.solve_ms.p50": statistics.median(ms) if ms else 0.0,
            "qp.solve_ms.p90": (
                statistics.quantiles(ms, n=10)[8] if len(ms) >= P90_MIN_SOLVES else 0.0
            ),
            "qp.kkt_cert_s": s["qp.kkt_cert"],
            "qp.max_coeff_bits": self.max_coeff_bits,
            "geometry.linear_solves": n["geometry.linear_solve"],
            "geometry.linear_solve_s": s["geometry.linear_solve"],
            "geometry.singular_fallbacks": n["geometry.singular_fallback"],
            "geometry.singular_fallback_s": s["geometry.singular_fallback"],
            "sweep.grid_s": s["sweep.grid"],
            "sweep.grid_solves": c["sweep.grid_solves"],
            "sweep.refine_s": s["sweep.refine"],
            "sweep.refine_solves": c["sweep.refine_solves"],
            "sweep.constructed_s": s["sweep.constructed"],
            "sweep.self_s": sweep_s - s["qp.solve"] if sweep_s else 0.0,
            "sweep.distinct_per_solve": (
                c["sweep.distinct"] / solves if solves else 0.0
            ),
            "instance_io.read_s": s["instance_io.read"],
            "instance_io.write_s": s["instance_io.write"],
            "instance_io.regenerate_s": s["instance_io.regenerate"],
            "instance_io.bytes": c["instance_io.bytes"],
            "report_io.write_s": s["report_io.write"],
            "report_io.bytes": c["report_io.bytes"],
            "outer_s": self.outer_s,
        }
