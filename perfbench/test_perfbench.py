"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest perfbench
"""

import importlib
import json
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest

import reference
import run
from tracer import DETERMINISTIC, WRAPS, Tracer

sys.path.insert(0, str(run.SRC))

SMALL = {
    "generate": ({"d": 4, "eps": "1/3", "gamma": "1/16"}, 4),
    "certify": ({"d": 4, "eps": "3/8", "gamma": "1/16"}, 4),
    "path": ({"d": 4, "eps": "1/3", "gamma": "1/15"}, 4),
    "arc": ({"n_plus": 8, "mu_lo": "51/100"}, None),
}


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_runs_repeat_counts_and_outputs(name, tmp_path):
    inputs, d = SMALL[name]
    tally = run.Tally(run.WORKLOADS[name], tmp_path, inputs, seed=1)
    assert tally.prep([d] if d else [])
    _, plain = tally.run(d, "untraced")
    first, traced = tally.run(d, "traced", trace=True)
    second, again = tally.run(d, "traced again", trace=True)
    assert tally.failed == 0, tally.messages
    assert plain is not None and plain == traced == again
    assert {k: first.trace[k] for k in DETERMINISTIC} == {k: second.trace[k] for k in DETERMINISTIC}


def test_trace_counts_the_work_done(tmp_path):
    inputs, d = SMALL["path"]
    tally = run.Tally(run.WORKLOADS["path"], tmp_path, inputs, seed=1)
    assert tally.prep([d])
    inv, out = tally.run(d, "traced", trace=True)
    t = inv.trace
    assert t["sweep.grid_solves"] == run.SWEEP_STEPS
    solves = t["qp.solve_calls"]
    assert solves == len(out["rows"]) == t["sweep.grid_solves"] + t["sweep.refine_solves"]
    assert t["qp.warm_calls"] == t["qp.solve_calls"] - 1
    assert t["sweep.distinct_per_solve"] == out["distinct"] / t["qp.solve_calls"]
    assert t["geometry.linear_solves"] > 0 and t["qp.max_coeff_bits"] > 0
    assert t["report_io.bytes"] == (tmp_path / "report.json").stat().st_size
    assert 0 < t["outer_s"] < inv.wall_s


def test_tracer_restores_every_attribute(tmp_path):
    import svmpath.cli

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in WRAPS}
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="stop"):
        with tracer:
            assert all(getattr(importlib.import_module(m), a) is not f
                       for (m, a), f in originals.items())
            assert svmpath.cli.main(["gen", "--d", "3", "--out", str(tmp_path / "d3.inst")]) == 0
            raise RuntimeError("stop")
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in originals.items())
    assert tracer.summary()["construct.strictness_calls"] == 2


def test_timed_run_scales_by_the_probe_during_each_invocation(tmp_path):
    inputs, d = SMALL["arc"]
    tally = run.Tally(run.WORKLOADS["arc"], tmp_path, inputs, seed=1)
    metrics, s = run.timed_run(tally, seconds=1)
    assert tally.failed == 0, tally.messages
    assert len(s["wall_s"]) == len(s["raw_wall_s"]) == len(s["probe_s"]) >= 1
    for scaled, raw, probe in zip(s["wall_s"], s["raw_wall_s"], s["probe_s"]):
        assert probe > 0
        assert scaled == pytest.approx(raw * run.PROBE_NOMINAL_S / probe)
    assert metrics["wall_s"] == statistics.median(s["wall_s"])
    assert len(s["setup_s"]) == run.SETUP_SPAWNS + len(s["raw_wall_s"])


def test_probe_solves_its_system():
    x = reference.solve(reference.ROWS)
    assert all(sum(r[j] * x[j] for j in range(reference.N)) == r[-1] for r in reference.ROWS)
    assert reference.probe() > 0


def test_seed_inputs():
    assert run.derive_inputs("certify", 0) == {"d": 7, "eps": "1/3", "gamma": "1/16"}
    assert run.derive_inputs("arc", 0)["n_plus"] == 60
    for eps, gamma in run.PAIRS:
        assert 0 < 4 * Fraction(gamma) < Fraction(eps) < Fraction(1, 2)
    for seed in range(1, 30):
        assert run.derive_inputs("path", seed) == run.derive_inputs("path", seed)
        assert run.derive_inputs("arc", seed)["n_plus"] in run.ARC_N_PLUS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])
