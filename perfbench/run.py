"""Benchmark of the svmpath command line on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It benchmarks the package under `src/` of the checkout it sits in. NAME is
one of generate, certify, path, arc, or `all` for every workload in turn.
Each timed repetition is one CLI invocation (`svmpath gen`, `verify` or
`sweep`) in a fresh interpreter, one at a time, so the load is a closed loop
with a single client. Every output is checked exactly. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; with `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones from a traced run. README.md next to this file
says why each workload was chosen and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import reference
from tracer import DETERMINISTIC, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
# While a child runs, the runner times reference.probe every PROBE_GAP_S. A
# reported time is the measured time times PROBE_NOMINAL_S over the mean
# probe time during that child.
PROBE_GAP_S = 0.02
PROBE_NOMINAL_S = 0.001
CHILD_TIMEOUT_S = 150
SETUP_SPAWNS = 8

DIMS = {"generate": 8, "certify": 7, "path": 6}
LADDER_FROM = 3
PAPER_PAIR = ("1/3", "1/16")
# (eps, gamma) for seeds other than 0, each inside 0 < 4 gamma < eps < 1/2.
# Each certifies at the paper's stretch L = 20000 at d = 8, so every seed does
# one stretch try, and the traced counts stay close to the paper pair's: 2640
# linear solves on certify for every pair, 719 to 755 solves on path.
PAIRS = (
    ("3/8", "1/16"),
    ("1/3", "1/15"),
    ("1/3", "1/14"),
    ("5/16", "1/16"),
    ("3/8", "1/15"),
    ("2/5", "1/16"),
    ("2/5", "1/15"),
    ("5/14", "1/16"),
)
# Sweep cost grows about 3% per arc point, so the range stays narrow.
ARC_N_PLUS = range(59, 62)
ARC_MU_LO = "51/100"
SWEEP_MU_HI, SWEEP_STEPS = Fraction(1), 512  # CLI defaults

# Outputs of the parent commit at seed 0 (paper parameters, n_plus = 60).
SEED0 = {
    "generate": {"sha256": "867e5f26fc9a6b60d6fdae0f69b0476aa3708575f0e880dd01683d50fd4052ea"},
    "certify": {"digest": "2005088db27f52c6b2b2f9ebb0e332116d5a93433131006b0268287e1ff8d5dd"},
    "path": {
        "bends": 48,
        "distinct": 32,
        "digest": "78e6abe0a535aa45ce1b9ae15b10abefc86502167c05b384556af5da534ca0a6",
    },
    "arc": {
        "bends": 117,
        "distinct": 118,
        "digest": "e79c540ab20b036d587040d1da9d961ae7e9f1c7ad6cd8aaf577935ed424a655",
    },
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LADDER_METRICS = (
    "wall_s",
    "construct.strictness_s",
    "goldfarb.shadow_cert_s",
    "qp.solve_s",
    "qp.max_coeff_bits",
    "geometry.linear_solves",
)
LADDER_TO = max(DIMS.values())


def derive_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for `seed`; seed 0 is the paper's setting."""
    rng = random.Random(seed)
    if workload == "arc":
        n_plus = 60 if seed == 0 else rng.choice(ARC_N_PLUS)
        return {"n_plus": n_plus, "mu_lo": ARC_MU_LO}
    eps, gamma = PAPER_PAIR if seed == 0 else rng.choice(PAIRS)
    return {"d": DIMS[workload], "eps": eps, "gamma": gamma}


# ---------------------------------------------------------------- invocations


@dataclass
class Invocation:
    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    probe_s: float  # mean reference.probe time while it ran
    stdout: str
    stderr: str
    trace: dict | None


def _child_env() -> dict:
    env = dict(os.environ)
    # a set value switches sweep_grid to its process pool
    env.pop("SVMPATH_THREADS", None)
    return env


def _spawn(argv: list, **popen_kw) -> tuple:
    """Run argv to its end; returns (start, end, exit code, rusage, probe times).

    It blocks in wait4 rather than in Popen.wait with a timeout, which polls
    with sleeps of up to 50 ms and so rounds every measured time up to them.
    Meanwhile a thread times reference.probe every PROBE_GAP_S.
    """
    probes = []
    done = threading.Event()

    def probe_until_done():
        probes.append(reference.probe())
        while not done.wait(PROBE_GAP_S):
            probes.append(reference.probe())

    prober = threading.Thread(target=probe_until_done)
    start = time.monotonic()
    proc = subprocess.Popen(argv, env=_child_env(), **popen_kw)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    prober.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        end = time.monotonic()
        timer.cancel()
        done.set()
        prober.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage, probes


def invoke(cli_args: list, wd: Path, trace: bool = False) -> Invocation:
    """Run one CLI invocation in a fresh interpreter and wait for it."""
    ready, trace_file = wd / "ready", wd / "trace.json"
    out, err = wd / "stdout", wd / "stderr"
    for f in (ready, trace_file):
        f.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(ready), str(trace_file) if trace else "-", str(SRC)]
    with open(out, "w", encoding="utf-8") as so, open(err, "w", encoding="utf-8") as se:
        start, end, code, usage, probes = _spawn(argv + cli_args, stdout=so, stderr=se)
    setup_s = float(ready.read_text()) - start if ready.exists() else None
    return Invocation(
        code=code,
        wall_s=end - start,
        setup_s=setup_s,
        rss_mb=usage.ru_maxrss / 1024,
        probe_s=statistics.mean(probes),
        stdout=out.read_text(encoding="utf-8"),
        stderr=err.read_text(encoding="utf-8"),
        trace=json.loads(trace_file.read_text()) if trace and trace_file.exists() else None,
    )


# ------------------------------------------------------------------ workloads


def _gen_args(inputs: dict, d: int, out: Path) -> list:
    return ["gen", "--d", str(d), "--eps", inputs["eps"], "--gamma", inputs["gamma"],
            "--stretch", "auto", "--out", str(out)]


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _frac(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


class Workload:
    """How one workload prepares, invokes and checks the CLI at a given d."""

    name = ""

    def prep(self, wd: Path, inputs: dict, dims) -> list:
        """Untimed invocations that write the input files for each d."""
        return []

    def args(self, wd: Path, inputs: dict, d) -> list:
        raise NotImplementedError

    def output(self, wd: Path, inputs: dict, d, inv: Invocation):
        """Canonical exact output: equal outputs mean equal results."""
        raise NotImplementedError

    def problems(self, inputs: dict, d, seed: int, out) -> list:
        raise NotImplementedError


class Generate(Workload):
    name = "generate"

    def args(self, wd, inputs, d):
        return _gen_args(inputs, d, wd / f"gen{d}.inst")

    def output(self, wd, inputs, d, inv):
        return (wd / f"gen{d}.inst").read_text(encoding="utf-8")

    def problems(self, inputs, d, seed, text):
        from svmpath import GoldfarbParams, parse_instance, serialize_instance
        from svmpath.instance_io import InstanceFormatError

        try:
            instance = parse_instance(text)
        except InstanceFormatError as exc:
            return [f"instance file does not parse: {exc}"]
        found = []
        if serialize_instance(instance) != text:
            found.append("instance file does not round-trip")
        expected = GoldfarbParams(d, Fraction(inputs["eps"]), Fraction(inputs["gamma"]))
        if instance.params != expected:
            found.append(f"instance header {instance.params} != {expected}")
        sha = hashlib.sha256(text.encode()).hexdigest()
        if seed == 0 and d == DIMS[self.name] and sha != SEED0[self.name]["sha256"]:
            found.append(f"instance sha256 {sha} differs from the recorded one")
        return found


class Certify(Workload):
    name = "certify"

    def prep(self, wd, inputs, dims):
        return [_gen_args(inputs, d, wd / f"d{d}.inst") for d in dims]

    def args(self, wd, inputs, d):
        return ["verify", str(wd / f"d{d}.inst")]

    def output(self, wd, inputs, d, inv):
        doc = json.loads(inv.stdout)
        rows = [
            [s["sigma"], str(_frac(s["mu"])), str(_frac(s["objective"])), s["support"]]
            for s in doc.get("sigmas", [])
        ]
        return {"ok": doc.get("ok"), "certificates": doc.get("certificates"), "rows": rows}

    def problems(self, inputs, d, seed, out):
        found = []
        count = 2 ** d // 4
        if out["ok"] is not True:
            found.append("verify did not report ok")
        if out["certificates"] != count or len({r[0] for r in out["rows"]}) != count:
            found.append(f"{out['certificates']} certificates, expected {count} distinct")
        digest = _digest(out["rows"])
        if seed == 0 and d == DIMS[self.name] and digest != SEED0[self.name]["digest"]:
            found.append(f"certificate digest {digest} differs from the recorded one")
        return found


class Sweep(Workload):
    """`svmpath sweep` with the CLI defaults except --mu-lo."""

    def report(self, wd):
        return wd / "report.json"

    def output(self, wd, inputs, d, inv):
        doc = json.loads(self.report(wd).read_text(encoding="utf-8"))
        rows = [
            [str(_frac(r["mu"])), str(_frac(r["objective"])), r["support_plus"], r["support_minus"]]
            for r in doc["records"]
        ]
        return {"bend_count": doc["bend_count"], "distinct": doc["distinct_support_sets"],
                "rows": rows}

    def mu_lo(self, inputs) -> Fraction:
        raise NotImplementedError

    def lower_bound(self, inputs, d) -> int:
        raise NotImplementedError

    def problems(self, inputs, d, seed, out):
        found = []
        rows = out["rows"]
        mus = [Fraction(r[0]) for r in rows]
        objectives = [Fraction(r[1]) for r in rows]
        supports = [json.dumps(r[2:]) for r in rows]
        if any(a <= b for a, b in zip(mus, mus[1:])):
            found.append("records are not in strictly decreasing mu order")
        # the reduced hulls shrink as mu falls, so the distance cannot drop
        if any(a > b for a, b in zip(objectives, objectives[1:])):
            found.append("objective decreases as mu decreases")
        lo = self.mu_lo(inputs)
        grid = {lo + (SWEEP_MU_HI - lo) * i / (SWEEP_STEPS - 1) for i in range(SWEEP_STEPS)}
        if not grid <= set(mus):
            found.append(f"{len(grid - set(mus))} grid points missing")
        bends = sum(a != b for a, b in zip(supports, supports[1:]))
        distinct = len(set(supports))
        if (bends, distinct) != (out["bend_count"], out["distinct"]):
            found.append(f"report counts {out['bend_count']}/{out['distinct']} "
                         f"!= recount {bends}/{distinct}")
        bound = self.lower_bound(inputs, d)
        if not bends >= bound:
            found.append(f"{bends} bends, below the bound {bound}")
        if seed == 0:
            recorded = SEED0[self.name]
            digest = _digest(rows)
            if (bends, distinct) != (recorded["bends"], recorded["distinct"]):
                found.append(f"{bends} bends and {distinct} distinct sets, recorded "
                             f"{recorded['bends']} and {recorded['distinct']}")
            if digest != recorded["digest"]:
                found.append(f"record digest {digest} differs from the recorded one")
        return found


class PathSweep(Sweep):
    name = "path"

    def prep(self, wd, inputs, dims):
        return [_gen_args(inputs, d, wd / f"d{d}.inst") for d in dims]

    def args(self, wd, inputs, d):
        return ["sweep", str(wd / f"d{d}.inst"), "--out", str(self.report(wd))]

    def mu_lo(self, inputs):
        return Fraction(8, 10)

    def lower_bound(self, inputs, d):
        return 2 ** d // 4 + 1  # strictly more bends than breakpoints


class ArcSweep(Sweep):
    name = "arc"

    def prep(self, wd, inputs, dims):
        return [["gen-arc", "--n-plus", str(inputs["n_plus"]), "--out", str(wd / "arc.inst")]]

    def args(self, wd, inputs, d):
        return ["sweep", str(wd / "arc.inst"), "--mu-lo", inputs["mu_lo"],
                "--out", str(self.report(wd))]

    def mu_lo(self, inputs):
        return Fraction(inputs["mu_lo"])

    def lower_bound(self, inputs, d):
        return 2 * (inputs["n_plus"] - 3)


WORKLOADS = {w.name: w for w in (Generate(), Certify(), PathSweep(), ArcSweep())}


# ----------------------------------------------------------------------- runs


class Tally:
    """Checked invocations of one run: counts, failure reasons, first outputs."""

    def __init__(self, work: Workload, wd: Path, inputs: dict, seed: int):
        self.work, self.wd, self.inputs, self.seed = work, wd, inputs, seed
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.first_output = {}
        self.first_counts = {}

    def record(self, what: str, found: list) -> None:
        self.attempted += 1
        self.failed += bool(found)
        self.messages += [f"{what}: {p}" for p in found]

    def run(self, d, what: str, trace: bool = False) -> tuple:
        """One checked invocation at dimension d; returns (invocation, output or None).

        Besides the workload's own checks, every output must equal the first
        one at the same d (so traced equals untraced), and a traced run must
        repeat the deterministic counts of the first traced run.
        """
        work = self.work
        inv = invoke(work.args(self.wd, self.inputs, d), self.wd, trace)
        if inv.code != 0 or inv.setup_s is None or (trace and inv.trace is None):
            self.record(what, [f"exit {inv.code}: {inv.stderr.strip()[-300:]}"])
            return inv, None
        try:
            out = work.output(self.wd, self.inputs, d, inv)
            found = work.problems(self.inputs, d, self.seed, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out, found = None, [f"unreadable output: {exc!r}"]
        if out is not None and out != self.first_output.setdefault(d, out):
            found.append("output differs from the first invocation")
        if trace:
            counts = {k: inv.trace[k] for k in DETERMINISTIC}
            first = self.first_counts.setdefault(d, counts)
            found += [f"{k} {counts[k]} != {first[k]} in the first traced run"
                      for k in DETERMINISTIC if counts[k] != first[k]]
        self.record(what, found)
        return inv, (None if found else out)

    def prep(self, dims) -> bool:
        warm = invoke([], self.wd)  # compiles bytecode once, as an installed package has it
        ok = warm.code == 0
        if not ok:
            self.record("warm-up", [f"exit {warm.code}: {warm.stderr.strip()[-300:]}"])
        for args in self.work.prep(self.wd, self.inputs, dims):
            inv = invoke(args, self.wd)
            if inv.code != 0:
                ok = False
                self.record("prep " + " ".join(args[:3]),
                            [f"exit {inv.code}: {inv.stderr.strip()[-300:]}"])
        return ok


def _rounds(deadline: float):
    """Yield rounds while one more, as long as the median round so far, ends by `deadline`.

    The first round always runs.
    """
    took = []
    while True:
        start = time.monotonic()
        yield
        took.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(took) > deadline:
            return


def timed_run(tally: Tally, seconds: float) -> tuple:
    """Untraced repetitions for `seconds`; returns (metrics or None, samples)."""
    d = tally.inputs.get("d")
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": [], "raw_wall_s": [],
               "raw_setup_s": [], "probe_s": []}
    if not tally.prep([d] if d else []):
        return None, samples
    deadline = time.monotonic() + seconds

    def scaled(name: str, value: float, inv: Invocation) -> None:
        """Record `value` as measured and as scaled by the probe time during `inv`."""
        samples["raw_" + name].append(value)
        samples[name].append(value * PROBE_NOMINAL_S / inv.probe_s)

    for _ in range(SETUP_SPAWNS):
        inv = invoke([], tally.wd)
        if inv.setup_s is not None:
            scaled("setup_s", inv.setup_s, inv)
    for _ in _rounds(deadline):
        inv, _ = tally.run(d, f"rep {tally.attempted}")
        samples["probe_s"].append(inv.probe_s)
        scaled("wall_s", inv.wall_s, inv)
        samples["peak_rss_mb"].append(inv.rss_mb)
        if inv.setup_s is not None:
            scaled("setup_s", inv.setup_s, inv)
    return {name: statistics.median(samples[name]) for name, _ in END_TO_END}, samples


def _layer_metrics(inv: Invocation) -> dict:
    m = dict(inv.trace)
    m["wall_s"] = inv.wall_s
    m["cli.self_s"] = inv.wall_s - m.pop("outer_s")
    return m


def traced_run(tally: Tally, seconds: float) -> tuple:
    """Per-layer metrics: the d ladder, then untraced and traced repetitions in turn.

    The ladder counts toward `seconds`; at least one pair of repetitions runs.
    """
    d = tally.inputs.get("d")
    ladder = list(range(LADDER_FROM, d)) if tally.work.name in ("generate", "certify") else []
    if not tally.prep(ladder + ([d] if d else [])):
        return None, {}
    deadline = time.monotonic() + seconds
    per_d = {}
    for k in ladder:
        inv, out = tally.run(k, f"ladder d={k}", trace=True)
        if out is not None:
            per_d[k] = _layer_metrics(inv)
    traced, plain = [], []
    for _ in _rounds(deadline):
        inv, out = tally.run(d, f"rep {tally.attempted}")
        if out is not None:
            plain.append(inv.wall_s)
        inv, out = tally.run(d, f"traced rep {tally.attempted}", trace=True)
        if out is not None:
            traced.append(_layer_metrics(inv))
    samples = {"ladder": per_d, "traced": traced, "untraced_wall_s": plain}
    if not traced or not plain:
        return None, samples
    layers = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    if ladder:
        per_d[d] = layers
    metrics = {k: v for k, v in layers.items() if k != "wall_s"}
    metrics["trace_overhead"] = layers["wall_s"] / statistics.median(plain) - 1
    for k in range(LADDER_FROM, LADDER_TO + 1):
        for name in LADDER_METRICS:
            metrics[f"ladder.d{k}.{name}"] = per_d[k][name] if k in per_d else 0
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; also writes its result file under .perfbench/results."""
    inputs = derive_inputs(name, seed)
    WORK.mkdir(exist_ok=True)
    wd = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    tally = Tally(WORKLOADS[name], wd, inputs, seed)
    try:
        metrics, samples = (traced_run if trace else timed_run)(tally, seconds)
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    if metrics is None:
        tally.record("run", ["no repetition produced a checked output"])
    result = {
        "workload": name,
        "seed": seed,
        "inputs": inputs,
        "trace": int(trace),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "metrics": metrics or {},
        "samples": samples,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )
    return result


def per_layer_names() -> list:
    """Every metric a traced run reports, in the order it prints them."""
    names = [k for k in Tracer().summary() if k != "outer_s"]
    names += ["cli.self_s", "trace_overhead"]
    names += [f"ladder.d{k}.{m}" for k in range(LADDER_FROM, LADDER_TO + 1) for m in LADDER_METRICS]
    return names


def unit_of(name: str) -> str:
    units = dict(END_TO_END)
    if name in units:
        return units[name]
    for suffix, unit in (("_s", "s"), (".p50", "ms"), (".p90", "ms"), ("_bits", "bits"),
                         (".bytes", "bytes"), ("_per_solve", "ratio"), ("overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "svmpath" / "cli.py").is_file():
        print(f"no svmpath package under {SRC}", file=sys.stderr)
        return 2
    # the speed probe must run on the CPU the invocation runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: seed {args.seed}, inputs {json.dumps(r['inputs'])}")
        for line in r["failures"]:
            print(f"  FAILED {line}", file=sys.stderr)
        metrics = r["metrics"]
        for key, value in metrics.items():
            print(f"  {key:34s} {value:<14.6g} {unit_of(key)}")
        print(f"  {'failures':34s} {r['failed'] / r['attempted']:<14.6g} share "
              f"({r['failed']} of {r['attempted']} invocations)")
        prefix = f"{name}." if len(names) > 1 else ""
        combined["correct"] &= r["failed"] == 0
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for key, value in metrics.items():
            combined["metrics"][prefix + key] = {"value": value, "unit": unit_of(key)}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
