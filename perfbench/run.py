#!/usr/bin/env python3
"""End-to-end benchmark of the hsfsense CLI, with a separate traced run per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload bound-4x4 --seed 1 --seconds 40 --trace 0

Each sample starts one fresh ``python3 -m hsfsense.cli`` process on a config
generated from the workload and ``--seed`` (which becomes ``couplings.seed``),
exactly as a user runs one command per process.  Samples run one at a time
(a closed loop with a single client) until the next one would not fit in
``--seconds``; the run always makes at least one.  The child gets the default
BLAS threading: the thread-count variables are removed from its environment.
Every output is checked against a reference that ``reference.py`` computes
independently (outside the timed region, cached per seed); a sample that exits
non-zero or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics, medians over the run's samples:
  wall_s       spawn to exit of the CLI process (time to solution)
  cpu_s        user + system CPU time of the child
  setup_s      spawn to exit of a fresh interpreter that imports hsfsense, the
               modules the command loads lazily (and with them numpy/scipy)
               and parses the config; median of several
  peak_rss_mb  peak resident set size of the child

``--trace 1`` runs the command once untraced and once under ``traced.py``,
which records spans around the calls into each layer, and reports the
per-layer metrics in ``LAYER_METRICS`` (medians over the pairs that fit).
Each ``*_s`` layer metric is the self time of its spans (span duration minus
the traced child spans inside it), except ``cli.run_s``, the full duration of
``cli.run``.  It also reruns bound-4x4 with one BLAS thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment record and every sample.  Scratch files go to
``.perfbench-work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REF_CACHE = WORK / "ref"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "HSF_THREADS")
MIN_SAMPLES = 3  # the median of three survives one sample slowed by a noisy neighbour
SETUP_PER_SAMPLE = 2  # set-up probes run before each CLI sample, so they span the run
RUN_LIMIT_S = 170.0  # every run must end well inside the 180 s a run is allowed
MIN_SAMPLES_LIMIT_S = 120.0  # the minimum sample count gives way past this point
EPSILON_TOL = 1e-10  # bound: |epsilon - expm_multiply reference|; the solver's own tolerance
HEISENBERG_RTOL = 1e-3  # sweep: |delta_omega - HL| / HL


@dataclass(frozen=True)
class Workload:
    command: str
    width: int
    height: int
    keys: tuple  # config keys beyond lattice and couplings, as (key, value) pairs
    imports: tuple  # modules the command imports lazily; the set-up probe loads them


# All workloads use disordered couplings, jbar = 1 and sigma = 0.3; the
# sampler keeps |delta| < jbar/2, so every seed is valid input.  Each
# optimisable layer dominates one workload and is nearly absent from another
# (BENCHMARK.json says why each is here).  Left out: fidelity (the same Krylov
# march as bound-4x4), zeno and montecarlo (closed form, no 2^N work), N=12
# configs (mostly interpreter start-up) and a 2-probe bound at 3x6 (~26 s a run).
WORKLOADS = {
    # omega = 0.005 keeps the bound non-vacuous (2 N omega / j_gap < 1) for
    # every seed below 10000; at 0.05 it is vacuous for most seeds.
    "bound-4x4": Workload(
        "bound", 4, 4, (("omega", 0.005), ("t_max", 2), ("t_points", 20)), ("hsfsense.bound",)
    ),
    "sweep-3x6": Workload(
        "sweep", 3, 6,
        (("sweep.scheme", "hsf"), ("omega", 0.05), ("t_int", 0.1), ("t_all", 10)),
        ("hsfsense.sensing",),
    ),
    "census-5x4": Workload(
        "fragments", 5, 4, (("omega", 0.4), ("delta_th", 0.1)),
        ("hsfsense.hamiltonian", "hsfsense.fragments"),
    ),
}
THREAD_BASELINE = "bound-4x4"

LAYER_METRICS = {
    "hamiltonian.build_s": "s",
    "hamiltonian.build_calls": "count",
    "hamiltonian.diag_s": "s",
    "hamiltonian.op_mb": "MB",
    "hamiltonian.matvec_ms": "ms",
    "evolve.init_s": "s",
    "evolve.evolve_s": "s",
    "evolve.evolutions": "count",
    "evolve.matvecs": "count",
    "evolve.step_ms": "ms",
    "evolve.norm_drift": "1",
    "evolve.ref_err": "1",
    "evolve.evolve_s_1thread": "s",
    "states.prep_s": "s",
    "states.expect_s": "s",
    "states.expect_calls": "count",
    "fragments.census_s": "s",
    "fragments.csv_s": "s",
    "fragments.edges": "count",
    "fragments.count": "count",
    "bound.verify_s": "s",
    "bound.delta_pr_s": "s",
    "sensing.sensitivity_s": "s",
    "sensing.evals": "count",
    "cli.run_s": "s",
    "trace.overhead_s": "s",
}

# Spans that traced.py records, as "<module>.<attribute path>" of the
# function it wraps, and the layer metric each one's self time adds to.
SPAN_METRIC = {
    "cli.main": None,
    "cli.run": None,  # cli.run_s is the full duration of this span
    **{
        f"hamiltonian.build_h_{k}": "hamiltonian.build_s"
        for k in ("omega", "int", "shift", "tfim", "total", "probe_omega", "eff_homogeneous",
                  "eff_inhomogeneous")
    },
    "hamiltonian.ising_diagonal": "hamiltonian.diag_s",
    "hamiltonian.shift_diagonal": "hamiltonian.diag_s",
    "hamiltonian.dw_diagonal": "hamiltonian.diag_s",
    "evolve.EvolutionEngine.__init__": "evolve.init_s",
    "evolve.EvolutionEngine.evolve": "evolve.evolve_s",
    "evolve.EvolutionEngine.evolve_grid": "evolve.evolve_s",
    "states.ghz_x": "states.prep_s",
    "states.embed": "states.prep_s",
    "states.probe_projector": "states.prep_s",
    "states.measurement_probability": "states.expect_s",
    "states.Projector.expectation": "states.expect_s",
    "fragments.adjacency_components": "fragments.census_s",
    "fragments.FragmentReport.to_csv": "fragments.csv_s",
    "bound.verify_bound": "bound.verify_s",
    "bound.delta_pr_numeric": "bound.delta_pr_s",
    "sensing.numeric_sensitivity": "sensing.sensitivity_s",
}
EVOLVE_SPANS = ("evolve.EvolutionEngine.evolve", "evolve.EvolutionEngine.evolve_grid")


def config_text(workload: Workload, seed: int, out: str) -> str:
    lines = [
        f"command = {workload.command}",
        f"lattice.width = {workload.width}",
        f"lattice.height = {workload.height}",
        "couplings.jbar = 1",
        "couplings.sigma = 0.3",
        f"couplings.seed = {seed}",
    ]
    lines += [f"{key} = {value}" for key, value in workload.keys]
    lines.append(f"out = {out}")
    return "\n".join(lines) + "\n"


def child_env(blas_threads: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        for var in THREAD_VARS[:3]:
            env[var] = str(blas_threads)
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    ok: bool = False
    problem: str = ""
    ref_err: float = 0.0


class Deadline:
    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def fits(self, estimate: float) -> bool:
        return self.elapsed() + estimate <= self.seconds

    def wants_sample(self, taken: int, estimate: float) -> bool:
        """Whether to start another sample: always a first, up to MIN_SAMPLES if time allows."""
        if taken < MIN_SAMPLES:
            return taken == 0 or self.elapsed() + estimate <= MIN_SAMPLES_LIMIT_S
        return self.fits(estimate)

    def child_timeout(self) -> float:
        return max(5.0, RUN_LIMIT_S - self.elapsed())


def spawn(args: list[str], env: dict, stdout_path: Path, timeout: float) -> Sample:
    """Run one child to exit; wall time from spawn to exit, rusage from wait4."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=stdout_path.parent)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def read_summary(stdout_path: Path) -> dict:
    lines = [ln for ln in stdout_path.read_text().splitlines() if ln.startswith("{")]
    return json.loads(lines[-1]) if lines else {}


def read_columns(path: Path) -> dict[str, tuple[str, ...]]:
    """CSV columns by header name (column-wise, which is fast for the census CSV)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = list(zip(*reader)) or [()] * len(header)
    return dict(zip(header, columns))


def _check_bound(workload, ref, summary, cols) -> tuple[list[str], float]:
    problems = []
    if summary.get("satisfied") is not True:
        problems.append(f"summary reports satisfied={summary.get('satisfied')!r}")
    eps = [float(x) for x in cols["epsilon"]]
    rhs = [float(x) for x in cols["rhs"]]
    if len(eps) != len(ref["epsilon"]):
        return problems + [f"{len(eps)} CSV rows, expected {len(ref['epsilon'])}"], float("inf")
    if min(rhs) >= 1.0:
        problems.append("bound is vacuous: rhs >= 1 at every point")
    if any(abs(e) > r + 1e-14 for e, r in zip(eps, rhs)):
        problems.append("|epsilon| exceeds rhs in the CSV")
    if max(abs(float(t) - t_ref) for t, t_ref in zip(cols["t"], ref["t"])) > 1e-12:
        problems.append("time grid differs from the reference")
    err = max(abs(e - e_ref) for e, e_ref in zip(eps, ref["epsilon"]))
    if not err <= EPSILON_TOL:
        problems.append(f"epsilon differs from expm_multiply by {err:.3g} > {EPSILON_TOL}")
    return problems, err


def _check_sweep(workload, ref, summary, cols) -> tuple[list[str], float]:
    if cols["scheme"] != ("hsf",):
        return [f"expected one hsf row, got schemes {cols['scheme']}"], float("inf")
    problems = []
    if int(cols["N"][0]) != workload.width * workload.height:
        problems.append(f"N={cols['N'][0]}")
    hl = ref["heisenberg_limit"]
    err = abs(float(cols["delta_omega"][0]) - hl) / hl
    if not err <= HEISENBERG_RTOL:
        problems.append(f"delta_omega={cols['delta_omega'][0]} is {err:.3g} from HL={hl} (relative)")
    return problems, err


def _check_census(workload, ref, summary, cols) -> tuple[list[str], float]:
    problems = []
    err = 0.0
    for key in ("total_fragments", "max_fragment_size", "frozen_states"):
        got = summary.get(key)
        if got != ref[key]:
            problems.append(f"{key}={got!r}, csgraph gives {ref[key]}")
            err = max(err, abs(got - ref[key]) if isinstance(got, int) else float("inf"))
    sizes = [int(x) for x in cols["size"]]
    frozen = [x == "1" for x in cols["is_frozen"]]
    if len(sizes) != ref["total_fragments"]:
        problems.append(f"{len(sizes)} CSV rows, expected {ref['total_fragments']}")
    if sum(sizes) != ref["dimension"]:
        problems.append(f"CSV sizes sum to {sum(sizes)}, expected {ref['dimension']}")
    if sizes and max(sizes) != ref["max_fragment_size"]:
        problems.append(f"CSV max size {max(sizes)}, expected {ref['max_fragment_size']}")
    if sum(frozen) != ref["frozen_states"] or any(f != (n == 1) for f, n in zip(frozen, sizes)):
        problems.append("CSV is_frozen column disagrees with sizes or the reference")
    return problems, err


CHECKS = {"bound": _check_bound, "sweep": _check_sweep, "fragments": _check_census}


def check(workload: Workload, ref: dict, sample: Sample, stdout_path: Path, csv_path: Path) -> Sample:
    """Mark ``sample`` ok or failed by comparing the CLI's outputs with the reference."""
    if sample.status != 0:
        sample.problem = f"exit status {sample.status}: {stdout_path.read_text()[-500:]}"
        return sample
    try:
        summary = read_summary(stdout_path)
        columns = read_columns(csv_path)
        problems, sample.ref_err = CHECKS[workload.command](workload, ref, summary, columns)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    sample.problem = "; ".join(problems)
    sample.ok = not problems
    return sample


class Run:
    """Files and reference for one workload at one seed."""

    def __init__(self, name: str, workload: Workload, seed: int, work: Path):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.dir = work / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.csv = self.dir / "out.csv"
        self.stdout = self.dir / "stdout.txt"
        self.config = self.dir / "run.cfg"
        self.config.write_text(config_text(self.workload, seed, str(self.csv)))
        self.env_record, self.ref = self._reference(REF_CACHE)

    def _reference(self, cache_dir: Path) -> tuple[dict, dict]:
        cache_dir.mkdir(parents=True, exist_ok=True)
        key = hashlib.sha256(
            config_text(self.workload, self.seed, "").encode() + (BENCH_DIR / "reference.py").read_bytes()
        ).hexdigest()[:20]
        args = [sys.executable, str(BENCH_DIR / "reference.py"), str(self.config), str(cache_dir / f"{key}.json")]
        proc = subprocess.run(
            args, env=child_env(), capture_output=True, text=True, timeout=RUN_LIMIT_S / 2,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"reference for {self.name} failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.splitlines()[-1])
        return record["env"], record["reference"]

    def cli_sample(self, deadline: Deadline, env: dict | None = None) -> Sample:
        args = [sys.executable, "-m", "hsfsense.cli", "--config", str(self.config)]
        sample = spawn(args, env or child_env(), self.stdout, deadline.child_timeout())
        return check(self.workload, self.ref, sample, self.stdout, self.csv)

    def traced_sample(self, deadline: Deadline, env: dict | None = None) -> tuple[Sample, dict]:
        trace_path = self.dir / "trace.json"
        args = [sys.executable, str(BENCH_DIR / "traced.py"), str(trace_path), "--config", str(self.config)]
        sample = spawn(args, env or child_env(), self.stdout, deadline.child_timeout())
        check(self.workload, self.ref, sample, self.stdout, self.csv)
        trace = json.loads(trace_path.read_text()) if sample.status == 0 else None
        if trace is not None:
            sample.wall_s -= trace["post_s"]  # kernel timings after the command are not its wall time
        return sample, trace

    def setup_time(self, deadline: Deadline) -> float:
        """Spawn-to-exit time of a fresh interpreter doing only the command's set-up."""
        probe = (
            "import sys, importlib, hsfsense.cli\n"
            "from hsfsense.config import parse_config\n"
            "for m in sys.argv[2:]: importlib.import_module(m)\n"
            "parse_config(open(sys.argv[1]).read())\n"
        )
        args = [sys.executable, "-c", probe, str(self.config), *self.workload.imports]
        sample = spawn(args, child_env(), self.stdout, deadline.child_timeout())
        if sample.status != 0:
            raise RuntimeError(f"set-up probe failed: {self.stdout.read_text()[-500:]}")
        return sample.wall_s


def self_times(spans: list) -> dict[int, float]:
    own = {s[0]: s[4] - s[3] for s in spans}
    for span_id, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict, ref_err: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but the 1-thread and overhead figures)."""
    spans = trace["spans"]
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    metrics = {name: 0.0 for name in LAYER_METRICS}
    for span_id, _, name, start, end in spans:
        if SPAN_METRIC.get(name):
            metrics[SPAN_METRIC[name]] += own[span_id]
        if name == "cli.run":
            metrics["cli.run_s"] += end - start

    def parent_name(span):
        return by_id[span[1]][2] if span[1] is not None else ""

    def has_ancestor(span, name):
        while span[1] is not None:
            span = by_id[span[1]]
            if span[2] == name:
                return True
        return False

    outer_evolves = [s for s in spans if s[2] in EVOLVE_SPANS and parent_name(s) not in EVOLVE_SPANS]
    sensitivity_calls = sum(1 for s in spans if s[2] == "sensing.numeric_sensitivity")
    counters = trace["counters"]
    metrics.update({
        "hamiltonian.build_calls": sum(
            1 for s in spans
            if SPAN_METRIC.get(s[2]) == "hamiltonian.build_s"
            and SPAN_METRIC.get(parent_name(s)) != "hamiltonian.build_s"
        ),
        "hamiltonian.op_mb": counters["op_bytes"] / 2**20,
        "hamiltonian.matvec_ms": trace["kernels"]["matvec_ms"],
        "evolve.evolutions": len(outer_evolves),
        "evolve.matvecs": counters["matvecs"],
        "evolve.step_ms": trace["kernels"]["step_ms"],
        "evolve.norm_drift": counters["norm_drift"],
        "evolve.ref_err": ref_err,
        "states.expect_calls": sum(1 for s in spans if s[2] == "states.Projector.expectation"),
        "fragments.edges": counters["edges"],
        "fragments.count": counters["fragments"],
        "sensing.evals": (
            sum(1 for s in outer_evolves if has_ancestor(s, "sensing.numeric_sensitivity"))
            / sensitivity_calls if sensitivity_calls else 0
        ),
    })
    return metrics


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, deadline: Deadline, log) -> tuple[list[Sample], dict]:
    run.setup_time(deadline)  # compiles bytecode and warms the file cache; not counted
    setup: list[float] = []
    samples: list[Sample] = []
    durations: list[float] = []
    while deadline.wants_sample(len(samples), median(durations)):
        started = time.perf_counter()
        setup += [run.setup_time(deadline) for _ in range(SETUP_PER_SAMPLE)]
        sample = run.cli_sample(deadline)
        durations.append(time.perf_counter() - started)
        samples.append(sample)
        log({"sample": len(samples), "setup_s": setup[-SETUP_PER_SAMPLE:], **sample.__dict__})
    good = [s for s in samples if s.ok] or samples
    metrics = {
        "wall_s": (median([s.wall_s for s in good]), "s"),
        "cpu_s": (median([s.cpu_s for s in good]), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median([s.peak_rss_mb for s in good]), "MB"),
    }
    log({"samples": {"wall_s": len(good), "cpu_s": len(good), "setup_s": len(setup),
                     "peak_rss_mb": len(good)}})
    return samples, metrics


def traced(run: Run, deadline: Deadline, log, baseline_workload: Workload) -> tuple[list[Sample], dict]:
    samples: list[Sample] = []
    per_pair: list[dict] = []
    durations: list[float] = []
    baseline = run if run.workload == baseline_workload else None

    def reserve() -> float:  # time to keep for the one-thread rerun (about half a pair)
        return 0.0 if baseline else median(durations) / 2

    while not per_pair or deadline.fits(median(durations) + reserve()):
        started = time.perf_counter()
        plain = run.cli_sample(deadline)
        sample, trace = run.traced_sample(deadline)
        durations.append(time.perf_counter() - started)
        samples += [plain, sample]
        log({"pair": len(durations), "untraced": plain.__dict__, "traced": sample.__dict__})
        if trace is None:
            break
        metrics = layer_metrics(trace, sample.ref_err)
        metrics["trace.overhead_s"] = sample.wall_s - plain.wall_s
        per_pair.append(metrics)
        log({"trace_id": trace["trace_id"], "spans": len(trace["spans"])})
    if baseline is None:
        baseline = Run(THREAD_BASELINE, baseline_workload, run.seed, run.dir.parent)
    one_thread, trace = baseline.traced_sample(deadline, child_env(blas_threads=1))
    samples.append(one_thread)
    log({"one_blas_thread": one_thread.__dict__})
    evolve_1t = layer_metrics(trace, 0.0)["evolve.evolve_s"] if trace else 0.0
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        values = [m[name] for m in per_pair if name in m]
        metrics[name] = (median(values), unit)
    metrics["evolve.evolve_s_1thread"] = (evolve_1t, "s")
    return samples, metrics


def provenance(run: Run) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hsfsense").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {**run.env_record, "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "workload": run.name, "seed": run.seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "hsfsense" / "cli.py").is_file():
        print(f"error: no hsfsense sources under {SRC}", file=sys.stderr)
        return 2

    deadline = Deadline(args.seconds)

    def log(record):
        print(json.dumps(record, default=str), flush=True)

    work = WORK / f"run-{os.getpid()}"
    try:
        run = Run(args.workload, WORKLOADS[args.workload], args.seed, work)
        log({"env": provenance(run)})
        if args.trace:
            samples, metrics = traced(run, deadline, log, WORKLOADS[THREAD_BASELINE])
        else:
            samples, metrics = end_to_end(run, deadline, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for s in samples if not s.ok)
    for s in samples:
        if not s.ok:
            print(f"FAILED: {s.problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
