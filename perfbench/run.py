"""Benchmark of the ``skl`` package: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload uni-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one process each

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the run stops with an error and a non-zero exit
code.  Each workload runs in its own process with BLAS/OpenMP pinned to one
thread, and each run writes only under ``.perfbench/`` in the checkout.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same cycles twice, untraced and then traced, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = "1"

SETUP_PROBES = 5
#: Reported for a percentile that lands on a failed op (latency +inf).
FAILED_LATENCY_MS = 1e12
#: A run never measures past this, whatever --seconds says.
MAX_MEASURE_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("values_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("passed_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)

#: (metric, unit, source): per cycle unless the unit says otherwise.
#: Sources: ("self", span) self time, ("count", key) boundary count.
PER_LAYER = (
    ("basis.rows_s", "s/cycle", ("self", "basis.rows")),
    ("basis.rows_calls", "count/cycle", ("count", "basis.rows_calls")),
    ("basis.rows_cells", "count/cycle", ("count", "basis.rows_cells")),
    ("univariate.contract_s", "s/cycle", ("self", "univariate.apply")),
    ("univariate.window_integrals_s", "s/cycle", ("self", "univariate.window_integrals")),
    ("univariate.window_evals", "count/cycle", ("count", "univariate.window_evals")),
    ("univariate.moments_s", "s/cycle", ("self", "univariate.moments")),
    ("univariate.moment_calls", "count/cycle", ("count", "univariate.moment_calls")),
    ("bivariate.generic_s", "s/cycle", ("self", "bivariate.generic")),
    ("bivariate.window_pairs", "count/cycle", ("count", "bivariate.window_pairs")),
    ("bivariate.generic_evals", "count/cycle", ("count", "bivariate.generic_evals")),
    ("bivariate.separable_s", "s/cycle", ("self", "bivariate.separable")),
    ("functions.target_s", "s/cycle", ("self", "functions.target")),
    ("functions.target_calls", "count/cycle", ("count", "functions.target_calls")),
    ("functions.target_points", "count/cycle", ("count", "functions.target_points")),
    ("functions.resolve_s", "s/cycle", ("self", "functions.resolve")),
    ("modulus.query_s", "s/cycle", ("self", "modulus.query")),
    ("modulus.queries", "count/cycle", ("count", "modulus.queries")),
    ("modulus.query_samples_swept", "count/cycle", ("count", "modulus.query_samples_swept")),
    ("modulus.scan_build_s", "s/cycle", ("self", "modulus.scan_build")),
    ("modulus.scan_samples", "count/cycle", ("count", "modulus.scan_samples")),
    ("modulus.surface_build_s", "s/cycle", ("self", "modulus.surface_build")),
    ("modulus.surface_samples", "count/cycle", ("count", "modulus.surface_samples")),
    ("modulus.surface_query_s", "s/cycle", ("self", "modulus.surface_query")),
    ("modulus.surface_queries", "count/cycle", ("count", "modulus.surface_queries")),
    ("analysis.bound_s", "s/cycle", ("self", "analysis.bound")),
    ("analysis.bound_calls", "count/cycle", ("count", "analysis.bound_calls")),
    ("cli.parse_s", "s/cycle", ("self", "cli.parse")),
    ("reports.cmd_self_s", "s/cycle", ("self", "reports.cmd")),
    ("reports.bytes_written", "B/cycle", ("count", "reports.bytes_written")),
    ("svg.render_s", "s/cycle", ("self", "svg.render")),
    ("svg.bytes", "B/cycle", ("count", "svg.bytes")),
)
#: Derived per-layer metrics, computed in ``layer_metrics``; ``share.<layer>``
#: follows for every layer in ``spans.LAYERS``.
PER_LAYER_DERIVED = (
    ("numerics.quad_nodes", "count"),
    ("modulus.queries_per_build", "ratio"),
    ("trace.overhead_frac", "fraction"),
    ("check.failed_frac", "fraction"),
    ("check.max_err_ratio", "ratio"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest size of each workload")
    parser.add_argument("--corrupt", action="store_true", help="perturb the first checked result")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Put the checkout's ``src`` first on the path and import ``skl`` from it."""
    if not (SRC / "skl" / "__init__.py").is_file():
        sys.exit(f"error: no skl package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import skl

    if SRC not in Path(skl.__file__).resolve().parents:
        sys.exit(f"error: skl was imported from {skl.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# measurement


class Stats:
    """Latencies and cycle totals of one measured phase."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.cycle_seconds: list[float] = []
        self.op_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.failed_valid = 0
        self.failures: dict[str, str] = {}
        self.by_op: dict[int, list[float]] = {}
        self.values = 0
        self._seconds = 0.0

    def record(self, op, seconds: float, values: int, error: str | None) -> None:
        self.attempted += 1
        self.op_seconds += seconds
        self._seconds += seconds
        # A plan repeats the same Op object on every pass, so its id names the op.
        self.by_op.setdefault(id(op), []).append(seconds)
        self.values += values
        if error is None:
            self.latencies_ms.append(seconds * 1e3)
            return
        self.failed += 1
        self.failed_valid += op.valid
        self.latencies_ms.append(float("inf"))
        self.failures.setdefault(op.label, error)

    def begin_cycles(self) -> None:
        """Keep the prelude out of the first cycle's time."""
        self._seconds = 0.0

    def end_cycle(self) -> None:
        self.cycle_seconds.append(self._seconds)
        self._seconds = 0.0

    @property
    def cycles(self) -> int:
        return len(self.cycle_seconds)

    def values_per_second(self) -> float:
        """Checked values over op time, each op timed at the median of its repeats.

        Every op keeps its own cost, and the median over the cycles that ran
        it resists a stall on a shared machine; the run's mix is kept exactly.
        """
        seconds = sum(len(times) * statistics.median(times) for times in self.by_op.values())
        return self.values / seconds


def run_op(op, checker, stats: Stats, tracer=None) -> None:
    from spans import OP_SPAN
    from workloads import Mismatch

    if op.before is not None:
        op.before()
    index = tracer.enter(OP_SPAN) if tracer else None
    start = time.perf_counter()
    try:
        out, error = op.call(), None
    except Exception as exc:  # a raising op is a failed op, never a crashed run
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer:
        tracer.exit(index)
    values = 0
    if error is None:
        try:
            values = op.check(out, checker)
        except Mismatch as exc:
            error = str(exc)
        except Exception as exc:  # malformed output
            error = f"check failed: {type(exc).__name__}: {exc}"
    stats.record(op, seconds, values, error)


def measure(workload, checker, seconds: float) -> Stats:
    """Run the prelude, then whole cycles until ``seconds`` of op time."""
    prelude, plan = workload.plan()
    stats = Stats()
    wall = time.perf_counter()
    for op in prelude:
        run_op(op, checker, stats)
    stats.begin_cycles()
    k = 0
    while stats.op_seconds < seconds and time.perf_counter() - wall < MAX_MEASURE_S:
        for op in plan[k % len(plan)]:
            run_op(op, checker, stats)
        stats.end_cycle()
        k += 1
    return stats


def measure_traced(workload, checker, seconds: float, tracer):
    """Alternate untraced and traced runs of each cycle until ``seconds`` of op time.

    Alternating (and swapping which side goes first) lets slow drift of a
    shared machine hit both sides alike, so their ratio is the overhead.
    """
    off, on = Stats(), Stats()
    prelude, plan = workload.plan()  # resolves targets through the traced resolver
    for op in prelude:
        run_op(op, checker, on, tracer)
    on.begin_cycles()
    wall = time.perf_counter()
    k = 0
    while off.op_seconds + on.op_seconds < seconds and time.perf_counter() - wall < MAX_MEASURE_S:
        cycle = plan[k % len(plan)]
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            tracer.active = traced
            stats = on if traced else off
            for op in cycle:
                run_op(op, checker, stats, tracer if traced else None)
            stats.end_cycle()
        tracer.active = True
        k += 1
    return off, on


def percentile(latencies: list[float], p: float) -> float:
    """Linear-interpolated percentile; a failed op (+inf) reports FAILED_LATENCY_MS."""
    ordered = sorted(latencies)
    rank = p / 100.0 * (len(ordered) - 1)
    lo, hi = int(rank), min(int(rank) + 1, len(ordered) - 1)
    if ordered[hi] == float("inf"):
        return FAILED_LATENCY_MS
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def setup_seconds(args) -> float:
    """Median time from a fresh interpreter to a finished warm-up op."""
    probes = 1 if args.smoke else SETUP_PROBES
    command = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
               "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            sys.exit(f"error: set-up probe failed (exit {proc.returncode}, said {line!r})")
        times.append(elapsed)
    return statistics.median(times)


def probe(args) -> None:
    """Child side of ``setup_seconds``: import, build the ops, one warm-up op."""
    import_package()
    import workloads

    workdir = WORKDIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        workload.plan()
        workload.warmup().call()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(stats: Stats, setup: float) -> dict[str, float]:
    return {
        "setup_s": setup,
        "values_per_s": stats.values_per_second(),
        "op_p50_ms": percentile(stats.latencies_ms, 50),
        "op_p90_ms": percentile(stats.latencies_ms, 90),
        "passed_frac": (stats.attempted - stats.failed) / stats.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, workload, traced: Stats, untraced: Stats, checker) -> dict[str, float]:
    cycles = traced.cycles
    self_times = tracer.self_times()
    counts = dict(tracer.counts)
    # The workload's own counts accrue on untraced cycles too.
    counts.update({k: v * cycles / (cycles + untraced.cycles) for k, v in workload.counts.items()})
    out = {}
    for name, _unit, (kind, key) in PER_LAYER:
        total = self_times.get(key, 0.0) if kind == "self" else counts.get(key, 0.0)
        out[name] = total / cycles
    rules = counts.get("numerics.quad_rules", 0.0)
    out["numerics.quad_nodes"] = counts.get("numerics.quad_nodes_sum", 0.0) / rules if rules else 0.0
    builds = counts.get("modulus.scan_builds", 0.0) + counts.get("modulus.surface_builds", 0.0)
    queries = counts.get("modulus.queries", 0.0) + counts.get("modulus.surface_queries", 0.0)
    out["modulus.queries_per_build"] = queries / builds if builds else 0.0
    out["trace.overhead_frac"] = sum(traced.cycle_seconds) / sum(untraced.cycle_seconds) - 1.0
    attempted = traced.attempted + untraced.attempted
    out["check.failed_frac"] = (traced.failed + untraced.failed) / attempted
    out["check.max_err_ratio"] = checker.max_ratio
    for layer, share in tracer.layer_shares().items():
        out[f"share.{layer}"] = share
    return out


def per_layer_units() -> dict[str, str]:
    from spans import LAYERS

    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update(PER_LAYER_DERIVED)
    units.update({f"share.{layer}": "fraction" for layer in LAYERS})
    return units


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> dict:
    import_package()
    import numpy
    import workloads
    from spans import OP_SPAN, Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        workload.prepare()
        warm = workloads.Checker()
        warm_stats = Stats()
        prelude, plan = workload.plan()
        first = {}
        for op in prelude + [op for cycle in plan for op in cycle]:
            first.setdefault(op.label, op)
        for op in first.values():  # one op of each kind: caches filled, pages touched
            run_op(op, warm, warm_stats)
        workload.counts.clear()

        checker = workloads.Checker(corrupt=args.corrupt)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        }
        if args.trace == 0:
            setup = setup_seconds(args)
            stats = measure(workload, checker, args.seconds)
            metrics = end_to_end(stats, setup)
            units = dict(END_TO_END)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                untraced, stats = measure_traced(workload, checker, args.seconds, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, workload, stats, untraced, checker)
            units = per_layer_units()
            shares = {k[len("share."):]: v for k, v in metrics.items() if k.startswith("share.")}
            dominant = max(shares, key=shares.get)
            info["dominant_layer"] = dominant
            info["predicted_dominant_layer"] = workload.predicted
            print("layer shares of traced op time: " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v > 0))
            if dominant != workload.predicted:
                print(f"NOTE: the predicted dominant layer {workload.predicted!r} is not the dominant "
                      f"one on {args.workload}; {dominant!r} is ({shares[dominant]:.1%}).")
            trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            print(f"wrote {len(tracer.spans)} spans to {trace_path.relative_to(ROOT)}")
            stats.attempted += untraced.attempted
            stats.failed += untraced.failed
            stats.failed_valid += untraced.failed_valid
            stats.failures.update(untraced.failures)
            stats.latencies_ms += untraced.latencies_ms
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    above = sum(1 for x in stats.latencies_ms if x > percentile(stats.latencies_ms, 90))
    info.update({
        "cycles": stats.cycles,
        "cycle_seconds": {
            "min": min(stats.cycle_seconds),
            "median": statistics.median(stats.cycle_seconds),
            "max": max(stats.cycle_seconds),
        },
        "ops": stats.attempted,
        "ops_above_p90": above,
        "failed_valid_inputs": stats.failed_valid,
        "failed_frac": stats.failed / stats.attempted,
        "max_err_ratio": checker.max_ratio,
    })
    if above < 10:
        print(f"NOTE: only {above} ops lie above op_p90_ms in this run ({stats.attempted} ops).")
    for label, error in list(stats.failures.items())[:12]:
        print(f"failed op: {label}: {error}")
    print("info: " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    return {
        # Some inputs the command line must reject still escape as tracebacks
        # or exit 0: they count in ``failed`` but not against ``correct``.
        "correct": stats.failed_valid == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    if not (SRC / "skl" / "__init__.py").is_file():
        sys.exit(f"error: no skl package under {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        command += ["--smoke"] if args.smoke else []
        command += ["--corrupt"] if args.corrupt else []
        print(f"== {name}", flush=True)
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=300)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"error: {name} exited with {done.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    if args.probe:
        probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
