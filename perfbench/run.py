"""qhslab benchmark: one workload, timed from outside the library.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload quantum_n10 --seed 1 --seconds 25 --trace 0

``--trace 0`` times whole cycles of the workload's cells until ``--seconds``
have passed and prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass over the workload's first cycle, wrapping the
per-layer functions with :class:`tracer.Tracer`, and prints the per-layer
metrics. Either way every run's output is checked, a failed check is
printed and counted, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it is a JSON report with the machine block,
fingerprints and informational fields.

The library is imported from ``src/`` next to this directory, never from
an installed copy; without it the script exits with a nonzero status
and prints no result.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the workloads are single-threaded Python, and a second
# BLAS thread spinning on the other core made run times depend on what
# else the machine was doing.
BLAS_THREADS = "1"
# Extra fresh processes whose set-up is timed, half before and half after
# the timed cycles so the median spans the run; the run's own is one more.
SETUP_PROBES = 10

# End-to-end figures printed in the report line only: each is zero on some
# workload (no quantum queries in classical_exact, no stages in a bare
# search, no failures when all is well), so none can carry a bound. The
# counts repeat exactly per seed and are covered by the fingerprint.
INFORMATIONAL = {
    "quantum_queries": "count", "classical_queries": "count", "stages": "count",
    "fail_ratio": "ratio", "final_error.max": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up only and print its seconds (used internally)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_library():
    """Put the checkout's src/ first on the path and import qhslab from it."""
    if not (SRC / "qhslab" / "__init__.py").is_file():
        sys.exit(f"error: no qhslab sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import qhslab
    if Path(qhslab.__file__).resolve().parent != (SRC / "qhslab").resolve():
        sys.exit(f"error: qhslab imported from {qhslab.__file__}, not from {SRC}")
    import workloads
    return workloads


def machine_block() -> dict:
    import numpy as np
    cpuinfo = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                cpuinfo.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((SRC / "qhslab").glob("*.py")))
    return {
        "nproc": NPROC, "cpu": cpuinfo.get("model name", platform.machine()),
        "last_level_cache": cpuinfo.get("cache size"),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "src_lines": src_lines,
    }


def tail(samples) -> dict:
    """Highest order statistic with at least ten samples beyond it.

    With fewer than eleven samples no such statistic exists and the
    maximum is reported; ``beyond`` then says how many samples lie above.
    """
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs),
            "beyond": len(xs) - 1 - k, "samples": len(xs)}


def setup_probe_seconds(args, count) -> list:
    """Set-up time of fresh processes that import and build the first cell."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Runs cells, checks them and keeps the tallies of one benchmark run.

    ``attempted`` counts runs and ``failed_runs`` the runs with a failed
    check; a failed check on the whole output (fingerprints, trace
    invariants) is printed and makes the result incorrect without being
    a run of its own. Nothing here stops the timing.
    """

    def __init__(self, workload, seed):
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed_runs = 0
        self.failures = []
        self.final_errors = []

    def run(self, cell):
        start = time.perf_counter()
        out = self.wl.run(cell)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if self.wl.kind == "learn" and not isinstance(out, Exception):
            self.final_errors.append(out.final_error)
        errors = self.wl.check(cell, out)
        self.failed_runs += bool(errors)
        for message in errors:
            self.fail(f"cell {cell.index}: {message}")
        return out, elapsed

    def fail(self, message):
        self.failures.append(message)
        print(f"FAIL {self.wl.name} seed {self.seed}: {message}", flush=True)

    def cycle(self, start_index, ready=None):
        """One cycle of cells from ``start_index``, each generated just before
        its run unless ``ready`` holds it; returns (outputs, per-run seconds,
        wall seconds)."""
        start = time.perf_counter()
        outs, times = [], []
        for index in range(start_index, start_index + self.wl.cycle):
            cell = ready if ready is not None and ready.index == index else self.wl.cell(self.seed, index)
            out, elapsed = self.run(cell)
            outs.append(out)
            times.append(elapsed)
        return outs, times, time.perf_counter() - start

    def rerun_check(self, first_out):
        """Cell 0 generated and run again must give byte-identical output."""
        failed_before = self.failed_runs
        cell = self.wl.cell(self.seed, 0)
        again, _ = self.run(cell)
        if self.wl.digest(again) != self.wl.digest(first_out):
            self.failed_runs = failed_before + 1
            self.fail(f"cell {cell.index}: output differs when run again with the same seed")

    @property
    def fail_ratio(self) -> float:
        return self.failed_runs / self.attempted


def outcome_figures(runner, outs) -> dict:
    """The INFORMATIONAL figures: query and stage totals over one cycle's
    outputs, the run failure ratio and the largest final error."""
    figures = {key: sum(runner.wl.counts(out)[key] for out in outs)
               for key in ("quantum_queries", "classical_queries", "stages")}
    figures["fail_ratio"] = runner.fail_ratio
    figures["final_error.max"] = max(runner.final_errors, default=0.0)
    return figures


def measure(wmod, wl, args, first_cell) -> tuple:
    """Untraced timing of whole cycles until the deadline.

    Run-time statistics are taken per cycle, whose size the workload
    fixes, and then as medians over cycles, so the tail's percentile does
    not drift with how many runs fit in the time.
    """
    runner = Runner(wl, args.seed)
    deadline = time.perf_counter() + args.seconds
    cycles, walls, first_outs = [], [], None
    index = 0
    while True:
        outs, times, wall = runner.cycle(index, first_cell)
        first_outs = first_outs or outs
        cycles.append(times)
        walls.append(wall)
        index += wl.cycle
        # start another cycle only if at least half of it fits before the deadline
        if time.perf_counter() + statistics.median(walls) / 2 >= deadline:
            break
    runner.rerun_check(first_outs[0])
    tails = [tail(times) for times in cycles]
    metrics = {
        "run_s.p50": statistics.median(statistics.median(times) for times in cycles),
        "run_s.tail": statistics.median(stat["value"] for stat in tails),
        "wall_s": statistics.median(walls),
    }
    info = {
        "fingerprint": wmod.fingerprint([wl.record(out) for out in first_outs]),
        "run_s": {"cycles": len(cycles), "samples_per_cycle": wl.cycle,
                  "tail_percentile": tails[0]["percentile"], "beyond_tail": tails[0]["beyond"]},
        **outcome_figures(runner, first_outs),
    }
    return runner, metrics, info


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Calls, failed calls and self seconds of every traced function, the
    computed counters, and the ratios, each next to its base."""
    from tracer import COUNTERS, TARGETS

    out = {key: counts.get(key, 0) for key in COUNTERS}
    for module, path, *_ in TARGETS:
        row = summary.get(f"{module}.{path}", {})
        out[f"{module}.{path}.calls"] = row.get("calls", 0)
        out[f"{module}.{path}.fail"] = row.get("fail", 0)
        out[f"{module}.{path}.s"] = row.get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    searches = out["weaklearn.quantum_weak_parity.calls"]
    verified = searches - out["weaklearn.quantum_weak_parity.fail"]
    out["weaklearn.verified_parities"] = verified
    out["weaklearn.digit_rows_per_stage"] = ratio(searches, out["weaklearn.weighted_weak_parity.calls"])
    out["weaklearn.grover_steps_per_search"] = ratio(out["simulator.grover_step.calls"], searches)
    out["weaklearn.verify_yield"] = ratio(verified, out["weaklearn.measured_candidates"])
    return out


def invariant_errors(m: dict) -> list:
    errors = []
    if m["simulator.hadamard_index.calls"] != (2 * m["simulator.prepare_spectrum_state.calls"]
                                               + 4 * m["simulator.grover_step.calls"]):
        errors.append("hadamard_index.calls != 2*prepare_spectrum_state.calls + 4*grover_step.calls")
    if m["boolfn.butterfly_axis0.calls"] != (m["simulator.hadamard_index.calls"]
                                             + m["boolfn.wht_unscaled.calls"]):
        errors.append("butterfly_axis0.calls != hadamard_index.calls + wht_unscaled.calls")
    return errors


def self_time_errors(summary: dict, traced_wall: float) -> list:
    selfs = [row["self_s"] for row in summary.values()]
    errors = [f"negative self time in {name}" for name, row in summary.items() if row["self_s"] < 0]
    if sum(selfs) > traced_wall:
        errors.append(f"self times sum to {sum(selfs)} s, above the traced wall {traced_wall} s")
    return errors


def trace(wmod, wl, args, first_cell) -> tuple:
    """Pairs of untraced and traced passes over the first cycle, after one
    untimed warm-up pass and in alternating order, so first-touch costs
    land on neither side of the overhead."""
    from tracer import Tracer

    runner = Runner(wl, args.seed)
    runner.cycle(0, first_cell)
    deadline = time.perf_counter() + args.seconds
    walls = {False: [], True: []}
    per_pass, fingerprints = [], set()
    tracer = Tracer()
    while True:
        for traced in (False, True) if len(per_pass) % 2 == 0 else (True, False):
            tracer.reset()
            if traced:
                with tracer:
                    outs, _, wall = runner.cycle(0, first_cell)
                summary = tracer.summary()
                metrics = layer_metrics(summary, tracer.counts)
                for message in invariant_errors(metrics) + self_time_errors(summary, wall):
                    runner.fail(f"trace invariant: {message}")
                per_pass.append(metrics)
            else:
                outs, _, wall = runner.cycle(0, first_cell)
            walls[traced].append(wall)
            fingerprints.add(wmod.fingerprint([wl.record(out) for out in outs]))
        pair = statistics.median(walls[False]) + statistics.median(walls[True])
        if time.perf_counter() + pair / 2 >= deadline:
            break
    if len(fingerprints) != 1:
        runner.fail(f"traced and untraced fingerprints differ: {sorted(fingerprints)}")
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith(".s"):
            metrics[key] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                runner.fail(f"count {key} differs between traced passes: {values}")
            metrics[key] = values[0]
    metrics.update(outcome_figures(runner, outs))
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    info = {"fingerprint": sorted(fingerprints), "passes": len(per_pass),
            "traced_wall_s": walls[True], "untraced_wall_s": walls[False]}
    return runner, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    wmod = import_library()
    if args.workload not in wmod.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wmod.WORKLOADS)}")
    wl = wmod.WORKLOADS[args.workload]
    first_cell = wl.cell(args.seed, 0)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    if args.trace:
        runner, metrics, info = trace(wmod, wl, args, first_cell)
    else:
        setups = [setup_s] + setup_probe_seconds(args, SETUP_PROBES // 2)
        runner, metrics, info = measure(wmod, wl, args, first_cell)
        setups += setup_probe_seconds(args, SETUP_PROBES - SETUP_PROBES // 2)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info["setup_s.samples"] = setups
    info.update(workload=wl.name, seed=args.seed, trace=args.trace,
                attempted=runner.attempted, failures=runner.failures, machine=machine_block())
    declared = declared_metrics(args.trace)
    if not args.trace:
        info["metrics"] = {**{k: [metrics[k], u] for k, u in declared.items()},
                           **{k: [info[k], u] for k, u in INFORMATIONAL.items()}}
    print(json.dumps({"report": info}, sort_keys=True, default=str))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        sys.exit(f"error: metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed_runs,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


def declared_metrics(traced: int) -> dict:
    """Metric names and units, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
