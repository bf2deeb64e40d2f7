"""fockcalc benchmark runner.

    python3 bench/run.py --workload coeff-dense --seed 1 --seconds 30 --trace 0

Runs one workload in this process with one closed-loop client: each job
starts after the previous one has finished and been checked.  Jobs run in
whole rounds (the workload's job list in order) until their summed wall time
reaches ``--seconds``.  Every output is checked against an independent
reference outside the job's clock.  Reported times are scaled to a reference
host speed measured by ``calibrate()`` between jobs; raw times are printed
next to them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced round, prints per-layer metrics and writes every span to
``bench/.out/``.  The last line of standard output is one JSON object.

fockcalc is imported from ``src/`` of the checkout that holds this file and
nowhere else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("FOCK_QUAD_NODES", None)  # the default node count is part of the workload

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
TAIL_PERCENTILE = 90
DIGITS_CAP = 16.0
# wall time of calibrate() at the reference host speed that reported times are scaled to
REFERENCE_CALIBRATION_S = 0.004


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop (integer arithmetic, tuple-keyed dict inserts).

    The garbage collector is paused so that the program's heap cannot change the
    loop's cost; only the host's speed does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(40000):
            acc += i * i
        for i in range(5000):
            table[i, i + 1] = complex(i, acc)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_speed(*calibrations: float) -> float:
    """Factor that scales a wall time to the reference host speed, from calibrations around it."""
    return REFERENCE_CALIBRATION_S / statistics.fmean(calibrations)


def import_fockcalc() -> SimpleNamespace:
    """A fresh import of the checkout's fockcalc, one attribute per layer module."""
    for name in [m for m in sys.modules if m == "fockcalc" or m.startswith("fockcalc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("fockcalc")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"fockcalc resolved to {pkg.__file__}, outside {ROOT / 'src'}")
    return SimpleNamespace(**{layer: importlib.import_module(f"fockcalc.{layer}") for layer in spans.LAYERS})


def set_up(name: str, seed: int, workdir: Path):
    """Import, generate inputs, write input files and warm up; returns (fc, workload, seconds)."""
    start = time.perf_counter()
    fc = import_fockcalc()
    workload = WORKLOADS[name](fc, np.random.default_rng(seed), str(workdir), seed)
    workload.warm_up()
    return fc, workload, time.perf_counter() - start


def digits(err: float) -> float:
    return DIGITS_CAP if err == 0 else min(DIGITS_CAP, -math.log10(err))


class Round:
    """Latencies, failures and errors of the jobs run so far.

    ``latency`` holds wall times; ``scaled`` holds the same times scaled to the
    reference host speed, from the calibrations just before and just after
    each job (one calibration between two jobs serves both).  A shared host can
    change speed by up to 1.5x in regimes lasting seconds to minutes (measured
    on a 2-vCPU x86-64 virtual machine), which moves raw times between runs far
    more than any regression bound could allow; the scaled times cancel it.
    """

    def __init__(self):
        self.latency: list[float] = []
        self.scaled: list[float] = []
        self.calibration: float | None = None  # the latest, taken after the previous job
        self.failures: list[str] = []
        self.errors: list[tuple[float, str]] = []

    def run(self, jobs, refs, tracer: spans.Tracer | None = None) -> list[dict]:
        records = []
        for i, (job, want) in enumerate(zip(jobs, refs)):
            before = self.calibration if self.calibration is not None else calibrate()
            if tracer is not None:
                tracer.job = i
            start = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:
                out, passed, err = None, False, None
                self.failures.append(f"{job.label}: raised {type(exc).__name__}: {exc}")
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.job = None
            self.calibration = calibrate()
            if out is not None:
                try:
                    passed, err = job.check(out, want)
                except Exception as exc:
                    passed, err = False, None
                    self.failures.append(f"{job.label}: check raised {type(exc).__name__}: {exc}")
                else:
                    if not passed:
                        self.failures.append(f"{job.label}: check failed (error {err})")
            del out
            self.latency.append(wall)
            self.scaled.append(wall * host_speed(before, self.calibration))
            if err is not None:
                self.errors.append((err, job.label))
            records.append({"id": i, "label": job.label, "wall_s": wall})
        return records


def end_to_end(rnd: Round, jobs_per_round: int, setups: list[tuple[float, float]],
               error_note: tuple[int, int, str]) -> dict:
    """Print all seven metrics; return those in BENCHMARK.json.  Times are scaled, raw ones in the notes."""

    def timings(latency):
        lat = sorted(latency)
        # throughput from each job's median over the rounds, so one slow stretch does not decide it
        per_job = [statistics.median(latency[i::jobs_per_round]) for i in range(jobs_per_round)]
        return jobs_per_round / sum(per_job), statistics.median(lat) * 1e3, lat[rank - 1] * 1e3

    n = len(rnd.latency)
    rank = math.ceil(TAIL_PERCENTILE / 100 * n)
    scaled, raw = timings(rnd.scaled), timings(rnd.latency)
    worst = max(rnd.errors, default=(0.0, "none"))
    failed, attempted, label = error_note
    setup_raw, setup_scaled = (statistics.median(s) for s in zip(*setups))
    metrics = {
        "jobs_per_s": (scaled[0], "1/s", f"raw {raw[0]:.6g}; {jobs_per_round} jobs per round over the median "
                       f"latency of each job in {n // jobs_per_round} rounds"),
        "job_p50_ms": (scaled[1], "ms", f"raw {raw[1]:.6g}; over {n} jobs"),
        "job_tail_ms": (scaled[2], "ms", f"raw {raw[2]:.6g}; p{TAIL_PERCENTILE} over {n} jobs, {n - rank} beyond it"),
        "error_rate": (failed / attempted, "ratio", f"{failed} of {attempted} jobs{label}"),
        "accuracy_digits": (digits(worst[0]), "digits", f"min over {len(rnd.errors)} checked jobs"
                            + (f", worst: {worst[1]}" if worst[0] else ", all exact")),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "getrusage ru_maxrss of this process"),
        "setup_s": (setup_scaled, "s", f"raw {setup_raw:.6g}; median of {len(setups)} set-ups"),
    }
    speeds = [s / r for s, r in zip(rnd.scaled, rnd.latency) if r > 0]
    print(f"# times are scaled to the host speed at which the calibration loop takes "
          f"{REFERENCE_CALIBRATION_S * 1e3:g} ms; median scale factor this run {statistics.median(speeds):.4g}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:16s} {value:.6g} {unit}   ({note})")
    # error_rate is zero on two workloads, so it is reported through "attempted" and "failed"
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items() if name != "error_rate"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fockcalc" / "__init__.py").is_file():
        print(f"error: no fockcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    print(f"# fockcalc benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS) + " FOCK_QUAD_NODES=unset")
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            before = calibrate()
            fc, workload, seconds = set_up(args.workload, args.seed, workdir)
            setups.append((seconds, seconds * host_speed(before, calibrate())))
        refs = [job.reference() for job in workload.jobs]
        rnd = Round()
        if args.trace:
            result = traced(fc, workload, refs, rnd, args)
        else:
            while True:
                rnd.run(workload.jobs, refs)
                if sum(rnd.latency) >= args.seconds:
                    break
            failed, attempted, note = len(rnd.failures), len(rnd.latency), ""
            if workload.probe is not None:
                passed, outcome = workload.probe()
                print(f"# robustness probe (not a timed job): {'pass' if passed else 'FAIL'}: {outcome}")
                failed, attempted = failed + (not passed), attempted + 1
                note = f"; includes the robustness probe, {'passed' if passed else 'failed'}"
            result = end_to_end(rnd, len(workload.jobs), setups, (failed, attempted, note))
        for line in rnd.failures:
            print(f"# FAILED {line}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not rnd.failures, "attempted": len(rnd.latency),
                      "failed": len(rnd.failures), "metrics": result}))
    return 0


def traced(fc, workload, refs, rnd: Round, args) -> dict:
    """One untraced round, then the same round traced; returns the per-layer metrics."""
    rnd.run(workload.jobs, refs)
    untraced_wall = sum(rnd.latency)
    tracer = spans.Tracer()
    patches = spans.install(fc, tracer)
    try:
        records = rnd.run(workload.jobs, refs, tracer)
        traced_wall = sum(r["wall_s"] for r in records)
        if workload.probe is not None:
            tracer.job = len(records)
            try:
                passed, outcome = workload.probe()
            finally:
                tracer.job = None
            print(f"# robustness probe (traced, not in the round's wall time): "
                  f"{'pass' if passed else 'FAIL'}: {outcome}")
    finally:
        spans.uninstall(patches)

    metrics = spans.layer_metrics(tracer, traced_wall)
    jobs = len(records)
    metrics["tracing.jobs_per_s"] = (jobs / traced_wall, "1/s")
    metrics["tracing.overhead"] = (1 - untraced_wall / traced_wall, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:.6g} {unit}")
    print(f"# tracing overhead: untraced {jobs / untraced_wall:.4g} jobs/s, traced {jobs / traced_wall:.4g} jobs/s")

    own = tracer.self_times()
    top = {}
    for (name, job, parent, start, end, _), s in zip(tracer.spans, own):
        if parent < 0:
            top.setdefault(job, []).append(f"{name} {(end - start) * 1e3:.2f} ms")
    for r in records:
        print(f"# job {r['id']:3d} {r['label']:40s} {r['wall_s'] * 1e3:10.2f} ms: " + "; ".join(top.get(r["id"], [])))

    out_dir = BENCH / ".out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"jobs": records,
                   "spans": [[n, j, p, s, e, f, o] for (n, j, p, s, e, f), o in zip(tracer.spans, own)]}, fh)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
