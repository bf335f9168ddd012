"""Benchmark of the muntzspec solver and tuner.

Runs one workload in this process against the sources under `src/` of the
checkout, checks its outputs with computations made apart from the program,
and prints one JSON result as the last line of standard output:

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(rounds alternate untraced and traced, and the difference of their times is
the tracing overhead).  `--workload all` runs every workload, each in its
own process, and prints every end-to-end metric with its unit.
See bench/README.md for the workloads, the metrics and the calibration.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import os

# one BLAS thread and no worker pools; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MUNTZSPEC_THREADS"):
    os.environ[_var] = "1"

import calib  # noqa: E402  (pure Python until the kernel is built)

SETUP = calib.SetupClock(_T0)

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
WORKLOAD_NAMES = ("train", "solve-1d-large", "cli-2d")
END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("val_loss", "ratio"),
)


def _import_package():
    """Import muntzspec from this checkout's sources, never from elsewhere."""
    if not (SRC / "muntzspec" / "__init__.py").is_file():
        raise SystemExit(f"error: no muntzspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import muntzspec
    import muntzspec.cli  # noqa: F401  (the CLI module is not imported by the package)

    if SRC.resolve() not in pathlib.Path(muntzspec.__file__).resolve().parents:
        raise SystemExit(f"error: imported muntzspec from {muntzspec.__file__}, not {SRC}")
    return muntzspec


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pkg = _import_package()
    SETUP.mark()
    import checks
    import spans
    import workloads

    # conditioning and imaginary-residue warnings carry no news here; the
    # checks judge the outputs
    warnings.simplefilter("ignore", RuntimeWarning)
    calibrator = calib.Calibrator(workloads.WORKLOADS[name].CALIBRATION)
    clock = workloads.Clock(calibrator)
    tracer = spans.Tracer(pkg) if trace else None
    RUNS.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS))
    rounds = []  # (raw seconds of the round's operations, traced, calibration factor)
    op_factors = []  # the calibration factor of each operation's round
    problems = []
    try:
        workload = workloads.WORKLOADS[name](pkg, ROOT, workdir, seed, clock)
        workload.setup()
        SETUP.stop()
        calibrator.run_all()
        begin = time.perf_counter()
        try:
            while True:
                traced = trace and len(rounds) % 2 == 1
                if traced:
                    tracer.new_round()
                    tracer.install()
                    clock.tracer = tracer
                first, first_run = len(clock.ops), len(calibrator.runs)
                try:
                    workload.run_round(len(rounds))
                finally:
                    if traced:
                        tracer.uninstall()
                        clock.tracer = None
                factor = calibrator.factor(first_run)
                rounds.append((sum(t for t, _ in clock.ops[first:]), traced, factor))
                op_factors += [factor] * (len(clock.ops) - first)
                if time.perf_counter() - begin >= seconds and len(rounds) >= 1 + trace:
                    break
            workload.check()
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not rounds:
        print(f"error: no round completed: {problems}", file=sys.stderr)
        return 1

    factor = calibrator.factor()
    op_times = [t for t, _ in clock.ops]
    failed = sum(not ok for _, ok in clock.ops)
    # each round and operation calibrated by the kernel parts run during it
    untraced = [t * f for t, traced, f in rounds if not traced]
    op_calibrated = [t * f for (t, _), f in zip(clock.ops, op_factors)]
    raw = {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "calibration_s": sum(calibrator.part_medians()),
        "calib_samples": len(calibrator.runs),
        "calib_parts_s": dict(zip(calibrator.parts, calibrator.part_medians())),
        "rounds_raw_s": [t for t, _, _ in rounds],
        "rounds_factor": [f for _, _, f in rounds],
        "calib_factor": factor,
        "setup_raw_s": SETUP.raw_s,
        "setup_calib_s": SETUP.samples,
        "work_raw_s": statistics.mean(t for t, traced, _ in rounds if not traced),
        "op_p50_raw_ms": statistics.median(op_times) * 1e3,
    }
    if trace:
        traced_work = [t * f for t, traced, f in rounds if traced]
        metrics = tracer.layer_metrics(len(traced_work), factor)
        metrics["trace.overhead_s"] = statistics.mean(traced_work) - statistics.mean(untraced)
        units = dict(spans.PER_LAYER)
    else:
        metrics = {
            "setup_s": SETUP.raw_s * SETUP.factor,
            "work_s": statistics.mean(untraced),
            "op_p50_ms": statistics.median(op_calibrated) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "val_loss": workload.val_loss() if not problems else float("nan"),
        }
        units = dict(END_TO_END)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("raw: " + json.dumps(raw))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(clock.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; prints every metric by name."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
