"""Calibration kernel: fixed pieces of numerical work with no muntzspec code.

Raw wall time on a shared virtual machine drifts by a third from one run to
the next.  Every benchmark time is therefore multiplied by
(reference calibration time / calibration time measured in the same run),
which cancels the part of the drift that the kernel sees too.

The kernel has four parts of about equal time, one for each kind of work
the workloads do: LUs of a training-size system, one 1200 x 1200 LU (the
dense cost of the large solves), small Kronecker products with norms, and a
pure-Python loop (interpreter overhead).  A slow spell on this machine does
not slow every kind of work alike (training-size LUs and training epochs
slowed 1.6x while the large LU slowed 1.3x), so each workload calibrates
with the parts that match its own work.  The parts run one at a time, in
turn, between operations, so they sample the whole timed phase.  The speed
of the machine also changes within a run, so each round of operations is
calibrated by the parts run during it: its calibration time is the sum of
those parts' median times.

The set-up, mostly imports, ends before the first of those parts runs, so
it is calibrated apart: the Python-loop part runs at the start of the
process, after the imports and after the set-up, and the set-up time (less
those parts) is scaled by their mean.  This module imports numpy only when the kernel is built, so that the
first of these parts runs before numpy loads.
"""

from __future__ import annotations

import statistics
import time

# Median time of each part inside benchmark runs on the reference machine
# (README.md, "Calibration"); each run prints its own as `calib_parts_s`.
REFERENCE_S = {"small_lu": 0.0505, "large_lu": 0.0505, "kron": 0.0498, "python": 0.0497}
INTERVAL_S = 0.2  # least time between two kernel parts


def _python_loop() -> int:
    acc = 0
    for i in range(800_000):
        acc += i % 7
    return acc


def _repeat(func, arg, times: int):
    return lambda: [func(arg) for _ in range(times)]


def kernel_parts(names) -> list:
    """The named parts as callables, inputs seeded per part.  Diagonal
    shifts keep both LU matrices well conditioned."""
    import numpy as np
    from scipy.linalg import lu_factor

    builders = {
        "small_lu": lambda rng: _repeat(lu_factor, rng.standard_normal((209, 209)) + 20.0 * np.eye(209), 80),
        "large_lu": lambda rng: _repeat(lu_factor, rng.standard_normal((1200, 1200)) + 100.0 * np.eye(1200), 1),
        "kron": lambda rng: _repeat(
            lambda ab: np.linalg.norm(np.kron(*ab)),
            (rng.standard_normal((19, 19)), rng.standard_normal((11, 11))),
            360,
        ),
        "python": lambda rng: _python_loop,
    }
    seeds = {name: i for i, name in enumerate(REFERENCE_S)}
    return [builders[name](np.random.default_rng((20250521, seeds[name]))) for name in names]


class SetupClock:
    """Times the cold set-up from `t0`, the start of the process, and
    calibrates it with the Python-loop part run at each `mark`."""

    def __init__(self, t0: float) -> None:
        self._t0 = t0
        self.samples: list[float] = []
        self.raw_s = 0.0
        self.mark()

    def mark(self) -> None:
        start = time.perf_counter()
        _python_loop()
        self.samples.append(time.perf_counter() - start)

    def stop(self) -> None:
        """Ends the set-up: its time less the marks so far, then a last mark."""
        self.raw_s = time.perf_counter() - self._t0 - sum(self.samples)
        self.mark()

    @property
    def factor(self) -> float:
        return REFERENCE_S["python"] / statistics.mean(self.samples)


class Calibrator:
    """Runs one kernel part between operations, at most once per interval,
    and turns raw times into calibrated ones."""

    def __init__(self, parts) -> None:
        self.parts = tuple(parts)
        self._kernel = kernel_parts(self.parts)
        self._last = time.perf_counter()
        self.runs: list[tuple[int, float]] = []  # (part index, seconds), in order

    def maybe_run(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.run()

    def run(self) -> None:
        part = len(self.runs) % len(self.parts)
        start = time.perf_counter()
        self._kernel[part]()
        self.runs.append((part, time.perf_counter() - start))
        self._last = time.perf_counter()

    def run_all(self) -> None:
        for _ in self.parts:
            self.run()

    def part_medians(self, start: int = 0) -> list[float]:
        """Median time of each part over the runs from the start-th on; a
        part that has not run since then falls back to all its runs."""
        medians = []
        for part in range(len(self.parts)):
            times = [t for p, t in self.runs[start:] if p == part] or [t for p, t in self.runs if p == part]
            medians.append(statistics.median(times))
        return medians

    def factor(self, start: int = 0) -> float:
        """Multiplier from raw to calibrated seconds, from the runs from the
        start-th on (all of them by default)."""
        return sum(REFERENCE_S[name] for name in self.parts) / sum(self.part_medians(start))
