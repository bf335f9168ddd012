"""Compare two checkouts on the benchmark by alternating pairs of runs.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE [--workload train]
        [--pairs 10] [--seconds 30] [--seed 31]

PARENT and CHANGE are two checkouts of the repository, for example made with
`git worktree add ../parent HEAD~1`.  Pair i runs `bench/run.py --workload W
--seconds S --seed (seed + i)` once in each checkout, the parent first in
even pairs and the change first in odd ones, so that drift of the machine
falls on both sides alike.  Each run's last output line is its JSON result.

Prints one JSON document: for every end-to-end metric that BENCHMARK.json
declares, the medians and quartiles of both sides, every run's value, the
change's median relative to the parent's, and in how many pairs the change
was better (in the metric's own direction) or equal; plus the failed share
of operations and whether every run passed its checks.  Each metric also
carries the two acceptance rules and one flag:
  within_bound   the change's median is worse than the parent's by no more
                 than the metric's `bound` (a fraction of the parent's)
  gain_resolved  the change is better in at least 9 of 10 pairs (a tie is
                 no win) and its median is better than the parent's by more
                 than the parent's interquartile range
  unresolved     the parent's interquartile range is wider than the bound
                 (`bound` x |parent median|) and not every change run is
                 better than every parent run: the spread is too wide for
                 within_bound to show that nothing changed
The script itself writes nothing; the runs leave in each checkout only what
bench/run.py leaves there.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(checkout: pathlib.Path, workload: str, seconds: float, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
         "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: bench/run.py printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(results: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    summary: dict = {"pairs": len(results["parent"]), "metrics": {}}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in results.items()}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"])
        )
        ties = sum(c == p for p, c in zip(sides["parent"], sides["change"]))
        entry = {"better": spec["better"], "change_wins": wins, "ties": ties}
        for side, values in sides.items():
            q1, median, q3 = quartiles(values)
            entry[side] = {"median": median, "q1": q1, "q3": q3, "runs": values}
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        entry["change_over_parent"] = change / parent if parent else None
        # how much better the change's median is, in the metric's direction
        gain = parent - change if lower else change - parent
        spread = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["within_bound"] = -gain <= spec["bound"] * abs(parent)
        entry["gain_resolved"] = wins >= 0.9 * len(sides["parent"]) and gain > spread
        if lower:
            beats_every_run = max(sides["change"]) < min(sides["parent"])
        else:
            beats_every_run = min(sides["change"]) > max(sides["parent"])
        entry["unresolved"] = spread > spec["bound"] * abs(parent) and not beats_every_run
        summary["metrics"][name] = entry
    for side, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        summary[f"{side}_failed_share"] = sum(r["failed"] for r in runs) / max(attempted, 1)
        summary[f"{side}_all_correct"] = all(r["correct"] for r in runs)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", default="train")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=31, help="seed of the first pair")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in checkouts.values():
        if not (path / "bench" / "run.py").is_file():
            raise SystemExit(f"{path} is not a checkout with bench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(checkouts[side], args.workload, args.seconds, args.seed + i))
            print(f"pair {i + 1}/{args.pairs} {side} done", file=sys.stderr)
    summary = summarize(results, spec["end_to_end"])
    summary.update(workload=args.workload, seconds=args.seconds, first_seed=args.seed)
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
