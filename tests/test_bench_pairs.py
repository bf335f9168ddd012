"""The acceptance rules that scripts/bench_pairs.py reports for each
end-to-end metric, on synthetic runs."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

SPECS = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "work_s", "better": "lower", "bound": 0.2},
    {"name": "val_loss", "better": "lower", "bound": 0.05},
    {"name": "score", "better": "higher", "bound": 0.1},
]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(values: dict[str, list[float]]) -> list[dict]:
    count = len(next(iter(values.values())))
    return [
        {
            "metrics": {name: {"value": v[i]} for name, v in values.items()},
            "attempted": 10,
            "failed": 0,
            "correct": True,
        }
        for i in range(count)
    ]


def summary(parent: dict, change: dict) -> dict:
    specs = [spec for spec in SPECS if spec["name"] in parent]
    return load_script().summarize(
        {"parent": runs(parent), "change": runs(change)}, specs
    )["metrics"]


def test_resolved_gain_and_bounds():
    parent = {
        "work_s": [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01],
        "val_loss": [0.5] * 10,
        "score": [10.0] * 10,
    }
    change = {
        "work_s": [0.5, 0.51, 0.49, 0.5, 0.5, 0.52, 0.48, 0.5, 0.5, 0.51],
        # 4% worse, inside the 5% bound
        "val_loss": [0.52] * 10,
        # 11% worse for a higher-is-better metric, past its 10% bound
        "score": [8.9] * 10,
    }
    metrics = summary(parent, change)
    assert metrics["work_s"]["change_wins"] == 10
    assert metrics["work_s"]["within_bound"] and metrics["work_s"]["gain_resolved"]
    assert metrics["val_loss"]["within_bound"] and not metrics["val_loss"]["gain_resolved"]
    assert not metrics["score"]["within_bound"] and not metrics["score"]["gain_resolved"]


def test_gain_needs_nine_wins_and_a_margin_past_the_quartiles():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.3, 0.7, 1.0, 1.0]
    # nine wins and one tie, but a median gain (0.05) inside the parent's
    # interquartile range (0.15)
    small = [p - 0.05 for p in parent[:9]] + [parent[9]]
    # a clear margin, but only eight wins: two ties count for neither side
    tied = [p - 0.5 for p in parent[:8]] + parent[8:]
    # the same margin with nine wins
    nine = [p - 0.5 for p in parent[:9]] + [parent[9] + 0.01]
    results = {name: summary({"work_s": parent}, {"work_s": values})["work_s"]
               for name, values in (("small", small), ("tied", tied), ("nine", nine))}
    assert results["small"]["change_wins"] == 9 and results["small"]["ties"] == 1
    assert not results["small"]["gain_resolved"]
    assert results["tied"]["change_wins"] == 8 and not results["tied"]["gain_resolved"]
    assert results["nine"]["change_wins"] == 9 and results["nine"]["gain_resolved"]
    for entry in results.values():
        assert entry["within_bound"]


def test_worse_by_the_bound_is_within_it():
    # 2.5 against 2.0 is worse by exactly the 25% bound
    metrics = summary({"setup_s": [2.0, 2.0, 2.0]}, {"setup_s": [2.5, 2.5, 2.5]})
    assert metrics["setup_s"]["within_bound"]
    metrics = summary({"setup_s": [2.0, 2.0, 2.0]}, {"setup_s": [2.5, 2.5, 2.51]})
    assert metrics["setup_s"]["within_bound"]
    metrics = summary({"setup_s": [2.0, 2.0, 2.0]}, {"setup_s": [2.51, 2.51, 2.51]})
    assert not metrics["setup_s"]["within_bound"]


def test_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 0.8 and 1.2 around a median of 1.0: a spread of 40%
    # against the 25% bound of setup_s; work_s's quartiles are both 1.0
    wide = [0.6, 0.8, 0.8, 1.0, 1.0, 1.0, 1.2, 1.2, 1.4]
    tight = [0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01]
    same = {"setup_s": wide, "work_s": tight}
    metrics = summary(same, same)
    assert metrics["setup_s"]["within_bound"] and metrics["setup_s"]["unresolved"]
    assert metrics["work_s"]["within_bound"] and not metrics["work_s"]["unresolved"]
    # every change run below every parent run resolves even a wide spread
    faster = {"setup_s": [v - 0.9 for v in wide], "work_s": tight}
    assert not summary(same, faster)["setup_s"]["unresolved"]
    # for a higher-is-better metric, every change run must read higher
    score = [6.0, 8.0, 8.0, 10.0, 10.0, 10.0, 12.0, 12.0, 14.0]
    assert summary({"score": score}, {"score": score})["score"]["unresolved"]
    higher = summary({"score": score}, {"score": [v + 9.0 for v in score]})["score"]
    assert not higher["unresolved"]
