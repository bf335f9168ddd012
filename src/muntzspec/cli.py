"""Command-line front end.

Subcommands: solve, convergence, train, predict, compare, dataset.  Runs
are described by a sectioned key=value config file, which `main` parses
once and which, with the command line, is the only source of a run's
settings; an unknown section or key is a configuration error.  Results are
CSV files with 17-significant-digit numeric fields.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import pathlib
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import mltune
from .assembly import ManufacturedProblem
from .errors import NumericalFailure, ParameterDomainError, StructuralError
from .solver1d import SolverConfig, error_norms, evaluate_grid, solve_1d
from .solver2d import error_norms_2d, evaluate_grid_2d, solve_2d

PACKAGED_TOKEN = "packaged"
MODELS_DIR = pathlib.Path(__file__).resolve().parent / "models"


# ---------------------------------------------------------------------------
# Config parsing


@dataclass(frozen=True)
class ProblemSpec:
    mu: float
    kappa: float
    rho: float
    dimension: int
    t_end: float
    exact: str
    nu: float | None
    forcing: str


@dataclass(frozen=True)
class DiscretizationSpec:
    """[discretization], or the [reference] solve used when exact = none."""

    m_space: int
    n_time: int
    lambda_source: str


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec | None
    discretization: DiscretizationSpec | None
    training: dict
    models: dict
    reference: DiscretizationSpec | None
    out_dir: pathlib.Path
    base_dir: pathlib.Path


_GRID_KEYS = frozenset({"m", "n", "lambda"})
# the keys each section may hold, as configparser lower-cases them
SECTION_KEYS = {
    "problem": frozenset({"mu", "nu", "kappa", "rho", "dimension", "t_end", "exact", "forcing"}),
    "discretization": _GRID_KEYS,
    "reference": _GRID_KEYS,
    "training": frozenset(f.name for f in fields(mltune.TrainingConfig)),
    "models": frozenset({"ann", "spline"}),
    "output": frozenset({"out_dir"}),
}


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise StructuralError(f"missing required key '{key}' in [{section.name}]")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except ValueError as exc:
        raise StructuralError(f"key '{key}' in [{section.name}]: {exc}") from exc


def _discretization(parser, name: str) -> DiscretizationSpec | None:
    if not parser.has_section(name):
        return None
    sec = parser[name]
    return DiscretizationSpec(
        m_space=_get(sec, "M", int, required=True),
        n_time=_get(sec, "N", int, required=True),
        lambda_source=_get(sec, "lambda", str, required=True).strip(),
    )


def parse_run_config(path: str) -> RunConfig:
    config_path = pathlib.Path(path)
    if not config_path.is_file():
        raise StructuralError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(config_path)
    except configparser.Error as exc:
        raise StructuralError(f"cannot parse config {path}: {exc}") from exc
    # a typo must not fall back to a default; [DEFAULT] keys are in every section
    for name in parser.sections():
        if name not in SECTION_KEYS:
            raise StructuralError(f"unknown config section [{name}]")
        for key in parser[name]:
            if key not in SECTION_KEYS[name]:
                raise StructuralError(f"unknown key '{key}' in [{name}]")
    base_dir = config_path.resolve().parent

    problem = None
    if parser.has_section("problem"):
        sec = parser["problem"]
        exact = _get(sec, "exact", str, default="manufactured").strip()
        if exact not in ("manufactured", "none"):
            raise StructuralError(f"exact must be manufactured or none, got '{exact}'")
        forcing = _get(sec, "forcing", str, default="manufactured").strip()
        if forcing not in ("manufactured", "sin_pi_x_sin_pi_t"):
            raise StructuralError(
                f"forcing must be manufactured or sin_pi_x_sin_pi_t, got '{forcing}'"
            )
        nu = _get(sec, "nu", float, required=(exact == "manufactured"))
        if exact == "none" and forcing == "manufactured":
            raise StructuralError(
                "forcing=manufactured needs exact=manufactured to derive the source"
            )
        problem = ProblemSpec(
            mu=_get(sec, "mu", float, required=True),
            kappa=_get(sec, "kappa", float, default=1.0),
            rho=_get(sec, "rho", float, default=1.0),
            dimension=_get(sec, "dimension", int, default=1),
            t_end=_get(sec, "t_end", float, default=1.0),
            exact=exact,
            nu=nu,
            forcing=forcing,
        )

    training = dict(parser["training"]) if parser.has_section("training") else {}
    models = {k: v.strip() for k, v in parser["models"].items()} if parser.has_section("models") else {}

    out_dir = pathlib.Path(".")
    if parser.has_section("output") and "out_dir" in parser["output"]:
        out_dir = pathlib.Path(parser["output"]["out_dir"])
        if not out_dir.is_absolute():
            out_dir = (base_dir / out_dir).resolve()

    return RunConfig(
        problem,
        _discretization(parser, "discretization"),
        training,
        models,
        _discretization(parser, "reference"),
        out_dir,
        base_dir,
    )


def build_training_config(raw: dict) -> mltune.TrainingConfig:
    """Typed TrainingConfig from the [training] section, whose keys
    `parse_run_config` has checked, each cast to the type of its field's
    default."""
    casts = {f.name: type(f.default) for f in fields(mltune.TrainingConfig)}
    kwargs = {}
    for key, value in raw.items():
        try:
            kwargs[key] = casts[key](value)
        except ValueError as exc:
            raise StructuralError(f"training key '{key}': {exc}") from exc
    return mltune.TrainingConfig(**kwargs)


def resolve_lambda(source: str, mu: float, base_dir: pathlib.Path) -> float:
    """Exponent from a source string: a number, 'one', 'ann:<path>' or
    'spline:<path>'; the path token 'packaged' selects the shipped model.  A
    network's output is clamped as in training, so it gives the lambda that
    training solved at."""
    if source == "one":
        return 1.0
    if source.startswith("ann:"):
        spec = source[4:].strip()
        if spec == PACKAGED_TOKEN:
            spec = str(MODELS_DIR / "reference_ann.json")
        net, _ = mltune.load_model(_resolve_path(spec, base_dir))
        return float(mltune.TrainingConfig.clamp_lambda(mltune.forward(net, mu)))
    if source.startswith("spline:"):
        spec = source[7:].strip()
        if spec == PACKAGED_TOKEN:
            spec = str(MODELS_DIR / "reference_spline.json")
        model = mltune.load_spline(_resolve_path(spec, base_dir))
        return float(mltune.spline_predict(model, mu))
    try:
        return float(source)
    except ValueError as exc:
        raise StructuralError(
            f"lambda source must be a number, 'one', 'ann:<path>' or 'spline:<path>', got '{source}'"
        ) from exc


def _resolve_path(spec: str, base_dir: pathlib.Path) -> str:
    path = pathlib.Path(spec)
    if not path.is_absolute():
        path = base_dir / path
    return str(path)


# ---------------------------------------------------------------------------
# CSV output


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: pathlib.Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(_format_value(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Problem assembly helpers


def _expression_source(problem: ProblemSpec):
    if problem.dimension == 1:
        return lambda x, t: np.sin(np.pi * x) * np.sin(np.pi * t)
    return lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * t)


def _problem_source(run: RunConfig):
    """(source, exact callable) for the configured problem, built once per
    command: with exact = none the exact callable is the [reference] solve."""
    problem = run.problem
    if problem.exact == "manufactured":
        manufactured = ManufacturedProblem(
            mu=problem.mu,
            nu=problem.nu,
            kappa=problem.kappa,
            rho=problem.rho,
            dim=problem.dimension,
            t_end=problem.t_end,
        )
        if problem.forcing == "manufactured":
            return manufactured, manufactured.exact
        return _expression_source(problem), manufactured.exact
    if run.reference is None:
        raise StructuralError("exact=none needs a [reference] section for a surrogate solution")
    source = _expression_source(problem)
    return source, _reference_exact(run, source)


def _solver_config(problem: ProblemSpec, disc: DiscretizationSpec, lam: float) -> SolverConfig:
    return SolverConfig(
        mu=problem.mu,
        lam=lam,
        kappa=problem.kappa,
        rho=problem.rho,
        m_space=disc.m_space,
        n_time=disc.n_time,
        t_end=problem.t_end,
        dimension=problem.dimension,
    )


def _reference_exact(run: RunConfig, source):
    """Surrogate exact solution from a high-resolution reference solve."""
    problem = run.problem
    lam = resolve_lambda(run.reference.lambda_source, problem.mu, run.base_dir)
    cfg = _solver_config(problem, run.reference, lam)
    if problem.dimension == 1:
        solution = solve_1d(cfg, source)
        return lambda x, t: evaluate_grid(solution, x, np.array([t]))[0]
    solution = solve_2d(cfg, source)

    def exact(x, t, y=None):
        xv = np.unique(np.asarray(x, dtype=float).ravel())
        yv = np.unique(np.asarray(y, dtype=float).ravel())
        return evaluate_grid_2d(solution, xv, yv, np.array([t]))[0]

    return exact


def _solve_row(run: RunConfig, disc: DiscretizationSpec, lam: float, source, exact):
    """One errors.csv row: solve for source and measure against exact."""
    problem = run.problem
    cfg = _solver_config(problem, disc, lam)
    if problem.dimension == 1:
        solution = solve_1d(cfg, source)
        report = error_norms(solution, exact)
    else:
        solution = solve_2d(cfg, source)
        report = error_norms_2d(solution, exact)
    return [
        problem.dimension, problem.mu, lam, disc.m_space, disc.n_time,
        report.l2, report.linf, solution.residual,
    ]


ERRORS_HEADER = "dim,mu,lambda,M,N,L2,Linf,residual"


# ---------------------------------------------------------------------------
# Subcommands


def _require(value, name):
    if value is None:
        raise StructuralError(f"config is missing the [{name}] section")
    return value


def cmd_solve(run: RunConfig, out: pathlib.Path, args) -> int:
    problem = _require(run.problem, "problem")
    disc = _require(run.discretization, "discretization")
    lam = resolve_lambda(disc.lambda_source, problem.mu, run.base_dir)
    row = _solve_row(run, disc, lam, *_problem_source(run))
    path = out / "errors.csv"
    write_csv(path, ERRORS_HEADER, [row])
    print(f"wrote {path}: Linf {row[6]:.3e}, residual {row[7]:.3e}")
    return 0


def _parse_sweep(text: str):
    axis, _, values = text.partition("=")
    axis = axis.strip().upper()
    if axis not in ("N", "M") or not values:
        raise StructuralError(f"sweep must look like N=4,8,12 or M=8,16, got '{text}'")
    try:
        points = [int(v) for v in values.split(",")]
    except ValueError as exc:
        raise StructuralError(f"sweep values must be integers: {exc}") from exc
    if not points:
        raise StructuralError("sweep needs at least one value")
    return axis, points


def cmd_convergence(run: RunConfig, out: pathlib.Path, args) -> int:
    problem = _require(run.problem, "problem")
    disc = _require(run.discretization, "discretization")
    axis, points = _parse_sweep(args.sweep)
    lam = resolve_lambda(disc.lambda_source, problem.mu, run.base_dir)
    size = "n_time" if axis == "N" else "m_space"
    truth = _problem_source(run)
    rows = [_solve_row(run, replace(disc, **{size: value}), lam, *truth) for value in points]
    path = out / "errors.csv"
    write_csv(path, ERRORS_HEADER, rows)
    print(f"wrote {path}: {len(rows)} rows over {axis}={points}")
    return 0


def _datasets(config: mltune.TrainingConfig, context: mltune.SolverContext):
    """The seeded training set and the validation grid of a training config."""
    train_ds = mltune.generate_dataset(
        "training", config.n_mu, config.n_nu, seed=config.seed, context=context
    )
    val_ds = mltune.generate_dataset(
        "validation", config.n_mu, config.n_nu, context=context
    )
    return train_ds, val_ds


def cmd_train(run: RunConfig, out: pathlib.Path, args) -> int:
    config = build_training_config(run.training)
    context = mltune.SolverContext()
    train_ds, val_ds = _datasets(config, context)
    result = mltune.train(config, train_ds, val_ds, context=context)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.json"
    mltune.save_model(
        result.network,
        str(model_path),
        {
            "seed": config.seed,
            "epochs": config.epochs,
            "restarts": config.restarts,
            "final_train_loss": result.final_train_loss,
            "final_val_loss": result.final_val_loss,
        },
    )
    write_csv(
        out / "loss_history.csv",
        "restart,epoch,train_loss,val_loss",
        [[int(r), int(e), tl, vl] for r, e, tl, vl in result.history],
    )
    print(
        f"wrote {model_path} (best restart {result.best_restart}, "
        f"val loss {result.final_val_loss:.3e})"
    )
    return 0


def _parse_mu_list(text: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise StructuralError(f"mu list must be comma-separated numbers: {exc}") from exc
    if values.size == 0 or np.any(~np.isfinite(values)):
        raise StructuralError(f"mu list must be finite numbers, got '{text}'")
    if np.any((values <= 0.0) | (values >= 1.0)):
        raise ParameterDomainError("mu values must lie strictly inside (0, 1)")
    return values


def cmd_predict(run: RunConfig, out: pathlib.Path, args) -> int:
    mus = _parse_mu_list(args.mu)
    if "ann" in run.models:
        source = run.models["ann"]
    elif "spline" in run.models:
        source = run.models["spline"]
    else:
        raise StructuralError("config needs a [models] section with an ann or spline entry")
    lams = [resolve_lambda(source, mu, run.base_dir) for mu in mus]
    path = out / "predictions.csv"
    write_csv(path, "mu,lambda", list(zip(mus, lams)))
    print(f"wrote {path}: {len(lams)} predictions")
    return 0


def cmd_compare(run: RunConfig, out: pathlib.Path, args) -> int:
    problem = _require(run.problem, "problem")
    disc = _require(run.discretization, "discretization")
    for role in ("ann", "spline"):
        if role not in run.models:
            raise StructuralError(f"compare needs a '{role}' entry in [models]")
    truth = _problem_source(run)
    rows = []
    for role, source in (
        ("one", "one"),
        ("spline", run.models["spline"]),
        ("ann", run.models["ann"]),
    ):
        lam = resolve_lambda(source, problem.mu, run.base_dir)
        full = _solve_row(run, disc, lam, *truth)
        rows.append([role, lam, full[5], full[6]])
    path = out / "compare.csv"
    write_csv(path, "source,lambda,L2,Linf", rows)
    print(f"wrote {path}")
    return 0


def cmd_dataset(run: RunConfig, out: pathlib.Path, args) -> int:
    config = build_training_config(run.training)
    out.mkdir(parents=True, exist_ok=True)
    train_ds, val_ds = _datasets(config, mltune.SolverContext())
    mltune.save_dataset(train_ds, str(out / "training_data.csv"))
    mltune.save_dataset(val_ds, str(out / "validation_data.csv"))
    print(f"wrote {out / 'training_data.csv'} and {out / 'validation_data.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muntzspec",
        description="Spectral solver for time-fractional convection-diffusion "
        "problems with a learned basis-exponent tuner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_sweep=False, needs_mu=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--out", default=None, help="output directory override")
        if needs_sweep:
            cmd.add_argument(
                "--sweep", required=True, help="resolution sweep, e.g. N=4,8,12,16,20"
            )
        if needs_mu:
            cmd.add_argument("--mu", required=True, help="comma-separated orders")
        cmd.set_defaults(func=func)

    add("solve", cmd_solve, "solve one configured problem and report errors")
    add("convergence", cmd_convergence, "error sweep over N or M", needs_sweep=True)
    add("train", cmd_train, "train the exponent tuner network")
    add("predict", cmd_predict, "evaluate a tuner model at given orders", needs_mu=True)
    add("compare", cmd_compare, "compare solution errors across lambda sources")
    add("dataset", cmd_dataset, "generate and save training/validation datasets")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = parse_run_config(args.config)
        out = pathlib.Path(args.out) if args.out is not None else run.out_dir
        return args.func(run, out, args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
