"""The three benchmark workloads.

Each is single-process and closed-loop: the next operation starts when the
previous one returns.  A workload's `setup` builds its inputs from the seed
and warms up; `run_round` runs one round of operations through the clock;
`check` runs the independent correctness checks on everything recorded.
Every round attempts the same operations, so the share of failed operations
does not depend on the seed or on how many rounds fit in a run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time

import numpy as np

import checks


class Clock:
    """Times operations and runs the calibration kernel between them."""

    def __init__(self, calibrator) -> None:
        self._calibrator = calibrator
        self.tracer = None  # set while a round is traced
        self.ops: list[tuple[float, bool]] = []  # (raw seconds, succeeded)
        self._start = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self, ok: bool = True) -> None:
        self.ops.append((time.perf_counter() - self._start, ok))
        if self.tracer is None:
            self._calibrator.maybe_run()
        else:
            self.tracer.record("calib", "kernel", self._calibrator.maybe_run)


def _models(root):
    models = root / "src" / "muntzspec" / "models"
    ann = json.loads((models / "reference_ann.json").read_text(encoding="utf-8"))
    spline = json.loads((models / "reference_spline.json").read_text(encoding="utf-8"))
    return models, ann, spline


class Train:
    """Solver-in-the-loop training of one restart for a few epochs at the
    paper's training discretization (M=20, N=10).  One operation is one
    epoch.  Each round trains the same initial network on a fresh seeded
    training set, so almost every solve meets a new λ and misses the
    λ-keyed quadrature cache, as in a real training run."""

    CALIBRATION = ("small_lu", "kron", "python")
    N_MU, N_NU, BATCH, EPOCHS = 6, 5, 10, 5
    VAL_MU, VAL_NU = 5, 5
    # The initial weights are a hyperparameter, not an input: with a seeded
    # init the loss after five epochs ranges over 0.03-0.16 across seeds.
    INIT_SEED = 7

    def __init__(self, pkg, root, workdir, seed: int, clock: Clock) -> None:
        self.pkg, self.seed, self.clock = pkg, seed, clock
        self.histories: list[np.ndarray] = []
        self.network = None

    def _training_set(self, round_index: int):
        """One order and one exponent in the middle half of each cell of a
        6 x 5 grid over (0, 1)^2, with λ = 1 reference errors solved as
        `generate_dataset` does.  Its uniform draws can cluster, and then
        the validation loss rises in some epoch (5 of 82 seeded sets did)."""
        mltune = self.pkg.mltune
        rng = np.random.default_rng((self.seed, round_index))
        mu_axis = (np.arange(self.N_MU) + rng.uniform(0.25, 0.75, self.N_MU)) / self.N_MU
        nu_axis = (np.arange(self.N_NU) + rng.uniform(0.25, 0.75, self.N_NU)) / self.N_NU
        mu, nu = np.repeat(mu_axis, self.N_NU), np.tile(nu_axis, self.N_MU)
        ref = np.array([mltune.sample_error(self.context, m, n, 1.0) for m, n in zip(mu, nu)])
        return mltune.Dataset("training", mu, nu, ref, None, self.N_MU, self.N_NU)

    def setup(self) -> None:
        mltune = self.pkg.mltune
        self.context = mltune.SolverContext()
        self.config = mltune.TrainingConfig(
            n_mu=self.N_MU, n_nu=self.N_NU, batch_size=self.BATCH, epochs=self.EPOCHS,
            restarts=1, seed=self.INIT_SEED, workers=1,
        )
        self.validation = mltune.generate_dataset("validation", self.VAL_MU, self.VAL_NU, context=self.context)
        self.next_set = self._training_set(0)
        # epoch boundaries: the training loop asks the schedule for the
        # learning rate once at the start of every epoch
        schedule = mltune.cawr_lr
        clock = self.clock

        def timed_schedule(epoch, config):
            if epoch > 1:
                clock.stop()
                clock.start()
            return schedule(epoch, config)

        mltune.cawr_lr = timed_schedule

    def run_round(self, round_index: int) -> None:
        train_set = self.next_set
        self.clock.start()
        result = self.pkg.mltune.train(self.config, train_set, self.validation, context=self.context)
        self.clock.stop()
        self.histories.append(result.history[:, 3].copy())
        if self.network is None:
            self.network = result.network
        # the next round's reference solves are input preparation, not an epoch
        self.next_set = self._training_set(round_index + 1)

    def check(self) -> None:
        for history in self.histories:
            checks.check_loss_history(history)
        # one extra solve whose exact solution lies in the trial space, at the
        # trained network's λ for a seeded order
        rng = np.random.default_rng((self.seed, 1))
        mu = float(rng.uniform(0.2, 0.5))
        mltune, solver1d = self.pkg.mltune, self.pkg.solver1d
        lam = float(np.clip(mltune.forward(self.network, mu), self.config.clamp_lo, self.config.clamp_hi))
        ctx = self.context
        forcing = checks.galerkin_forcing(mu, lam, ctx.kappa, ctx.rho)
        solution = solver1d.solve_1d(ctx.solver_config(mu, lam), forcing)
        xs = np.linspace(-0.97, 0.97, 59)
        ts = np.linspace(0.02, 1.0, 23)
        checks.check_galerkin(solver1d.evaluate_grid(solution, xs, ts), lam, xs, ts)

    def val_loss(self) -> float:
        return float(self.histories[0][-1])


def _tuned_lambdas(pkg, models, mus):
    net, _ = pkg.mltune.load_model(str(models / "reference_ann.json"))
    spline = pkg.mltune.load_spline(str(models / "reference_spline.json"))
    return {
        mu: {
            "ann": pkg.mltune.forward(net, mu),
            "spline": float(pkg.mltune.spline_predict(spline, mu)),
            "one": 1.0,
        }
        for mu in mus
    }


class Solve1DLarge:
    """Large 1D solves (M = N = 32, 40, 48) of t^μ sin(πx) for one order μ in
    each third of (0, 1), each at the packaged ANN's λ, the packaged spline's
    λ and λ = 1: the paper's comparison.  Time goes to the dense O((MN)^3)
    Kronecker LU.  Only nine distinct λ occur, so the quadrature rules are
    reused.  One operation is one solve plus evaluation at the benchmark's
    own points.

    The orders are fixed and the seed only orders each round: the error
    ratios behind `val_loss` swing threefold when μ moves by 0.05.
    """

    CALIBRATION = ("large_lu", "kron")
    MUS = (0.2, 0.5, 0.8)
    SIZES = (32, 40, 48)
    SOURCES = ("ann", "spline", "one")
    # RMS error over a uniform space-time grid; the λ = 1 error at a few
    # single times does not fall monotonically in N for μ near 0.8
    XS = np.linspace(-0.99, 0.99, 199)
    TS = np.linspace(0.05, 1.0, 20)

    def __init__(self, pkg, root, workdir, seed: int, clock: Clock) -> None:
        self.pkg, self.root, self.seed, self.clock = pkg, root, seed, clock
        self.errors: dict = {}
        self.rng = np.random.default_rng((seed, 2))

    def setup(self) -> None:
        models, self.ann_doc, self.spline_doc = _models(self.root)
        self.lams = _tuned_lambdas(self.pkg, models, self.MUS)
        self.cases = [(mu, n, src) for mu in self.MUS for n in self.SIZES for src in self.SOURCES]
        self._solve(0.5, 8, 0.5)  # warm-up

    def _solve(self, mu, n, lam):
        solver1d = self.pkg.solver1d
        problem = self.pkg.assembly.ManufacturedProblem(mu=mu, nu=mu)
        config = solver1d.SolverConfig(mu=mu, lam=lam, m_space=n, n_time=n)
        return solver1d.evaluate_grid(solver1d.solve_1d(config, problem), self.XS, self.TS)

    def run_round(self, round_index: int) -> None:
        for i in self.rng.permutation(len(self.cases)):
            mu, n, src = self.cases[i]
            self.clock.start()
            values = self._solve(mu, n, self.lams[mu][src])
            self.clock.stop()
            err = checks.rms_error(values, checks.exact_1d(mu, self.XS, self.TS))
            if self.errors.setdefault(((mu, n), src), err) != err:
                raise checks.CheckFailed(f"solve at mu={mu}, N={n}, {src} λ is not repeatable")

    def check(self) -> None:
        for mu in self.MUS:
            for src in self.SOURCES:
                checks.check_lambda(src, mu, self.lams[mu][src], self.ann_doc, self.spline_doc)
            checks.check_falls_with_n({n: self.errors[(mu, n), "one"] for n in self.SIZES})
        checks.check_tuned_beats_one(self.errors)

    def val_loss(self) -> float:
        """The paper's objective for the packaged ANN on this workload: mean
        of error(ANN λ) / error(λ = 1)."""
        return float(np.mean([self.errors[case, "ann"] / self.errors[case, "one"]
                              for case, src in self.errors if src == "ann"]))


CLI_CONFIG = """[problem]
mu = {mu!r}
nu = {nu!r}
kappa = 1.0
rho = 0.0
dimension = 2
t_end = 1.0
exact = manufactured
forcing = manufactured

[discretization]
M = {n}
N = {n}
lambda = {source}

[output]
out_dir = {out}
"""


class Cli2D:
    """In-process `muntzspec solve` calls on generated 2D configs over a fixed
    grid of orders and sizes (M = N = 20, 32, 48), with λ from
    `ann:packaged`, `spline:packaged` and `one`.  One operation is one CLI
    call: config parsing, model loading, the 2D solve, error norms and CSV
    output.

    At the ANN's λ the 2D fast path fails ("imaginary residue ... exceeds
    1e-06", from the complex QZ in solver2d) on the cases in KNOWN_FAULTS.
    These 8 of the 36 operations of a round fail on every run; they are
    counted in `failed` and still timed, and any other failure fails the
    run.  The inputs are therefore fixed: the seed only orders each round
    and picks the solves checked against the closed form.  The checks and
    `val_loss` leave the known-fault cases out whether or not they solve,
    so a change that mends the fault moves only `failed`.
    """

    CALIBRATION = ("small_lu", "python")
    MUS = (0.2, 0.4, 0.6, 0.8)
    SIZES = (20, 32, 48)
    SOURCES = {"ann": "ann:packaged", "spline": "spline:packaged", "one": "one"}
    EXPECTED_FAULT = "imaginary residue"
    KNOWN_FAULTS = {(0.2, 20), (0.2, 32), (0.2, 48), (0.4, 20), (0.4, 32), (0.4, 48), (0.6, 32), (0.6, 48)}
    SAMPLE_CHECKS = 3

    def __init__(self, pkg, root, workdir, seed: int, clock: Clock) -> None:
        self.pkg, self.root, self.workdir, self.seed, self.clock = pkg, root, workdir, seed, clock
        self.rng = np.random.default_rng((seed, 3))
        self.rows: dict = {}  # case -> (lambda, L2, Linf) or None when it failed

    def setup(self) -> None:
        workdir = self.workdir
        _, self.ann_doc, self.spline_doc = _models(self.root)
        self.cases = []
        for mu in self.MUS:
            for n in self.SIZES:
                for src, token in self.SOURCES.items():
                    out = workdir / f"mu{mu}_n{n}_{src}"
                    path = workdir / f"mu{mu}_n{n}_{src}.ini"
                    path.write_text(CLI_CONFIG.format(mu=mu, nu=1.0 - mu, n=n, source=token, out=out),
                                    encoding="utf-8")
                    self.cases.append(((mu, n), src, path, out / "errors.csv"))
        self._call(self.cases[0][2])  # warm-up

    def _call(self, path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(["solve", "--config", str(path)])
        return code, err.getvalue()

    def run_round(self, round_index: int) -> None:
        for i in self.rng.permutation(len(self.cases)):
            case, src, path, result = self.cases[i]
            self.clock.start()
            code, err = self._call(path)
            self.clock.stop(ok=code == 0)
            if code == 0:
                with open(result, newline="", encoding="utf-8") as handle:
                    row = next(csv.DictReader(handle))
                outcome = (float(row["lambda"]), float(row["L2"]), float(row["Linf"]))
            elif code == 3 and self._known_fault(case, src) and self.EXPECTED_FAULT in err:
                outcome = None
            else:
                raise checks.CheckFailed(f"muntzspec solve {case} with {src} λ exited {code}: {err.strip()}")
            if self.rows.setdefault((case, src), outcome) != outcome:
                raise checks.CheckFailed(f"solve {case} with {src} λ is not repeatable")

    def _known_fault(self, case, src) -> bool:
        return src == "ann" and case in self.KNOWN_FAULTS

    def check(self) -> None:
        linf = {}
        for (case, src), outcome in self.rows.items():
            if outcome is None:
                continue
            checks.check_lambda(src, case[0], outcome[0], self.ann_doc, self.spline_doc)
            if self._known_fault(case, src):
                # mended: held only to the accuracy of λ = 1
                checks.check_linf("one", outcome[2])
                continue
            checks.check_linf(src, outcome[2])
            linf[case, src] = outcome[2]
        checks.check_tuned_beats_one(linf)
        # a seeded sample of solves, re-solved through the library and checked
        # against the closed form and the x <-> y symmetry of the problem
        solver2d, assembly = self.pkg.solver2d, self.pkg.assembly
        solved = sorted(linf)
        rng = np.random.default_rng((self.seed, 4))
        points = np.sort(rng.uniform(-1.0, 1.0, 41))
        for i in rng.choice(len(solved), self.SAMPLE_CHECKS, replace=False):
            (mu, n), src = solved[i]
            lam = self.rows[(mu, n), src][0]
            problem = assembly.ManufacturedProblem(mu=mu, nu=1.0 - mu, rho=0.0, dim=2)
            config = self.pkg.solver1d.SolverConfig(mu=mu, lam=lam, rho=0.0, m_space=n, n_time=n, dimension=2)
            values = solver2d.evaluate_grid_2d(solver2d.solve_2d(config, problem), points, points, np.array([1.0]))[0]
            checks.check_symmetry(values)
            checks.check_closed_form_2d(values, checks.exact_2d(1.0 - mu, points, points, 1.0), linf[(mu, n), src])

    def val_loss(self) -> float:
        """Mean of Linf(tuned λ) / Linf(λ = 1) over the tuned solves outside
        KNOWN_FAULTS."""
        return float(np.mean([out[2] / self.rows[case, "one"][2] for (case, src), out in self.rows.items()
                              if src != "one" and not self._known_fault(case, src)]))


WORKLOADS = {"train": Train, "solve-1d-large": Solve1DLarge, "cli-2d": Cli2D}
