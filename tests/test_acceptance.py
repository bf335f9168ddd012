"""Acceptance suite: twelve numbered criteria, one test and one pass/fail
line each, every tolerance and runtime budget stated inline.

Criterion 10's full-size training target is a long-running opt-in job,
enabled by setting MUNTZSPEC_FULL_SCALE; the desk-size run is always on.
"""

import math
import os
import pathlib
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import beta as beta_fn

import muntzspec
from muntzspec import mltune
from muntzspec.assembly import (
    ManufacturedProblem,
    assemble_temporal,
    caputo_power,
)
from muntzspec.basis import MuntzBasis, muntz_jacobi_table, muntz_norm, muntz_project
from muntzspec.quadrature import gauss_jacobi_unit
from muntzspec.solver1d import SolverConfig, error_norms, evaluate_grid, solve_1d
from muntzspec.solver2d import error_norms_2d, solve_2d

from test_assembly import oracle_temporal
from test_solver2d import solve_2d_dense

MODELS_DIR = pathlib.Path(muntzspec.__file__).resolve().parent / "models"


class Budget:
    """Wall-clock guard for a criterion's stated runtime limit."""

    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"{label}: {elapsed:.1f}s exceeds {self.limit}s"
        return elapsed


def report(label, elapsed, detail):
    print(f"{label}: PASS ({detail}, {elapsed:.2f}s)")


def test_criterion_01_quadrature_moments():
    # unit-interval weighted moments against Beta values, rel 1e-11, < 1 s
    budget = Budget(1.0)
    worst = 0.0
    for alpha, beta in ((0.0, 0.0), (0.5, -0.5), (-0.7, 0.0)):
        for n in range(1, 21):
            rule = gauss_jacobi_unit(alpha, beta, n)
            for k in range(2 * n):
                approx = float(np.sum(rule.weights * rule.nodes**k))
                exact = beta_fn(alpha + 1.0, beta + k + 1.0)
                worst = max(worst, abs(approx - exact) / exact)
    assert worst < 1e-11
    elapsed = budget.check("criterion 1")
    report("criterion 01 quadrature moments", elapsed, f"max rel {worst:.2e}")


def test_criterion_02_muntz_orthogonality():
    # weighted Gram: off-diagonals <= 1e-10, diagonals at closed-form norms
    # to rel 1e-10, for the temporal family at three exponent scales, < 1 s
    budget = Budget(1.0)
    nmax = 10
    worst_off = 0.0
    worst_diag = 0.0
    for lam in (1.0, 0.5, 0.09):
        basis = MuntzBasis(lam, nmax)
        rule = gauss_jacobi_unit(0.5, 1.0, 64)
        s = rule.nodes
        table = muntz_jacobi_table(basis, np.power(s, 1.0 / lam))
        scaled = table / s
        gram = (scaled * rule.weights) @ scaled.T
        norms = np.array([muntz_norm(basis, k) for k in range(nmax + 1)])
        worst_diag = max(worst_diag, np.max(np.abs(np.diag(gram) / norms - 1.0)))
        off = gram - np.diag(np.diag(gram))
        worst_off = max(worst_off, np.max(np.abs(off)))
    assert worst_off <= 1e-10
    assert worst_diag <= 1e-10
    elapsed = budget.check("criterion 2")
    report(
        "criterion 02 orthogonality", elapsed,
        f"off {worst_off:.2e}, diag rel {worst_diag:.2e}",
    )


def test_criterion_03_projection_shape():
    # fractional target: exact by N = 5 with the matched exponent scale;
    # algebraic (slow) decay with the classical scale, < 5 s
    budget = Budget(5.0)
    basis = MuntzBasis(0.2, 5)
    _, err_matched = muntz_project(lambda t: t ** (3.0 / 5.0), basis, 64)
    assert err_matched <= 1e-12
    errs = {}
    for nmax in (16, 32):
        basis_one = MuntzBasis(1.0, nmax)
        _, errs[nmax] = muntz_project(lambda t: t ** (3.0 / 5.0), basis_one, 400)
    ratio = errs[32] / errs[16]
    assert ratio > 0.05
    elapsed = budget.check("criterion 3")
    report(
        "criterion 03 projection", elapsed,
        f"matched err {err_matched:.2e}, classical ratio {ratio:.2f}",
    )


def test_criterion_04_temporal_operator_oracle():
    # mass and stiffness against the 50-digit fractional-monomial oracle,
    # entrywise rel 1e-8, < 10 s
    budget = Budget(10.0)
    worst = 0.0
    for lam in (1.0, 0.5):
        for mu in (0.3, 0.7):
            ops = assemble_temporal(6, mu, lam)
            mass_ref, stiff_ref = oracle_temporal(6, mu, lam, 0.5)
            for got, ref in ((ops.mass, mass_ref), (ops.stiffness, stiff_ref)):
                scale = np.max(np.abs(ref))
                worst = max(worst, np.max(np.abs(got - ref) / (np.abs(ref) + 1e-8 * scale)))
    assert worst < 1e-8
    elapsed = budget.check("criterion 4")
    report("criterion 04 temporal operators", elapsed, f"max rel {worst:.2e}")


def test_criterion_05_1d_galerkin_exactness():
    # solution inside the trial space recovered to nodal error <= 1e-9, < 1 s
    budget = Budget(1.0)
    mu, lam, kappa, rho = 0.5, 0.5, 1.3, 0.8
    nu = 2.0 * lam

    def forcing(x, t):
        cap = caputo_power(mu, nu, t)
        power = np.power(t, nu)
        return cap * (1.0 - x**2) + 2.0 * kappa * power - 2.0 * rho * x * power

    config = SolverConfig(mu=mu, lam=lam, kappa=kappa, rho=rho, m_space=8, n_time=4)
    solution = solve_1d(config, forcing)
    xs = np.linspace(-0.95, 0.95, 41)
    ts = np.linspace(0.05, 1.0, 17)
    approx = evaluate_grid(solution, xs, ts)
    exact = (1.0 - xs[None, :] ** 2) * np.power(ts[:, None], nu)
    nodal = float(np.max(np.abs(approx - exact)))
    assert nodal <= 1e-9
    elapsed = budget.check("criterion 5")
    report("criterion 05 Galerkin exactness", elapsed, f"nodal {nodal:.2e}")


def test_criterion_06_fractional_temporal_convergence():
    # singular solution t^(1-mu) sin(pi x): errors decrease monotonically in
    # N with the tuned exponent scale (round-off floor 1e-8 allowed), end
    # <= 1e-6, and beat the classical scale by >= 100x at N = 20; < 30 s
    budget = Budget(30.0)
    mu = 3.0 / 25.0
    problem = ManufacturedProblem(mu=mu, nu=1.0 - mu)
    sweeps = {}
    for lam in (0.0962, 1.0):
        errs = []
        for n in (4, 8, 12, 16, 20):
            config = SolverConfig(mu=mu, lam=lam, m_space=20, n_time=n)
            errs.append(error_norms(solve_1d(config, problem), problem.exact).linf)
        sweeps[lam] = errs
    tuned = sweeps[0.0962]
    floor = 1e-8
    for a, b in zip(tuned, tuned[1:]):
        assert b <= a or (a <= floor and b <= floor), f"non-monotone: {tuned}"
    assert tuned[-1] <= 1e-6
    ratio = sweeps[1.0][-1] / tuned[-1]
    assert ratio >= 100.0
    elapsed = budget.check("criterion 6")
    report(
        "criterion 06 fractional convergence", elapsed,
        f"final {tuned[-1]:.2e}, gain {ratio:.1e}",
    )


def test_criterion_07_2d_oracle_equivalence():
    # QZ fast path vs the unrotated dense Kronecker solve (its solution
    # rotated into the mode basis), 10 random cases, coefficient rel diff
    # <= 1e-9, < 30 s
    budget = Budget(30.0)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10):
        config = SolverConfig(
            mu=rng.uniform(0.05, 0.95),
            lam=rng.uniform(0.05, 1.0),
            kappa=rng.uniform(0.3, 3.0),
            rho=0.0,
            m_space=6,
            n_time=5,
            dimension=2,
        )
        problem = ManufacturedProblem(
            mu=config.mu, nu=rng.uniform(0.3, 2.5), kappa=config.kappa, rho=0.0, dim=2
        )
        fast = solve_2d(config, problem)
        dense = solve_2d_dense(config, problem)
        diff = np.max(np.abs(fast.coeffs - dense.coeffs))
        worst = max(worst, diff / np.max(np.abs(dense.coeffs)))
    assert worst <= 1e-9
    elapsed = budget.check("criterion 7")
    report("criterion 07 2d oracle equivalence", elapsed, f"max rel {worst:.2e}")


def test_criterion_08_2d_singular_reproduction():
    # 2D problem with exponent 1 + mu, mu = sqrt(2)/2, on [0, 2]: max
    # pointwise error at t = 2 <= 1e-10 with M = N = 30, < 5 min
    budget = Budget(300.0)
    mu = math.sqrt(2.0) / 2.0
    problem = ManufacturedProblem(mu=mu, nu=1.0 + mu, rho=0.0, dim=2, t_end=2.0)
    config = SolverConfig(
        mu=mu, lam=0.0899, rho=0.0, m_space=30, n_time=30, t_end=2.0, dimension=2
    )
    solution = solve_2d(config, problem)
    linf = error_norms_2d(solution, problem.exact, time=2.0).linf
    assert linf <= 1e-10
    elapsed = budget.check("criterion 8")
    report("criterion 08 2d singular case", elapsed, f"max pointwise {linf:.2e}")


def test_criterion_09_gradient_checks():
    # network backprop vs central differences to rel 1e-6, then end-to-end
    # weight gradients vs full differences (step 1e-5) to rel 1e-3 with an
    # absolute floor 5e-5: solver roundoff wiggle (~2e-12) in each error
    # evaluation is amplified by 1 / (reference error * 2 * step * batch),
    # and references reach ~5e-4; < 30 s
    budget = Budget(30.0)
    rng = np.random.default_rng(42)
    net = mltune.init_network((1, 3, 1), 0.01, rng)
    mus = rng.uniform(0.05, 0.95, size=4)
    upstream = rng.normal(size=4)
    grads_w, grads_b = mltune.backprop(net, mus, upstream)
    h = 1e-6

    def objective():
        return float(np.sum(upstream * mltune.forward_batch(net, mus)))

    worst_net = 0.0
    for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr, grad in zip(params, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = arr[idx]
                arr[idx] = saved + h
                f_plus = objective()
                arr[idx] = saved - h
                f_minus = objective()
                arr[idx] = saved
                fd = (f_plus - f_minus) / (2.0 * h)
                worst_net = max(worst_net, abs(grad[idx] - fd) / max(abs(fd), 1e-12))
    assert worst_net < 1e-6

    ctx = mltune.SolverContext()
    cfg = mltune.TrainingConfig(
        n_mu=2, n_nu=2, batch_size=4, epochs=2, restarts=2,
        hidden_layers=1, hidden_width=3, seed=11,
    )
    for _ in range(20):
        net = mltune.init_network((1, 3, 1), 0.01, rng)
        mus = rng.uniform(0.1, 0.9, size=2)
        nus = rng.uniform(0.2, 0.9, size=2)
        refs = np.array([mltune.sample_error(ctx, m, n, 1.0) for m, n in zip(mus, nus)])
        _, gw, gb = mltune._loss_and_gradient(net, mus, nus, refs, ctx, cfg)
        analytic = np.concatenate([g.ravel() for g in gw + gb])
        fd = np.empty_like(analytic)
        pos = 0
        step = 1e-5
        for arr in net.weights + net.biases:
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = arr[idx]
                arr[idx] = saved + step
                up, _, _ = mltune.batch_loss(net, mus, nus, refs, ctx, cfg)
                arr[idx] = saved - step
                down, _, _ = mltune.batch_loss(net, mus, nus, refs, ctx, cfg)
                arr[idx] = saved
                fd[pos] = (up - down) / (2.0 * step)
                pos += 1
        assert_allclose(analytic, fd, rtol=1e-3, atol=5e-5)
    elapsed = budget.check("criterion 9")
    report("criterion 09 gradient checks", elapsed, f"backprop rel {worst_net:.2e}")


def test_criterion_10_desk_scale_training():
    # 10x10 grids, 100 epochs, 3 restarts: validation loss < 1e-2, every
    # prediction inside (0.03, 0.3), bit-identical rerun; < 20 min
    budget = Budget(1200.0)
    cfg = mltune.TrainingConfig(
        n_mu=10, n_nu=10, batch_size=10, epochs=100, restarts=3, seed=2024
    )
    train_ds = mltune.generate_dataset("training", 10, 10, seed=cfg.seed)
    val_ds = mltune.generate_dataset("validation", 10, 10)
    first = mltune.train(cfg, train_ds, val_ds)
    assert first.final_val_loss < 1e-2
    preds = mltune.forward_batch(first.network, np.unique(val_ds.mu))
    assert np.all((preds > 0.03) & (preds < 0.3)), f"band {preds.min()}..{preds.max()}"
    second = mltune.train(cfg, train_ds, val_ds)
    assert_allclose(second.history, first.history, rtol=0.0, atol=0.0)
    elapsed = budget.check("criterion 10")
    report(
        "criterion 10 desk-scale training", elapsed,
        f"val {first.final_val_loss:.2e}, band [{preds.min():.3f}, {preds.max():.3f}]",
    )


@pytest.mark.skipif(
    not os.environ.get("MUNTZSPEC_FULL_SCALE"),
    reason="full-size training is an opt-in long-running job (MUNTZSPEC_FULL_SCALE=1)",
)
def test_criterion_10_full_scale_training_opt_in():
    # 30x30 grids, 400 epochs, 10 restarts: validation loss < 1e-4
    cfg = mltune.TrainingConfig(seed=2024)
    train_ds = mltune.generate_dataset("training", cfg.n_mu, cfg.n_nu, seed=cfg.seed)
    val_ds = mltune.generate_dataset("validation", cfg.n_mu, cfg.n_nu)
    result = mltune.train(cfg, train_ds, val_ds)
    assert result.final_val_loss < 1e-4
    report("criterion 10 full-scale training", 0.0, f"val {result.final_val_loss:.2e}")


def test_criterion_11_tuner_beats_spline_baseline():
    # mu = 0.65, singular exponent 1 - mu, N = 20: the network's exponent
    # must beat the spline baseline, which must beat the classical scale;
    # < 2 min
    budget = Budget(120.0)
    net, _ = mltune.load_model(str(MODELS_DIR / "reference_ann.json"))
    spline = mltune.load_spline(str(MODELS_DIR / "reference_spline.json"))
    mu = 0.65
    problem = ManufacturedProblem(mu=mu, nu=1.0 - mu)
    errors = {}
    lams = {
        "ann": mltune.forward(net, mu),
        "spline": float(mltune.spline_predict(spline, mu)),
        "one": 1.0,
    }
    for label, lam in lams.items():
        config = SolverConfig(mu=mu, lam=lam, m_space=20, n_time=20)
        errors[label] = error_norms(solve_1d(config, problem), problem.exact).linf
    assert errors["ann"] < errors["spline"] < errors["one"], f"{lams} -> {errors}"
    elapsed = budget.check("criterion 11")
    report(
        "criterion 11 tuner ordering", elapsed,
        f"ann {errors['ann']:.2e} < spline {errors['spline']:.2e} < one {errors['one']:.2e}",
    )


def test_criterion_12_loss_identity():
    # solving every sample at the reference exponent through the batch
    # loss's own path (_ratios, then _mean_kept) reproduces the cached
    # denominators, so the normalized loss is exactly 1; < 10 s
    budget = Budget(10.0)
    ctx = mltune.SolverContext()
    ds = mltune.generate_dataset("validation", 3, 3, context=ctx)
    ratios = mltune._ratios(ctx, ds.mu, ds.nu, 1.0, ds.ref_error)
    loss = mltune._mean_kept(ratios, "every sample failed to solve")
    assert loss == 1.0
    assert np.all(ratios == 1.0)
    elapsed = budget.check("criterion 12")
    report("criterion 12 loss identity", elapsed, "loss == 1.0 exactly")
