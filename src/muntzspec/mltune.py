"""Learned exponent tuner: a small feedforward network mapping the
fractional order mu to the basis exponent scale lambda, trained with the
solver in the loop, plus a per-order optimized cubic-spline baseline.

The loss of a sample (mu, nu) is the nodal solution error of the solve at
the predicted lambda divided by the error of the classical lambda = 1 solve
for the same sample; the denominator is lambda-independent and cached with
the dataset.  One loop, `_ratios`, turns solves into these ratios for the
batch loss, its gradient and the spline's profile loss.  `_sample_errors`
gives every sample its own configuration and makes one
`solver1d.solve_1d_batch` call; since lambda depends only on mu, samples
of equal (mu, lambda) share one factorization there, every nu one more
right-hand side, and the error tables of all solved samples are built
together.  A training step is one such call: the gradient with respect to
lambda is a central finite difference, and the batch's lambda and both
stencil points lambda +- h go to a single `_ratios` call, as do the
spline's two profile probes and a dataset's lambda = 1 reference solves.
A sample's error does not depend on what it is solved with.  A failed
solve gives NaN, is logged as excluded and leaves its sample out of the
mean; a failure of a shared system does so for every sample of that
(mu, lambda) alone.  The finite-difference slope is chained into analytic
backpropagation through the network.  One bias-corrected Adam update
(`adam_step`) descends both the network's weights and the spline
baseline's per-knot lambda.  The recipe is fixed: the optimizer, schedule,
stencil step, lambda clamp and network shape are class constants of
`TrainingConfig`, whose fields set only a run's size, seed and workers.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cache
from typing import ClassVar, Sequence

import numpy as np
from scipy.special import expit

from .assembly import LAMBDA_MIN, ManufacturedProblem
from .basis import SpatialBasis, _muntz_table_stack, _power_rows, spatial_table
from .errors import (
    NumericalFailure,
    ParameterDomainError,
    StructuralError,
    TrainingFailure,
)
from .quadrature import gauss_jacobi, gauss_jacobi_unit
from .solver1d import SolverConfig, _fortran_stack, solve_1d_batch
# solve_1d and evaluate_grid are unused here; they stay importable as
# mltune.solve_1d/evaluate_grid because the benchmark tracer wraps them by name.
from .solver1d import evaluate_grid, solve_1d  # noqa: F401

logger = logging.getLogger(__name__)

__all__ = [
    "AdamState",
    "Dataset",
    "Network",
    "SolverContext",
    "SplineModel",
    "TrainResult",
    "TrainingConfig",
    "adam_step",
    "backprop",
    "batch_loss",
    "cawr_lr",
    "forward",
    "forward_batch",
    "generate_dataset",
    "init_network",
    "load_model",
    "load_spline",
    "sample_error",
    "save_dataset",
    "save_model",
    "save_spline",
    "spline_fit",
    "spline_predict",
    "train",
]

MODEL_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class TrainingConfig:
    """The size and seed of a training run, plus the fixed recipe.

    The seven fields are a run's settings (defaults are the full-scale
    run); the recipe is one set of class constants: Adam's rate and decays
    (lr_base, beta1, beta2, eps), the warm-restart cosine schedule (t0,
    t_mult, lr_min), the finite-difference step of the lambda gradient
    (fd_step), the lambda clamp (clamp_lo, clamp_hi) and the 1-20-20-1
    Leaky ReLU network (layer_sizes, negative_slope).
    """

    n_mu: int = 30
    n_nu: int = 30
    batch_size: int = 100
    epochs: int = 400
    restarts: int = 10
    seed: int = 0
    workers: int = 1

    lr_base: ClassVar[float] = 1.0e-3
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1.0e-8
    t0: ClassVar[int] = 50
    t_mult: ClassVar[int] = 2
    lr_min: ClassVar[float] = 1.0e-6
    fd_step: ClassVar[float] = 1.0e-4
    clamp_lo: ClassVar[float] = 0.02
    clamp_hi: ClassVar[float] = 0.999
    layer_sizes: ClassVar[tuple[int, ...]] = (1, 20, 20, 1)
    negative_slope: ClassVar[float] = 0.01

    def __post_init__(self) -> None:
        if min(self.n_mu, self.n_nu, self.batch_size, self.epochs, self.restarts) < 1:
            raise ParameterDomainError("grid counts, batch size, epochs and restarts must be positive")
        if self.workers < 1:
            raise ParameterDomainError("worker count must be positive")

    @classmethod
    def clamp_lambda(cls, lam):
        """Network outputs clipped to [clamp_lo, clamp_hi]: the lambdas that
        training solves at."""
        return np.clip(lam, cls.clamp_lo, cls.clamp_hi)


# ---------------------------------------------------------------------------
# Network


@dataclass
class Network:
    """Fully connected scalar-to-scalar network with Leaky ReLU hidden
    activations and a sigmoid output."""

    layer_sizes: tuple[int, ...]
    negative_slope: float
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 3 or sizes[0] != 1 or sizes[-1] != 1:
            raise StructuralError(f"layer sizes must map scalar to scalar, got {sizes}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise StructuralError("one weight matrix and bias vector per layer transition")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
                raise StructuralError(
                    f"layer {l} shapes {w.shape}/{b.shape} inconsistent with sizes {sizes}"
                )
        object.__setattr__(self, "layer_sizes", sizes)


def init_network(
    layer_sizes: Sequence[int], negative_slope: float, rng: np.random.Generator
) -> Network:
    """Uniform init in +-sqrt(1/fan_in), weights then bias per layer."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = math.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return Network(tuple(layer_sizes), negative_slope, weights, biases)


def _forward_pass(net: Network, mu: np.ndarray):
    """Forward over a batch (columns = samples); returns activations and
    pre-activations per layer for the backward pass."""
    acts = [np.asarray(mu, dtype=float).reshape(1, -1)]
    pres = []
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ acts[-1] + b[:, None]
        pres.append(z)
        if l == last:
            # clip keeps the output strictly inside (0,1) even when the
            # sigmoid saturates to a representable 0 or 1
            acts.append(np.clip(expit(z), 1e-12, 1.0 - 1e-12))
        else:
            acts.append(np.where(z > 0.0, z, net.negative_slope * z))
    return acts, pres


def forward_batch(net: Network, mu: np.ndarray) -> np.ndarray:
    """Network outputs in (0,1) for a vector of orders."""
    mu = np.asarray(mu, dtype=float)
    acts, _ = _forward_pass(net, mu.reshape(1, -1))
    return acts[-1].reshape(mu.shape if mu.ndim else ())


def forward(net: Network, mu: float) -> float:
    """Scalar wrapper over forward_batch."""
    return float(forward_batch(net, np.array([float(mu)]))[0])


def backprop(net: Network, mu: np.ndarray, upstream: np.ndarray):
    """Gradients of sum_i upstream_i * output_i w.r.t. weights and biases.

    The Leaky ReLU subgradient at zero takes the negative-slope branch.
    """
    mu = np.asarray(mu, dtype=float).reshape(1, -1)
    upstream = np.asarray(upstream, dtype=float).reshape(1, -1)
    if mu.shape[1] != upstream.shape[1]:
        raise StructuralError("one upstream value per sample")
    acts, pres = _forward_pass(net, mu)
    out = acts[-1]
    delta = upstream * out * (1.0 - out)
    grads_w = [np.empty(0)] * len(net.weights)
    grads_b = [np.empty(0)] * len(net.biases)
    for l in range(len(net.weights) - 1, -1, -1):
        grads_w[l] = delta @ acts[l].T
        grads_b[l] = delta.sum(axis=1)
        if l > 0:
            delta = net.weights[l].T @ delta
            delta = delta * np.where(pres[l - 1] > 0.0, 1.0, net.negative_slope)
    return grads_w, grads_b


@dataclass
class AdamState:
    """First/second moment accumulators, one per parameter array, and the
    step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(
    state: AdamState,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    lr: float,
) -> None:
    """Standard bias-corrected Adam update of each parameter array, in place,
    with the recipe's decays and epsilon."""
    state.t += 1
    b1, b2, eps = TrainingConfig.beta1, TrainingConfig.beta2, TrainingConfig.eps
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def cawr_lr(epoch: int, config: TrainingConfig) -> float:
    """Cosine-annealing learning rate with warm restarts.

    Cycle lengths are t0, t0*t_mult, ...; a cycle spans positions 0..T
    inclusive, so a cycle start returns lr_base and a cycle end lr_min.
    """
    if epoch < 1:
        raise ParameterDomainError(f"epoch counts from 1, got {epoch}")
    e = epoch - 1
    t = config.t0
    while e > t:
        e -= t + 1
        t *= config.t_mult
    return config.lr_min + (config.lr_base - config.lr_min) * 0.5 * (
        1.0 + math.cos(math.pi * e / t)
    )


# ---------------------------------------------------------------------------
# Solver-in-the-loop loss


@dataclass(frozen=True)
class SolverContext:
    """Equation family and discretization used inside the loss.

    The manufactured family is u = t^nu sin(pi x) with unit diffusion and
    convection on the unit time interval; sizes follow the training setup
    (11 temporal members, 19 spatial modes).
    """

    m_space: int = 20
    n_time: int = 10
    kappa: float = 1.0
    rho: float = 1.0
    t_end: float = 1.0

    def solver_config(self, mu: float, lam: float) -> SolverConfig:
        return SolverConfig(mu=mu, lam=lam, **vars(self))


def _error_grid(context: SolverContext, lams):
    """Spatial Gauss-Legendre nodes x temporal mass-rule nodes, one row of
    temporal nodes per lam in lams."""
    xs = gauss_jacobi(0.0, 0.0, context.m_space - 1).nodes
    ts = np.array([
        gauss_jacobi_unit(0.0, 1.0 + 1.0 / lam, context.n_time + 1).nodes ** (1.0 / lam)
        for lam in lams
    ])
    return xs, ts * context.t_end


@cache
def _spatial_error_table(m_space: int) -> np.ndarray:
    """Spatial basis at the error grid's Gauss-Legendre nodes; cached per
    cutoff, read-only."""
    xs = gauss_jacobi(0.0, 0.0, m_space - 1).nodes
    table = spatial_table(SpatialBasis(m_space), xs)
    table.flags.writeable = False
    return table


def _sample_errors(context: SolverContext, mu, nu, lams) -> list:
    """Frobenius norms of the nodal solution errors of the samples
    (mu_i, nu_i) solved at lams_i, in one `solve_1d_batch` call.

    The arguments broadcast to one flat sample axis.  The error tables of
    every solved sample are built together, one row per distinct lambda.
    Returns one entry per sample: its error, or the error its
    configuration or its solve raised.
    """
    mu, nu, lams = (a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (mu, nu, lams))
    ))
    out: list = [None] * mu.size
    configs, problems, posed = [], [], []
    for i in range(mu.size):
        try:
            config = context.solver_config(mu[i], lams[i])
        except ParameterDomainError as exc:
            out[i] = exc
            continue
        configs.append(config)
        problems.append(ManufacturedProblem(mu=mu[i], nu=nu[i], kappa=context.kappa,
                                            rho=context.rho, t_end=context.t_end))
        posed.append(i)
    solved = []  # (sample, solution)
    for i, outcome in zip(posed, solve_1d_batch(configs, problems)):
        if isinstance(outcome, Exception):
            out[i] = outcome
        else:
            solved.append((i, outcome))
    if not solved:
        return out
    # evaluate_grid's tables on the error grid, built once for every
    # distinct lambda with a solved sample
    bases = {s.temporal.lam: s.temporal for _, s in solved}
    row = {lam: r for r, lam in enumerate(bases)}
    at = [row[s.temporal.lam] for _, s in solved]
    xs, ts = _error_grid(context, list(bases))
    # (member, sample, time node); each sample's transposed table is a view
    # of the same orientation as evaluate_grid's
    temporal = _muntz_table_stack(list(bases.values()), ts / context.t_end)[:, at]
    coeffs = _fortran_stack([s.coeffs for _, s in solved])
    approx = temporal.transpose(1, 2, 0) @ coeffs @ _spatial_error_table(context.m_space)
    samples = np.array([i for i, _ in solved])
    exact = _power_rows(ts[at][:, :, None], nu[samples]) * np.sin(np.pi * xs)
    for i, diff in zip(samples, approx - exact):
        out[i] = float(np.linalg.norm(diff))
    return out


def _solved(errors: list) -> list[float]:
    """Errors that must all have solved; raises the first failure."""
    for error in errors:
        if isinstance(error, Exception):
            raise error
    return errors


def sample_error(context: SolverContext, mu: float, nu: float, lam: float) -> float:
    """Frobenius norm of the nodal solution error for one (mu, nu) at lam."""
    return _solved(_sample_errors(context, mu, nu, lam))[0]


def _check_ref_errors(ref_error: np.ndarray) -> None:
    # written so that NaN fails the comparison
    if not np.all((ref_error > 0.0) & (ref_error < math.inf)):
        raise StructuralError("reference errors must be positive and finite")


def _ratios(context: SolverContext, mu, nu, lams, ref_error) -> np.ndarray:
    """Normalized sample errors: the solve error at each sample's lambda over
    its cached lambda = 1 reference error, so at lambda = 1 every ratio is
    exactly 1.  Arguments broadcast to one flat sample axis, which is solved
    in one stacked pass (`_sample_errors`); a failed solve gives NaN and is
    logged as excluded."""
    mu, nu, lams, ref_error = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (mu, nu, lams, ref_error))
    )
    _check_ref_errors(ref_error)
    errors = np.full(mu.shape, np.nan)
    for i, outcome in enumerate(_sample_errors(context, mu, nu, lams)):
        if isinstance(outcome, Exception):
            logger.warning(
                "sample (mu=%.6g, nu=%.6g, lam=%.6g) excluded: %s",
                mu.flat[i], nu.flat[i], lams.flat[i], outcome,
            )
        else:
            errors.flat[i] = outcome
    return errors / ref_error


def _mean_kept(ratios: np.ndarray, failure: str) -> float:
    """Mean over the samples that solved; raises when none did."""
    kept = ratios[~np.isnan(ratios)]
    if kept.size == 0:
        raise NumericalFailure(failure)
    return float(np.mean(kept))


# ---------------------------------------------------------------------------
# Datasets


@dataclass(frozen=True)
class Dataset:
    """Flattened tensorial (mu, nu) samples with cached reference errors."""

    kind: str
    mu: np.ndarray
    nu: np.ndarray
    ref_error: np.ndarray
    seed: int | None
    n_mu: int
    n_nu: int

    def __post_init__(self) -> None:
        if self.kind not in ("training", "validation"):
            raise StructuralError(f"dataset kind must be training or validation, got {self.kind}")
        n = self.n_mu * self.n_nu
        if not (self.mu.shape == self.nu.shape == self.ref_error.shape == (n,)):
            raise StructuralError("sample arrays must be flat with tensorial length")
        for name, arr in (("mu", self.mu), ("nu", self.nu)):
            if not np.all((arr > 0.0) & (arr < 1.0)):
                raise StructuralError(f"{name} samples must lie strictly inside (0, 1)")
        _check_ref_errors(self.ref_error)

    @property
    def size(self) -> int:
        return self.mu.size


def _interior_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform draws strictly inside (0, 1); exact zeros are redrawn."""
    draws = rng.uniform(0.0, 1.0, size=count)
    while np.any(draws == 0.0):
        draws[draws == 0.0] = rng.uniform(0.0, 1.0, size=int(np.sum(draws == 0.0)))
    return draws


def generate_dataset(
    kind: str,
    n_mu: int,
    n_nu: int,
    seed: int | None = None,
    context: SolverContext | None = None,
) -> Dataset:
    """Tensorial sampling: random axes for training, uniform interior grids
    for validation; reference errors are solved at creation."""
    if n_mu < 1 or n_nu < 1:
        raise ParameterDomainError("grid counts must be positive")
    context = context or SolverContext()
    if kind == "training":
        rng = np.random.default_rng(seed)
        mu_axis = _interior_uniform(rng, n_mu)
        nu_axis = _interior_uniform(rng, n_nu)
    elif kind == "validation":
        mu_axis = np.arange(1, n_mu + 1) / (n_mu + 1)
        nu_axis = np.arange(1, n_nu + 1) / (n_nu + 1)
    else:
        raise ParameterDomainError(f"dataset kind must be training or validation, got {kind}")
    mu = np.repeat(mu_axis, n_nu)
    nu = np.tile(nu_axis, n_mu)
    # mu repeats each axis value over the nu axis: one group per order
    ref = np.array(_solved(_sample_errors(context, mu, nu, 1.0)))
    for arr in (mu, nu, ref):
        arr.flags.writeable = False
    return Dataset(kind, mu, nu, ref, seed, n_mu, n_nu)


def save_dataset(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("mu,nu,ref_error\n")
        for m, n, r in zip(dataset.mu, dataset.nu, dataset.ref_error):
            handle.write(f"{m:.17g},{n:.17g},{r:.17g}\n")


# ---------------------------------------------------------------------------
# Batch loss and training


def batch_loss(
    net: Network,
    mu: np.ndarray,
    nu: np.ndarray,
    ref_error: np.ndarray,
    context: SolverContext,
    config: TrainingConfig,
):
    """Mean normalized error over the batch at the network's clamped lambdas.

    Returns (loss, lambdas used, per-sample ratios with NaN marking excluded
    samples).
    """
    mu = np.asarray(mu, dtype=float)
    lams = config.clamp_lambda(forward_batch(net, mu))
    ratios = _ratios(context, mu, nu, lams, ref_error)
    return _mean_kept(ratios, "every sample in the batch failed to solve"), lams, ratios


def _loss_and_gradient(
    net: Network,
    mu: np.ndarray,
    nu: np.ndarray,
    ref_error: np.ndarray,
    context: SolverContext,
    config: TrainingConfig,
):
    """Batch loss plus its gradient w.r.t. network parameters.

    dLoss/dlambda_i comes from a central finite difference, solved with
    lambda in the same stacked pass; the clamp passes the gradient straight
    through.  A sample is left out of both when any of its three solves
    fails.
    """
    lams = config.clamp_lambda(forward_batch(net, mu))
    h = config.fd_step
    ratios, plus, minus = _ratios(
        context, np.tile(mu, 3), np.tile(nu, 3),
        np.concatenate([lams, lams + h, lams - h]), np.tile(ref_error, 3),
    ).reshape(3, -1)
    dratio = (plus - minus) / (2.0 * h)
    ratios[np.isnan(dratio)] = np.nan
    loss = _mean_kept(ratios, "every sample in the batch failed to solve")
    ok = ~np.isnan(ratios)
    upstream = np.where(ok, dratio, 0.0) / np.count_nonzero(ok)
    grads_w, grads_b = backprop(net, mu, upstream)
    return loss, grads_w, grads_b


@dataclass(frozen=True)
class TrainResult:
    """Best network over all restarts plus the full loss history.

    history rows are (restart, epoch, train_loss, val_loss).
    """

    network: Network
    best_restart: int
    final_train_loss: float
    final_val_loss: float
    history: np.ndarray


def _run_restart(args) -> tuple[Network, float, float, np.ndarray]:
    config, train_ds, val_ds, context, restart = args
    rng = np.random.default_rng((config.seed, restart))
    net = init_network(config.layer_sizes, config.negative_slope, rng)
    params = net.weights + net.biases
    state = AdamState.for_params(params)
    n_batches = train_ds.size // config.batch_size
    history = np.empty((config.epochs, 4))
    train_loss = val_loss = math.nan
    for epoch in range(1, config.epochs + 1):
        lr = cawr_lr(epoch, config)
        perm = rng.permutation(train_ds.size)
        batch_losses = []
        for b in range(n_batches):
            idx = perm[b * config.batch_size : (b + 1) * config.batch_size]
            loss, grads_w, grads_b = _loss_and_gradient(
                net, train_ds.mu[idx], train_ds.nu[idx], train_ds.ref_error[idx],
                context, config,
            )
            adam_step(state, params, grads_w + grads_b, lr)
            batch_losses.append(loss)
        train_loss = float(np.mean(batch_losses))
        val_loss, _, _ = batch_loss(
            net, val_ds.mu, val_ds.nu, val_ds.ref_error, context, config
        )
        history[epoch - 1] = (restart, epoch, train_loss, val_loss)
    return net, train_loss, val_loss, history


def train(
    config: TrainingConfig,
    train_ds: Dataset,
    val_ds: Dataset,
    context: SolverContext | None = None,
) -> TrainResult:
    """Multi-restart training; returns the restart with the smallest final
    validation loss."""
    context = context or SolverContext()
    if train_ds.size % config.batch_size != 0:
        raise ParameterDomainError(
            f"batch size {config.batch_size} must divide the training size {train_ds.size}"
        )
    jobs = [(config, train_ds, val_ds, context, r) for r in range(config.restarts)]
    if config.workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(config.workers) as pool:
            outcomes = pool.map(_run_restart, jobs)
    else:
        outcomes = [_run_restart(job) for job in jobs]
    history = np.vstack([out[3] for out in outcomes])
    finals = np.array([out[2] for out in outcomes])
    best = int(np.argmin(finals))
    if not np.any(finals <= 1.0):
        raise TrainingFailure(
            f"all {config.restarts} restarts ended with validation loss above 1 "
            f"(best {finals[best]:.3e})"
        )
    net, train_loss, val_loss, _ = outcomes[best]
    return TrainResult(net, best, train_loss, val_loss, history)


# ---------------------------------------------------------------------------
# Model persistence


def save_model(net: Network, path: str, metadata: dict | None = None) -> None:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "negative_slope": net.negative_slope,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "metadata": metadata or {},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


def load_model(path: str) -> tuple[Network, dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"model file {path} is not valid: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError(f"model file {path} does not hold a JSON object")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise StructuralError(
            f"model file {path} has unsupported schema {doc.get('schema_version')!r}"
        )
    try:
        sizes = tuple(int(s) for s in doc["layer_sizes"])
        weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
        slope = float(doc["negative_slope"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"model file {path} is missing or corrupt: {exc}") from exc
    net = Network(sizes, slope, weights, biases)
    metadata = doc.get("metadata", {})
    return net, metadata


# ---------------------------------------------------------------------------
# Spline baseline


@dataclass(frozen=True)
class SplineModel:
    """Natural cubic spline through per-order optimized exponents."""

    mu_knots: np.ndarray
    lambda_knots: np.ndarray
    boundary_flags: np.ndarray

    def __post_init__(self) -> None:
        if self.mu_knots.ndim != 1 or self.mu_knots.size < 2:
            raise StructuralError("spline needs at least two knots")
        if self.mu_knots.shape != self.lambda_knots.shape or (
            self.mu_knots.shape != self.boundary_flags.shape
        ):
            raise StructuralError("knot arrays must share one shape")
        if np.any(np.diff(self.mu_knots) <= 0.0):
            raise StructuralError("knot orders must be strictly ascending")


def _profile_losses(context, mu, nus, refs, lams) -> list[float]:
    """Mean normalized error over the nu-profile at (mu, lam) for each lam
    in lams, all solved in one stacked pass."""
    ratios = _ratios(context, mu, np.tile(nus, len(lams)), np.repeat(lams, nus.size),
                     np.tile(refs, len(lams)))
    failure = f"every profile solve failed at mu={mu:.6g}"
    return [_mean_kept(r, failure) for r in ratios.reshape(len(lams), -1)]


def _scalar_adam_lambda(
    context: SolverContext,
    mu: float,
    nus: np.ndarray,
    refs: np.ndarray,
    lo: float,
    hi: float,
    iterations: int,
) -> tuple[float, bool]:
    """Per-order Adam descent on the profile loss (the network's update on a
    one-element parameter, clipped to [lo, hi] after each step),
    central-difference gradient, early stop after 30 consecutive
    improvements below 1e-8."""
    lam = np.array([0.5])
    state = AdamState.for_params([lam])
    h = TrainingConfig.fd_step
    best = math.inf
    small_improvements = 0
    for _ in range(iterations):
        plus, minus = _profile_losses(context, mu, nus, refs, [lam[0] + h, lam[0] - h])
        grad = (plus - minus) / (2.0 * h)
        adam_step(state, [lam], [np.array([grad])], TrainingConfig.lr_base)
        np.clip(lam, lo, hi, out=lam)
        current = 0.5 * (plus + minus)
        if best - current < 1e-8:
            small_improvements += 1
            if small_improvements >= 30:
                break
        else:
            small_improvements = 0
        best = min(best, current)
    lam = float(lam[0])
    at_boundary = lam <= lo + 1e-12 or lam >= hi - 1e-12
    return lam, at_boundary


def spline_fit(
    context: SolverContext | None = None,
    n_knots: int = 30,
    n_nu: int = 30,
    iterations: int = 400,
) -> SplineModel:
    """Optimize lambda per uniform mu knot over a uniform nu profile, then
    interpolate with a natural cubic spline.

    The nominal lambda domain [0.001, 0.999] is clipped to
    [LAMBDA_MIN + fd_step, 0.999] = [0.0101, 0.999] so that both
    finite-difference probes stay inside the solver's domain; knots that
    finish on the clipped boundary carry a flag.
    """
    context = context or SolverContext()
    if n_knots < 2:
        raise ParameterDomainError("spline needs at least two knots")
    if n_nu < 1 or iterations < 1:
        raise ParameterDomainError(
            f"spline fit needs n_nu >= 1 and iterations >= 1, got {n_nu} and {iterations}"
        )
    mu_knots = np.arange(1, n_knots + 1) / (n_knots + 1)
    nus = np.arange(1, n_nu + 1) / (n_nu + 1)
    lo = LAMBDA_MIN + TrainingConfig.fd_step
    hi = 0.999
    lams = np.empty(n_knots)
    flags = np.zeros(n_knots, dtype=bool)
    for i, mu in enumerate(mu_knots):
        refs = np.array(_solved(_sample_errors(context, mu, nus, 1.0)))
        lams[i], flags[i] = _scalar_adam_lambda(context, mu, nus, refs, lo, hi, iterations)
        if flags[i]:
            logger.warning("knot mu=%.4f finished on the lambda boundary (%.4f)", mu, lams[i])
    for arr in (mu_knots, lams, flags):
        arr.flags.writeable = False
    return SplineModel(mu_knots, lams, flags)


def spline_predict(model: SplineModel, mu) -> np.ndarray | float:
    """Spline value with queries clamped to the knot range."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(model.mu_knots, model.lambda_knots, bc_type="natural")
    arr = np.clip(np.asarray(mu, dtype=float), model.mu_knots[0], model.mu_knots[-1])
    out = spline(arr)
    return out if np.ndim(mu) else float(out)


def save_spline(model: SplineModel, path: str) -> None:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "boundary_condition": "natural",
        "knots": [
            {"mu": float(m), "lambda": float(l), "at_boundary": bool(f)}
            for m, l, f in zip(model.mu_knots, model.lambda_knots, model.boundary_flags)
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


def load_spline(path: str) -> SplineModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"spline file {path} is not valid: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError(f"spline file {path} does not hold a JSON object")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION or doc.get("boundary_condition") != "natural":
        raise StructuralError(f"spline file {path} has an unsupported layout")
    try:
        knots = doc["knots"]
        mu = np.array([k["mu"] for k in knots], dtype=float)
        lam = np.array([k["lambda"] for k in knots], dtype=float)
        flags = np.array([bool(k["at_boundary"]) for k in knots])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"spline file {path} is missing or corrupt: {exc}") from exc
    for arr in (mu, lam, flags):
        arr.flags.writeable = False
    return SplineModel(mu, lam, flags)
