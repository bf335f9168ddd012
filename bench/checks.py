"""Correctness checks computed apart from the program.

Each check takes program output plus what the benchmark knows about the
input, recomputes the expected value with its own code (closed-form
solutions, its own forward pass of the packaged network, its own natural
spline through the packaged knots) and raises CheckFailed on a mismatch.
Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

# Tolerances, stated once.
LAMBDA_RTOL = 1e-10  # λ read back from errors.csv (17 significant digits)
GALERKIN_TOL = 1e-9  # trial-space solution reproduced by the 1D solve
SYMMETRY_TOL = 1e-10  # max |u(x, y) - u(y, x)| relative to max |u|
LINF_TOL = {"ann": 1e-6, "spline": 1e-6, "one": 1e-2}  # 2D Linf per λ source
LINF_AGREE = 2.0  # reported and recomputed 2D Linf agree within this factor
LINF_FLOOR = 1e-12  # ... or both lie below this round-off floor


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def ann_lambda(doc: dict, mu: float) -> float:
    """Forward pass of the packaged network JSON: leaky-ReLU hidden layers
    and a sigmoid output."""
    slope = float(doc["negative_slope"])
    act = np.array([[float(mu)]])
    pairs = list(zip(doc["weights"], doc["biases"]))
    for i, (w, b) in enumerate(pairs):
        z = np.asarray(w, dtype=float) @ act + np.asarray(b, dtype=float)[:, None]
        act = 1.0 / (1.0 + np.exp(-z)) if i == len(pairs) - 1 else np.where(z > 0.0, z, slope * z)
    return float(act[0, 0])


def spline_lambda(doc: dict, mu: float) -> float:
    """Natural cubic spline through the packaged knots, queries clamped to
    the knot range."""
    knots_mu = [k["mu"] for k in doc["knots"]]
    knots_lam = [k["lambda"] for k in doc["knots"]]
    spline = CubicSpline(knots_mu, knots_lam, bc_type="natural")
    return float(spline(min(max(mu, knots_mu[0]), knots_mu[-1])))


def expected_lambda(source: str, mu: float, ann_doc: dict, spline_doc: dict) -> float:
    if source == "ann":
        return ann_lambda(ann_doc, mu)
    if source == "spline":
        return spline_lambda(spline_doc, mu)
    if source == "one":
        return 1.0
    raise ValueError(f"unknown λ source {source!r}")


def check_lambda(source: str, mu: float, reported: float, ann_doc: dict, spline_doc: dict) -> None:
    want = expected_lambda(source, mu, ann_doc, spline_doc)
    if not math.isclose(reported, want, rel_tol=LAMBDA_RTOL, abs_tol=0.0):
        raise CheckFailed(f"{source} λ at mu={mu}: program {reported!r}, benchmark {want!r}")


def exact_1d(nu: float, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t^nu sin(pi x) on the (t, x) grid."""
    return np.power(t, nu)[:, None] * np.sin(np.pi * x)[None, :]


def exact_2d(nu: float, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """t^nu sin(pi x) sin(pi y) on the (x, y) grid."""
    return t**nu * np.outer(np.sin(np.pi * x), np.sin(np.pi * y))


def _difference(values: np.ndarray, exact: np.ndarray) -> np.ndarray:
    if values.shape != exact.shape or not np.all(np.isfinite(values)):
        raise CheckFailed(f"solution values of shape {values.shape} are malformed")
    return values - exact


def max_error(values: np.ndarray, exact: np.ndarray) -> float:
    return float(np.max(np.abs(_difference(values, exact))))


def rms_error(values: np.ndarray, exact: np.ndarray) -> float:
    return float(np.sqrt(np.mean(_difference(values, exact) ** 2)))


def check_tuned_beats_one(errors: dict) -> None:
    """errors[(case, source)] for sources ann, spline, one: every tuned λ
    that solved must beat λ = 1 on the same case."""
    for (case, source), err in errors.items():
        if source != "one" and err >= errors[case, "one"]:
            raise CheckFailed(f"{source} λ error {err:.3e} does not beat λ=1 error "
                              f"{errors[case, 'one']:.3e} at {case}")


def check_falls_with_n(errors_by_n: dict) -> None:
    """The λ = 1 error must fall strictly as N grows."""
    sizes = sorted(errors_by_n)
    for lo, hi in zip(sizes, sizes[1:]):
        if not errors_by_n[hi] < errors_by_n[lo]:
            raise CheckFailed(f"λ=1 error does not fall from N={lo} ({errors_by_n[lo]:.3e}) "
                              f"to N={hi} ({errors_by_n[hi]:.3e})")


def check_loss_history(val_losses) -> None:
    """Validation loss must fall every epoch and end below 1 (the λ = 1
    baseline)."""
    losses = [float(v) for v in val_losses]
    if not losses or not all(math.isfinite(v) for v in losses):
        raise CheckFailed(f"validation losses are missing or non-finite: {losses}")
    for epoch, (before, after) in enumerate(zip(losses, losses[1:]), start=2):
        if not after < before:
            raise CheckFailed(f"validation loss rose at epoch {epoch}: {before!r} -> {after!r}")
    if not losses[-1] < 1.0:
        raise CheckFailed(f"final validation loss {losses[-1]!r} does not beat λ=1")


def galerkin_forcing(mu: float, lam: float, kappa: float, rho: float):
    """Forcing whose exact solution t^(2 lam) (1 - x^2) lies in the trial
    space of the 1D solver: D^mu u - kappa u_xx + rho u_x."""
    nu = 2.0 * lam
    coef = math.exp(math.lgamma(nu + 1.0) - math.lgamma(nu + 1.0 - mu))

    def forcing(x, t):
        tp = np.power(t, nu)
        return coef * np.power(t, nu - mu) * (1.0 - x**2) + 2.0 * kappa * tp - 2.0 * rho * x * tp

    return forcing


def check_galerkin(values: np.ndarray, lam: float, x: np.ndarray, t: np.ndarray) -> float:
    exact = np.power(t, 2.0 * lam)[:, None] * (1.0 - x**2)[None, :]
    err = max_error(values, exact)
    if err > GALERKIN_TOL:
        raise CheckFailed(f"trial-space solution reproduced only to {err:.3e} (tolerance {GALERKIN_TOL:.0e})")
    return err


def check_linf(source: str, linf: float) -> None:
    if not linf <= LINF_TOL[source]:
        raise CheckFailed(f"{source} λ reported Linf {linf:.3e} exceeds {LINF_TOL[source]:.0e}")


def check_closed_form_2d(values: np.ndarray, exact: np.ndarray, reported_linf: float) -> float:
    """The benchmark's own max error on its own points must agree with the
    Linf the program reported."""
    own = max_error(values, exact)
    if max(own, reported_linf) > LINF_FLOOR and not (
        own <= LINF_AGREE * reported_linf + LINF_FLOOR and reported_linf <= LINF_AGREE * own + LINF_FLOOR
    ):
        raise CheckFailed(f"recomputed Linf {own:.3e} disagrees with reported {reported_linf:.3e}")
    return own


def check_symmetry(values: np.ndarray) -> None:
    """values on a square (x, y) grid with the same points on both axes."""
    scale = float(np.max(np.abs(values)))
    gap = float(np.max(np.abs(values - values.T)))
    if not gap <= SYMMETRY_TOL * scale:
        raise CheckFailed(f"solution is not symmetric in x and y: gap {gap:.3e}, scale {scale:.3e}")
