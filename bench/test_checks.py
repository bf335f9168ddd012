"""Tests that each benchmark check accepts correct output and rejects wrong
output.  Run: python3 -m pytest bench/test_checks.py"""

import configparser
import json
import pathlib
import sys
import types

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from muntzspec import mltune, solver1d, solver2d  # noqa: E402
from muntzspec.assembly import ManufacturedProblem  # noqa: E402

MODELS = HERE.parent / "src" / "muntzspec" / "models"
ANN_DOC = json.loads((MODELS / "reference_ann.json").read_text(encoding="utf-8"))
SPLINE_DOC = json.loads((MODELS / "reference_spline.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mu", [0.05, 0.3, 0.6, 0.97])
def test_lambda_check_accepts_program_lambdas_and_rejects_wrong_ones(mu):
    net, _ = mltune.load_model(str(MODELS / "reference_ann.json"))
    spline = mltune.load_spline(str(MODELS / "reference_spline.json"))
    for source, lam in (("ann", mltune.forward(net, mu)), ("spline", float(mltune.spline_predict(spline, mu)))):
        checks.check_lambda(source, mu, lam, ANN_DOC, SPLINE_DOC)
        with pytest.raises(CheckFailed):
            checks.check_lambda(source, mu, lam * (1.0 + 1e-8), ANN_DOC, SPLINE_DOC)
    with pytest.raises(CheckFailed):
        checks.check_lambda("one", mu, 0.5, ANN_DOC, SPLINE_DOC)


def test_lambda_check_rejects_other_source():
    lam_ann = checks.ann_lambda(ANN_DOC, 0.3)
    with pytest.raises(CheckFailed):
        checks.check_lambda("spline", 0.3, lam_ann, ANN_DOC, SPLINE_DOC)


def test_loss_history_check():
    checks.check_loss_history([0.09, 0.08, 0.07])
    for bad in ([0.09, 0.09, 0.08], [0.09, 0.1, 0.08], [1.2, 1.1, 1.05], [0.1, float("nan")], []):
        with pytest.raises(CheckFailed):
            checks.check_loss_history(bad)


def _galerkin_values(mu=0.4, lam=0.3):
    ctx = mltune.SolverContext()
    solution = solver1d.solve_1d(ctx.solver_config(mu, lam), checks.galerkin_forcing(mu, lam, ctx.kappa, ctx.rho))
    xs, ts = np.linspace(-0.9, 0.9, 19), np.linspace(0.1, 1.0, 7)
    return solver1d.evaluate_grid(solution, xs, ts), lam, xs, ts


def test_galerkin_check_accepts_solve_and_rejects_perturbed_solution():
    values, lam, xs, ts = _galerkin_values()
    assert checks.check_galerkin(values, lam, xs, ts) < checks.GALERKIN_TOL
    perturbed = values.copy()
    perturbed[3, 5] += 1e-7
    with pytest.raises(CheckFailed):
        checks.check_galerkin(perturbed, lam, xs, ts)
    with pytest.raises(CheckFailed):
        checks.check_galerkin(values, lam * 1.01, xs, ts)  # solved at another λ


def test_error_comparisons():
    errors = {(0.2, "one"): 1e-3, (0.2, "ann"): 1e-8, (0.2, "spline"): 1e-7}
    checks.check_tuned_beats_one(errors)
    with pytest.raises(CheckFailed):
        checks.check_tuned_beats_one({**errors, (0.2, "ann"): 1e-3})
    checks.check_falls_with_n({32: 3e-3, 40: 2e-3, 48: 1e-3})
    with pytest.raises(CheckFailed):
        checks.check_falls_with_n({32: 3e-3, 40: 2e-3, 48: 2e-3})


def test_rms_error_rejects_malformed_values():
    exact = checks.exact_1d(0.5, np.linspace(-1, 1, 5), np.linspace(0.1, 1, 3))
    assert checks.rms_error(exact, exact) == 0.0
    with pytest.raises(CheckFailed):
        checks.rms_error(exact[:, :4], exact)
    bad = exact.copy()
    bad[0, 0] = np.nan
    with pytest.raises(CheckFailed):
        checks.rms_error(bad, exact)


def test_2d_checks_accept_solve_and_reject_perturbed_solution():
    mu, n = 0.8, 12
    problem = ManufacturedProblem(mu=mu, nu=1.0 - mu, rho=0.0, dim=2)
    config = solver1d.SolverConfig(mu=mu, lam=1.0, rho=0.0, m_space=n, n_time=n, dimension=2)
    solution = solver2d.solve_2d(config, problem)
    reported = solver2d.error_norms_2d(solution, problem.exact).linf
    points = np.linspace(-0.95, 0.95, 23)
    values = solver2d.evaluate_grid_2d(solution, points, points, np.array([1.0]))[0]
    exact = checks.exact_2d(1.0 - mu, points, points, 1.0)
    checks.check_symmetry(values)
    checks.check_closed_form_2d(values, exact, reported)
    checks.check_linf("one", reported)
    with pytest.raises(CheckFailed):
        checks.check_linf("ann", reported)  # λ=1 accuracy is not tuned accuracy
    perturbed = values.copy()
    perturbed[4, 9] += 10.0 * reported
    with pytest.raises(CheckFailed):
        checks.check_symmetry(perturbed)
    with pytest.raises(CheckFailed):
        checks.check_closed_form_2d(perturbed, exact, reported)
    with pytest.raises(CheckFailed):
        checks.check_closed_form_2d(values, exact, reported * 10.0)


def _stub_cli(failing, message="imaginary residue 1.2e-02 exceeds 1e-06"):
    """A `muntzspec solve` that fails at the ANN λ on the (mu, N) in
    `failing` and otherwise writes an errors.csv."""

    def main(argv):
        parser = configparser.ConfigParser()
        parser.read(argv[-1], encoding="utf-8")
        mu, n = float(parser["problem"]["mu"]), int(parser["discretization"]["M"])
        if parser["discretization"]["lambda"] == "ann:packaged" and (mu, n) in failing:
            print(message, file=sys.stderr)
            return 3
        out = pathlib.Path(parser["output"]["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "errors.csv").write_text("lambda,L2,Linf\n1.0,1e-7,1e-7\n", encoding="utf-8")
        return 0

    return types.SimpleNamespace(cli=types.SimpleNamespace(main=main))


def _cli_round(tmp_path, failing, **kwargs):
    clock = workloads.Clock(types.SimpleNamespace(maybe_run=lambda: None))
    workload = workloads.Cli2D(_stub_cli(failing, **kwargs), HERE.parent, tmp_path, 1, clock)
    workload.setup()
    workload.run_round(0)
    return clock


def test_cli_round_accepts_only_the_known_2d_fault(tmp_path):
    known = workloads.Cli2D.KNOWN_FAULTS
    clock = _cli_round(tmp_path, known)
    assert sum(not ok for _, ok in clock.ops) == len(known)
    with pytest.raises(CheckFailed):
        _cli_round(tmp_path, known | {(0.8, 20)})
    with pytest.raises(CheckFailed):
        _cli_round(tmp_path, known, message="singular matrix")
