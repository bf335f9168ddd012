"""The benchmark's layer tracer (bench/spans.py) wraps module-level names of
the package by attribute lookup; every name it lists must keep resolving."""

import importlib.util
import pathlib

import numpy as np

import muntzspec
import muntzspec.cli  # noqa: F401  (the tracer wraps cli names too)
from muntzspec.assembly import ManufacturedProblem

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    originals = {
        (module, attr): getattr(getattr(muntzspec, module), attr)
        for module, attr, _, _ in spans.WRAPPED
    }
    tracer = spans.Tracer(muntzspec)
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(getattr(muntzspec, module), attr) is not original
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(getattr(muntzspec, module), attr) is original


def test_solve_1d_records_lapack_spans():
    # the banded routines come from solver1d.get_lapack_funcs, which the tracer
    # wraps together with every routine it returns; imported directly they
    # would leave solver1d.lapack_s at zero
    spans = load_spans()
    tracer = spans.Tracer(muntzspec)
    tracer.install()
    try:
        config = muntzspec.solver1d.SolverConfig(mu=0.5, lam=0.5, m_space=12, n_time=6)
        muntzspec.solver1d.solve_1d(config, ManufacturedProblem(mu=0.5, nu=1.5))
    finally:
        tracer.uninstall()
    lapack = [span for span in tracer.spans if span[:2] == ["lapack", "solver1d"]]
    # the lookup plus gbtrf, gbcon and gbtrs
    assert len(lapack) >= 4
    assert tracer.layer_metrics(1, 1.0)["solver1d.lapack_s"] > 0.0


def test_solve_2d_records_lapack_spans(monkeypatch):
    # a warm 2D solve makes one LAPACK call the tracer sees, the QZ through
    # solver2d.qz; the rotation's eigh is cached per spatial cutoff
    spans = load_spans()
    solver2d = muntzspec.solver2d
    config = muntzspec.solver1d.SolverConfig(
        mu=0.5, lam=0.5, rho=0.0, m_space=8, n_time=5, dimension=2
    )
    problem = ManufacturedProblem(mu=0.5, nu=1.5, rho=0.0, dim=2)
    solver2d.solve_2d(config, problem)
    calls = []
    qz = solver2d.qz

    def counted(*args, **kwargs):
        calls.append(args)
        return qz(*args, **kwargs)

    monkeypatch.setattr(solver2d, "qz", counted)
    tracer = spans.Tracer(muntzspec)
    tracer.install()
    try:
        solver2d.solve_2d(config, problem)
    finally:
        tracer.uninstall()
    lapack = [span for span in tracer.spans if span[:2] == ["lapack", "solver2d"]]
    assert len(calls) == 1
    assert len(lapack) == 1
    assert tracer.layer_metrics(1, 1.0)["solver2d.lapack_s"] > 0.0


def test_batch_loss_assembles_once_per_group(monkeypatch):
    # lambda depends only on mu, so 3 orders x 4 exponents are 3 groups; a
    # `_ratios` call assembles all of them in one stacked temporal assembly,
    # and the gradient's call stacks the lambda +- h stencil too (9 groups)
    spans = load_spans()
    mltune, quadrature = muntzspec.mltune, muntzspec.quadrature
    config = mltune.TrainingConfig(hidden_layers=1, hidden_width=3)
    net = mltune.init_network(config.layer_sizes, config.negative_slope, np.random.default_rng(0))
    mu = np.repeat([0.2, 0.5, 0.8], 4)
    nu = np.tile([0.3, 0.5, 0.7, 0.9], 3)
    quadrature._gauss_jacobi_cached.cache_clear()
    quadrature._gauss_jacobi_unit_cached.cache_clear()
    builds = []
    build = quadrature._golub_welsch

    def counted(alpha, beta, n):
        builds.append((alpha, beta, n))
        return build(alpha, beta, n)

    monkeypatch.setattr(quadrature, "_golub_welsch", counted)
    tracer = spans.Tracer(muntzspec)
    tracer.install()
    try:
        _, _, ratios = mltune.batch_loss(net, mu, nu, np.ones(12), mltune.SolverContext(), config)
        temporal = [span for span in tracer.spans if span[:2] == ["assembly", "temporal"]]
        assert len(temporal) == 1
        mltune._loss_and_gradient(net, mu, nu, np.ones(12), mltune.SolverContext(), config)
        temporal = [span for span in tracer.spans if span[:2] == ["assembly", "temporal"]]
        assert len(temporal) == 2
    finally:
        tracer.uninstall()
    assert not np.isnan(ratios).any()
    # every rule asked for is built once, however often it is asked for
    assert len(builds) == len(set(builds))
    assert len(builds) == len({key[1:] for key in tracer.rule_keys})
