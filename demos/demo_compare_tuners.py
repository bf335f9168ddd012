"""Compare the packaged exponent tuners on a singular benchmark.

For mu = 0.65 and the manufactured solution sin(pi x) t^(1 - mu), solve with
the exponent scale predicted by the packaged network, by the packaged cubic
spline baseline, and with the classical scale lambda = 1, then compare the
resulting max errors.
"""

import pathlib

import muntzspec
from muntzspec import (
    ManufacturedProblem,
    SolverConfig,
    error_norms,
    forward,
    load_model,
    load_spline,
    solve_1d,
    spline_predict,
)

MODELS = pathlib.Path(muntzspec.__file__).resolve().parent / "models"


def main():
    net, metadata = load_model(str(MODELS / "reference_ann.json"))
    spline = load_spline(str(MODELS / "reference_spline.json"))
    print(f"packaged network: {metadata}")

    mu = 0.65
    problem = ManufacturedProblem(mu=mu, nu=1.0 - mu)
    sources = {
        "network": forward(net, mu),
        "spline": float(spline_predict(spline, mu)),
        "classical": 1.0,
    }
    print(f"\nmu = {mu}, solution exponent {1.0 - mu}")
    print(f"{'source':>10s} {'lambda':>8s} {'max error':>12s}")
    for label, lam in sources.items():
        config = SolverConfig(mu=mu, lam=lam, m_space=20, n_time=20)
        err = error_norms(solve_1d(config, problem), problem.exact).linf
        print(f"{label:>10s} {lam:8.4f} {err:12.3e}")


if __name__ == "__main__":
    main()
