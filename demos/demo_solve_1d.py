"""1D fractional convection-diffusion with a singular-in-time solution.

The manufactured solution sin(pi x) t^(1 - mu) with mu = 3/25 has an
algebraic singularity at t = 0.  A tuned exponent scale (lambda = 0.0962)
captures it spectrally; the classical scale (lambda = 1) stalls.
"""

from muntzspec import ManufacturedProblem, SolverConfig, error_norms, solve_1d


def sweep(mu, lam, problem):
    errs = []
    for n in (4, 8, 12, 16, 20):
        config = SolverConfig(mu=mu, lam=lam, m_space=20, n_time=n)
        solution = solve_1d(config, problem)
        errs.append(error_norms(solution, problem.exact).linf)
    return errs


def main():
    mu = 3.0 / 25.0
    problem = ManufacturedProblem(mu=mu, nu=1.0 - mu)
    tuned = sweep(mu, 0.0962, problem)
    classical = sweep(mu, 1.0, problem)

    print(f"max error on the space-time grid, mu = {mu}")
    print(f"{'N':>4s} {'lambda = 0.0962':>16s} {'lambda = 1':>14s}")
    for n, a, b in zip((4, 8, 12, 16, 20), tuned, classical):
        print(f"{n:4d} {a:16.3e} {b:14.3e}")
    print()
    print(f"gain at N = 20: {classical[-1] / tuned[-1]:9.1e}x")


if __name__ == "__main__":
    main()
