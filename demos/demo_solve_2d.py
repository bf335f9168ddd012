"""2D fractional diffusion on [-1, 1]^2 x [0, 2] with an irrational order.

The solution sin(pi x) sin(pi y) t^(1 + mu) with mu = sqrt(2)/2 is solved
in a rotated spatial basis that decouples the modes: one small real temporal
system per pair of spatial modes replaces a dense space-time system.
The tuned exponent scale again resolves the fractional power in time.
"""

import math

from muntzspec import ManufacturedProblem, SolverConfig, error_norms_2d, solve_2d


def main():
    mu = math.sqrt(2.0) / 2.0
    problem = ManufacturedProblem(mu=mu, nu=1.0 + mu, rho=0.0, dim=2, t_end=2.0)
    print(f"mu = sqrt(2)/2 = {mu:.6f}, solution exponent 1 + mu, t in [0, 2]")
    print(f"{'M = N':>6s} {'max error at t = 2':>20s}")
    for n in (10, 20, 30):
        config = SolverConfig(
            mu=mu, lam=0.0899, rho=0.0, m_space=n, n_time=n,
            t_end=2.0, dimension=2,
        )
        solution = solve_2d(config, problem)
        linf = error_norms_2d(solution, problem.exact, time=2.0).linf
        print(f"{n:6d} {linf:20.3e}")


if __name__ == "__main__":
    main()
