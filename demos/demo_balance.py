"""Balanced-metric solvers on stable and unstable bundles.

For stable (or polystable) bundles both the fixed-point T-iteration and
the Levenberg-Marquardt residual minimizer converge to the same balanced
form.  For the unstable O(0)+O(2) no balanced form exists: the spread of
the iterates blows up while the log-det energy decreases monotonically,
and the slope of m2 against the spread-based time proxy reproduces the
predicted -2/3.
"""

import numpy as np

from bml import balance as bl
from bml import bundles as bd
from bml.quadrature import build_grid_p1


def main():
    grid = build_grid_p1(n_radial=6, n_angular=16, depth=12)
    rng = np.random.default_rng(0)

    print("--- stable: O(3) at level 2 ---")
    basis = bd.section_basis(bd.split(3), 2)
    n = basis.dimension
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H0 = a @ a.conj().T + 0.5 * np.eye(n)
    st_t, hist = bl.t_iterate(basis, grid, H0, tol=1e-10, max_iter=300)
    st_lm, _ = bl.lm_minimize(basis, grid, H0, tol=1e-10, max_iter=200)
    print(f"T-iteration:  {st_t.flag} in {st_t.iteration} steps, residual {st_t.residual:.2e}")
    print(f"LM minimizer: {st_lm.flag} in {st_lm.iteration} steps, residual {st_lm.residual:.2e}")
    print(f"solver agreement |H_T - H_LM| = {np.linalg.norm(st_t.H - st_lm.H):.2e}")

    print("\n--- unstable: O(0)+O(2) at level 3 ---")
    basis = bd.section_basis(bd.split(0, 2), 3)
    st, hist = bl.t_iterate(basis, grid, np.eye(basis.dimension), tol=1e-10, max_iter=300)
    print(f"flag: {st.flag} after {st.iteration} iterations")
    print(f"eigenvalue spread ratio: {st.spread_ratio:.3e}")
    print(f"verdict: {bl.divergence_detect(hist)}")
    slope = bl.iterate_slope(hist, weight_range=5.0 / 3.0)
    print(f"m2 slope along the iterate path: {slope:.6f}  (predicted -2/3)")
    lowest = bl.convexity_monitor([row.m2 for row in hist][:20])
    print(f"m2 second differences over the head of the run: min {lowest:.2e}")


if __name__ == "__main__":
    main()
