"""Eigenvalue-pinch diagnostics against the Hermitian-Einstein reference.

For a line bundle on P^1 the combined energy of any metric against the
HE reference dominates a pinch-weighted L2 distance: the coefficient is
(delta - 1 - log delta)/(log delta)^2 / C with C = 4 pi the first
nonzero Laplace eigenvalue (balance.SPECTRAL_CONSTANT).  The energy is
M1 + mu M2 at the end of the path from I to the form
(donaldson.form_energy).  The demo evaluates both sides at the
balanced metric (both are zero) and at deliberately unbalanced forms (a
strict inequality).
"""

import numpy as np

from bml import balance as bl
from bml import bergman as bg
from bml import bundles as bd
from bml import donaldson as don
from bml.quadrature import build_grid_p1


def main():
    grid = build_grid_p1(n_radial=6, n_angular=16, depth=12)
    c = bl.SPECTRAL_CONSTANT
    print(f"spectral constant C = 4 pi = {c:.10f}, the first nonzero Laplace eigenvalue\n")

    basis = bd.section_basis(bd.split(2), 1)
    he = bl.hermitian_einstein_catalog(basis, grid)
    st, _ = bl.t_iterate(basis, grid, np.eye(basis.dimension), tol=1e-12, max_iter=300)
    print(f"balanced solve: {st.flag}, residual {st.residual:.2e}")
    h_bal = bg.fs_metric(basis, grid, bg.HermitianForm(matrix=st.H.astype(complex)))
    diag = bl.delta_diagnostic(h_bal, he, grid)
    val = don.form_energy(basis, grid, st.H)
    print(f"at the balanced form: delta = {diag.delta:.6f}, "
          f"energy = {val:.2e} >= bound = {diag.lower_bound:.2e}\n")

    print("strength of the inequality at unbalanced forms:")
    n = basis.dimension
    for amp in (0.2, 0.5, 1.0):
        w = np.linspace(amp, -amp, n)
        H = np.diag(np.exp(w - w.mean()))
        h = bg.fs_metric(basis, grid, bg.HermitianForm(matrix=H.astype(complex)))
        d = bl.delta_diagnostic(h, he, grid)
        v = don.form_energy(basis, grid, H)
        print(f"  amp {amp:4.1f}:  delta = {d.delta:.4f}   energy = {v:.6f}   "
              f"bound = {d.lower_bound:.6f}   margin = {v - d.lower_bound:+.6f}")


if __name__ == "__main__":
    main()
