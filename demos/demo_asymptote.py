"""Combined energy along the destabilizing path and its linear asymptote.

M^Don(t) = M1(t) + mu(E) M2(t) grows linearly with slope equal to the
exact non-Archimedean invariant M^NA = -10/3 for the catalog pair.  A
second run shows the contrasting bounded case: on O with a generator
whose top eigenspace already generates every fibre, the energy stays
below 1 for all times.
"""

import numpy as np

from bml import bergman as bg
from bml import bundles as bd
from bml import donaldson as don
from bml import exactsheaf as xs
from bml.quadrature import build_grid_p1


def main():
    grid = build_grid_p1()

    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.two_step_one_ps(basis, [1], (2.0 / 3.0, -1.0))
    filt = xs.two_step_filtration([2], [0, 2], 3, ("2/3", "-1"))
    m_na = xs.m_na(filt)
    ts = np.linspace(1.5, 15.0, 10)
    m1 = don.m1_curve(basis, grid, ps, ts, n_path=64)
    m2 = don.m2_along_path(basis, grid, ps, ts)
    mdon = m1 + float(xs.mu(filt.ambient)) * m2
    print(" t        M1          M2          M^Don")
    for t, a, b, c in zip(ts, m1, m2, mdon):
        print(f"{t:5.2f}  {a:10.4f}  {b:10.4f}  {c:10.4f}")
    fit = don.asymptotic_slope_fit(ts, mdon, t_min=9.0, predicted=m_na)
    print(f"\nexact invariant M^NA = {m_na} = {float(m_na):.6f}")
    print(f"fitted asymptotic slope = {fit.slope:.6f}")

    print("\n--- bounded case: O with a trivially saturating generator ---")
    basis0 = bd.section_basis(bd.split(0), 2, orthonormal=False)
    ps0 = bg.one_ps(np.diag([0.5, -1.0, 0.5]))
    ts0 = np.linspace(0.0, 20.0, 9)
    vals = don.m1_curve(basis0, grid, ps0, ts0, n_path=64)
    for t, v in zip(ts0, vals):
        print(f"t = {t:5.1f}   M^Don = {v:9.5f}")
    print(f"sup |M^Don| = {np.abs(vals).max():.5f}  (stays below 1)")


if __name__ == "__main__":
    main()
