"""Log-det energy along the destabilizing degeneration of O(0)+O(2).

Samples M2 along the two-step path at level k = 3 and fits the tail: the
fitted slope reproduces the exact rational prediction -2/3 to many
digits.
"""

import numpy as np

from bml import bergman as bg
from bml import bundles as bd
from bml import donaldson as don
from bml import exactsheaf as xs
from bml.quadrature import build_grid_p1


def main():
    basis = bd.section_basis(bd.split(0, 2), 3)
    grid = build_grid_p1(n_radial=6, n_angular=16, depth=12)
    ps = bg.two_step_one_ps(basis, [1], (2.0 / 3.0, -1.0))

    filt = xs.two_step_filtration([2], [0, 2], 3, ("2/3", "-1"))
    predicted = xs.m2_slope_prediction(filt)

    ts = np.linspace(1.0, 15.0, 12)
    m2 = don.m2_along_path(basis, grid, ps, ts)
    print(" t        M2(t)")
    for t, v in zip(ts, m2):
        print(f"{t:5.2f}  {v:12.6f}")
    fit = don.asymptotic_slope_fit(ts, m2, t_min=9.0, predicted=predicted)
    print(f"\npredicted slope: {predicted} = {float(predicted):.10f}")
    print(f"fitted slope:    {fit.slope:.10f}   (rel. error {fit.relative_error:.2e})")


if __name__ == "__main__":
    main()
