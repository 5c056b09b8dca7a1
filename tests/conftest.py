import numpy as np
import pytest

from bml import balance, kernels
from bml.quadrature import build_grid_p1, build_grid_p2


@pytest.fixture(scope="session")
def grid_p1():
    """Light P^1 grid: enough for solver and identity tests."""
    return build_grid_p1(n_radial=6, n_angular=16, depth=12)


@pytest.fixture(scope="session")
def grid_p1_fine():
    """Default-resolution P^1 grid for closed-form comparisons."""
    return build_grid_p1()


@pytest.fixture(scope="session")
def grid_p2():
    return build_grid_p2(n_simplex=4, n_angular=8, depth=5)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def whole_grid_route():
    """route(basis, grid): the b_matrix(H) a whole-grid solve reads, the
    ring table of a line bundle on a grid with rings, else the held
    chart's."""
    def route(basis, grid):
        if balance._ring_start(basis, grid):
            return kernels.rings(basis, grid)
        q = kernels.chart(basis, grid.nodes)
        return lambda H: kernels.b_matrix(q, grid, H)

    return route
