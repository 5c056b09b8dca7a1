import math
import warnings

import numpy as np
import pytest

from bml.config import parse_config
from bml.quadrature import (
    InvalidResolution,
    NonFiniteIntegrand,
    QuadratureGrid,
    build_grid_p1,
    build_grid_p2,
)


def test_p1_volume_is_one(grid_p1):
    assert grid_p1.volume == pytest.approx(1.0, abs=1e-12)


def test_p1_inverse_power_moments(grid_p1):
    # int (1+|z|^2)^(-d) dmu = 1/(d+1) for the unit-volume study measure
    s = np.abs(grid_p1.nodes) ** 2
    for d in (1, 2, 3, 5):
        val = grid_p1.integrate((1.0 + s) ** (-d))
        assert val == pytest.approx(1.0 / (d + 1), rel=1e-12)


def test_p1_log_moment(grid_p1):
    # int log(1+|z|^2)/(1+|z|^2) dmu = int_1^inf t^-3 log t dt = 1/4
    s = np.abs(grid_p1.nodes) ** 2
    val = grid_p1.integrate(np.log1p(s) / (1.0 + s))
    assert val == pytest.approx(0.25, rel=1e-9)


def test_p1_odd_moment_vanishes(grid_p1):
    z = grid_p1.nodes
    val = grid_p1.integrate((z / (1.0 + np.abs(z) ** 2) ** 2).real)
    assert abs(val) < 1e-14


def test_p2_volume(grid_p2):
    # normalized so that the surface carries total mass 1/2
    assert grid_p2.volume == pytest.approx(0.5, rel=1e-10)


FOLD_SIZES = [3, 7, 36, 144, 320, 2304, 10240, 20480, 73728]


def flat_grid(weights):
    return QuadratureGrid(space_tag="P1", nodes=np.zeros(len(weights), dtype=complex),
                          weights=weights, ring=1)


def test_integrate_matches_fsum(rng):
    """With unit weights the sum of 1001 values spread over 16 decades is
    its exactly rounded value to 1e-14 relative; at each size the weighted
    sum is within 1e-14 sum |v_i w_i| of it, and a misaligned copy of the
    values sums to the same bits."""
    vals = rng.normal(size=1001) * 10.0 ** rng.integers(-8, 8, size=1001)
    assert flat_grid(np.ones(1001)).integrate(vals) == pytest.approx(math.fsum(vals), rel=1e-14)
    for m in FOLD_SIZES:
        grid = flat_grid(rng.uniform(0.5, 1.5, m))
        vals = rng.normal(size=m) * 10.0 ** rng.integers(-8, 8, size=m)
        got = grid.integrate(vals)
        assert abs(got - math.fsum(vals * grid.weights)) <= 1e-14 * math.fsum(np.abs(vals * grid.weights))
        misaligned = np.empty(8 * m + 8, dtype=np.uint8)[1 : 8 * m + 1].view(float)
        misaligned[:] = vals
        assert not misaligned.flags.aligned and grid.integrate(misaligned) == got


def test_nonfinite_integrand_rejected(grid_p1):
    vals = np.ones(grid_p1.nodes.size)
    vals[3] = np.nan
    with pytest.raises(NonFiniteIntegrand):
        grid_p1.integrate(vals)


def test_build_grid_dispatch():
    """A config builds the grid of its bundle's space from its grid keys."""
    for bundle, keys, build in (
        ("split_p1:0,2", {"n_radial": 4, "n_angular": 8, "depth": 6}, build_grid_p1),
        ("euler_tp2", {"n_simplex": 3, "n_angular": 6, "depth": 4}, build_grid_p2),
    ):
        grid = parse_config({"kind": "balance", "bundle": bundle, "grid": keys}).build_grid()
        want = build(**keys)
        assert grid.space_tag == want.space_tag
        assert grid.nodes.tobytes() == want.nodes.tobytes()
        assert grid.weights.tobytes() == want.weights.tobytes()


@pytest.mark.parametrize("build, last", [(build_grid_p1, 48), (build_grid_p2, 44)])
def test_a_depth_that_reaches_infinity_is_refused(build, last):
    """At the default other resolutions the outermost node of depth
    last + 1 rounds onto the point at infinity: the builder names the
    depth before any arithmetic warns, and depth ``last`` builds finite
    nodes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(build(depth=last).nodes).all()
        with pytest.raises(InvalidResolution, match=f"depth {last + 1}"):
            build(depth=last + 1)


def test_refinement_converges():
    coarse = build_grid_p1(n_radial=4, n_angular=8, depth=6)
    fine = build_grid_p1(n_radial=8, n_angular=16, depth=10)
    f = lambda z: np.exp(-np.abs(z) ** 2) / (1.0 + np.abs(z) ** 2)
    a = coarse.integrate(f(coarse.nodes))
    b = fine.integrate(f(fine.nodes))
    assert a == pytest.approx(b, rel=1e-7)


@pytest.mark.parametrize("grid, per_orbit", [
    (build_grid_p1(), 32), (build_grid_p1(n_radial=6, n_angular=16, depth=12), 16),
], ids=["p1-default", "p1-light"])
def test_orbits_keep_one_node_per_ring(grid, per_orbit):
    """The quotient keeps the first node of each ring with the ring's
    total weight, maps it back to its index in the grid, is computed
    once, and integrates a torus-invariant function as the grid does."""
    orbits = grid.orbits
    assert orbits is grid.orbits and orbits.orbits is orbits and grid.parent is None
    assert grid.ring == per_orbit and orbits.ring == 1
    assert np.array_equal(orbits.parent, np.arange(0, len(grid.nodes), per_orbit))
    assert np.array_equal(orbits.nodes, grid.nodes[orbits.parent])
    assert orbits.weights == pytest.approx(grid.weights.reshape(-1, per_orbit).sum(axis=1), rel=1e-15)
    assert orbits.volume == grid.volume
    assert orbits.weights.sum() == pytest.approx(grid.volume, rel=1e-14)
    s = (np.abs(grid.nodes) ** 2).reshape(len(grid.nodes), -1).sum(axis=1)
    s_orbits = s[orbits.parent]
    for f in (lambda s: (1.0 + s) ** -3, lambda s: np.log1p(s) / (1.0 + s)):
        assert orbits.integrate(f(s_orbits)) == pytest.approx(grid.integrate(f(s)), rel=1e-14)


def test_p2_grid_is_its_own_quotient():
    """The P^2 grid records no ring (see build_grid_p2)."""
    grid = build_grid_p2(n_simplex=4, n_angular=8, depth=5)
    assert grid.ring == 1 and grid.orbits is grid and grid.parent is None


def test_nonfinite_integrand_names_the_node_of_the_full_grid():
    """A quotient names a failing node by its index in the grid it was
    reduced from: node 3 of the orbits is node 3 * 32 of the grid."""
    orbits = build_grid_p1().orbits
    values = np.ones(len(orbits.nodes))
    values[3] = np.nan
    with pytest.raises(NonFiniteIntegrand) as info:
        orbits.integrate(values)
    assert type(info.value) is NonFiniteIntegrand and info.value.index == 96 and "96" in str(info.value)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("m", [1, 2, 5, *FOLD_SIZES])
def test_a_stack_integrates_as_its_rows_one_by_one(m, rows, rng):
    """A (T, M) stack is folded in one pass, and each row's sum is bit for
    bit that of the row alone, which is a float; so is each row of the
    stack stored column-major."""
    grid = flat_grid(rng.uniform(0.5, 1.5, m))
    stack = rng.normal(size=(rows, m)) * 10.0 ** rng.integers(-8, 8, size=(rows, m))
    one_by_one = [grid.integrate(row) for row in stack]
    assert all(type(v) is float for v in one_by_one)
    assert grid.integrate(stack).tobytes() == np.asarray(one_by_one).tobytes()
    assert grid.integrate(np.asfortranarray(stack)).tobytes() == np.asarray(one_by_one).tobytes()


def test_nonfinite_entry_of_a_stack_names_its_node_of_the_full_grid():
    """One scan of a whole stack on a quotient names the node of the
    non-finite entry by its index in the full grid, whatever its row."""
    orbits = build_grid_p1().orbits
    values = np.ones((3, len(orbits.nodes)))
    values[2, 5] = np.inf
    with pytest.raises(NonFiniteIntegrand) as info:
        orbits.integrate(values)
    assert info.value.index == orbits.name(5) == 160


def test_a_stack_runs_over_the_nodes_along_its_last_axis(grid_p1):
    with pytest.raises(ValueError, match="one scalar per node"):
        grid_p1.integrate(np.ones((grid_p1.nodes.size, 3)))
