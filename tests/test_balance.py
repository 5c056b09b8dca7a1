import dataclasses
import warnings
from functools import partial
from math import factorial

import numpy as np
import pytest

from bml import balance as bl
from bml import bergman as bg
from bml import bundles as bd
from bml import donaldson as don
from bml import kernels
from bml import quadrature as qd


def random_form(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T + 0.5 * np.eye(n)


def first_variation(basis, grid, H, zeta):
    """d/dt of m2 along H_t = sigma e^{2 zeta t} sigma, sigma = H^{1/2},
    at t = 0: 2 tr(zeta M(H))."""
    return float(2.0 * np.trace(zeta @ bl.center_of_mass(basis, grid, H)).real)


def test_center_of_mass_trace(grid_p1, rng):
    basis = bd.section_basis(bd.split(0, 2), 3)
    H = random_form(basis.dimension, rng)
    m = bl.center_of_mass(basis, grid_p1, H)
    # tr M(H) = rank exactly, for every positive form
    assert np.trace(m).real == pytest.approx(basis.rank, rel=1e-12)


@pytest.mark.parametrize("degrees, k, rings", [((3,), 2, True), ((0, 2), 3, False)],
                         ids=["O3-k2-rings", "split02-k3-chart"])
def test_center_of_mass_and_m2_are_the_solvers_iterate(degrees, k, rings, grid_p1, rng):
    """center_of_mass and m2_value read the solvers' own whole-grid
    evaluator (_whole_grid): at the iterate of a solve stopped at its
    non-diagonal start they give its center of mass and m2 bit for bit,
    from the ring table (a line bundle on the light grid) and from the
    held chart (rank 2 on the coarse grid)."""
    grid = grid_p1 if rings else qd.build_grid_p1(**COARSE)
    basis = bd.section_basis(bd.split(*degrees), k)
    state, history = bl.t_iterate(basis, grid, random_form(basis.dimension, rng), max_iter=0)
    assert bl._ring_start(basis, grid) == rings and not bl._column_start(grid, state.H)
    assert bl.center_of_mass(basis, grid, state.H).tobytes() == state.center_of_mass.tobytes()
    assert bl.m2_value(basis, grid, state.H) == history[0].m2


def test_t_convention_on_symmetric_configuration():
    """The direction of the T-map: on split(2), k=0, the identity is a
    fixed point of T and a zero of the m2 gradient."""
    grid = qd.build_grid_p1(n_radial=4, n_angular=8, depth=6)
    basis = bd.section_basis(bd.split(2), 0)
    H = np.eye(basis.dimension)
    b = kernels.b_matrix(kernels.chart(basis, grid.nodes), grid, H)[0]
    assert np.linalg.norm(bl.t_operator(basis, b)[0] - H) < 1e-10
    zeta = np.diag([1.0, 0.0, -1.0])
    assert abs(first_variation(basis, grid, H, zeta)) < 1e-10


def test_t_operator_fixes_balanced_point(grid_p1):
    """T(I) = I at the balanced form I of O(2), k = 1, with the eigenpairs
    (mu, V) of the result: mu = 1 and V unitary."""
    basis = bd.section_basis(bd.split(2), 1)
    n = basis.dimension
    out, (mu, v) = bl.t_operator(basis, kernels.b_matrix(kernels.chart(basis, grid_p1.nodes), grid_p1, np.eye(n))[0])
    assert np.abs(out - np.eye(n)).max() < 1e-12
    assert np.abs(mu - 1.0).max() < 1e-12 and np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("b", [np.diag([0.0, 1.0, 2.0]).astype(complex), np.array([0.0, 1.0, 2.0])],
                         ids=["dense", "columns"])
def test_t_operator_refuses_a_zero_eigenvalue(b):
    """A B(H) with an eigenvalue 0, dense or the column route's vector, is
    refused as singular before any log or reciprocal is taken."""
    basis = bd.section_basis(bd.split(2), 0)
    with pytest.raises(kernels.SingularGram, match="center-of-mass Gram matrix is singular"):
        bl.t_operator(basis, b)


@pytest.mark.parametrize("rings", [True, False], ids=["rings", "ring-1"])
def test_t_step_takes_one_eigh(rings, grid_p1, monkeypatch, rng):
    """A whole-grid T-solve calls np.linalg.eigh once per T-step, on B(H)
    in t_operator, whose eigenpairs (mu, V) of the next form give that
    iterate's square root and spread: the start alone takes its own.  On
    the grid with rings a line bundle's B(H) comes from the ring table,
    on the grid with ring 1 a rank-2 bundle's from the held chart."""
    grid = grid_p1 if rings else dataclasses.replace(grid_p1, ring=1)
    basis = bd.section_basis(bd.split(3), 2) if rings else bd.section_basis(bd.split(0, 2), 3)
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: shapes.append(a.shape) or eigh(a, *args, **kw))
    state, history = bl.t_iterate(basis, grid, random_form(basis.dimension, rng), tol=1e-10, max_iter=8)
    assert state.flag == "max_iter" and [row.step for row in history] == ["t"] * 8 + ["none"]
    assert shapes == [(basis.dimension, basis.dimension)] * 9


@pytest.mark.parametrize("degrees, k", [((2,), 2), ((0, 2), 3)], ids=["O2-k2", "split02-k3"])
def test_t_step_eigenpairs_are_those_of_the_next_form(degrees, k, grid_p1, whole_grid_route, rng):
    """t_operator's H' is V diag(mu) V* in eigh's column order, byte for
    byte, and (mu, V) are its eigenpairs: the iterate at H' from them
    holds the H' and B(H') of the iterate that takes its own eigh, and
    its square root, spread and residual to 1e-13 relative.  B(H) comes
    from the ring table at rank one and from the held chart at rank 2."""
    basis = bd.section_basis(bd.split(*degrees), k)
    n = basis.dimension
    table = whole_grid_route(basis, grid_p1)
    ld0 = table(np.eye(n))[1]
    out, (mu, v) = bl.t_operator(basis, table(bl._det_normalize(random_form(n, rng)))[0])
    assert out.tobytes() == ((v * mu) @ v.conj().T).tobytes()
    assert np.abs(out @ v - v * mu).max() <= 1e-13 * mu.max()
    got, want = (bl._solver_parts(basis, grid_p1, table, out, ld0, eig) for eig in ((mu, v), None))
    assert got.H.tobytes() == want.H.tobytes() and got.b.tobytes() == want.b.tobytes()
    assert np.abs(got.sq @ got.sq - out).max() <= 1e-13 * np.abs(out).max()
    assert np.abs(got.sq - want.sq).max() <= 1e-13 * np.abs(want.sq).max()
    assert got.spread == pytest.approx(want.spread, rel=1e-13)
    assert np.abs(got.s - want.s).max() <= 1e-13 * np.abs(want.s).max()


def test_t_iterate_converges_line_bundle(grid_p1, rng):
    basis = bd.section_basis(bd.split(2), 2)
    H0 = random_form(basis.dimension, rng)
    state, history = bl.t_iterate(basis, grid_p1, H0, tol=1e-10, max_iter=300)
    assert state.flag == "converged"
    assert state.residual < 1e-10
    assert history[-1].iteration == state.iteration
    assert [row.step for row in history] == ["t"] * state.iteration + ["none"]
    assert all(row.damping == 0.0 for row in history)


def test_lm_agrees_with_t(grid_p1, rng):
    basis = bd.section_basis(bd.split(3), 2)
    H0 = random_form(basis.dimension, rng)
    st_t, _ = bl.t_iterate(basis, grid_p1, H0, tol=1e-10, max_iter=300)
    st_lm, hist_lm = bl.lm_minimize(basis, grid_p1, H0, tol=1e-10, max_iter=200)
    assert st_lm.flag == "converged"
    # a stable bundle never needs the m2-descent fallback
    assert [row.step for row in hist_lm] == ["lm"] * st_lm.iteration + ["none"]
    # every iterate records the damping its step was searched with
    assert all(np.isfinite(row.damping) and row.damping > 0.0 for row in hist_lm)
    assert np.linalg.norm(st_t.H - st_lm.H) < 1e-6


@pytest.mark.parametrize("guard", [True, False])
def test_lm_divergence_ignores_roundoff(monkeypatch, guard):
    """The divergent LM solve on O(0)+O(2) takes the same path from I and
    from starts perturbed at roundoff level.  The acceptance margin alone
    keeps steps that move roundoff from being accepted; the stationarity
    guard also keeps the damping ladder from being probed there."""
    if not guard:
        monkeypatch.setattr(bl, "LM_STATIONARY", 0.0)
    grid = qd.build_grid_p1(n_radial=3, n_angular=8, depth=6)
    basis = bd.section_basis(bd.split(0, 2), 3)
    n = basis.dimension
    calls = []
    parts = bl._solver_parts
    monkeypatch.setattr(bl, "_solver_parts", lambda *a, **k: calls.append(1) or parts(*a, **k))
    starts = [np.eye(n)]
    for seed in (1, 2, 3):
        e = np.random.default_rng(seed).normal(size=(n, n))
        starts.append(np.eye(n) + 1e-14 * (e + e.T))
    iterations = set()
    for H0 in starts:
        calls.clear()
        state, history = bl.lm_minimize(basis, grid, H0, tol=1e-10, max_iter=200)
        assert state.flag == "diverged"
        assert bl.divergence_detect(history) == "unstable-like"
        assert bl.iterate_slope(history, weight_range=5.0 / 3.0) == pytest.approx(-2.0 / 3.0, abs=1e-9)
        if guard:
            assert len(calls) <= 2 * state.iteration
        assert max(row.rejected for row in history) <= 12
        iterations.add(state.iteration)
    assert len(iterations) == 1


@pytest.mark.parametrize("solver", [bl.t_iterate, bl.lm_minimize], ids=["T", "LM"])
def test_solver_stops_at_max_iter(grid_p1, rng, solver):
    basis = bd.section_basis(bd.split(2), 2)
    state, history = solver(basis, grid_p1, random_form(basis.dimension, rng), tol=1e-10, max_iter=3)
    assert state.flag == "max_iter" and state.iteration == 3
    assert [row.iteration for row in history] == [0, 1, 2, 3]
    assert [row.step == "none" for row in history] == [False, False, False, True]
    assert state.residual == history[-1].residual > 1e-10


def test_lm_stalls_when_no_step_moves(grid_p1, monkeypatch):
    """With the exponential map of the column route, which a diagonal
    start takes, pinned to the identity no trial moves the form, the
    fallback H e^zeta included: the run stalls at its first iterate, whose
    row records the rejected tries and the damping it was searched with."""
    monkeypatch.setattr(bl, "_expm_diagonal", np.ones_like)
    basis = bd.section_basis(bd.split(3), 2)
    H0 = np.diag(np.exp(np.linspace(0.3, -0.3, basis.dimension)))
    state, history = bl.lm_minimize(basis, grid_p1, H0, max_iter=200)
    assert state.flag == "stalled" and state.iteration == 1
    assert [(row.iteration, row.step, row.rejected, row.damping) for row in history] == [(0, "none", 12, 1e-3)]
    assert state.residual == history[-1].residual


@pytest.mark.parametrize("solver", [bl.t_iterate, bl.lm_minimize], ids=["T", "LM"])
def test_solve_holds_one_chart(grid_p1, monkeypatch, rng, solver):
    """A solve evaluates the chart values of each node set it holds once
    and brings them to the node-last layout once, however many forms it
    evaluates: from a generic start of a line bundle on a grid with rings,
    the orbit nodes of the ring table (kernels.rings), and for LM also the
    whole grid, which its Jacobian reads; on a grid with ring 1 the whole
    grid alone."""
    calls = []
    q_field, node_last = bd.q_field, kernels.node_last
    monkeypatch.setattr(bd, "q_field", lambda b, z: calls.append(len(z)) or q_field(b, z))
    monkeypatch.setattr(kernels, "node_last", lambda x: calls.append("node_last") or node_last(x))
    basis = bd.section_basis(bd.split(3), 2)
    H0 = random_form(basis.dimension, rng)
    orbits, whole = len(grid_p1.orbits.nodes), len(grid_p1.nodes)
    solver(basis, grid_p1, H0, tol=1e-10, max_iter=3)
    assert calls == [orbits, "node_last"] + ([whole, "node_last"] if solver is bl.lm_minimize else [])
    calls.clear()
    solver(basis, dataclasses.replace(grid_p1, ring=1), H0, tol=1e-10, max_iter=3)
    assert calls == [whole, "node_last"]


COARSE = dict(n_radial=3, n_angular=8, depth=6)
LIGHT = dict(n_radial=6, n_angular=16, depth=12)


@pytest.mark.parametrize("degrees, k, resolution", [
    ((0, 2), 3, COARSE), ((1, 1), 2, LIGHT), ((2,), 2, LIGHT), ((0, 2), 36, {})],
    ids=["split02-k3-coarse", "split11-k2-light", "split2-k2-light", "split02-k36-default"])
def test_b_on_the_orbits_is_the_ring_average(degrees, k, resolution):
    """B(H) of a random torus-invariant H, 0 off equal section characters,
    on the whole grid: it vanishes to 1e-15 off equal characters, and on
    them one node per orbit gives it to 1e-15.  The trapezoid rule of the
    whole grid integrates e^{i(m_i - m_j) theta} exactly only for
    |m_i - m_j| < n_angular: at k = 36 the entries at characters (3, 35)
    and every other pair 32 apart alias.  Their exact 0 is why the column
    route's exact zeros off the diagonal are the right answer."""
    grid = qd.build_grid_p1(**resolution)
    basis = bd.section_basis(bd.split(*degrees), k)
    n, m = basis.dimension, basis.characters
    mask = m[:, None] == m[None, :]
    a = np.random.default_rng(15).normal(size=(n, n, 2)) @ [1.0, 1j]
    H = (a @ a.conj().T / n + np.eye(n)) * mask
    full = kernels.b_matrix(kernels.chart(basis, grid.nodes), grid, H)[0]
    orbits = kernels.b_matrix(kernels.chart(basis, grid.orbits.nodes), grid.orbits, H)[0]
    assert np.abs(orbits - full)[mask].max() <= 1e-15
    aliased = np.abs(m[:, None] - m[None, :]) == grid.ring
    assert aliased.any() == (k == 36)
    assert np.abs(full[~mask & ~aliased]).max() <= 1e-15
    if k == 36:  # every aliased entry, such as those at characters (3, 35), is far above 1e-15
        assert aliased[m == 3][:, m == 35].all() and np.abs(full[aliased]).min() > 1e-13
        assert np.abs(full[m == 3][:, m == 35]).max() > 1e-10


@pytest.mark.parametrize("degrees, k, resolution", [
    ((0, 2), 3, COARSE), ((0, 2), 3, LIGHT), ((1, 1), 2, LIGHT)],
    ids=["split02-coarse", "split02-light", "split11-light"])
@pytest.mark.parametrize("solver", [bl.t_iterate, bl.lm_minimize], ids=["T", "LM"])
def test_invariant_solve_runs_on_the_orbits(degrees, k, resolution, solver, monkeypatch):
    """A solve from I runs on one node per orbit and takes the steps of
    the same solve on the whole grid (ring 1): same flag, iteration
    count, step kinds and rejected tries, m2, spread and residual to
    1e-12 relative.  Its final H is exactly diagonal, where the whole grid
    leaks at roundoff."""
    grid = qd.build_grid_p1(**resolution)
    basis = bd.section_basis(bd.split(*degrees), k)
    sizes = []
    q_field = bd.q_field
    monkeypatch.setattr(bd, "q_field", lambda b, z: sizes.append(len(z)) or q_field(b, z))
    state, history = solver(basis, grid, np.eye(basis.dimension), tol=1e-10, max_iter=300)
    assert sizes == [len(grid.orbits.nodes)]
    whole, whole_history = solver(basis, dataclasses.replace(grid, ring=1), np.eye(basis.dimension),
                                  tol=1e-10, max_iter=300)
    assert (state.flag, state.iteration) == (whole.flag, whole.iteration)
    assert [(r.step, r.rejected) for r in history] == [(r.step, r.rejected) for r in whole_history]
    for name in ("m2", "spread", "residual"):
        assert getattr(state, name) == pytest.approx(getattr(whole, name), rel=1e-12, abs=1e-15)
    assert (state.H == np.diag(state.H.diagonal())).all()


@pytest.mark.parametrize("solver", [bl.t_iterate, bl.lm_minimize], ids=["T", "LM"])
def test_generic_start_keeps_the_whole_grid(solver, rng):
    """A rank-2 start with entries outside the character mask runs on
    every node from the held chart (kernels.b_matrix), as on the grid
    with no rings: the two divergent solves, of more than 50 steps, are
    one, row for row and bit for bit.  The ring table is a line
    bundle's (test_ring_table_solves_end_at_the_balanced_form)."""
    grid = qd.build_grid_p1(**COARSE)
    basis = bd.section_basis(bd.split(0, 2), 3)
    H0 = random_form(basis.dimension, rng)
    runs = [solver(basis, g, H0, tol=1e-10, max_iter=60) for g in (grid, dataclasses.replace(grid, ring=1))]
    (state, history), (whole, whole_history) = runs
    assert (state.flag, state.iteration) == (whole.flag, whole.iteration) and len(history) > 50
    assert history == whole_history
    assert state.H.tobytes() == whole.H.tobytes()
    assert state.center_of_mass.tobytes() == whole.center_of_mass.tobytes()


@pytest.mark.parametrize("k, node", [(38, 10208), (100, 7424)])
def test_generic_start_past_the_chart_ceiling_names_the_node(k, node, grid_p1_fine):
    """Past the level ceiling of the default grid the ring table's h of
    O(2) overflows on the outer rings: NonFiniteChart names the first
    node of the first such ring by its index in the whole grid, the node
    the chart route names on the grid with ring 1, with no
    RuntimeWarning."""
    basis = bd.section_basis(bd.split(2), k)
    H0 = random_form(basis.dimension, np.random.default_rng(1))
    for grid in (grid_p1_fine, dataclasses.replace(grid_p1_fine, ring=1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(kernels.NonFiniteChart) as info:
                bl.t_iterate(basis, grid, H0, max_iter=2)
        assert info.value.index == node and info.value.z == grid.nodes[node]


@pytest.mark.parametrize("degrees, k", [((0, 2), 3), ((0, 1, 2), 2)], ids=["split02-k3", "split012-k2"])
def test_column_route_is_the_whole_grid_at_a_diagonal_form(degrees, k, monkeypatch):
    """At a random positive diagonal H the column route's vectors H, sq,
    B(H) and s, its m2 and its LM Jacobian in the N - 1 diagonal
    directions are the diagonals of those of the whole grid with ring 1
    (_solver_parts, and _grid_jacobian from _b_derivatives) to 1e-13
    relative, whose entries and Jacobian rows off the real diagonal
    vanish; so are one T-step and one fallback step (LM with its model
    switched off) from H.  A grid with ring 1 has no ring average and
    never takes it."""
    grid = qd.build_grid_p1(**COARSE)
    whole = dataclasses.replace(grid, ring=1)
    basis = bd.section_basis(bd.split(*degrees), k)
    n = basis.dimension
    h = np.exp(np.random.default_rng(21).normal(size=n))
    H = np.diag(h).astype(complex)
    assert bl._column_start(grid, H) and not bl._column_start(whole, H)
    evaluate, jacobian = bl._column_route(basis, grid.orbits)
    got = evaluate(h)
    q = kernels.chart(basis, whole.nodes)
    b_matrix = partial(kernels.b_matrix, q, whole)
    want = bl._solver_parts(basis, whole, b_matrix, H, kernels.logdet(kernels.field(q, whole)), None)
    for name in ("H", "sq", "b", "s"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == (n,) and np.abs(np.diag(a) - b).max() <= 1e-13 * np.abs(b).max(), name
    assert got.m2 == pytest.approx(want.m2, rel=1e-13)
    jac, res = jacobian(got, bl._diagonal_directions(n))
    directions = np.zeros((n - 1, n, n), dtype=complex)
    directions[:, range(n), range(n)] = bl._diagonal_directions(n)
    jac_want, res_want = bl._grid_jacobian(basis, whole, q, want, directions)
    diagonal = np.arange(n) * (n + 1)  # the real parts of the entries (i, i)
    scale = np.abs(jac).max()
    assert np.abs(jac - jac_want[diagonal]).max() <= 1e-13 * scale
    assert np.abs(np.delete(jac_want, diagonal, axis=0)).max() <= 1e-13 * scale
    assert np.abs(res - res_want[diagonal]).max() <= 1e-13 * np.abs(res).max()
    monkeypatch.setattr(bl, "LM_STATIONARY", np.inf)
    for solver, kind in ((bl.t_iterate, "t"), (bl.lm_minimize, "fallback")):
        (a, rows), (b, whole_rows) = (solver(basis, g, H, tol=1e-10, max_iter=1) for g in (grid, whole))
        assert rows[0].step == whole_rows[0].step == kind
        assert np.abs(a.H - b.H).max() <= 1e-13 * np.abs(b.H).max()


def test_column_route_shifts_by_the_column_top():
    """The column route's softmax subtracts each column's largest log h:
    at a form whose columns are scaled by e^{700} and e^{-700}, past
    where e^{log h} over- and underflows, the iterate stays finite, with
    the mass int p of the unscaled form to 1e-13 and m2 unmoved by the
    scales, whose logs sum to 0."""
    grid = qd.build_grid_p1(**COARSE)
    basis = bd.section_basis(bd.split(0, 2), 3)
    evaluate, _ = bl._column_route(basis, grid.orbits)
    h = np.exp(np.random.default_rng(4).normal(size=basis.dimension))
    rows = basis.summand_rows(0)
    scale = np.full(basis.dimension, -700.0)
    scale[rows.start:rows.stop] = 700.0
    x, y = evaluate(h), evaluate(h * np.exp(scale))
    assert np.isfinite(y.s).all() and np.isfinite(y.m2) and np.isfinite(y.parts[0]).all()
    assert np.abs(y.parts[1] - x.parts[1]).max() <= 1e-13
    assert y.m2 == pytest.approx(x.m2, abs=1e-10)


@pytest.mark.parametrize("degrees, k", [((0, 2), 3), ((0, 1, 2), 2), ((0, 0, 1), 2)],
                         ids=["split02-k3", "split012-k2", "split001-k2"])
def test_divergent_t_run_follows_the_exact_law(degrees, k):
    """On a split bundle the T-map from I acts on each summand's block
    alone: the block of O(a_j) balances and is then scaled by r N_j / N
    per step, N_j = h^0(O(a_j + k)).  So the last step of a divergent run
    grows the log-spread by log(N_max / N_min) and moves m2 by
    sum_j log N_j - (r/N) sum_j N_j log N_j, both to 12 digits."""
    grid = qd.build_grid_p1(6, 16, 12)
    basis = bd.section_basis(bd.split(*degrees), k)
    sizes = np.array([a + k + 1 for a in degrees], dtype=float)
    r, n = len(degrees), basis.dimension
    state, history = bl.t_iterate(basis, grid, np.eye(n), tol=1e-10, max_iter=300)
    assert state.flag == "diverged"
    spread_rate = history[-1].spread - history[-2].spread
    m2_rate = history[-1].m2 - history[-2].m2
    assert spread_rate == pytest.approx(np.log(sizes.max() / sizes.min()), rel=1e-12)
    assert m2_rate == pytest.approx(np.log(sizes).sum() - (r / n) * (sizes * np.log(sizes)).sum(), rel=1e-12)


@pytest.mark.parametrize("solver", [bl.t_iterate, bl.lm_minimize], ids=["T", "LM"])
def test_column_route_solves_in_n_numbers(solver, monkeypatch):
    """A divergent solve from I on the column route (O(0)+O(2), k = 3,
    coarse grid) calls no dense eigensolver, inverse or determinant: its
    forms are N-vectors.  Its last step still follows the exact law of a
    split bundle, whose blocks O(a_j) balance alone with masses 1/N_j,
    N_j = 4 and 6: a T-step grows the log-spread by log(6/4) = log(3/2), a
    fallback step by the mass spread 1/4 - 1/6, both to 12 digits."""
    grid = qd.build_grid_p1(**COARSE)
    basis = bd.section_basis(bd.split(0, 2), 3)
    calls = []
    for name in ("eigh", "eigvalsh", "inv", "slogdet"):
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(name))
    state, history = solver(basis, grid, np.eye(basis.dimension), tol=1e-10, max_iter=300)
    assert calls == []
    assert state.flag == "diverged" and history[-2].step == ("t" if solver is bl.t_iterate else "fallback")
    rate = history[-1].spread - history[-2].spread
    assert rate == pytest.approx(np.log(1.5) if solver is bl.t_iterate else 1.0 / 12.0, rel=1e-12)


def test_herm_basis_inside_the_mask():
    """The directions are those of the loop over entries (i < j: the real
    and imaginary off-diagonal pair; then e_a - e_{a+1}), in that order:
    N^2 - 1 of them for the whole grid.  The N - 1 diagonal ones are
    the column route's, held as a real (N - 1, N) matrix."""
    n, s = bd.section_basis(bd.split(0, 2), 3).dimension, 1.0 / np.sqrt(2.0)
    want = []
    for i in range(n):
        for j in range(i + 1, n):
            for value in (s, 1j * s):
                e = np.zeros((n, n), dtype=complex)
                e[i, j], e[j, i] = value, np.conj(value)
                want.append(e)
    for a in range(n - 1):
        e = np.zeros((n, n), dtype=complex)
        e[a, a], e[a + 1, a + 1] = s, -s
        want.append(e)
    want = np.asarray(want)
    assert bl._herm_basis(n).tobytes() == want.tobytes()
    assert len(want) == n * n - 1 == 99
    inside = np.asarray([not e[~np.eye(n, dtype=bool)].any() for e in want])
    assert inside.sum() == n - 1
    assert np.array_equal(bl._diagonal_directions(n), want[inside].diagonal(axis1=1, axis2=2))


def test_lm_refuses_past_its_memory_budget(monkeypatch, rng):
    """At N = 64 a generic start needs all N^2 - 1 = 4095 directions, past
    LM_MEMORY_BUDGET: refused before the direction stack is built.  The
    diagonal start I takes the column route, N - 1 = 63 real directions,
    no hermitian direction stack and no N^4 tensor; a torus-invariant
    start that is not diagonal runs on the whole grid and is refused like
    a generic one."""
    grid = qd.build_grid_p1(n_radial=2, n_angular=4, depth=2)
    basis = bd.section_basis(bd.split(0, 2), 30)
    n = basis.dimension
    assert n == 64
    diagonal_directions = bl._diagonal_directions
    monkeypatch.setattr(bl, "_herm_basis", lambda n: pytest.fail("direction stack built"))
    with pytest.raises(bl.LMMemoryExceeded, match="4095 directions"):
        bl.lm_minimize(basis, grid, random_form(n, rng), tol=1e-10, max_iter=1)
    built = []
    monkeypatch.setattr(bl, "_diagonal_directions", lambda n: built.append(len(diagonal_directions(n)))
                        or diagonal_directions(n))
    state, _ = bl.lm_minimize(basis, grid, np.eye(n), tol=1e-10, max_iter=0)
    assert state.flag == "max_iter" and built == [63]
    invariant = np.eye(n)
    invariant[0, 31] = invariant[31, 0] = 0.5  # character 0 of either summand
    assert basis.characters[[0, 31]].tolist() == [0, 0]
    with pytest.raises(bl.LMMemoryExceeded, match="4095 directions"):
        bl.lm_minimize(basis, grid, invariant, tol=1e-10, max_iter=0)
    assert built == [63]


def test_lm_memory_check_charges_the_ring_table():
    """On the default grid a generic start of a line bundle at N = 64
    (O(61), k = 2) is charged the real N^2 (M / ring) pair products of
    the ring table beside the Jacobian: 3411 MiB, 10 MiB of them the
    table's."""
    grid = qd.build_grid_p1()
    basis = bd.section_basis(bd.split(61), 2)
    assert bl._ring_start(basis, grid) and basis.dimension * basis.dimension * len(grid.nodes) // grid.ring * 8 >> 20 == 10
    with pytest.raises(bl.LMMemoryExceeded, match="N = 64 with 4095 directions needs 3411 MiB"):
        bl.lm_memory_check(basis, grid, random_form(basis.dimension, np.random.default_rng(0)))


def malformed_starts(n):
    """Starts that are no positive-definite hermitian N x N form, with
    the error each names: I plus 0.3 on the strict upper triangle (the
    lower triangle alone is I), a complex diagonal, the wrong shape, a
    non-finite entry and a negative diagonal entry."""
    nan = np.eye(n)
    nan[1, 1] = np.nan
    return {
        "upper": (np.eye(n) + 0.3 * np.triu(np.ones((n, n)), 1), ValueError, "form must be hermitian"),
        "complex-diagonal": (np.diag(np.full(n, 1.0 + 0.5j)), ValueError, "form must be hermitian"),
        "shape": (np.eye(n + 2), ValueError, rf"shape \({n + 2}, {n + 2}\), not \({n}, {n}\)"),
        "non-finite": (nan, bg.NotPositiveDefinite, "form has non-finite entries"),
        "negative-diagonal": (np.diag(np.r_[-1.0, np.ones(n - 1)]), bg.NotPositiveDefinite,
                              "form must be positive definite"),
    }


@pytest.mark.parametrize("start", ["upper", "complex-diagonal", "shape", "non-finite", "negative-diagonal"])
@pytest.mark.parametrize("solver", [bl.t_iterate, bl.lm_minimize], ids=["T", "LM"])
def test_solvers_refuse_a_malformed_start(solver, start, grid_p1, monkeypatch):
    """split(3), k = 2, on the light grid: each malformed start is a named
    error before any chart is evaluated.  The ring table and eigh read
    only the lower triangle: unchecked, the upper-triangle start reports
    convergence at iteration 0 and is returned as H."""
    basis = bd.section_basis(bd.split(3), 2)
    H0, error, message = malformed_starts(basis.dimension)[start]
    calls = []
    monkeypatch.setattr(bd, "q_field", lambda *a: calls.append(a))
    with pytest.raises(error, match=message):
        solver(basis, grid_p1, H0, max_iter=5)
    assert calls == []


@pytest.mark.parametrize("solver", [bl.t_iterate, bl.lm_minimize], ids=["T", "LM"])
def test_ring_table_solves_end_at_the_balanced_form(solver, grid_p1):
    """A line bundle's det-normalized balanced form is I.  Criterion 7's
    O(2) and O(3) solves (its random starts from default_rng(7), the
    light grid) run on the ring table and end near I in the Frobenius
    norm: measured 1.19e-9 and 1.60e-9 (T), 3.22e-12 and 3.88e-10 (LM)."""
    rng = np.random.default_rng(7)
    bounds = {bl.t_iterate: (1.5e-9, 2e-9), bl.lm_minimize: (5e-12, 5e-10)}[solver]
    for degree, bound in zip((2, 3), bounds):
        basis = bd.section_basis(bd.split(degree), 2)
        n = basis.dimension
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert bl._ring_start(basis, grid_p1)
        state, _ = solver(basis, grid_p1, a @ a.conj().T + 0.5 * np.eye(n), tol=1e-10,
                          max_iter={bl.t_iterate: 200, bl.lm_minimize: 100}[solver])
        assert state.flag == "converged" and np.linalg.norm(state.H - np.eye(n)) <= bound


def test_whole_grid_fallback_is_the_sigma_frame_step(grid_p1, monkeypatch):
    """With its model switched off, LM from a generic rank-2 start takes
    one m2-descent fallback on the whole grid: sigma e^{2^-j zeta} sigma
    det-normalized, sigma = H^1/2, zeta = -(M - (tr M / N) I) at the
    first j that lowers m2, to 1e-13 relative.  Not e^{s zeta / 2} H
    e^{s zeta / 2}, which agrees with it only where H and zeta commute."""
    monkeypatch.setattr(bl, "LM_STATIONARY", np.inf)
    basis = bd.section_basis(bd.split(0, 2), 3)
    n = basis.dimension
    H = bl._det_normalize(random_form(n, np.random.default_rng(5)))
    state, history = bl.lm_minimize(basis, grid_p1, H, max_iter=1)
    assert history[0].step == "fallback"
    lam, v = np.linalg.eigh(H)
    sigma = (v * np.sqrt(lam)) @ v.conj().T
    m = bl.center_of_mass(basis, grid_p1, H)
    zeta = -(m - np.trace(m) / n * np.eye(n))
    m2 = bl.m2_value(basis, grid_p1, H)
    for j in range(20):
        lam, v = np.linalg.eigh(0.5**j * zeta)
        want = bl._det_normalize(sigma @ (v * np.exp(lam)) @ v.conj().T @ sigma)
        if bl.m2_value(basis, grid_p1, want) < m2:
            break
    assert np.abs(state.H - want).max() <= 1e-13 * np.abs(want).max()


def test_unstable_bundle_diverges(grid_p1):
    basis = bd.section_basis(bd.split(0, 2), 3)
    state, history = bl.t_iterate(basis, grid_p1, np.eye(basis.dimension), tol=1e-10, max_iter=300)
    assert state.flag == "diverged"
    assert state.spread_ratio > bl.SPREAD_RATIO_LIMIT
    assert bl.divergence_detect(history) == "unstable-like"
    slope = bl.iterate_slope(history, weight_range=5.0 / 3.0)
    assert slope == pytest.approx(-2.0 / 3.0, rel=0.05)


def test_m2_gradient_matches_finite_difference(grid_p1, rng):
    basis = bd.section_basis(bd.split(0, 2), 3)
    n = basis.dimension
    H = random_form(n, rng)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    z = 0.5 * (z + z.conj().T)
    z -= (np.trace(z).real / n) * np.eye(n)
    grad = first_variation(basis, grid_p1, H, z)
    eps = 1e-6
    import scipy.linalg

    sigma = scipy.linalg.sqrtm(H)

    def m2_at(s):
        return bl.m2_value(basis, grid_p1, sigma @ scipy.linalg.expm(2.0 * s * z) @ sigma)

    fd = (m2_at(eps) - m2_at(-eps)) / (2 * eps)
    assert grad == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_destabilizing_gradient_value(grid_p1):
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.two_step_one_ps(basis, [1], (2.0 / 3.0, -1.0))
    grad = first_variation(basis, grid_p1, np.eye(basis.dimension), ps.generator)
    assert grad == pytest.approx(-2.0 / 3.0, abs=1e-10)


def test_convexity_monitor():
    t = np.linspace(0, 1, 20)
    step = t[1] - t[0]
    assert bl.convexity_monitor(t**2) == pytest.approx(2.0 * step**2, rel=1e-9)
    assert bl.convexity_monitor(-(t**2)) == pytest.approx(-2.0 * step**2, rel=1e-9)
    with pytest.raises(ValueError):
        bl.convexity_monitor([1.0, 2.0])


def test_divergence_detect_needs_history():
    with pytest.raises(bl.Inconclusive):
        bl.divergence_detect([])


def test_divergence_detect_needs_m2_decrease():
    """A spread ratio e^10 > SPREAD_RATIO_LIMIT with flat m2 is no
    divergence pattern."""
    history = [bl.HistoryRow(iteration=i, residual=1e-3, m2=-1.0, spread=10.0) for i in range(60)]
    with pytest.raises(bl.Inconclusive):
        bl.divergence_detect(history)


def test_divergence_detect_is_the_solver_rule():
    """A history is unstable-like exactly when the solvers stop on it as
    diverged: 30 rows of spread ratio e^10 with m2 falling are shorter
    than the M2_DECREASE_RUN window, 51 rows are not."""
    history = [bl.HistoryRow(iteration=i, residual=1e-3, m2=-0.01 * i, spread=10.0) for i in range(60)]
    assert not bl._divergence_hit(history[:30])
    with pytest.raises(bl.Inconclusive):
        bl.divergence_detect(history[:30])
    assert bl._divergence_hit(history[:bl.M2_DECREASE_RUN + 1])
    assert bl.divergence_detect(history[:bl.M2_DECREASE_RUN + 1]) == "unstable-like"


def test_pinch_coefficient():
    ln2 = np.log(2.0)
    assert abs(bl._pinch_coefficient(0.5) - (ln2 - 0.5) / ln2**2) <= 1e-15
    assert bl._pinch_coefficient(1.0) == 0.5
    assert bl._pinch_coefficient(1.0 - 1e-4) == pytest.approx(0.5, abs=2e-5)


def test_spectral_constant(grid_p1):
    """SPECTRAL_CONSTANT is the first nonzero eigenvalue of the Laplacian
    on functions on P^1, the Fubini-Study form normalized to unit volume:
    a Galerkin generalized eigensolve over the span of z^a zbar^b /
    (1+|z|^2)^d, a, b <= d = 3, which contains the low spherical harmonics
    exactly, gives it to 1e-10 with multiplicity 3, and 0 and 12 pi with
    multiplicities 1 and 5."""
    z = grid_p1.nodes
    s = np.abs(z) ** 2
    d = 3
    base = (1.0 + s) ** (-d)
    phi, dphi = [], []
    for a in range(d + 1):
        for b in range(d + 1):
            za, zb = z**a, np.conj(z) ** b
            phi.append(za * zb * base)
            der = -d * za * zb * np.conj(z) * (1.0 + s) ** (-d - 1)
            if a > 0:
                der = der + a * z ** (a - 1) * zb * base
            dphi.append(der)
    phi, dphi = np.stack(phi, axis=-1), np.stack(dphi, axis=-1)
    wt = grid_p1.weights
    mass = np.einsum("m,mi,mj->ij", wt, np.conj(phi), phi)
    stiff = 2.0 * np.pi * np.einsum("m,m,mi,mj->ij", wt, (1.0 + s) ** 2, np.conj(dphi), dphi)
    mass, stiff = 0.5 * (mass + mass.conj().T), 0.5 * (stiff + stiff.conj().T)
    # drop near-null mass directions before the generalized solve
    lam, v = np.linalg.eigh(mass)
    keep = lam > 1e-12 * lam.max()
    reduced = v[:, keep] / np.sqrt(lam[keep])
    spectrum = np.linalg.eigvalsh(reduced.conj().T @ stiff @ reduced)
    c = spectrum[spectrum > 1e-6 * max(1.0, spectrum.max())][0]
    assert c == pytest.approx(bl.SPECTRAL_CONSTANT, rel=1e-10)
    assert bl.SPECTRAL_CONSTANT == 4.0 * np.pi
    # multiplicities of the first spherical-harmonic levels
    near = lambda v: int(np.sum(np.abs(spectrum - v) < 1e-6))
    assert near(0.0) == 1
    assert near(4.0 * np.pi) == 3
    assert near(12.0 * np.pi) == 5


def test_delta_diagnostic_trivial(grid_p1):
    basis = bd.section_basis(bd.split(2), 1)
    he = bl.hermitian_einstein_catalog(basis, grid_p1)
    diag = bl.delta_diagnostic(he, he, grid_p1)
    assert diag.delta == pytest.approx(1.0, abs=1e-12)
    assert diag.lower_bound == pytest.approx(0.0, abs=1e-12)


def test_delta_inequality_perturbed(grid_p1):
    basis = bd.section_basis(bd.split(2), 1)
    he = bl.hermitian_einstein_catalog(basis, grid_p1)
    n = basis.dimension
    w = np.linspace(0.5, -0.5, n)
    H = np.diag(np.exp(w - w.mean()))
    h = bg.fs_metric(basis, grid_p1, bg.HermitianForm(matrix=H.astype(complex)))
    diag = bl.delta_diagnostic(h, he, grid_p1)
    value = don.form_energy(basis, grid_p1, H)
    assert diag.lower_bound > 0
    assert value >= diag.lower_bound - 1e-9


def test_delta_is_the_smallest_pinch_over_nodes(grid_p1, rng):
    """On a rank-2 bundle the eigenvalue ratio of h_min h_HE^{-1} varies
    over the nodes, and delta is its infimum."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    he = bd.h_ref_field(basis, grid_p1)
    H = random_form(basis.dimension, rng)
    h = bg.fs_metric(basis, grid_p1, bg.HermitianForm(matrix=H))
    lam = np.sort(np.linalg.eigvals(np.linalg.solve(he, h)).real, axis=-1)
    ratio = lam[:, 0] / lam[:, -1]
    assert ratio.max() - ratio.min() > 0.1
    diag = bl.delta_diagnostic(h, he, grid_p1)
    assert diag.delta == pytest.approx(ratio.min(), rel=1e-10)


def test_t_step_inverts_the_dense_b(grid_p1, rng):
    """One T-step from a non-real form is (r/N) B(H)^{-1}, det-normalized,
    with B(H) = (1/Vol) int Q h^{-1} Q* formed densely here."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    n = basis.dimension
    H = random_form(n, rng)
    H /= np.exp(np.linalg.slogdet(H)[1] / n)
    assert np.abs(H.imag).max() > 0.1
    q = bd.q_field(basis, grid_p1.nodes)
    h = np.einsum("mni,nk,mkj->mij", q.conj(), H, q)
    p = np.einsum("mni,mij,mkj->mnk", q, np.linalg.inv(h), q.conj())
    b = np.einsum("m,mnk->nk", grid_p1.weights / grid_p1.volume, p)
    want = (basis.rank / n) * np.linalg.inv(b)
    want /= np.exp(np.linalg.slogdet(want)[1] / n)
    state, _ = bl.t_iterate(basis, grid_p1, H, max_iter=1)
    assert state.flag == "max_iter" and state.iteration == 1
    assert np.abs(state.H - want).max() <= 1e-10 * np.abs(want).max()


def berezin(n, l):
    """The eigenvalue beta_l = n! (n+1)! / ((n-l)! (n+l+1)!) of the
    Berezin-Toeplitz operator at level n on P^1, multiplicity r^2 (2l+1)
    on a sum of r copies of one line bundle; beta_1 = n / (n+2)."""
    return factorial(n) * factorial(n + 1) / (factorial(n - l) * factorial(n + l + 1))


@pytest.mark.parametrize("degrees, k", [((2,), 2), ((0,), 3), ((1, 1), 2)], ids=["O(2)-k2", "O(0)-k3", "O(1)+O(1)-k2"])
def test_b_derivative_at_the_balanced_form_is_the_berezin_operator(degrees, k, grid_p1_fine):
    """At H = I, balanced in the orthonormal basis, dH -> -(N/r) dB is
    the Berezin-Toeplitz operator at level n = a + k: over the N^2
    directions of _herm_basis plus I/sqrt(N), its matrix G^{-1} J (J the
    Frobenius pairings of the directions with dB, G their Gram, as the
    diagonal directions are not orthogonal) has the spectrum beta_l."""
    basis = bd.section_basis(bd.split(*degrees), k)
    n, r = basis.dimension, basis.rank
    dirs = np.concatenate([bl._herm_basis(n), np.eye(n)[None] / np.sqrt(n)])
    q = kernels.chart(basis, grid_p1_fine.nodes)
    wh = kernels.whiten(kernels.field(q, grid_p1_fine))[0]
    db = bl._b_derivatives(basis, grid_p1_fine, q, wh, dirs)
    pairing = lambda x, y: (x.conj().reshape(len(x), -1) @ y.reshape(len(y), -1).T).real
    spectrum = np.linalg.eigvals(-(n / r) * np.linalg.solve(pairing(dirs, dirs), pairing(dirs, db)))
    level = degrees[0] + k
    want = np.repeat([berezin(level, l) for l in range(level + 1)], [r * r * (2 * l + 1) for l in range(level + 1)])
    assert np.abs(np.sort(spectrum.real) - np.sort(want)).max() <= 1e-13
    assert np.abs(spectrum.imag).max() <= 1e-13


@pytest.mark.parametrize("degree, k", [(1, 1), (2, 2)], ids=["O(1)-k1", "O(2)-k2"])
def test_t_run_converges_at_the_berezin_rate(degree, k):
    """Near the balanced form a T-step contracts the residual by beta_1 =
    n / (n+2), the top Berezin eigenvalue below the trivial beta_0 = 1:
    the geometric mean of the ratios of successive residuals in [1e-9,
    1e-3] is beta_1 to 1e-6 (measured 2.4e-10 and 1.6e-8), from a seeded
    start aa*/N + I."""
    grid = qd.build_grid_p1(8, 32, 12)
    basis = bd.section_basis(bd.split(degree), k)
    n = basis.dimension
    rng = np.random.default_rng(3)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    state, history = bl.t_iterate(basis, grid, a @ a.conj().T / n + np.eye(n), tol=1e-13, max_iter=500)
    assert state.flag == "converged"
    res = np.array([row.residual for row in history])
    inside = np.nonzero((res >= 1e-9) & (res <= 1e-3))[0]
    assert len(inside) >= 10 and np.array_equal(inside, np.arange(inside[0], inside[-1] + 1))
    rate = (res[inside[-1]] / res[inside[0]]) ** (1.0 / (len(inside) - 1))
    assert rate == pytest.approx(berezin(degree + k, 1), abs=1e-6)


def test_missing_he_raises(grid_p2):
    basis = bd.section_basis(bd.euler_tp2(), 1)
    with pytest.raises(bl.MissingHE):
        bl.hermitian_einstein_catalog(basis, grid_p2)


def test_he_catalog_needs_equal_degrees(grid_p1):
    """h_ref of O(0)+O(2) has curvature diag(0, 2) omega, not mu I omega:
    no catalog HE metric.  On O(1)+O(1) h_ref is one."""
    with pytest.raises(bl.MissingHE):
        bl.hermitian_einstein_catalog(bd.section_basis(bd.split(0, 2), 3), grid_p1)
    basis = bd.section_basis(bd.split(1, 1), 2)
    assert np.array_equal(bl.hermitian_einstein_catalog(basis, grid_p1), bd.h_ref_field(basis, grid_p1))
