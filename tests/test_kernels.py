"""Every function routed through the evaluation core against a plain
einsum reference, on random positive forms."""

import dataclasses
import warnings

import numpy as np
import pytest

from bml import balance as bl
from bml import bergman as bg
from bml import bundles as bd
from bml import donaldson as don
from bml import kernels
from bml.quadrature import NonFiniteIntegrand, QuadratureGrid, build_grid_p1, gauss_rule

TOL = 1e-12


def rel(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(np.asarray(b)).max())


def sandwich(a, mat, b):
    return np.einsum("mni,nk,mkj->mij", a.conj(), mat, b)


def herm(h):
    return 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))


def h_ref(q):
    return herm(np.einsum("mni,mnj->mij", q.conj(), q))


def positive_form(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = g @ g.conj().T + n * np.eye(n)
    return h / np.exp(np.linalg.slogdet(h)[1] / n)


@pytest.fixture(scope="module")
def coarse():
    """M = 288, less than one block."""
    return build_grid_p1(n_radial=3, n_angular=8, depth=6)


@pytest.fixture(params=[1, 3, 20], ids=lambda k: f"k{k}")
def split_basis(request):
    return bd.section_basis(bd.split(0, 2), request.param)


@pytest.fixture(params=["light", "coarse"])
def grid(request, grid_p1, coarse):
    """The light grid has M = 2304, not a multiple of the block size."""
    return grid_p1 if request.param == "light" else coarse


def test_grid_sizes(grid_p1, coarse):
    assert grid_p1.nodes.size % kernels.BLOCK != 0 and grid_p1.nodes.size > kernels.BLOCK
    assert coarse.nodes.size < kernels.BLOCK


def test_fs_metric_and_h_ref(split_basis, grid, rng):
    H = positive_form(split_basis.dimension, rng)
    q = bd.q_field(split_basis, grid.nodes)
    got = bg.fs_metric(split_basis, grid, bg.HermitianForm(H))
    assert rel(got, herm(sandwich(q, H, q))) < TOL
    assert rel(bd.h_ref_field(split_basis, grid), h_ref(q)) < TOL


@pytest.mark.parametrize("bundle, k", [(bd.split(0, 2), 3), (bd.euler_tp2(), 1), (bd.euler_tp2(), 2)],
                         ids=["split-k3", "euler-k1", "euler-k2"])
def test_chart_blocks_slice_the_whole_grid(grid_p1, grid_p2, bundle, k):
    """kernels.chart is the bytes of node_last(q_field), (N, r, M) and
    C-ordered, and the chart of each block of BLOCK nodes is the bytes of
    the whole grid's chart at those nodes: per-node values do not depend
    on the node set they are evaluated with."""
    grid = grid_p1 if bundle.kind == "split_p1" else grid_p2
    basis = bd.section_basis(bundle, k)
    whole = kernels.chart(basis, grid.nodes)
    assert whole.tobytes() == kernels.node_last(bd.q_field(basis, grid.nodes)).tobytes()
    assert whole.shape == (basis.dimension, basis.rank, len(grid.nodes)) and whole.flags.c_contiguous
    starts = range(0, len(grid.nodes), kernels.BLOCK)
    assert len(starts) > 1
    for start in starts:
        sl = slice(start, start + kernels.BLOCK)
        assert kernels.chart(basis, grid.nodes[sl]).tobytes() == whole[..., sl].tobytes()


def test_euler_basis(grid_p2, rng):
    basis = bd.section_basis(bd.euler_tp2(), 1)
    H = positive_form(basis.dimension, rng)
    q = bd.q_field(basis, grid_p2.nodes)
    got = bg.fs_metric(basis, grid_p2, bg.HermitianForm(H))
    assert rel(got, herm(sandwich(q, H, q))) < TOL
    assert rel(bd.h_ref_field(basis, grid_p2), h_ref(q)) < TOL


def m2_reference(basis, grid, ps, ts):
    q = bd.q_field(basis, grid.nodes)
    ld0 = np.linalg.slogdet(h_ref(q))[1]
    return np.asarray([
        grid.integrate(np.linalg.slogdet(herm(sandwich(q, ps.form_at(t).matrix, q)))[1] - ld0)
        / grid.volume for t in ts
    ])


def weight_kind_ps(kind, n, rng):
    """A 1-PS with one weight, three distinct weights in a random unitary
    frame, or n distinct weights (a generic generator)."""
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    if kind == "single":
        lam = np.zeros(n)
    elif kind == "three":
        m = np.array([1, (n - 1) // 2, n - 1 - (n - 1) // 2])
        lam = np.repeat([1.0, 0.3, -(1.0 + 0.3 * m[1]) / m[2]], m)
    else:
        lam = rng.normal(size=n)
        lam -= lam.mean()
    ps = bg.one_ps((u * lam) @ u.conj().T)
    assert len(ps.weights) == {"single": 1, "three": 3, "generic": n}[kind]
    return ps


def check_m2_along_path(basis, grid, ps, ts):
    got = don.m2_along_path(basis, grid, ps, ts)
    want = m2_reference(basis, grid, ps, ts)
    if len(ps.weights) == 1:
        # h(t) = h_ref along a path with a single weight
        assert np.abs(got).max() < TOL and np.abs(want).max() < TOL
    else:
        assert rel(got, want) < TOL


def test_m2_along_path(split_basis, grid, rng):
    ps = bg.random_two_weight_ps(split_basis.dimension, rng)
    check_m2_along_path(split_basis, grid, ps, [0.5, 1.5, 3.0])


@pytest.mark.parametrize("kind", ["single", "three", "generic"])
def test_m2_along_path_weight_kinds(kind, split_basis, grid, rng):
    ps = weight_kind_ps(kind, split_basis.dimension, rng)
    check_m2_along_path(split_basis, grid, ps, [0.5, 1.5, 3.0])


@pytest.mark.parametrize("kind", ["single", "three", "generic"])
def test_m2_along_path_euler_basis(kind, grid_p2, rng):
    basis = bd.section_basis(bd.euler_tp2(), 1)
    ps = weight_kind_ps(kind, basis.dimension, rng)
    check_m2_along_path(basis, grid_p2, ps, [0.5, 1.5, 3.0])


def test_m2_along_path_times(grid_p1, rng):
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.random_two_weight_ps(basis.dimension, rng)
    empty = don.m2_along_path(basis, grid_p1, ps, [])
    assert empty.shape == (0,) and empty.dtype == float
    ts = [3.0, 0.5, 3.0, 1.5, 0.5]
    got = don.m2_along_path(basis, grid_p1, ps, ts)
    assert rel(got, m2_reference(basis, grid_p1, ps, ts)) < TOL
    # each time is evaluated on its own: order and repeats do not matter
    assert rel(got[[2, 4]], got[[0, 1]]) < 1e-15
    assert rel(don.m2_along_path(basis, grid_p1, ps, sorted(set(ts))), got[[1, 3, 0]]) < TOL


def counted(calls, name, fn):
    """fn, adding one to calls[name] per call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_m2_along_path_work_shape(grid_p1, monkeypatch, rng):
    """Chart values once, on the nodes integrated over, however many
    times are sampled, and one integrate call folding every time.  In a
    GEMM frame, on the whole grid, one Gram product per weight, each
    reducing a (K_d, r, M) stack over every fibre column, in weight
    order.  The diagonal two-step 1-PS, on one node per torus orbit,
    forms no Gram: its h(t) is diagonal, one sum per column."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    calls = {"q_field": 0, "pair": 0, "integrate": 0}
    shapes = []
    pair = kernels.pair
    monkeypatch.setattr(bd, "q_field", counted(calls, "q_field", bd.q_field))
    monkeypatch.setattr(kernels, "pair", counted(calls, "pair", lambda x, y: shapes.append(x.shape) or pair(x, y)))
    monkeypatch.setattr(QuadratureGrid, "integrate", counted(calls, "integrate", QuadratureGrid.integrate))
    for ps, grid in ((weight_kind_ps("three", basis.dimension, rng), grid_p1),
                     (bg.two_step_one_ps(basis, [1], (4 / 6, -1.0)), grid_p1.orbits)):
        for ts in ([1.0], np.linspace(0.5, 12.0, 24)):
            calls.update(q_field=0, pair=0, integrate=0)
            shapes.clear()
            don.m2_along_path(basis, grid_p1, ps, ts)
            if grid is grid_p1.orbits:
                assert calls == {"q_field": 1, "pair": 0, "integrate": 1}
            else:
                assert calls == {"q_field": 1, "pair": len(ps.weights), "integrate": 1}
                assert shapes == [(s.stop - s.start, basis.rank, len(grid.nodes)) for s in ps.slices]


@pytest.mark.parametrize("k, diag", [(3, None), (36, None), (2, (0.5, -1.0, 0.5))],
                         ids=["3", "36", "O(0)-k2"])
def test_permutation_frame_is_a_row_gather(k, diag, grid_p1, monkeypatch):
    """For a diagonal generator M2 reads the rows of Q: it agrees with the
    GEMM by V*, and kernels.act is not called; without rows it is called
    once.  The two-step 1-PS of O(0)+O(2) has consecutive groups,
    diag(1/2, -1, 1/2) on O(0) one that is not."""
    if diag is None:
        basis = bd.section_basis(bd.split(0, 2), k)
        ps = bg.two_step_one_ps(basis, [1], ((k + 1) / (k + 3), -1.0))
    else:
        basis = bd.section_basis(bd.split(0), k, orthonormal=False)
        ps = bg.one_ps(np.diag(diag))
    gemm = dataclasses.replace(ps, rows=None)
    calls = {"act": 0}
    monkeypatch.setattr(kernels, "act", counted(calls, "act", kernels.act))
    ts = [1.25, 6.0, 15.0]
    m2 = {}
    for name, p, acts in (("gather", ps, 0), ("gemm", gemm, 1)):
        calls.update(act=0)
        m2[name] = don.m2_along_path(basis, grid_p1, p, ts)
        assert calls == {"act": acts}
    assert rel(m2["gather"], m2["gemm"]) <= 1e-14


def dense_groups(ps, q):
    """The weight groups of V* Q over every fibre column, each a row
    gather for a diagonal generator (ps.rows) or a row slice of one GEMM."""
    if ps.rows is not None:
        return [q[ps.rows[s]] for s in ps.slices]
    return [kernels.act(ps.vectors.conj().T, q)[s] for s in ps.slices]


def dense_m2(basis, grid, ps, ts):
    """m2_along_path as the plain algorithm, one time at a time."""
    times = np.concatenate([[0.0], ts])
    table = np.exp(2.0 * np.outer(ps.weights, times))
    grams = np.stack([kernels.pair(b, b) for b in dense_groups(ps, kernels.chart(basis, grid.nodes))], axis=2)
    vals = kernels.logdet(table.T @ grams)
    return np.asarray([grid.integrate(v - vals[0]) / grid.volume for v in vals[1:]])


def dense_column_m2(basis, grid, ps, ts):
    """m2_along_path of a diagonal 1-PS of a split bundle as a plain loop
    over fibre columns c: h_c(t) = sum_i e^{2 (lam_i - top_c) t} |Q_ic|^2
    over the rows of summand c, and M2(t) = 2 t sum_c top_c + int sum_c
    log(h_c(t) / h_c(0)) / Vol, one time at a time."""
    times = np.concatenate([[0.0], ts])
    lam = np.empty(basis.dimension)
    lam[ps.rows] = ps.eigenvalues
    q = kernels.chart(basis, grid.nodes)
    vals = np.zeros((len(ts), len(grid.nodes)))
    shift = 0.0
    for c in range(basis.rank):
        rows = basis.summand_rows(c)
        top = lam[rows].max()
        shift += top
        table = np.exp(2.0 * np.outer(times, lam[rows] - top))
        x = q[rows.start : rows.stop, c]
        h = table @ (x.real ** 2 + x.imag ** 2)
        vals += np.log(h[1:] / h[0])
    return 2.0 * ts * shift + np.asarray([grid.integrate(v) for v in vals]) / grid.volume


def dense_column_rate(basis, grid, ps, t):
    """m1_rate of a diagonal 1-PS of a split bundle as a plain loop over
    fibre columns c: with p_i = e^{2 (lam_i - top_c) t} |Q_ic|^2
    normalized over the rows of summand c, the integrand is
    -sum_c (2 top_c + sum_i p_i 2 (lam_i - top_c)) F_c, where
    F_c = (1 + |z|^2)^2 / |z|^2 sum_{i<j} p_i p_j (m_i - m_j)^2 - k."""
    lam = np.empty(basis.dimension)
    lam[ps.rows] = ps.eigenvalues
    a = np.abs(grid.nodes) ** 2
    stretch = (1.0 + a) ** 2 / a
    q = kernels.chart(basis, grid.nodes)
    integrand = np.zeros(len(grid.nodes))
    for c in range(basis.rank):
        rows = basis.summand_rows(c)
        m = basis.characters[rows.start : rows.stop]
        top = lam[rows].max()
        shift = 2.0 * (lam[rows] - top)
        pairs = np.arange(len(m))[:, None] < np.arange(len(m))
        d = np.where(pairs, (m[:, None] - m[None, :]) ** 2, 0).astype(float)
        x = q[rows.start : rows.stop, c]
        w = np.exp(shift * t)[:, None] * (x.real ** 2 + x.imag ** 2)
        p = w / w.sum(axis=0)
        f = stretch * (p * (d @ p)).sum(axis=0) - basis.level
        integrand -= (2.0 * top + shift @ p) * f
    return grid.integrate(integrand)


def dense_jets(basis, grid, ps):
    """_path_jets as the plain algorithm, one weight group at a time."""
    z, r = grid.nodes, basis.rank
    q, dq = kernels.chart(basis, z), kernels.node_last(bd.dq_dz_field(basis, z))
    stack = np.empty((len(ps.slices), 3, r, r, len(z)), dtype=complex)
    for i, (b, db) in enumerate(zip(dense_groups(ps, q), dense_groups(ps, dq))):
        stack[i] = kernels.pair(b, b), kernels.pair(b, db), kernels.pair(db, db)
    return stack


def dense_rate(basis, grid, jets, ps, t):
    """m1_rate from the dense jets, with the whitened algebra written out
    and the trace as a sum over every r x r entry."""
    weights = np.asarray(ps.weights)
    e = np.exp(2.0 * weights * t)
    e_dot = 2.0 * weights * e
    twist = (1.0 + np.abs(grid.nodes) ** 2) ** 2
    n_w, _, r, _, m = jets.shape
    hac = (e @ jets.reshape(n_w, -1)).reshape(3, r, r, m)
    hdot = (e_dot @ jets[:, 0].reshape(n_w, -1)).reshape(r, r, m)
    w, _, k = don._curvature_frame(basis.level / twist, *hac)
    x = kernels.mul(kernels.mul(w, hdot), kernels.ct(w))
    return grid.integrate(-twist * (x * k.transpose(1, 0, 2)).sum(axis=(0, 1)).real)


def narrow_case(name, k):
    """(basis, ps) of a named case."""
    if name == "two-step":
        basis = bd.section_basis(bd.split(0, 2), k)
        return basis, bg.two_step_one_ps(basis, [1], ((k + 1) / (k + 3), -1.0))
    if name in ("split012-[0,2]", "split210-[0,2]"):
        basis = bd.section_basis(bd.split(*map(int, name[5:8])), k)
        n_out = len(basis.summand_rows(1))
        return basis, bg.two_step_one_ps(basis, [0, 2], (n_out, n_out - basis.dimension))
    if name == "O(0)":
        basis = bd.section_basis(bd.split(0), k, orthonormal=False)
        return basis, bg.one_ps(np.diag([0.5, -1.0, 0.5]))
    if name == "T_P2":
        # weight 1 on the first slot (rows 0..k+1, two runs each) and the
        # third, -1 on the second
        basis = bd.section_basis(bd.euler_tp2(), k)
        n_slot = (basis.dimension - (k + 2)) // 2
        lam = np.concatenate([np.ones(k + 2), -np.ones(n_slot), np.ones(n_slot)])
        return basis, bg.one_ps(np.diag(lam - lam.mean()))
    basis = bd.section_basis(bd.split(0, 2), k)
    return basis, bg.random_two_weight_ps(basis.dimension, np.random.default_rng(4))


@pytest.mark.parametrize("name, k", [("two-step", 3), ("two-step", 36), ("split012-[0,2]", 3),
                                     ("split210-[0,2]", 3), ("O(0)", 2), ("T_P2", 2), ("gemm", 3)],
                         ids=["two-step-3", "two-step-36", "split012-[0,2]", "split210-[0,2]", "O(0)-k2",
                              "T_P2", "gemm"])
def test_narrow_groups_match_the_dense_algorithm(name, k, grid_p1, grid_p2):
    """M2, the jet blocks and m1_rate are bitwise those of the plain
    algorithm over every fibre column (dense_m2, dense_jets, dense_rate),
    for consecutive and scattered weight groups, a GEMM frame and T_P2.
    A diagonal 1-PS of a split bundle has a diagonal h(t): its M2 and
    m1_rate are bitwise those of the plain per-column loops
    (dense_column_m2, dense_column_rate), and the Gram and jet routes of
    the same generator in a GEMM frame agree with them to roundoff."""
    basis, ps = narrow_case(name, k)
    grid = grid_p2 if name == "T_P2" else grid_p1
    ts = np.array([0.5, 3.0, 12.0])
    got = don.m2_along_path(basis, grid, ps, ts)
    if name in ("T_P2", "gemm"):
        assert got.tobytes() == dense_m2(basis, grid, ps, ts).tobytes()
    else:  # a diagonal 1-PS on P^1 integrates M2 over one node per torus orbit
        assert got.tobytes() == dense_column_m2(basis, grid.orbits, ps, ts).tobytes()
        # relative to M2 or 1: on the [0,2] cases each column has one weight and M2 = 0
        assert np.abs(got - dense_m2(basis, grid.orbits, ps, ts)).max() <= 1e-13 * max(1.0, np.abs(got).max())
    if name == "T_P2":
        return  # the jets are implemented on P^1 only
    if name == "gemm":
        got = don._path_table(basis, grid, ps)
        dense = dense_jets(basis, grid, ps)
        assert got.held.tobytes() == dense.tobytes()
        for t in ts:
            assert np.float64(don.m1_rate(basis, ps, t, got)).tobytes() == \
                np.float64(dense_rate(basis, grid, dense, ps, t)).tobytes()
        return
    table = don._path_table(basis, grid, ps)
    gemm = dataclasses.replace(ps, rows=None)
    jets = dense_jets(basis, grid, gemm)
    for t in ts:
        rate = don.m1_rate(basis, ps, t, table)
        assert np.float64(rate).tobytes() == np.float64(dense_column_rate(basis, grid.orbits, ps, t)).tobytes()
        # the jets' Schur complement cancels digits at the outer rings:
        # measured up to 2.6e-13 (k = 36), 1.8e-14 elsewhere
        assert abs(rate - dense_rate(basis, grid, jets, gemm, t)) <= 1e-12 * max(1.0, abs(rate))


def curvature_reference(basis, H, z):
    q, d = bd.q_field(basis, z), bd.dq_dz_field(basis, z)
    ht_inv = np.linalg.inv(np.swapaxes(sandwich(q, H, q), -1, -2))
    dz_ht = np.einsum("mni,nk,mkj->mij", d, H.T, q.conj())
    dzbar_ht = np.einsum("mni,nk,mkj->mij", q, H.T, d.conj())
    dzdzbar_ht = np.einsum("mni,nk,mkj->mij", d, H.T, d.conj())
    term = (dzdzbar_ht - dz_ht @ ht_inv @ dzbar_ht) @ ht_inv
    fs_part = basis.level / (1.0 + np.abs(z) ** 2) ** 2
    return -(fs_part[:, None, None] * np.eye(basis.rank)[None] - term) / np.pi


def m1_rate_reference(basis, grid, ps, t):
    """The M1 rate from H(t) and the generator, with inverses of h."""
    H = ps.form_at(t).matrix
    z = grid.nodes
    q = bd.q_field(basis, z)
    hdot = sandwich(q, H @ (2.0 * ps.generator), q)
    g_dot = -np.swapaxes(np.linalg.inv(sandwich(q, H, q)) @ hdot, -1, -2)
    f_fs = np.pi * (1.0 + np.abs(z) ** 2)[:, None, None] ** 2 * curvature_reference(basis, H, z)
    integrand = np.einsum("mij,mji->m", g_dot, f_fs).real
    return grid.integrate(integrand), grid.integrate(np.abs(integrand))


def check_curvature_and_m1_rate(basis, grid, ps, t):
    H = ps.form_at(t).matrix
    z = grid.nodes
    # compared as densities against dx dy, as the reference is: against
    # the FS measure the entries at the outer nodes grow like (1 + |z|^2)^2
    # and one-ulp changes of h, a or c move them by about 1e-10 of the
    # largest, in either algebra
    f = don.curvature_field(basis, grid, bg.HermitianForm(H), method="analytic")
    jacobian = np.pi * (1.0 + np.abs(z) ** 2)[:, None, None] ** 2
    assert rel(f / jacobian, curvature_reference(basis, H, z)) < TOL

    want, scale = m1_rate_reference(basis, grid, ps, t)
    got = don.m1_rate(basis, ps, t, don._path_table(basis, grid, ps))
    # a single weight has hdot = 0: both rates vanish and scale is 0
    assert abs(got - want) <= TOL * scale
    # held jets give the very same number
    jets = don._path_jets(basis, grid, ps.vectors.conj().T, ps.slices)
    assert don.m1_rate(basis, ps, t, jets) == got


def test_curvature_outer_ring(split_basis, grid_p1, rng):
    """curvature_field of a form in a GEMM frame against the FS measure,
    node by node: there the entries at the outer ring are the largest,
    not 1e-15 of them.  A diagonal form reads the column table, checked
    exactly by test_two_step_curvature_is_the_degree_split."""
    z = grid_p1.nodes
    H = bg.random_two_weight_ps(split_basis.dimension, rng).form_at(0.8).matrix
    got = don.curvature_field(split_basis, grid_p1, bg.HermitianForm(H), method="analytic")
    want = np.pi * (1.0 + np.abs(z) ** 2)[:, None, None] ** 2 * curvature_reference(split_basis, H, z)
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert err.max() < 1e-7


@pytest.mark.parametrize("k", [3, 20, 36])
def test_two_step_curvature_is_the_degree_split(k, grid_p1_fine):
    """Along the two-step 1-PS of O(0)+O(2) each column has one weight,
    so the honest metric is h_ref's, whose curvature against the FS
    measure is exactly diag(0, 2) at every node: the column table's sum
    of non-negative terms keeps it to 6.4e-14 (k = 36) at all 10,240
    nodes of the default grid, the outer ring included."""
    basis = bd.section_basis(bd.split(0, 2), k)
    ps = bg.two_step_one_ps(basis, [1], ((k + 1) / (k + 3), -1.0))
    want = np.zeros((len(grid_p1_fine.nodes), 2, 2))
    want[:, 1, 1] = 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.2, 1.0, 3.0):
            f = don.curvature_field(basis, grid_p1_fine, ps.form_at(t), method="analytic")
            assert f.shape == want.shape and np.abs(f - want).max() <= 1e-12


def test_curvature_and_m1_rate(split_basis, grid, rng):
    check_curvature_and_m1_rate(split_basis, grid, bg.random_two_weight_ps(split_basis.dimension, rng), 0.8)


@pytest.mark.parametrize("kind", ["single", "three", "generic"])
def test_curvature_and_m1_rate_weight_kinds(kind, split_basis, grid, rng):
    check_curvature_and_m1_rate(split_basis, grid, weight_kind_ps(kind, split_basis.dimension, rng), 0.8)


def test_m1_curve_work_shape(grid_p1, monkeypatch, rng):
    """Chart values once, whatever the number of Gauss nodes, one rate per
    Gauss node, and no H(t).  In a GEMM frame, on the whole grid, the
    derivatives once too, and the held table is one (D, 3, r, r, M) jet
    stack.  The diagonal two-step 1-PS, on one node per torus orbit, forms
    no derivative: its table is the real |Q_ic|^2 of every row i as one
    (N, M) array, with the row slice of each column c."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    calls = {"q_field": 0, "dq_dz_field": 0, "m1_rate": 0, "form_at": 0}
    held = []
    path_table = don._path_table
    monkeypatch.setattr(bd, "q_field", counted(calls, "q_field", bd.q_field))
    monkeypatch.setattr(bd, "dq_dz_field", counted(calls, "dq_dz_field", bd.dq_dz_field))
    monkeypatch.setattr(don, "m1_rate", counted(calls, "m1_rate", don.m1_rate))
    monkeypatch.setattr(bg.OnePS, "form_at", counted(calls, "form_at", bg.OnePS.form_at))
    monkeypatch.setattr(don, "_path_table", lambda *args: held.append(path_table(*args)) or held[-1])
    for ps, grid in ((weight_kind_ps("three", basis.dimension, rng), grid_p1),
                     (bg.two_step_one_ps(basis, [1], (4 / 6, -1.0)), grid_p1.orbits),
                     (bg.random_two_weight_ps(basis.dimension, rng), grid_p1)):
        columns = grid is grid_p1.orbits
        for ts, n_path, n_gauss in (([2.0], 4, 4), ([1.0, 3.0], 24, 24)):
            calls.update(q_field=0, dq_dz_field=0, m1_rate=0, form_at=0)
            held.clear()
            don.m1_curve(basis, grid_p1, ps, ts, n_path=n_path)
            assert calls == {"q_field": 1, "dq_dz_field": 0 if columns else 1, "m1_rate": n_gauss, "form_at": 0}
            [table] = held
            assert table.grid is grid
            if columns:  # |Q_ic|^2 on the rows of each column c
                assert table.held.dtype == float and table.held.shape == (basis.dimension, len(grid.nodes))
                assert [s for s, *_ in table.runs] == [slice(0, 4), slice(4, 10)]
            else:
                assert table.held.shape == (len(ps.weights), 3, 2, 2, len(grid.nodes))
    # The Gauss-Legendre rule is built once per size, read-only.
    rules = {"leggauss": 0}
    gauss_rule.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        counted(rules, "leggauss", np.polynomial.legendre.leggauss))
    for ts in ([1.0, 3.0], [2.0, 5.0]):
        don.m1_curve(basis, grid_p1, ps, ts, n_path=24)
    assert rules == {"leggauss": 1}
    assert not any(a.flags.writeable for a in gauss_rule(12))


def p_from_coordinates(p):
    """P per node, shape (N, N, B), rebuilt from its real coordinates
    (kernels.p_coordinates): the diagonal, then sqrt 2 Re and sqrt 2 Im
    of the upper triangle."""
    n = int(round(np.sqrt(len(p))))
    i, j = np.triu_indices(n, 1)
    out = np.zeros((n, n, p.shape[1]), dtype=complex)
    out[np.arange(n), np.arange(n)] = p[:n]
    out[i, j] = (p[n : n + len(i)] + 1j * p[n + len(i) :]) / np.sqrt(2.0)
    out[j, i] = out[i, j].conj()
    return out


def test_b_matrix_p_field_and_m2_value(split_basis, grid, rng):
    H = positive_form(split_basis.dimension, rng)
    q = bd.q_field(split_basis, grid.nodes)
    h = herm(sandwich(q, H, q))
    p = np.einsum("mni,mij,mkj->mnk", q, np.linalg.inv(h), q.conj())
    b_want = herm(np.einsum("m,mnk->nk", grid.weights / grid.volume, p))
    b, ld, wh = kernels.b_matrix(kernels.chart(split_basis, grid.nodes), grid, H)
    assert rel(b, b_want) < TOL
    assert rel(ld, np.linalg.slogdet(h)[1]) < TOL
    assert rel(p_from_coordinates(kernels.p_coordinates(q.transpose(1, 2, 0), wh)), p.transpose(1, 2, 0)) < TOL
    ld0 = np.linalg.slogdet(h_ref(q))[1]
    m2 = grid.integrate(np.linalg.slogdet(h)[1] - ld0) / grid.volume
    assert rel(bl.m2_value(split_basis, grid, H), m2) < TOL


@pytest.mark.parametrize("bundle, k", [(bd.split(0, 1, 2), 2), (bd.split(-1, 0, 1, 3), 1)],
                         ids=["split012", "split-1013"])
def test_p_field_beyond_rank_two(bundle, k, coarse, rng):
    """Y = Q W* reads the whole lower triangle of W, which only a fibre
    rank of three or more shows: at rank two the row W[1, :2] is the
    whole triangle below the diagonal.  P = Y Y* is rebuilt from its real
    coordinates."""
    basis = bd.section_basis(bundle, k)
    H = positive_form(basis.dimension, rng)
    q = bd.q_field(basis, coarse.nodes)
    h = herm(sandwich(q, H, q))
    p = np.einsum("mni,mij,mkj->mnk", q, np.linalg.inv(h), q.conj())
    b, _, wh = kernels.b_matrix(kernels.chart(basis, coarse.nodes), coarse, H)
    assert rel(p_from_coordinates(kernels.p_coordinates(q.transpose(1, 2, 0), wh)), p.transpose(1, 2, 0)) < TOL
    assert rel(b, herm(np.einsum("m,mnk->nk", coarse.weights / coarse.volume, p))) < TOL


@pytest.mark.parametrize("degrees, k, resolution", [
    ((2,), 2, "light"), ((0, 2), 3, "coarse"), ((0, 1, 2), 2, "coarse"), ((-1, 0, 1, 3), 2, "light"),
    ((0, 2), 10, "default"), ((0, 2), 36, "default")],
    ids=["O2-k2-light", "split02-k3-coarse", "split012-k2-coarse", "split-1013-k2-light",
         "split02-k10-default", "split02-k36-default"])
def test_ring_table_is_the_chart_route(degrees, k, resolution, coarse, grid_p1, grid_p1_fine):
    """kernels.rings, from the orbit chart and one DFT per ring, gives
    b_matrix's B(H) to 1e-15 (random forms) and 3e-15 (a torus-invariant
    form, 0 off equal characters: diagonal for a line bundle) and W to
    1e-15 relative to their largest entries, log det h at every node to
    3e-13 and m2 (against each route's own log-dets at I) to 2e-15.  The
    table is a line bundle's: each case runs it on every summand O(d) of
    the split bundle it names, degree -1 to 3, on the coarse, light and
    default grids (aliasing at k = 36 included).  Over seeds 0-2 the two
    routes differed by at most 6.7e-16 and 1.6e-15 (B), 7.3e-16 (W),
    1.1e-13 (log det) and 6.7e-16 (m2)."""
    grid = {"coarse": coarse, "light": grid_p1, "default": grid_p1_fine}[resolution]
    for degree in degrees:
        basis = bd.section_basis(bd.split(degree), k)
        n, m = basis.dimension, basis.characters
        chart, table = kernels.chart(basis, grid.nodes), kernels.rings(basis, grid)
        ld0 = [kernels.b_matrix(chart, grid, np.eye(n))[1], table(np.eye(n))[1]]
        mask = m[:, None] == m[None, :]
        for seed in range(3):
            a = np.random.default_rng(seed).normal(size=(n, n, 2)) @ [1.0, 1j]
            generic = a @ a.conj().T / n + np.eye(n)
            for H, bound in ((generic, 1e-15), (generic * mask, 3e-15)):
                (b, ld, wh), (b_ring, ld_ring, wh_ring) = kernels.b_matrix(chart, grid, H), table(H)
                assert rel(b_ring, b) <= bound
                assert rel(wh_ring, wh) <= 1e-15
                assert np.abs(ld_ring - ld).max() <= 3e-13
                m2 = [grid.integrate(x - x0) / grid.volume for x, x0 in zip((ld, ld_ring), ld0)]
                assert abs(m2[1] - m2[0]) <= 2e-15


def test_ring_table_refuses_rank_two(grid_p1):
    """The ring table is a line bundle's: a basis of rank 2 is refused by
    name before any chart is read; its whole-grid solves hold the chart."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    with pytest.raises(ValueError, match="the ring table takes a line bundle, not a bundle of rank 2"):
        kernels.rings(basis, grid_p1)
    assert not bl._ring_start(basis, grid_p1) and bl._ring_start(bd.section_basis(bd.split(2), 3), grid_p1)


@pytest.mark.parametrize("degrees, k", [((2,), 2), ((4,), 3)], ids=["O2-k2", "O4-k3"])
def test_ring_table_calls_share_no_output(degrees, k, grid_p1, rng):
    """The ring table holds no buffer between calls: the outputs of
    table(H1) are unchanged by later calls, an overflowing one included,
    and table(H2) is byte-equal to a freshly built table's."""
    basis = bd.section_basis(bd.split(*degrees), k)
    n = basis.dimension
    table = kernels.rings(basis, grid_p1)
    first = table(positive_form(n, rng))
    kept = [x.copy() for x in first]
    H2 = positive_form(n, rng)
    with pytest.raises(kernels.NonFiniteChart):
        table(1e300 * H2)
    second = table(H2)
    assert [x.tobytes() for x in first] == [x.tobytes() for x in kept]
    assert [x.tobytes() for x in second] == [x.tobytes() for x in kernels.rings(basis, grid_p1)(H2)]


@pytest.mark.parametrize("degrees, k, resolution", [
    ((0, 2), 1, "light"), ((0, 2), 1, "coarse"), ((3,), 2, "light"), ((0, 1, 2), 2, "coarse")],
    ids=["light", "coarse", "O3-k2-light", "split012-k2-coarse"])
def test_lm_b_derivatives(degrees, k, resolution, coarse, grid_p1, whole_grid_route, rng):
    """_b_derivatives, gathered from the real moments of the coordinates
    of P, against the einsum of the complex P-field, with W as a
    whole-grid solve reads it: real from the ring table at rank one
    (O(3), k = 2, on the light grid, as in balance_flow), complex from
    the held chart at ranks two and three."""
    grid = {"coarse": coarse, "light": grid_p1}[resolution]
    basis = bd.section_basis(bd.split(*degrees), k)
    n = basis.dimension
    H = positive_form(n, rng)
    q = bd.q_field(basis, grid.nodes)
    hinv = np.linalg.inv(herm(sandwich(q, H, q)))
    p = np.einsum("mni,mij,mkj->mnk", q, hinv, q.conj())
    t4 = np.einsum("m,mik,mlj->ijkl", grid.weights / grid.volume, p, p)
    dh = np.asarray([positive_form(n, rng) for _ in range(5)])
    want = -np.einsum("ijkl,dkl->dij", t4, dh)
    wh = whole_grid_route(basis, grid)(H)[2]
    assert wh.dtype == (float if len(degrees) == 1 else complex)
    assert rel(bl._b_derivatives(basis, grid, kernels.chart(basis, grid.nodes), wh, dh), want) < TOL


def test_ring_table_is_real_at_rank_one(grid_p1, rng):
    """The ring table's fibre metric h is a real number per node: it
    returns log det h and W as real arrays, and B(H) as the chart route's
    to 1e-15."""
    basis = bd.section_basis(bd.split(3), 2)
    H = positive_form(basis.dimension, rng)
    b, ld, wh = kernels.rings(basis, grid_p1)(H)
    assert ld.dtype == wh.dtype == float and wh.shape == (1, 1, len(grid_p1.nodes))
    assert rel(b, kernels.b_matrix(kernels.chart(basis, grid_p1.nodes), grid_p1, H)[0]) <= 1e-15


def test_fibre_algebra_has_one_factorization(coarse, monkeypatch, rng):
    """Every per-node log-det, inverse and positivity check of a fibre
    metric that is not diagonal goes through kernels.whiten: no stacked
    (ndim >= 3) call of a LAPACK factorization is left; N x N calls do
    not count.  A diagonal one (M2 along a diagonal 1-PS of a split
    bundle) needs no factorization at all."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    n = basis.dimension
    ps = bg.random_two_weight_ps(n, rng)
    form = bg.HermitianForm(positive_form(n, rng))
    calls = {"slogdet": 0, "inv": 0, "eigvalsh": 0, "eigh": 0}

    def stacked_only(name, fn):
        """fn, counting only its calls on stacks of matrices."""
        count = counted(calls, name, fn)
        return lambda a, *args, **kwargs: (count if np.ndim(a) >= 3 else fn)(a, *args, **kwargs)

    for name in calls:
        monkeypatch.setattr(np.linalg, name, stacked_only(name, getattr(np.linalg, name)))
    don.m2_along_path(basis, coarse, ps, [0.5, 2.0])
    don.m1_curve(basis, coarse, ps, [1.0], n_path=4)
    don.curvature_field(basis, coarse, form, method="analytic")
    bg.fs_metric(basis, coarse, form)
    bl.m2_value(basis, coarse, form.matrix)
    kernels.b_matrix(kernels.chart(basis, coarse.nodes), coarse, form.matrix)
    bl.t_iterate(basis, coarse, np.eye(n), max_iter=2)
    bl.lm_minimize(basis, coarse, np.eye(n), max_iter=2)
    assert calls == {"slogdet": 0, "inv": 0, "eigvalsh": 0, "eigh": 0}


def cholesky_reference(h):
    """The Cholesky loop with every reduction taken, empty ones included."""
    r = h.shape[0]
    l = np.zeros_like(h)
    for j in range(r):
        d = h[j, j].real - (np.abs(l[j, :j]) ** 2).sum(axis=0)
        if not (d > 0).all():
            raise kernels.SingularGram("fibre metric lost positivity")
        l[j, j] = np.sqrt(d)
        l[j + 1 :, j] = (h[j + 1 :, j] - (l[j + 1 :, :j] * l[j, :j].conj()).sum(axis=1)) / l[j, j]
    return l


def whiten_reference(h):
    l = cholesky_reference(h)
    w = np.zeros_like(h)
    for i in range(len(l)):
        w[i, :i] = -(l[i, :i, None] * w[:i, :i]).sum(axis=0) / l[i, i]
        w[i, i] = 1.0 / l[i, i]
    return w, l


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("trailing", [(7,), (3, 5)], ids=["nodes", "times-nodes"])
def test_factorization_matches_the_full_loop_bytewise(r, trailing, rng):
    """Skipping the empty reductions changes no byte of L or W, for
    stacks over nodes and over (times, nodes), at several scales."""
    g = rng.normal(size=trailing + (r, r)) + 1j * rng.normal(size=trailing + (r, r))
    h = g @ g.conj().swapaxes(-1, -2) + 1e-3 * np.eye(r)
    h *= 10.0 ** rng.integers(-6, 7, size=trailing + (1, 1))
    h = np.moveaxis(h, (-2, -1), (0, 1))  # (r, r, *trailing)
    want_w, want_l = whiten_reference(h)
    got_w, got_l = kernels.whiten(h)
    assert got_l.tobytes() == want_l.tobytes()
    assert got_w.tobytes() == want_w.tobytes()
    assert kernels.cholesky(h).tobytes() == want_l.tobytes()


def test_rank_one_fibre_factors_in_one_operation(rng):
    """For r = 1, L = sqrt(h), W = 1/L and log det h = 2 log L are
    byte-equal to the r x r loops, written out here, on a random (1, 1, M)
    stack; an entry h <= 0 still raises SingularGram."""
    h = (10.0 ** rng.uniform(-6, 6, size=(1, 1, 2304))).astype(complex)
    want_w, want_l = whiten_reference(h)
    want_ld = 2.0 * sum(np.log(want_l[j, j].real) for j in range(len(want_l)))
    got_w, got_l = kernels.whiten(h)
    assert kernels.cholesky(h).tobytes() == got_l.tobytes() == want_l.tobytes()
    assert got_w.tobytes() == want_w.tobytes()
    assert kernels._logdet(got_l).tobytes() == kernels.logdet(h).tobytes() == want_ld.tobytes()
    for bad in (0.0, -1.0):
        singular = h.copy()
        singular[0, 0, 7] = bad
        for factorize in (kernels.cholesky, kernels.whiten, kernels.logdet):
            with pytest.raises(kernels.SingularGram):
                factorize(singular)


@pytest.mark.parametrize("factorize", [kernels.whiten, kernels.logdet], ids=["whiten", "logdet"])
@pytest.mark.parametrize("node", [0, 4, 9])
def test_fibre_factorization_names_its_failures(factorize, node, rng):
    """A rank-deficient node raises SingularGram; an overflowed one is
    named by the finite check that precedes every factorization, on a
    quotient by its index in the full grid."""
    grid = build_grid_p1(n_radial=2, n_angular=4, depth=8)  # 128 nodes, rings of 4
    orbits = grid.orbits  # 32 nodes
    g = rng.normal(size=(len(orbits.nodes), 2, 2)) + 1j * rng.normal(size=(len(orbits.nodes), 2, 2))
    h = g @ g.conj().transpose(0, 2, 1) + np.eye(2)
    factorize(kernels.finite(h.transpose(1, 2, 0), orbits))
    singular = h.copy()
    singular[node] = [[1.0, 2.0], [2.0, 4.0]]  # rank one, exactly
    with pytest.raises(kernels.SingularGram):
        factorize(kernels.finite(singular.transpose(1, 2, 0), orbits))
    overflowed = h.copy()
    overflowed[node, 1, 0] = np.inf
    with pytest.raises(kernels.NonFiniteChart) as info:
        factorize(kernels.finite(overflowed.transpose(1, 2, 0), orbits))
    assert info.value.index == grid.ring * node
    assert info.value.z == grid.nodes[grid.ring * node]


def test_block_size_does_not_move_results(grid_p1, monkeypatch, rng):
    """BLOCK bounds the P-field coordinates of the LM Jacobian alone:
    every other kernel path, the column table of a generic diagonal 1-PS
    (144 orbit nodes) and B(H) included, gives byte-identical outputs at
    every block size, and the derivatives of B(H), summed over nodes per
    block, move in their last bits."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.random_two_weight_ps(basis.dimension, rng)
    form = ps.form_at(1.0)
    lam = rng.normal(size=basis.dimension)
    diagonal = bg.one_ps(np.diag(lam - lam.mean()))
    q = kernels.chart(basis, grid_p1.nodes)
    dh = np.asarray([positive_form(basis.dimension, rng) for _ in range(3)])

    def outputs():
        b, ld, wh = kernels.b_matrix(q, grid_p1, form.matrix)
        values = [
            b,
            don.m2_along_path(basis, grid_p1, ps, [0.5, 2.0]),
            don.m1_curve(basis, grid_p1, ps, [1.0], n_path=4),
            don.curvature_field(basis, grid_p1, form, method="analytic"),
            don.m2_along_path(basis, grid_p1, diagonal, [0.5, 2.0]),
            don.m1_curve(basis, grid_p1, diagonal, [1.0], n_path=4),
            don.curvature_field(basis, grid_p1, diagonal.form_at(1.0), method="analytic"),
            bg.fs_metric(basis, grid_p1, form),
            bd.h_ref_field(basis, grid_p1),
            ld,
            wh,
        ]
        return bl._b_derivatives(basis, grid_p1, q, wh, dh), [x.tobytes() for x in values]

    db, whole = outputs()
    for block in (100, 700, 4096):
        monkeypatch.setattr(kernels, "BLOCK", block)
        db_block, values = outputs()
        assert values == whole, block
        assert rel(db_block, db) < 1e-14, block


def test_repeated_calls_are_byte_identical(grid_p1, rng):
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.random_two_weight_ps(basis.dimension, rng)
    first = don.m2_along_path(basis, grid_p1, ps, [1.0, 4.0])
    assert first.tobytes() == don.m2_along_path(basis, grid_p1, ps, [1.0, 4.0]).tobytes()
    H = ps.form_at(0.7).matrix
    q = kernels.chart(basis, grid_p1.nodes)
    b = kernels.b_matrix(q, grid_p1, H)[0]
    assert b.tobytes() == kernels.b_matrix(q, grid_p1, H)[0].tobytes()
    rate = don.m1_rate(basis, ps, 0.7, don._path_table(basis, grid_p1, ps))
    assert rate == don.m1_rate(basis, ps, 0.7, don._path_table(basis, grid_p1, ps))


def test_overflowing_chart_names_the_node(grid_p1_fine):
    """At the outermost ring (|z| = 7267) the Gram sandwich of a GEMM
    frame overflows from k = 37, the per-column sums |Q_ic|^2 of the
    diagonal route from k = 38; both name the node."""
    for k, gemm in ((37, True), (38, False)):
        basis = bd.section_basis(bd.split(0, 2), k)
        ps = bg.two_step_one_ps(basis, [1], ((k + 1) / (k + 3), -1.0))
        if gemm:
            ps = dataclasses.replace(ps, rows=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(kernels.NonFiniteChart) as info:
                don.m2_along_path(basis, grid_p1_fine, ps, np.linspace(1.25, 15.0, 12))
        err = info.value
        assert isinstance(err, NonFiniteIntegrand)
        assert err.index == 10208
        assert err.z == grid_p1_fine.nodes[10208]
        a = np.abs(grid_p1_fine.nodes[10208]) ** 2
        assert err.u == pytest.approx(a / (1.0 + a), rel=1e-12)
        assert "10208" in str(err)
    # one level below its ceiling the diagonal route is exact
    basis = bd.section_basis(bd.split(0, 2), 37)
    ps = bg.two_step_one_ps(basis, [1], (38 / 40, -1.0))
    ts = np.linspace(1.25, 15.0, 12)
    assert rel(don.m2_along_path(basis, grid_p1_fine, ps, ts), 2.0 * ts * sum(ps.weights)) <= 1e-13


def test_diagonal_m2_far_along_the_path(grid_p1_fine):
    """The column route scales its table by each column's top weight, so
    M2 of a diagonal 1-PS of a split bundle neither overflows nor loses
    positivity far along the path.  On the two-step path of O(0)+O(2)
    each column has one weight and M2 = 2t (w_1 + w_2); on O(0), k = 1,
    diag(1, -1), M2 = 2t coth 2t - 1 up to a quadrature error that is
    settled by t = 10 and stays put."""
    ts = np.array([100.0, 400.0, 1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = bd.section_basis(bd.split(0, 2), 3)
        ps = bg.two_step_one_ps(basis, [1], (4 / 6, -1.0))
        exact = 2.0 * ts * sum(ps.weights)
        assert rel(don.m2_along_path(basis, grid_p1_fine, ps, ts), exact) <= 1e-13
        basis = bd.section_basis(bd.split(0), 1)
        ps = bg.one_ps(np.diag([1.0, -1.0]))
        ts = np.concatenate([[10.0], ts])
        err = don.m2_along_path(basis, grid_p1_fine, ps, ts) - (2.0 * ts / np.tanh(2.0 * ts) - 1.0)
    assert 8e-9 < err[0] < 9e-9
    assert np.abs(err[1:] - err[0]).max() <= 1e-12


def test_diagonal_m1_far_along_the_path(grid_p1_fine):
    """The column table scales each column by its top weight, so m1_rate
    of a diagonal 1-PS of a split bundle neither overflows nor loses
    positivity far along the path.  On the two-step path of O(0)+O(2)
    each column has one weight and the rate is exactly -2 w_1 deg O(2):
    -8/3 at k = 3, -148/39 at k = 36 (measured to 1.7e-16 and 1.4e-15)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, ts in ((3, [0.5, 10.0, 100.0, 400.0, 1000.0]), (36, [1.25, 4.0, 100.0])):
            basis = bd.section_basis(bd.split(0, 2), k)
            ps = bg.two_step_one_ps(basis, [1], ((k + 1) / (k + 3), -1.0))
            table = don._path_table(basis, grid_p1_fine, ps)
            exact = -4.0 * (k + 1) / (k + 3)
            for t in ts:
                assert abs(don.m1_rate(basis, ps, t, table) - exact) <= 1e-14 * abs(exact), (k, t)


@pytest.mark.parametrize("z, u", [
    (1e155, 1.0), (1e200, 1.0), (np.inf, np.nan), (2j, 0.8), (0.0, 0.0),
    (np.array([1e200, 2.0]), [1.0, 0.0]), (np.array([0.5, 2.0]), [0.25 / 5.25, 4.0 / 5.25]),
])
def test_nonfinite_chart_moment_map_far_out(z, u):
    """The moment map of a named node is computed without overflow, on
    P^1 and on P^2, however far out the node is."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = kernels.NonFiniteChart(0, z)
    assert np.allclose(err.u, u, rtol=1e-15, atol=0, equal_nan=True)
