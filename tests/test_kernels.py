"""Every function routed through the evaluation core against a plain
einsum reference, on random positive forms."""

import warnings

import numpy as np
import pytest

from bml import balance as bl
from bml import bergman as bg
from bml import bundles as bd
from bml import donaldson as don
from bml import kernels
from bml.quadrature import NonFiniteIntegrand, build_grid_p1

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
    got = bg.fs_metric(split_basis, grid, bg.HermitianForm(H)).values
    assert rel(got, herm(sandwich(q, H, q))) < TOL
    assert rel(bd.h_ref_field(split_basis, grid), h_ref(q)) < TOL


def test_euler_basis(grid_p2, rng):
    basis = bd.section_basis(bd.euler_tp2(), 1)
    H = positive_form(basis.dimension, rng)
    q = bd.q_field(basis, grid_p2.nodes)
    got = bg.fs_metric(basis, grid_p2, bg.HermitianForm(H)).values
    assert rel(got, herm(sandwich(q, H, q))) < TOL
    assert rel(bd.h_ref_field(basis, grid_p2), h_ref(q)) < TOL


def test_bergman_path(split_basis, grid, rng):
    ps = bg.random_two_weight_ps(split_basis.dimension, rng)
    t = 1.7
    q = bd.q_field(split_basis, grid.nodes)
    half = np.exp(ps.eigenvalues * t)[:, None] * ps.vectors.conj().T
    b = np.einsum("kn,mnr->mkr", half, q)
    want = herm(np.einsum("mki,mkj->mij", b.conj(), b))
    assert rel(bg.bergman_path(split_basis, grid, ps, t).values, want) < TOL


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
    """Chart values once and one Gram product per weight per node block,
    however many times are sampled."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = weight_kind_ps("three", basis.dimension, rng)
    n_blocks = -(-grid_p1.nodes.size // kernels.BLOCK)
    calls = {"q_field": 0, "pair": 0}
    monkeypatch.setattr(bd, "q_field", counted(calls, "q_field", bd.q_field))
    monkeypatch.setattr(kernels, "pair", counted(calls, "pair", kernels.pair))
    for ts in ([1.0], np.linspace(0.5, 12.0, 24)):
        calls.update(q_field=0, pair=0)
        don.m2_along_path(basis, grid_p1, ps, ts)
        assert calls == {"q_field": n_blocks, "pair": n_blocks * len(ps.weights)}


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
    f = don.curvature_field(basis, grid, bg.HermitianForm(H))
    jacobian = np.pi * (1.0 + np.abs(z) ** 2)[:, None, None] ** 2
    assert rel(f / jacobian, curvature_reference(basis, H, z)) < TOL

    want, scale = m1_rate_reference(basis, grid, ps, t)
    got = don.m1_rate(basis, grid, ps, t)
    # a single weight has hdot = 0: both rates vanish and scale is 0
    assert abs(got - want) <= TOL * scale
    # held jet blocks give the very same number
    jets = don._path_jets(basis, grid, ps.vectors.conj().T, ps.slices)
    assert don.m1_rate(basis, grid, ps, t, jets=jets) == got


def test_curvature_outer_ring(split_basis, grid_p1, rng):
    """curvature_field against the FS measure, node by node: there the
    entries at the outer ring are the largest, not 1e-15 of them."""
    H = bg.random_two_weight_ps(split_basis.dimension, rng).form_at(0.8).matrix
    z = grid_p1.nodes
    got = don.curvature_field(split_basis, grid_p1, bg.HermitianForm(H))
    want = np.pi * (1.0 + np.abs(z) ** 2)[:, None, None] ** 2 * curvature_reference(split_basis, H, z)
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert err.max() < 1e-7


def test_curvature_and_m1_rate(split_basis, grid, rng):
    check_curvature_and_m1_rate(split_basis, grid, bg.random_two_weight_ps(split_basis.dimension, rng), 0.8)


@pytest.mark.parametrize("kind", ["single", "three", "generic"])
def test_curvature_and_m1_rate_weight_kinds(kind, split_basis, grid, rng):
    check_curvature_and_m1_rate(split_basis, grid, weight_kind_ps(kind, split_basis.dimension, rng), 0.8)


def test_m1_curve_work_shape(grid_p1, monkeypatch, rng):
    """Chart values and their derivatives once per node block, whatever
    the number of Gauss nodes, one rate per Gauss node, and no H(t)."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = weight_kind_ps("three", basis.dimension, rng)
    n_blocks = -(-grid_p1.nodes.size // kernels.BLOCK)
    calls = {"q_field": 0, "dq_dz_field": 0, "m1_rate": 0, "form_at": 0}
    monkeypatch.setattr(bd, "q_field", counted(calls, "q_field", bd.q_field))
    monkeypatch.setattr(bd, "dq_dz_field", counted(calls, "dq_dz_field", bd.dq_dz_field))
    monkeypatch.setattr(don, "m1_rate", counted(calls, "m1_rate", don.m1_rate))
    monkeypatch.setattr(bg.OnePS, "form_at", counted(calls, "form_at", bg.OnePS.form_at))
    for ts, n_path, n_gauss in (([2.0], 4, 4), ([1.0, 3.0], 24, 24)):
        calls.update(q_field=0, dq_dz_field=0, m1_rate=0, form_at=0)
        don.m1_curve(basis, grid_p1, ps, ts, n_path=n_path)
        assert calls == {"q_field": n_blocks, "dq_dz_field": n_blocks, "m1_rate": n_gauss, "form_at": 0}


def test_b_matrix_p_field_and_m2_value(split_basis, grid, rng):
    H = positive_form(split_basis.dimension, rng)
    q = bd.q_field(split_basis, grid.nodes)
    h = herm(sandwich(q, H, q))
    p = np.einsum("mni,mij,mkj->mnk", q, np.linalg.inv(h), q.conj())
    b_want = herm(np.einsum("m,mnk->nk", grid.weights / grid.volume, p))
    for held in (None, q):
        b, ld, wh = bl._b_matrix(split_basis, grid, H, held)
        assert rel(b, b_want) < TOL
        assert rel(ld, np.linalg.slogdet(h)[1]) < TOL
        assert rel(kernels.p_field(q.transpose(1, 2, 0), wh), p.transpose(1, 2, 0)) < TOL
    ld0 = np.linalg.slogdet(h_ref(q))[1]
    m2 = grid.integrate(np.linalg.slogdet(h)[1] - ld0) / grid.volume
    assert rel(bl.m2_value(split_basis, grid, H), m2) < TOL


def test_lm_b_derivatives(grid, rng):
    basis = bd.section_basis(bd.split(0, 2), 1)
    n = basis.dimension
    H = positive_form(n, rng)
    q = bd.q_field(basis, grid.nodes)
    hinv = np.linalg.inv(herm(sandwich(q, H, q)))
    p = np.einsum("mni,mij,mkj->mnk", q, hinv, q.conj())
    t4 = np.einsum("m,mik,mlj->ijkl", grid.weights / grid.volume, p, p)
    dh = np.asarray([positive_form(n, rng) for _ in range(5)])
    want = -np.einsum("ijkl,dkl->dij", t4, dh)
    wh = kernels.whiten(herm(sandwich(q, H, q)).transpose(1, 2, 0))[0]
    assert rel(bl._b_derivatives(basis, grid, q, wh, dh), want) < TOL


def test_fibre_algebra_has_one_factorization(coarse, monkeypatch, rng):
    """Every per-node log-det, inverse and positivity check of the fibre
    metric goes through kernels.whiten: no stacked (ndim >= 3) call of a
    LAPACK factorization is left; N x N calls do not count."""
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
    don.curvature_field(basis, coarse, form)
    bg.fs_metric(basis, coarse, form)
    bg.bergman_path(basis, coarse, ps, 1.0)
    don.m2_don(basis, coarse, form)
    bl._b_matrix(basis, coarse, form.matrix)
    bl.t_iterate(basis, coarse, np.eye(n), max_iter=2)
    bl.lm_minimize(basis, coarse, np.eye(n), max_iter=2)
    assert calls == {"slogdet": 0, "inv": 0, "eigvalsh": 0, "eigh": 0}


@pytest.mark.parametrize("factorize", [kernels.whiten, kernels.logdet], ids=["whiten", "logdet"])
@pytest.mark.parametrize("node", [0, 4, 9])
def test_fibre_factorization_names_its_failures(factorize, node, rng):
    """A rank-deficient node raises SingularGram; an overflowed one is
    named by the finite check that precedes every factorization."""
    g = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
    h = g @ g.conj().transpose(0, 2, 1) + np.eye(2)
    nodes = rng.normal(size=120) + 1j * rng.normal(size=120)
    sl = slice(100, 110)
    factorize(kernels.finite(h.transpose(1, 2, 0), nodes, sl))
    singular = h.copy()
    singular[node] = [[1.0, 2.0], [2.0, 4.0]]  # rank one, exactly
    with pytest.raises(kernels.SingularGram):
        factorize(kernels.finite(singular.transpose(1, 2, 0), nodes, sl))
    overflowed = h.copy()
    overflowed[node, 1, 0] = np.inf
    with pytest.raises(kernels.NonFiniteChart) as info:
        factorize(kernels.finite(overflowed.transpose(1, 2, 0), nodes, sl))
    assert info.value.index == 100 + node
    assert info.value.z == nodes[100 + node]


def test_block_size_does_not_move_results(grid_p1, monkeypatch, rng):
    """Every kernel path gives byte-identical per-node outputs at every
    block size; B(H), summed over nodes per block, moves in its last bits."""
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.random_two_weight_ps(basis.dimension, rng)
    form = ps.form_at(1.0)

    def outputs():
        b, ld, wh = bl._b_matrix(basis, grid_p1, form.matrix)
        per_node = [
            don.m2_along_path(basis, grid_p1, ps, [0.5, 2.0]),
            don.m1_curve(basis, grid_p1, ps, [1.0], n_path=4),
            don.curvature_field(basis, grid_p1, form),
            bg.fs_metric(basis, grid_p1, form).values,
            bg.bergman_path(basis, grid_p1, ps, 1.0).values,
            bd.h_ref_field(basis, grid_p1),
            ld,
            wh,
        ]
        return b, [x.tobytes() for x in per_node]

    b, whole = outputs()
    for block in (100, 700, 4096):
        monkeypatch.setattr(kernels, "BLOCK", block)
        b_block, per_node = outputs()
        assert per_node == whole, block
        assert rel(b_block, b) < 1e-14, block


def test_repeated_calls_are_byte_identical(grid_p1, rng):
    basis = bd.section_basis(bd.split(0, 2), 3)
    ps = bg.random_two_weight_ps(basis.dimension, rng)
    first = don.m2_along_path(basis, grid_p1, ps, [1.0, 4.0])
    assert first.tobytes() == don.m2_along_path(basis, grid_p1, ps, [1.0, 4.0]).tobytes()
    H = ps.form_at(0.7).matrix
    b = bl._b_matrix(basis, grid_p1, H)[0]
    assert b.tobytes() == bl._b_matrix(basis, grid_p1, H)[0].tobytes()
    rate = don.m1_rate(basis, grid_p1, ps, 0.7)
    assert rate == don.m1_rate(basis, grid_p1, ps, 0.7)


def test_overflowing_chart_names_the_node(grid_p1_fine):
    # from k = 37 the sandwich at the outermost ring (|z| = 7267) overflows
    basis = bd.section_basis(bd.split(0, 2), 37)
    ps = bg.two_step_one_ps(basis, [1], (38 / 40, -1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(kernels.NonFiniteChart) as info:
            don.m2_along_path(basis, grid_p1_fine, ps, np.linspace(1.25, 15.0, 12))
    err = info.value
    assert isinstance(err, NonFiniteIntegrand)
    assert err.index == 10208
    assert err.z == grid_p1_fine.nodes[10208]
    assert err.u == pytest.approx(grid_p1_fine.moment[10208], rel=1e-12)
    assert "10208" in str(err)
