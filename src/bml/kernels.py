"""The evaluation core of the fibre sandwich h = Q* H Q on a node set.

Chart values Q(x), an N x r matrix per node, are evaluated once per call
for its node set, as one array (`chart`) that a caller evaluating
several forms holds and passes on: N r M complex numbers, 25 MB at N =
76 on the default grid.  Every per-node value has the node index last:
chart values or their z-derivatives are an (N, r, M) stack, a sandwich
an (r, r, M) stack; `node_last` undoes the (M, N, r) transpose that
`bundles` returns without a copy.  An N x N form acts on every node in
one GEMM (`act`; a weight group of a 1-PS is a row slice), `pair` forms
x* y, and the rest is r x r algebra, one vector operation over nodes.

On P^1 a split bundle's chart is fixed by its values on one node per
torus orbit, so the core works on three node sets.  On the K orbit
nodes a diagonal form needs no product: `columns` gives the real (N, K)
table |Q_ic|^2, which `donaldson` reads along a diagonal 1-PS and
`balance` for a solve from a diagonal start.  Ring by ring, `rings`
gives a line bundle's B(H), log det h and W of any form at every node
from the orbit chart, for its whole-grid balance solves: two real GEMMs
against one table of cos and sin(d theta) that it builds once.  On the
whole chart, `b_matrix` forms B(H) as one GEMM of Z = Q h^{-1} against
Q.conj(): rank 2 or more, P^2, grids with ring 1 and the tests'
reference.
BLOCK bounds one thing only: the nodes per block of the real (N^2, B)
coordinates of P = Q h^{-1} Q* (`p_coordinates`) that the LM Jacobian
reads from the whole chart (`balance._b_derivatives`).

The fibre metric has one factorization, the Cholesky h = L L* of
`cholesky`, with W = L^{-1} from `whiten`: log det h = 2 sum_j log L_jj,
h^{-1} = W* W, P = Y Y* with Y = Q W*, and SingularGram on loss of
positivity; a diagonal one needs none (its entries are positive sums),
and a rank-one one is one operation each: L = sqrt(h), W = 1/L.
`finite` names an overflowed node before any factorization, on a
quotient by its index in the full grid (`QuadratureGrid.name`).
"""

from __future__ import annotations

import numpy as np

from . import bundles
from .quadrature import NonFiniteIntegrand

BLOCK = 2048


class SingularGram(ValueError):
    pass


class NonFiniteChart(NonFiniteIntegrand):
    """A sandwich overflowed: the chart values at the node are too large
    for the level and the form."""

    def __init__(self, index: int, z):
        z = np.asarray(z)
        # moment map |z|^2 / (1 + |z|^2), scaled by the largest |z_i| so
        # that a node far out neither overflows nor warns
        a = np.abs(z)
        s = max(1.0, float(a.max()))
        with np.errstate(invalid="ignore"):  # an infinite z gives u = nan
            u = (a / s) ** 2 / ((1.0 / s) ** 2 + np.sum((a / s) ** 2))
        ValueError.__init__(self, f"sandwich not finite at node {index}: z = {z}, u = {u}")
        self.index, self.z, self.u = index, z, u


def node_last(x: np.ndarray) -> np.ndarray:
    """Chart values or their z-derivatives, (B, N, r) as `bundles` gives
    them, in the layout of the core: (N, r, B), node index last.  A view
    of the array `bundles` built, unless ``x`` is laid out otherwise."""
    return np.ascontiguousarray(x.transpose(1, 2, 0))


def chart(basis, nodes) -> np.ndarray:
    """Q at every node of ``nodes``, shape (N, r, M), node index last."""
    return node_last(bundles.q_field(basis, nodes))


def columns(basis, grid):
    """The |Q|^2 table of a split bundle on ``grid`` as (rho, rows): rho_i =
    |Q_ic|^2, real (N, M), for row i of fibre column c (Q is 0 in the other
    columns), and the row slice of each column."""
    rows = [slice(r.start, r.stop) for r in map(basis.summand_rows, range(basis.rank))]
    q = chart(basis, grid.nodes)
    rho = np.empty((basis.dimension, len(grid.nodes)))
    with np.errstate(over="ignore", invalid="ignore"):
        for c, s in enumerate(rows):
            rho[s] = q[s, c].real ** 2 + q[s, c].imag ** 2
    return finite(rho, grid), rows


def rings(basis, grid):
    """b_matrix of a line bundle on a P^1 ``grid`` with rings, ring by ring
    from the orbit chart, as a function of a hermitian H alone; a basis of
    rank 2 or more is a ValueError (it takes the held chart).

    Q_i(e^{i theta} z) = e^{i m_i theta} q_i(|z|), q_i real at the first
    node of each ring, so h = sum_d c_d e^{i d theta} on a ring, c_d = sum
    H_ij q_i q_j over the pairs of gap d = m_j - m_i, and c_{-d} = conj
    c_d.  The table holds the slots d <= 0, their products q_i q_j
    zero-padded, (S, L, K) real on the K orbit nodes: one batched GEMM
    gives (Re c, Im c) per slot, one real GEMM against the (2S, ring)
    table of 2 cos and -2 sin(d theta_t) (once at d = 0) h, (K, ring).
    Back, the transposed table takes w/h = w W^2 to the slot sums of B,
    whose hermitian part at the held pairs is B(H): the grid's own sums,
    its trapezoid aliasing included.  Nothing is held between calls."""
    if basis.rank != 1:
        raise ValueError(f"the ring table takes a line bundle, not a bundle of rank {basis.rank}")
    n, ring, m = basis.dimension, grid.ring, basis.characters
    gap = m[None, :] - m[:, None]  # d = m_j - m_i at (i, j)
    i, j = np.nonzero(gap <= 0)  # the pairs that come before their transposes
    d, seg, counts = np.unique(gap[i, j], return_inverse=True, return_counts=True)
    order = np.argsort(seg, kind="stable")
    i, j, seg = i[order], j[order], seg[order]
    pos = np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)
    pad = np.full((len(d), counts.max()), n * n)  # n * n: a padding entry
    pad[seg, pos] = i * n + j
    q = chart(basis, grid.orbits.nodes)[:, 0].real
    pairs = np.zeros((len(d), counts.max(), q.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        pairs[seg, pos] = q[i] * q[j]
    angle = 2 * np.pi / ring * (np.outer(d, np.arange(ring)) % ring)
    weight = np.where(d != 0, 2.0, 1.0)[:, None]
    table = np.stack([weight * np.cos(angle), -weight * np.sin(angle)], axis=1).reshape(-1, ring)
    reim, k, w = 2 * pad[:, None] + np.arange(2)[:, None], q.shape[1], grid.weights / grid.volume

    def b_matrix(H):
        held = np.append(np.asarray(H, dtype=complex).ravel(), 0)
        with np.errstate(over="ignore", invalid="ignore"):
            h = (held.view(float)[reim] @ pairs).reshape(-1, k).T @ table
        wh, l = whiten(finite(h.reshape(1, 1, -1), grid))
        y = pairs @ ((wh * wh * w).reshape(k, ring) @ table.T).reshape(k, -1, 2).transpose(1, 0, 2)
        b = np.zeros(n * n + 1, dtype=complex)
        b[pad] = y.view(complex)[..., 0]
        b = b[:-1].reshape(n, n)
        return 0.5 * (b + b.conj().T), _logdet(l), wh

    return b_matrix


def act(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    """mat Q(x) per node, shape (K, r, B) for a K x N ``mat``: one GEMM
    against Q as an N x (r B) matrix.  Row slices are weight groups."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (mat @ q.reshape(len(q), -1)).reshape(-1, *q.shape[1:])


def pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x(x)* y(x) per node, shape (r, r, B), for stacked factors of shape
    (K, r, B): one vector reduction over the section index per entry.
    A Gram pair(x, x) is hermitian only to roundoff (its diagonal keeps
    an imaginary part of order eps); its consumers read the lower
    triangle and the real diagonal (cholesky) or take the real part."""
    xc = x.conj()
    out = np.empty((x.shape[1], y.shape[1], x.shape[2]), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                out[i, j] = (xc[:, i] * y[:, j]).sum(axis=0)
    return out


def finite(x, grid):
    """x, a stack of values at every node of ``grid`` with the node index
    last, unchanged when every entry is finite; otherwise NonFiniteChart
    names the first node with an overflowed entry, by its index in the
    grid a quotient was reduced from."""
    ok = np.isfinite(x).reshape(-1, x.shape[-1]).all(axis=0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise NonFiniteChart(grid.name(i), grid.nodes[i])
    return x


def field(q, grid, mat=None) -> np.ndarray:
    """Q* mat Q at every node of ``grid``, hermitian, shape (r, r, M), from
    its chart q; Q*Q without ``mat``.  NonFiniteChart names the first node
    whose sandwich overflowed."""
    h = finite(pair(q, q if mat is None else act(mat, q)), grid)
    return 0.5 * (h + ct(h))


def b_matrix(q, grid, H):
    """B(H) = (1/Vol_L) int Q h_H^{-1} Q* dV from the chart q of ``grid``,
    so that balance reads B(H) = (r/N) H^{-1}: one GEMM of Z = Q w W* W
    (whiten; w = weights / Vol_L) against Q.conj(), as N x (r M)
    matrices.  With it log det h_H and W at every node, (M,), (r, r, M)."""
    n = len(q)
    wh, l = whiten(finite(pair(q, act(H, q)), grid))
    z = mul(q, mul(ct(wh), wh) * (grid.weights / grid.volume))
    b = z.reshape(n, -1) @ q.conj().reshape(n, -1).T
    return 0.5 * (b + b.conj().T), _logdet(l), wh


def p_coordinates(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The real coordinates of P = Q h^{-1} Q* per node, shape (N^2, B),
    for chart values q and an (r, r, B) stack W from whiten: the diagonal
    of P, then sqrt 2 Re and sqrt 2 Im of its entries above the diagonal
    in np.triu_indices order, so that p . p' is the Frobenius product of
    P and P'.  As h^{-1} = W* W, P = Y Y* with Y = Q W*, and row i of the
    triangle, sqrt 2 conj(P_ij) = sum_c sqrt 2 conj(Y_ic) Y_jc over j > i,
    is one vector operation per fibre column."""
    y, (n, r) = mul(q, ct(w)), q.shape[:2]
    p = np.empty((n * n, y.shape[-1]))
    p[:n] = (y.real**2 + y.imag**2).sum(axis=1)
    (re, im), yc = np.split(p[n:], 2), np.sqrt(2.0) * y.conj()
    for i in range(n - 1):
        z = yc[i, 0] * y[i + 1 :, 0]
        for c in range(1, r):
            z += yc[i, c] * y[i + 1 :, c]
        row = slice(i * n - i * (i + 1) // 2, (i + 1) * n - (i + 1) * (i + 2) // 2)
        re[row], im[row] = z.real, -z.imag
    return p


# ---------------------------------------------------------------------------
# r x r algebra vectorized over nodes
#
# A stack of shape (r, r, B) holds one r x r matrix per node, node index
# last.  numpy sends a stacked complex `@` or factorization to
# BLAS/LAPACK once per node; here the loops run over the small index and
# every operation is one vector operation over the B nodes.


def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y per node for (r, r, B) stacks; x may be an (N, r, B) chart."""
    out = x[:, :1] * y[None, 0]
    for k in range(1, x.shape[1]):
        out += x[:, k : k + 1] * y[None, k]
    return out


def ct(x: np.ndarray) -> np.ndarray:
    """x* per node for an (r, r, B) stack."""
    return x.conj().transpose(1, 0, 2)


def cholesky(h: np.ndarray) -> np.ndarray:
    """Cholesky factor per node of an (r, r, B) stack of hermitian
    matrices, read from their lower triangles: L lower triangular with
    h = L L*; SingularGram if some h is not numerically positive.
    Further trailing axes, such as (times, nodes), batch alike."""
    r = h.shape[0]
    if r == 1:  # a rank-one fibre: L = sqrt(h), one operation
        if not (h.real > 0).all():
            raise SingularGram("fibre metric lost positivity")
        return np.sqrt(h.real).astype(h.dtype)
    l = np.zeros_like(h)
    for j in range(r):  # the sums over l[j, :j] are empty at j = 0: skipped
        d = h[j, j].real
        if j:
            d = d - (np.abs(l[j, :j]) ** 2).sum(axis=0)
        if not (d > 0).all():
            raise SingularGram("fibre metric lost positivity")
        l[j, j] = np.sqrt(d)
        if j + 1 < r:
            col = h[j + 1 :, j]
            if j:
                col = col - (l[j + 1 :, :j] * l[j, :j].conj()).sum(axis=1)
            l[j + 1 :, j] = col / l[j, j]
    return l


def whiten(h: np.ndarray):
    """(W, L) per node with L = cholesky(h) and W = L^{-1}, both lower
    triangular, so that W h W* = 1 and h^{-1} = W* W."""
    l = cholesky(h)
    if len(l) == 1:
        return 1.0 / l, l
    w = np.zeros_like(h)
    for i in range(len(l)):
        if i:
            w[i, :i] = -(l[i, :i, None] * w[:i, :i]).sum(axis=0) / l[i, i]
        w[i, i] = 1.0 / l[i, i]
    return w, l


def _logdet(l: np.ndarray) -> np.ndarray:  # log det h = 2 sum_j log L_jj, h = L L*
    return 2.0 * sum((np.log(l[j, j].real) for j in range(1, len(l))), np.log(l[0, 0].real))


def logdet(h: np.ndarray) -> np.ndarray:
    """log det per node of an (r, r, B) stack, from its Cholesky factor."""
    return _logdet(cholesky(h))

