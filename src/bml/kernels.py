"""The evaluation core of the fibre sandwich h = Q* H Q on a node set.

Chart values Q(x), an N x r matrix per node, come from `bundles.q_field`
one block of at most BLOCK nodes at a time and are dropped with the
block.  Inside the core every per-node value has one layout, the node
index last: a block of chart values or of their z-derivatives is an
(N, r, B) stack, section index first, and a sandwich is an (r, r, B)
stack.  An N x N form acts on every node of a block in one GEMM (`act`),
a weight group of a 1-PS is a row slice of that product, and what is
left per node is r x r algebra whose loops run over the small indices,
each step one vector operation over the B nodes.  Per-node outputs are
written into full-length arrays before any quadrature sum and do not
depend on the block size; B(H), the one sum over nodes accumulated per
block, moves in its last bits with BLOCK.

The fibre metric has one factorization, the Cholesky h = L L* of
`cholesky`, with W = L^{-1} from `whiten`: log det h = 2 sum_j log L_jj,
P = Q h^{-1} Q* = Y Y* with Y = Q W*, and SingularGram on loss of
positivity.  `finite` names an overflowed node before any factorization.
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
        u = np.abs(z) ** 2 / (1.0 + np.sum(np.abs(z) ** 2))  # moment map
        ValueError.__init__(self, f"sandwich not finite at node {index}: z = {z}, u = {u}")
        self.index, self.z, self.u = index, z, u


def node_last(x: np.ndarray) -> np.ndarray:
    """Chart values or their z-derivatives, (B, N, r) as `bundles` gives
    them, in the layout of the core: (N, r, B), node index last."""
    return np.ascontiguousarray(x.transpose(1, 2, 0))


def blocks(basis, nodes, q=None):
    """(slice, Q) for consecutive blocks of at most BLOCK nodes, Q of
    shape (N, r, B); Q is evaluated per block unless the caller holds all
    of it, (M, N, r), in ``q``."""
    for start in range(0, len(nodes), BLOCK):
        sl = slice(start, min(start + BLOCK, len(nodes)))
        yield sl, node_last(bundles.q_field(basis, nodes[sl]) if q is None else q[sl])


def act(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    """mat Q(x) per node, shape (K, r, B) for a K x N ``mat``: one GEMM
    against Q as an N x (r B) matrix.  Row slices are weight groups."""
    n, r, b = q.shape
    with np.errstate(over="ignore", invalid="ignore"):
        return (mat @ q.reshape(n, -1)).reshape(-1, r, b)


def pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x(x)* y(x) per node, shape (r, r, B), for stacked factors of shape
    (K, r, B): one vector reduction over the section index per entry."""
    xc = x.conj()
    out = np.empty((x.shape[1], y.shape[1], x.shape[2]), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                out[i, j] = (xc[:, i] * y[:, j]).sum(axis=0)
    return out


def sandwich(a: np.ndarray, mat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a(x)* mat b(x) per node, (r, r, B), for chart blocks a, b."""
    return pair(a, act(mat, b))


def finite(x: np.ndarray, nodes, sl: slice) -> np.ndarray:
    """x, a stack of per-node values with the node index last, unchanged
    when every entry is finite; otherwise NonFiniteChart names the first
    node with an overflowed entry."""
    bad = ~np.isfinite(x).reshape(-1, x.shape[-1]).all(axis=0)
    if bad.any():
        i = sl.start + int(np.argmax(bad))
        raise NonFiniteChart(i, nodes[i])
    return x


def field(basis, nodes, mat=None, factor=None, q=None) -> np.ndarray:
    """Q* mat Q at every node, hermitian, shape (r, r, M): Q*Q without
    ``mat``, and (F Q)*(F Q), positive by construction, for a square-root
    ``factor`` F.  ``q`` holds the chart values when the caller keeps
    them; NonFiniteChart names the first node whose sandwich overflowed."""
    out = np.empty((basis.rank, basis.rank, len(nodes)), dtype=complex)
    for sl, qb in blocks(basis, nodes, q):
        if mat is not None:
            h = sandwich(qb, mat, qb)
        else:
            x = qb if factor is None else act(factor, qb)
            h = pair(x, x)
        out[..., sl] = 0.5 * (finite(h, nodes, sl) + ct(h))
    return out


def b_matrix(basis, nodes, w, H, q=None):
    """sum_x w(x) Y Y* (see p_root), one GEMM of Y as an N x (r B)
    matrix per block; with it log det h and W at every node, (M,) and
    (r, r, M).  ``q`` holds the chart values if kept.  The sum is
    accumulated per block, so it moves in its last bits with BLOCK."""
    n, r = basis.dimension, basis.rank
    b = np.zeros((n, n), dtype=complex)
    ld = np.empty(len(nodes))
    wh = np.empty((r, r, len(nodes)), dtype=complex)
    for sl, qb in blocks(basis, nodes, q):
        wh[..., sl], l = whiten(finite(sandwich(qb, H, qb), nodes, sl))
        ld[sl] = _logdet(l)
        y = p_root(qb, wh[..., sl])
        b += (y * w[sl]).reshape(n, -1) @ y.reshape(n, -1).conj().T
    return 0.5 * (b + b.conj().T), ld, wh


def p_root(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Y = Q W* per node, shape (N, r, B), for chart values q and an
    (r, r, B) stack W from whiten: since h^{-1} = W* W, the P-field is
    P = Q h^{-1} Q* = Y Y*."""
    y = np.empty_like(q)
    for i in range(len(w)):
        # W is lower triangular: (Q W*)_{:, i} = sum_{j <= i} Q_{:, j} conj(W_ij)
        y[:, i] = w[i, 0].conj() * q[:, 0]
        for j in range(1, i + 1):
            y[:, i] += w[i, j].conj() * q[:, j]
    return y


def p_field(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """P(x) = Q h^{-1} Q* = Y Y* per node, shape (N, N, B) (see p_root)."""
    y = p_root(q, w)
    p = y[:, None, 0] * y[None, :, 0].conj()
    for i in range(1, y.shape[1]):
        p += y[:, None, i] * y[None, :, i].conj()
    return p


# ---------------------------------------------------------------------------
# r x r algebra vectorized over nodes
#
# A stack of shape (r, r, B) holds one r x r matrix per node, node index
# last.  numpy sends a stacked complex `@` or factorization to
# BLAS/LAPACK once per node; here the loops run over the small index and
# every operation is one vector operation over the B nodes.


def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y per node for (r, r, B) stacks."""
    out = x[:, :1] * y[None, 0]
    for k in range(1, x.shape[1]):
        out += x[:, k : k + 1] * y[None, k]
    return out


def ct(x: np.ndarray) -> np.ndarray:
    """x* per node for an (r, r, B) stack."""
    return x.conj().transpose(1, 0, 2)


def trace_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """tr(x y) per node for (r, r, B) stacks."""
    return (x * y.transpose(1, 0, 2)).sum(axis=(0, 1))


def cholesky(h: np.ndarray) -> np.ndarray:
    """Cholesky factor per node of an (r, r, B) stack of hermitian
    matrices, read from their lower triangles: L lower triangular with
    h = L L*; SingularGram if some h is not numerically positive.
    Further trailing axes, such as (times, nodes), batch alike."""
    r = h.shape[0]
    l = np.zeros_like(h)
    for j in range(r):
        d = h[j, j].real - (np.abs(l[j, :j]) ** 2).sum(axis=0)
        if not (d > 0).all():
            raise SingularGram("fibre metric lost positivity")
        l[j, j] = np.sqrt(d)
        l[j + 1 :, j] = (h[j + 1 :, j] - (l[j + 1 :, :j] * l[j, :j].conj()).sum(axis=1)) / l[j, j]
    return l


def whiten(h: np.ndarray):
    """(W, L) per node with L = cholesky(h) and W = L^{-1}, both lower
    triangular, so that W h W* = 1 and h^{-1} = W* W."""
    l = cholesky(h)
    w = np.zeros_like(h)
    for i in range(len(l)):
        w[i, :i] = -(l[i, :i, None] * w[:i, :i]).sum(axis=0) / l[i, i]
        w[i, i] = 1.0 / l[i, i]
    return w, l


def _logdet(l: np.ndarray) -> np.ndarray:  # log det h = 2 sum_j log L_jj, h = L L*
    return 2.0 * sum(np.log(l[j, j].real) for j in range(len(l)))


def logdet(h: np.ndarray) -> np.ndarray:
    """log det per node of an (r, r, B) stack, from its Cholesky factor."""
    return _logdet(cholesky(h))
