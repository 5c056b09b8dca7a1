"""The evaluation core of the fibre sandwich h = Q* H Q on a node set.

Chart values Q(x), an N x r matrix per node, come from `bundles.q_field`
one block of BLOCK nodes at a time and are dropped with the block.
Within a block Q is stacked as a (B*r, N) matrix, so an N x N form acts
on every node in one GEMM and what is left per node is r x r algebra on
node-last (r, r, B) stacks.  Per-node results are written into
full-length arrays before any quadrature sum, so the pairwise summation
order, and with it every output, does not depend on the block size.

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


def blocks(basis, nodes, q=None):
    """(slice, Q) for consecutive blocks of at most BLOCK nodes; Q is
    evaluated per block unless the caller holds all of it in ``q``."""
    for start in range(0, len(nodes), BLOCK):
        sl = slice(start, min(start + BLOCK, len(nodes)))
        yield sl, bundles.q_field(basis, nodes[sl]) if q is None else q[sl]


def act(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(mat Q(x))^T per node, shape (B, r, K) for a K x N ``mat``: one
    GEMM against the stacked (B*r, N) layout of Q."""
    b, n, r = q.shape
    with np.errstate(over="ignore", invalid="ignore"):
        return (q.transpose(0, 2, 1).reshape(b * r, n) @ mat.T).reshape(b, r, -1)


def pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x(x)* y(x) per node for stacked factors of shape (B, r, N)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x.conj() @ y.transpose(0, 2, 1)


def sandwich(a: np.ndarray, mat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a(x)* mat b(x) per node for blocks a, b of shape (B, N, r)."""
    return pair(a.transpose(0, 2, 1), act(mat, b))


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
    """Q* mat Q at every node, hermitian, shape (M, r, r): Q*Q without
    ``mat``, and (F Q)*(F Q), positive by construction, for a square-root
    ``factor`` F.  ``q`` holds the chart values when the caller keeps
    them; NonFiniteChart names the first node whose sandwich overflowed."""
    out = np.empty((len(nodes), basis.rank, basis.rank), dtype=complex)
    for sl, qb in blocks(basis, nodes, q):
        if mat is not None:
            h = sandwich(qb, mat, qb)
        else:
            x = qb.transpose(0, 2, 1) if factor is None else act(factor, qb)
            h = pair(x, x)
        finite(h.transpose(1, 2, 0), nodes, sl)
        out[sl] = 0.5 * (h + h.conj().transpose(0, 2, 1))
    return out


def b_matrix(basis, nodes, w, H, q=None):
    """sum_x w(x) Y Y* (see p_root), one GEMM of the stacked (B*r, N)
    layouts of w Y^T and Y^T per block; with it log det h and W at every
    node, (M,) and (r, r, M).  ``q`` holds the chart values if kept."""
    n, r = basis.dimension, basis.rank
    b = np.zeros((n, n), dtype=complex)
    ld = np.empty(len(nodes))
    wh = np.empty((r, r, len(nodes)), dtype=complex)
    for sl, qb in blocks(basis, nodes, q):
        wh[..., sl], l = whiten(finite(sandwich(qb, H, qb).transpose(1, 2, 0), nodes, sl))
        ld[sl] = _logdet(l)
        y = p_root(qb, wh[..., sl])
        b += (w[sl, None, None] * y).reshape(-1, n).T @ y.reshape(-1, n).conj()
    return 0.5 * (b + b.conj().T), ld, wh


def p_root(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Y^T per node, shape (B, r, N), with Y = Q W* for chart values q of
    shape (B, N, r) and an (r, r, B) stack W from whiten: since
    h^{-1} = W* W, the P-field is P = Q h^{-1} Q* = Y Y*."""
    qt = q.transpose(0, 2, 1)
    y = np.empty_like(qt)
    for i in range(len(w)):
        # W is lower triangular: (Q W*)_{:, i} = sum_{j <= i} Q_{:, j} conj(W_ij)
        y[:, i] = w[i, 0].conj()[:, None] * qt[:, 0]
        for j in range(1, i + 1):
            y[:, i] += w[i, j].conj()[:, None] * qt[:, j]
    return y


def p_field(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """P(x) = Q h^{-1} Q* = Y Y* per node, shape (B, N, N) (see p_root)."""
    y = p_root(q, w)
    return y.transpose(0, 2, 1) @ y.conj()


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
