"""The evaluation core of the fibre sandwich h = Q* H Q on a node set.

Chart values Q(x), an N x r matrix per node, come from `bundles.q_field`
one block of BLOCK nodes at a time and are dropped with the block.
Within a block Q is stacked as a (B*r, N) matrix, so an N x N form acts
on every node in one GEMM and what is left per node is a batched r x r
product.  Per-node results are written into full-length arrays before
any quadrature sum, so the pairwise summation order, and with it every
output, does not depend on the block size.
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


def fibre(h: np.ndarray, nodes, sl: slice) -> np.ndarray:
    """Hermitian part of a block of sandwiches; NonFiniteChart names the
    first node whose sandwich overflowed."""
    bad = ~np.isfinite(h).all(axis=(1, 2))
    if bad.any():
        i = sl.start + int(np.argmax(bad))
        raise NonFiniteChart(i, nodes[i])
    return 0.5 * (h + h.conj().transpose(0, 2, 1))


def field(basis, nodes, mat=None, factor=None, q=None) -> np.ndarray:
    """Q* mat Q at every node, shape (M, r, r): Q*Q without ``mat``, and
    (F Q)*(F Q), positive by construction, for a square-root ``factor`` F.
    ``q`` holds the chart values when the caller keeps them."""
    out = np.empty((len(nodes), basis.rank, basis.rank), dtype=complex)
    for sl, qb in blocks(basis, nodes, q):
        if mat is not None:
            h = sandwich(qb, mat, qb)
        else:
            x = qb.transpose(0, 2, 1) if factor is None else act(factor, qb)
            h = pair(x, x)
        out[sl] = fibre(h, nodes, sl)
    return out


def logdet(h: np.ndarray) -> np.ndarray:
    """log det per node of a block of positive hermitian matrices."""
    sign, ld = np.linalg.slogdet(h)
    if (sign.real <= 0).any():
        raise SingularGram("fibre metric lost positivity")
    return ld


def b_matrix(basis, nodes, w, H, q=None):
    """sum_x w(x) Q h^{-1} Q* with h = Q* H Q, one GEMM of the stacked
    (B*r, N) layouts of w Q h^{-1} and Q per block; with it log det h and
    h^{-1} at every node.  ``q`` holds the chart values when the caller
    keeps them."""
    n, r = basis.dimension, basis.rank
    b = np.zeros((n, n), dtype=complex)
    ld = np.empty(len(nodes))
    hinv = np.empty((len(nodes), r, r), dtype=complex)
    for sl, qb in blocks(basis, nodes, q):
        h = fibre(sandwich(qb, H, qb), nodes, sl)
        lam = np.linalg.eigvalsh(h)
        if lam.min() <= 0:
            raise SingularGram("degenerate Fubini-Study metric along the grid")
        hinv[sl], ld[sl] = np.linalg.inv(h), np.log(lam).sum(axis=-1)
        y = (w[sl, None, None] * (qb @ hinv[sl])).transpose(0, 2, 1).reshape(-1, n)
        b += y.T @ qb.transpose(0, 2, 1).reshape(-1, n).conj()
    return 0.5 * (b + b.conj().T), ld, hinv


def p_field(q: np.ndarray, hinv: np.ndarray) -> np.ndarray:
    """P(x) = Q h^{-1} Q* per node, shape (B, N, N)."""
    return (q @ hinv) @ q.conj().transpose(0, 2, 1)
