"""Composite differentiable functions built on the primitive ops.

These are the numerically careful building blocks the losses use:
``logsumexp`` (the Log-Expectation-Exp structure at the heart of SL/BSL),
stable ``sigmoid``/``softplus`` (BCE/BPR), and ``l2_normalize`` (cosine
scoring, paper Appendix Table V).

The ``fused_*`` family collapses whole loss expressions into single
graph nodes with hand-derived vector-Jacobian products; see the
fused-kernel contract in the :mod:`repro.tensor` module docstring.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import ops
from repro.tensor.sparse import RowSparseGrad
from repro.tensor.tensor import Tensor, as_tensor

#: Bytes of one gather/scratch slice of :func:`fused_sampled_scores`.
_CHUNK_BYTES = 256 * 1024

__all__ = [
    "sigmoid", "softplus", "log_sigmoid", "relu", "leaky_relu",
    "logsumexp", "logmeanexp", "softmax", "l2_normalize", "variance",
    "inner_rows", "pairwise_scores", "euclidean_distance_rows",
    "fused_softmax_loss", "fused_bsl_loss", "fused_infonce_loss",
    "fused_sampled_scores",
]


def sigmoid(x) -> Tensor:
    """Numerically stable logistic function with exact gradient."""
    x = as_tensor(x)
    data = _sigmoid_raw(x.data)

    def backward(g):
        return (g * data * (1.0 - data),)

    return ops._node(data, (x,), backward)


def _sigmoid_raw(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(x) -> Tensor:
    """``log(1 + exp(x))`` computed without overflow; d/dx = sigmoid(x)."""
    x = as_tensor(x)
    data = np.logaddexp(0.0, x.data)

    def backward(g):
        return (g * _sigmoid_raw(x.data),)

    return ops._node(data, (x,), backward)


def log_sigmoid(x) -> Tensor:
    """``log sigmoid(x) = -softplus(-x)``, the stable BPR kernel."""
    return -softplus(-as_tensor(x))


def relu(x) -> Tensor:
    x = as_tensor(x)
    return ops.maximum(x, Tensor(np.zeros((), dtype=x.dtype)))


def leaky_relu(x, negative_slope: float = 0.2) -> Tensor:
    """LeakyReLU as used by the NGCF propagation layers."""
    x = as_tensor(x)
    data = np.where(x.data > 0, x.data, negative_slope * x.data)

    def backward(g):
        slope = np.where(x.data > 0, 1.0, negative_slope)
        return (g * slope,)

    return ops._node(data, (x,), backward)


def logsumexp(x, axis=None, keepdims: bool = False) -> Tensor:
    """Stable ``log sum exp`` with the softmax gradient.

    This is the Log-Expectation-Exp structure of Eq. (5)/(18) in the paper
    (up to the ``log N`` shift handled by :func:`logmeanexp`).  Shares
    its stabilisation with every fused kernel via
    :func:`_lse_softmax_raw`, so the kernels and the compositional
    oracles built from this function cannot drift apart.
    """
    x = as_tensor(x)
    data, soft = _lse_softmax_raw(x.data, axis)
    if not keepdims and axis is not None:
        data = np.squeeze(data, axis=axis)
    elif not keepdims and axis is None:
        data = data.reshape(())

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (g * soft,)

    return ops._node(data, (x,), backward)


def logmeanexp(x, axis=None, keepdims: bool = False) -> Tensor:
    """``log E[exp(x)]`` under the empirical (uniform) distribution."""
    x = as_tensor(x)
    if axis is None:
        count = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.shape[ax] for ax in axes]))
    return logsumexp(x, axis=axis, keepdims=keepdims) - float(np.log(count))


def softmax(x, axis: int = -1) -> Tensor:
    """Stable softmax expressed through logsumexp for a correct gradient."""
    x = as_tensor(x)
    return ops.exp(x - logsumexp(x, axis=axis, keepdims=True))


def l2_normalize(x, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows onto the unit sphere (cosine scoring, Appendix Table V)."""
    x = as_tensor(x)
    norm_sq = ops.sum_(x * x, axis=axis, keepdims=True)
    return x / ops.sqrt(norm_sq + eps)


def variance(x, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance ``E[x^2] - E[x]^2`` (Lemma 2's penalty term)."""
    x = as_tensor(x)
    mean = ops.mean_(x, axis=axis, keepdims=True)
    centered = x - mean
    return ops.mean_(centered * centered, axis=axis, keepdims=keepdims)


def inner_rows(a, b) -> Tensor:
    """Row-wise inner products: ``(n, d), (n, d) -> (n,)``."""
    return ops.sum_(as_tensor(a) * as_tensor(b), axis=-1)


def pairwise_scores(users, items) -> Tensor:
    """All-pairs scores ``(n, d), (m, d) -> (n, m)`` via matmul."""
    return ops.matmul(as_tensor(users), ops.transpose(as_tensor(items)))


def euclidean_distance_rows(a, b, eps: float = 1e-12) -> Tensor:
    """Row-wise Euclidean distance, used by the CML baseline."""
    diff = as_tensor(a) - as_tensor(b)
    return ops.sqrt(ops.sum_(diff * diff, axis=-1) + eps)


# ----------------------------------------------------------------------
# Fused loss kernels (single-node forward + hand-derived VJP)
#
# Each kernel below is the only definition of its objective in ``src/``.
# They follow the fused-kernel contract documented in :mod:`repro.tensor`:
# the stabilisation (max-shift) of :func:`logsumexp`, value agreement to
# a few ULPs with the compositional oracle in ``tests/oracles.py``, and
# gradient agreement to <= 1e-6 against finite differences.
# ----------------------------------------------------------------------
def _lse_softmax_raw(x: np.ndarray, axis):
    """Stable ``(logsumexp, softmax)`` pair matching :func:`logsumexp`.

    Shares its conventions exactly: the max-shift is clamped to 0 when a
    row is all ``-inf`` (forward ``-inf``, gradient 0).
    """
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = np.exp(x - m)
    s = shifted.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        lse = np.log(s) + m
    soft = shifted / np.where(s == 0.0, 1.0, s)
    return lse, soft


def fused_softmax_loss(pos, neg, tau: float, include_positive: bool = False,
                       scale_by_temperature: bool = False) -> Tensor:
    """Sampled softmax loss (SL, Eq. 5) as a single fused node.

    Oracle: ``tests/oracles.py::softmax_loss``.  Computes
    ``mean_b[-pos_b/τ + lse_j(logits_bj)]`` (optionally ``×τ``) in one
    pass; the VJP routes the softmax weights straight to ``pos``/``neg``
    without materialising the op chain.
    """
    pos, neg = as_tensor(pos), as_tensor(neg)
    logits = neg.data / tau
    offset = 0
    if include_positive:
        logits = np.concatenate([pos.data[:, None] / tau, logits], axis=1)
        offset = 1
    lse, soft = _lse_softmax_raw(logits, axis=1)
    rows = pos.shape[0]
    row_loss = -pos.data / tau + np.squeeze(lse, axis=1)
    loss = row_loss.mean()
    scale = tau if scale_by_temperature else 1.0
    data = np.asarray(loss * scale)

    def backward(g):
        coeff = float(np.asarray(g)) * scale / (rows * tau)
        grad_pos = np.full(pos.shape, -coeff, dtype=pos.dtype)
        if include_positive:
            grad_pos = grad_pos + coeff * soft[:, 0]
        grad_neg = coeff * soft[:, offset:]
        return grad_pos, grad_neg

    return ops._node(data, (pos, neg), backward)


def fused_bsl_loss(pos, neg, tau1: float, tau2: float,
                   pooling: str = "mean") -> Tensor:
    """Bilateral Softmax Loss (BSL, Eq. 18) as a single fused node.

    Oracle: ``tests/oracles.py::bsl_loss``; both batch estimators are
    supported:

    * ``"mean"`` — ``mean_b[-pos_b/τ1 + (τ1/τ2)·lme_j(neg_bj/τ2)]``
    * ``"log_mean_exp"`` — ``-τ1·lme_b[(pos_b - τ2·lme_j(neg_bj/τ2))/τ1]``
    """
    pos, neg = as_tensor(pos), as_tensor(neg)
    rows, n_neg = neg.shape
    ratio = tau1 / tau2
    lse, soft = _lse_softmax_raw(neg.data / tau2, axis=1)
    neg_lme = np.squeeze(lse, axis=1) - float(np.log(n_neg))
    neg_part = tau2 * neg_lme
    if pooling == "mean":
        row_loss = -pos.data / tau1 + (neg_part / tau2) * ratio
        data = np.asarray(row_loss.mean())

        def backward(g):
            gs = float(np.asarray(g))
            grad_pos = np.full(pos.shape, -gs / (rows * tau1),
                               dtype=pos.dtype)
            grad_neg = (gs * ratio / (rows * tau2)) * soft
            return grad_pos, grad_neg

        return ops._node(data, (pos, neg), backward)
    if pooling != "log_mean_exp":
        raise ValueError(f"unknown pooling {pooling!r}")
    margin = (pos.data - neg_part) / tau1
    m_lse, m_soft = _lse_softmax_raw(margin, axis=0)
    data = np.asarray(-tau1 * (m_lse.reshape(()) - float(np.log(rows))))

    def backward(g):
        gs = float(np.asarray(g))
        grad_pos = -gs * m_soft
        grad_neg = gs * m_soft[:, None] * soft
        return grad_pos, grad_neg

    return ops._node(data, (pos, neg), backward)


def fused_infonce_loss(z1, z2, tau: float, eps: float = 1e-12) -> Tensor:
    """InfoNCE over two views as a single fused node.

    Oracle: ``tests/oracles.py::infonce_loss`` — L2-normalise both
    views, score all pairs, and optimise each diagonal entry against
    its row.  The VJP chains the
    softmax-minus-identity gradient through the matmul and the
    normalisation projection ``(I - ẑẑᵀ)/‖z‖`` in four BLAS calls.
    """
    z1, z2 = as_tensor(z1), as_tensor(z2)
    if z1.shape != z2.shape or z1.ndim != 2:
        raise ValueError(f"views must share a 2-D shape, got {z1.shape} "
                         f"vs {z2.shape}")
    rows = z1.shape[0]
    n1 = (z1.data * z1.data).sum(axis=1, keepdims=True) + eps
    n2 = (z2.data * z2.data).sum(axis=1, keepdims=True) + eps
    inv1, inv2 = 1.0 / np.sqrt(n1), 1.0 / np.sqrt(n2)
    z1n, z2n = z1.data * inv1, z2.data * inv2
    sims = (z1n @ z2n.T) / tau
    lse, soft = _lse_softmax_raw(sims, axis=1)
    diag = sims[np.arange(rows), np.arange(rows)]
    data = np.asarray((-diag + np.squeeze(lse, axis=1)).mean())

    def backward(g):
        gs = float(np.asarray(g))
        G = soft.copy()
        G[np.arange(rows), np.arange(rows)] -= 1.0
        G *= gs / (rows * tau)
        g1n = G @ z2n
        g2n = G.T @ z1n
        grad_z1 = (g1n - z1n * (g1n * z1n).sum(axis=1, keepdims=True)) * inv1
        grad_z2 = (g2n - z2n * (g2n * z2n).sum(axis=1, keepdims=True)) * inv2
        return grad_z1, grad_z2

    return ops._node(data, (z1, z2), backward)


def _distinct_rows(idx: np.ndarray, n_rows: int):
    """``np.unique(idx, return_inverse=True)`` of flat row ids in
    ``[0, n_rows)``, identical arrays from either branch.

    A block with at least ``n_rows`` slots (in-batch negatives, or a
    catalogue smaller than the batch's draws) reads a boolean presence
    table instead of sorting: ``flatnonzero`` gives the distinct ids and
    ``cumsum - 1`` their positions.  That table is never larger than the
    block, so memory still follows the batch; smaller blocks sort.
    """
    if idx.size < n_rows:
        return np.unique(idx, return_inverse=True)
    present = np.zeros(n_rows, dtype=bool)
    present[idx] = True
    position = np.cumsum(present, dtype=np.intp)
    position -= 1
    return np.flatnonzero(present), position[idx]


def fused_sampled_scores(users_t, items_t, user_idx, pos_idx, neg_idx,
                         scoring: str = "cosine", eps: float = 1e-12
                         ) -> Tensor:
    """Sampled-pair scoring as a single fused node: ``(B, 1 + m)`` scores.

    Column 0 is the positive score of each batch row, columns ``1:`` the
    ``m`` negative scores — computed from the **gathered rows only**
    (``O(B * m * dim)``), never against the full catalogue.  Oracle:
    ``tests/oracles.py::catalogue_batch_scores`` (normalise the tables,
    one matmul against the catalogue, gather).  The forward gathers each
    distinct item row once and the VJP is three closed-form products,
    which is what makes the sparse training step flat in the catalogue
    size.  Normalisation uses the :func:`l2_normalize` convention
    (``x / sqrt(sum(x^2) + eps)``), so sampled and dense scores agree
    to a few ULPs.

    The VJP emits coalesced :class:`~repro.tensor.sparse.RowSparseGrad`
    gradients for both tables; they stay sparse into leaf parameters
    and densify automatically at interior nodes (graph backbones).
    """
    import scipy.sparse as sp
    if scoring not in ("cosine", "inner", "euclidean"):
        raise ValueError(f"scoring must be cosine/inner/euclidean, "
                         f"got {scoring!r}")
    users_t, items_t = as_tensor(users_t), as_tensor(items_t)
    u_idx = np.asarray(user_idx, dtype=np.int64).reshape(-1)
    p_idx = np.asarray(pos_idx, dtype=np.int64).reshape(-1)
    n_idx = np.asarray(neg_idx, dtype=np.int64)
    if n_idx.ndim != 2 or len(u_idx) != len(p_idx) or len(u_idx) != len(n_idx):
        raise ValueError(f"index shapes disagree: users {u_idx.shape}, "
                         f"positives {p_idx.shape}, negatives {n_idx.shape}")
    batch = len(u_idx)
    # The positive is scored exactly like an extra negative column, so
    # one (B, 1 + m) item-index block drives the whole kernel; column 0
    # of every per-slot array below is the positive.
    idx = np.concatenate([p_idx[:, None], n_idx], axis=1)     # (B, 1+m)
    # Unique gathered item rows: every per-row quantity (norms, backward
    # coefficients) is computed once per *distinct* item and mapped back
    # through ``inverse`` — the kernel's footprint follows the batch, not
    # the catalogue.
    uniq, inverse = _distinct_rows(idx.reshape(-1), items_t.shape[0])
    inverse = inverse.reshape(idx.shape)
    rows = items_t.data[uniq]                                 # (n_uniq, d)
    U = users_t.data[u_idx]                                   # (B, d)
    if scoring != "inner":
        row_sq = np.einsum("ij,ij->i", rows, rows)            # (n_uniq,)
    if scoring == "cosine":
        inv_u = 1.0 / np.sqrt((U * U).sum(axis=1) + eps)      # (B,)
        inv_i = (1.0 / np.sqrt(row_sq + eps))[inverse]
        base_u = U * inv_u[:, None]                           # û
    else:
        inv_i, base_u = None, U
    # Slot dot-products, a few batch rows at a time through ``inverse``:
    # the (B, 1+m, d) block only ever exists one cache-sized slice deep.
    data = np.empty(idx.shape, dtype=np.result_type(rows, base_u))
    step = max(1, _CHUNK_BYTES // (rows[:1].nbytes * idx.shape[1] or 1))
    block = np.empty((step,) + idx.shape[1:] + rows.shape[1:], rows.dtype)
    for lo in range(0, batch, step):
        at = slice(lo, lo + step)
        np.matmul(np.take(rows, inverse[at], axis=0, mode="clip",
                          out=block[:len(inverse[at])]),
                  base_u[at, :, None], out=data[at, :, None])
    if scoring == "cosine":
        data *= inv_i
    elif scoring == "euclidean":  # -||u - i||^2 = 2 u.i - ||u||^2 - ||i||^2
        data = 2.0 * data - (U * U).sum(axis=1)[:, None] - row_sq[inverse]

    def backward(g):
        # Per-slot item gradient rows have the closed form
        #   grad_item[b, c] = a[b, c] * base_u[b] - b[b, c] * item_row,
        # so the per-unique-item sums collapse to one sparse matmul
        # (the ``a``-weighted scatter of user rows) plus a bincount of
        # the ``b`` coefficients — no (B, m, d) tensor is ever built.
        if scoring == "cosine":
            a = g * inv_i                                     # (B, 1+m)
            b = g * data * inv_i * inv_i
        elif scoring == "inner":
            a, b = g, None
        else:
            a = b = 2.0 * g
        # Every batch row holds exactly 1+m slots, in order: already CSR.
        coeff = sp.csr_matrix(
            (a.reshape(-1), inverse.reshape(-1),
             np.arange(batch + 1) * idx.shape[1]), shape=(batch, len(uniq)))
        # dL/d(item rows), already coalesced over unique ids.
        vals = coeff.T @ base_u                               # (n_uniq, d)
        if b is not None:
            s = np.bincount(inverse.reshape(-1), weights=b.reshape(-1),
                            minlength=len(uniq))
            step = max(1, _CHUNK_BYTES // (rows[:1].nbytes or 1))
            for lo in range(0, len(uniq), step):  # in place, chunk-sized temp
                vals[lo:lo + step] -= s[lo:lo + step, None] * rows[lo:lo + step]
        # dL/dU through the shared ``h = sum_c a[b, c] * item_row`` form.
        h = coeff @ rows                                      # (B, d)
        if scoring == "cosine":
            grad_u = (h - base_u * (h * base_u).sum(axis=1, keepdims=True)) \
                * inv_u[:, None]
        elif scoring == "inner":
            grad_u = h
        else:
            grad_u = h - (a.sum(axis=1))[:, None] * U
        return (RowSparseGrad.from_rows(u_idx, grad_u, users_t.shape),
                RowSparseGrad(uniq, vals, items_t.shape))

    return ops._node(data, (users_t, items_t), backward)
