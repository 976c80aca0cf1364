"""Learnable normalized-difference features over all channel pairs.

For every pair (i, j) of input channels with i < j the layer computes one
quotient,

    N_ij = (sa*b_i - sb*b_j) / (sa*m(b_i) + sb*m(b_j) + eps)

where sa = softplus(alpha_ij) and sb = softplus(beta_ij) are learned
positive coupling coefficients, eps > 0 keeps the denominator away from
zero and the map m makes the denominator dominate the numerator, so
outputs lie in [-1, 1]. The three variants differ only in m:

* ``nd_forward``: the identity, for nonnegative inputs. With alpha == beta
  the output reduces (as eps -> 0) to the classical normalized difference
  (b_i - b_j) / (b_i + b_j), invariant to a common positive input gain;
* ``nd_forward_signed``: the smooth absolute value sqrt(b^2 + eps);
* ``nd_forward_softplus``: the identity after mapping inputs through softplus.

The backward passes use closed-form partial derivatives. With
A = sa*b_i - sb*b_j, B the denominator and X = b_i*m(b_j) + m(b_i)*b_j,
the quotient rule gives

    dN/dsa =  (b_i*B - A*m(b_i)) / B^2 =  (sb*X + eps*b_i) / B^2
    dN/dsb = -(b_j*B + A*m(b_j)) / B^2 = -(sa*X + eps*b_j) / B^2
    dN/db_i =  sa*(B - A*m'(b_i)) / B^2    dN/db_j = -sb*(B + A*m'(b_j)) / B^2

and dsa/dalpha = sigmoid(alpha). For the identity, B - A = 2*sb*b_j + eps
and B + A = 2*sa*b_i + eps remove the cancellation from the input
gradient; the signed variant keeps the quotient form B - A*b_i/m(b_i), and
the softplus variant chains the identity's with sigmoid(b), the
derivative of softplus(b). Both variants take the coefficient gradients
from three batch sums: with R = delta/B^2 for the upstream gradient delta,

    S_x = sum_b R*X    S_i = sum_b R*b_i    S_j = sum_b R*b_j
    dL/dalpha =  sigmoid(alpha) * (sb*S_x + eps*S_i)
    dL/dbeta  = -sigmoid(beta)  * (sa*S_x + eps*S_j)

where X = 2*b_i*b_j for the identity. Every per-element term is a product
of R and the bands, so no large quotient-rule terms cancel, the sums'
rounding error is bounded by a few ulps of the sum of the terms'
magnitudes, and the sigmoids multiply the (n_pairs,) sums.

All forwards accept a single channel vector of shape (n,) or a batch of
shape (batch, n). Parameter gradients are summed over the batch axis;
input gradients keep the input's shape. Each band's input gradient sums
the terms of the n-1 pairs that contain it, gathered with two matrix
products against the one-hot incidence matrices of ``PairIndexer`` (pair
p has a 1 in column i_p of ``inc_i`` and in column j_p of ``inc_j``), not
with a scatter-add; the sums are the same up to rounding order.

The math lives in private cores (``_forward``, ``_backward``) that take
2-d arrays and output arrays and check nothing; the public functions
validate, then call them, and the public backwards reject ``params`` of
another pair count or an eps other than the cached forward's. The cores
own both coefficient transforms: ``_forward`` applies softplus once to
the raw alpha|beta block and caches it with eps, and ``_backward`` takes
the sigmoids from that cache as -expm1(-softplus), sigmoid to a few ulps
(1 - exp(-log(1 + e^x)) = e^x / (1 + e^x)), so the public layer, the model
cores and the gradient checks share one coefficient rule. The forward
gathers each pair's two bands in C order (``take`` along the last axis,
whatever the batch rank) and caches them and the denominator B. The
``attnd`` model's attention gate has private cores only (``_gate``,
``_gate_backward``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ndmath import sigmoid, softplus

DEFAULT_EPS = 1e-8

__all__ = [
    "DEFAULT_EPS",
    "PairIndexer",
    "NdParams",
    "NdCache",
    "NdGradients",
    "AttentionCache",
    "pair_count",
    "nd_forward",
    "nd_backward",
    "nd_forward_signed",
    "nd_backward_signed",
    "nd_forward_softplus",
    "nd_backward_softplus",
]


def pair_count(n_bands: int) -> int:
    """Number of unordered channel pairs, n*(n-1)/2."""
    if n_bands < 2:
        raise ValueError(f"need at least 2 bands, got {n_bands}")
    return n_bands * (n_bands - 1) // 2


class PairIndexer:
    """Fixed lexicographic enumeration of all (i, j) channel pairs, i < j.

    ``inc_i`` and ``inc_j`` are the (n_pairs, n_bands) one-hot incidence
    matrices of the first and second band of each pair. All arrays are
    read-only, so one indexer can serve every model with its band count.
    """

    def __init__(self, n_bands: int):
        self.n_bands = int(n_bands)
        self.n_pairs = pair_count(self.n_bands)
        self.pairs = [
            (i, j) for i in range(self.n_bands) for j in range(i + 1, self.n_bands)
        ]
        self.i_idx = np.array([p[0] for p in self.pairs], dtype=np.intp)
        self.j_idx = np.array([p[1] for p in self.pairs], dtype=np.intp)
        eye = np.eye(self.n_bands)
        self.inc_i = eye[self.i_idx]
        self.inc_j = eye[self.j_idx]
        for array in (self.i_idx, self.j_idx, self.inc_i, self.inc_j):
            array.flags.writeable = False

    def __repr__(self) -> str:
        return f"PairIndexer(n_bands={self.n_bands}, n_pairs={self.n_pairs})"


@functools.lru_cache(maxsize=16)
def _pair_indexer(n_bands: int) -> PairIndexer:
    """The shared indexer for ``n_bands`` bands."""
    return PairIndexer(n_bands)


@dataclass
class NdParams:
    """Per-pair coupling coefficients, in PairIndexer order."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.alpha.shape != self.beta.shape or self.alpha.ndim != 1:
            raise ValueError(
                f"alpha/beta must be matching 1-d arrays, got {self.alpha.shape} "
                f"and {self.beta.shape}"
            )
        if not (np.isfinite(self.alpha).all() and np.isfinite(self.beta).all()):
            raise ValueError("alpha/beta must be finite")

    @property
    def n_pairs(self) -> int:
        return self.alpha.shape[0]

    @classmethod
    def zeros(cls, n_pairs: int) -> "NdParams":
        """Classical-index warm start: softplus(0) on both sides of each pair."""
        return cls(np.zeros(n_pairs), np.zeros(n_pairs))

    def copy(self) -> "NdParams":
        return NdParams(self.alpha.copy(), self.beta.copy())


@dataclass
class NdCache:
    """Forward quantities needed by every backward variant: the softplus of
    the alpha|beta block, the forward's eps and three C-ordered
    (batch, n_pairs) arrays. The signed backward recomputes the numerator
    sa*b_i - sb*b_j from them; no backward reads the output N."""

    coeffs: np.ndarray  # (2 * n_pairs,), softplus of the alpha|beta block
    sigma_alpha: np.ndarray  # its first half, softplus(alpha)
    sigma_beta: np.ndarray  # its second half, softplus(beta)
    b_i: np.ndarray  # (batch, n_pairs), each pair's first band
    b_j: np.ndarray  # (batch, n_pairs), each pair's second band
    denom: np.ndarray  # (batch, n_pairs)
    indexer: PairIndexer
    eps: float
    single: bool = False  # True when the public forward saw a 1-d input
    raw: np.ndarray | None = None  # pre-softplus inputs, softplus variant only


@dataclass
class NdGradients:
    """Loss gradients: per-pair for the coefficients, per-band for inputs."""

    d_alpha: np.ndarray  # (n_pairs,)
    d_beta: np.ndarray  # (n_pairs,)
    d_input: np.ndarray  # same shape as the forward input


@dataclass
class AttentionCache:
    bands: np.ndarray
    weights: np.ndarray
    gate: np.ndarray  # sigmoid(W b + c)
    nd_outputs: np.ndarray


def _as_batch(x, name="input"):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        return a[None, :], True
    if a.ndim == 2:
        return a, False
    raise ValueError(f"{name} must be 1-d or 2-d, got shape {a.shape}")


def _check_eps(eps: float) -> float:
    """eps as a float; a bool is not an eps, though float(True) is 1.0."""
    value = float(eps)
    if isinstance(eps, (bool, np.bool_)) or not (value > 0 and np.isfinite(value)):
        raise ValueError(f"eps must be a positive finite real, got {eps}")
    return value


def _check_bands(batch, signed: bool, name: str = "input"):
    """Reject NaN and +-inf, and negatives unless ``signed``; the forwards,
    ``network.model_forward`` and ``network.train`` all run this check."""
    if not np.isfinite(batch).all():
        raise ValueError(f"{name} contains non-finite values (NaN or inf)")
    if not signed and (batch < 0).any():
        raise ValueError("nd_forward requires nonnegative inputs; use the "
                         "signed variant for data that may be negative")


def _smooth_abs(b, eps):
    """m(b) = sqrt(b^2 + eps), the signed variant's denominator map."""
    m = b ** 2
    m += eps
    return np.sqrt(m, out=m)


def _forward(batch, block, eps, idx: PairIndexer, signed: bool):
    """The quotient over all pairs of a 2-d batch; inputs are not checked.

    ``block`` is the raw alpha|beta block, alpha's n_pairs values then
    beta's. One ``softplus`` call turns it into sa|sb, which the cache
    keeps, with ``eps``, for ``_backward``. With m the identity the
    denominator reuses the numerator's two products. The sums and the
    quotient update their first operand in place, which keeps the peak
    memory of a large batch down and gives the same values.

    Gradient checks pass an (S, 1, n) stack of one-row batches, or an
    (S, 1, 2 * n_pairs) stack of blocks. Every batch is gathered in C
    order (``take`` along the last axis): a fancy-index gather comes out
    strided, which slows the elementwise passes that meet C-ordered arrays
    and makes a stacked one-row product round differently from one row's.
    The method, not ``np.take``, since the function's dispatch costs a
    one-row call about as much as the gather.
    """
    coeffs = softplus(block)
    sa = coeffs[..., :idx.n_pairs]
    sb = coeffs[..., idx.n_pairs:]
    b_i = batch.take(idx.i_idx, axis=-1)
    b_j = batch.take(idx.j_idx, axis=-1)
    out = sa * b_i
    sb_bj = sb * b_j
    if signed:
        denom = sa * _smooth_abs(b_i, eps)
        denom += sb * _smooth_abs(b_j, eps)
    else:
        denom = out + sb_bj
    denom += eps
    out -= sb_bj
    out /= denom
    return out, NdCache(coeffs, sa, sb, b_i, b_j, denom, idx, eps)


def _backward(cache: NdCache, delta, signed: bool, d_alpha, d_beta,
              need_input: bool = True):
    """Quotient-rule gradients of ``_forward``, with the same ``signed``.

    ``delta`` is 2-d like the cached forward. The coefficient gradients
    are written into ``d_alpha`` and ``d_beta``; returns the input
    gradient, or None when ``need_input`` is false. Nothing is checked.
    """
    sa, sb = cache.sigma_alpha, cache.sigma_beta
    b_i, b_j = cache.b_i, cache.b_j
    B, eps, idx = cache.denom, cache.eps, cache.indexer
    m_i, m_j = ((_smooth_abs(b_i, eps), _smooth_abs(b_j, eps)) if signed
                else (b_i, b_j))
    # The three batch sums of the module docstring, with R = delta/B^2.
    R = np.square(B)
    np.divide(delta, R, out=R)
    s_i = np.einsum("bp,bp->p", R, b_i)
    s_j = np.einsum("bp,bp->p", R, b_j)
    t = R * b_i
    t *= m_j
    if signed:
        u = R * m_i
        u *= b_j
        t += u
    s_x = np.add.reduce(t, axis=0)
    if not signed:  # m_i*b_j = b_i*m_j, so the second product is the first
        s_x *= 2.0
    neg_sig = np.expm1(-cache.coeffs)  # -sigmoid(alpha|beta)
    n = idx.n_pairs
    np.multiply(sb, s_x, out=d_alpha)
    d_alpha += eps * s_i
    d_alpha *= neg_sig[:n]
    np.negative(d_alpha, out=d_alpha)
    np.multiply(sa, s_x, out=d_beta)
    d_beta += eps * s_j
    d_beta *= neg_sig[n:]
    if not need_input:
        return None
    # delta*dN/db_i = sa*R*(B - A*m'(b_i)), delta*dN/db_j = -sb*R*(B +
    # A*m'(b_j)); for the identity these factors are 2*sb*b_j + eps and
    # 2*sa*b_i + eps.
    if signed:
        A = sa * b_i
        A -= sb * b_j
        w_i = B - A * b_i / m_i
        w_j = B + A * b_j / m_j
    else:
        w_i = b_j * (2.0 * sb)
        w_i += eps
        w_j = b_i * (2.0 * sa)
        w_j += eps
    w_i *= R
    w_j *= R
    return (w_i * sa) @ idx.inc_i - (w_j * sb) @ idx.inc_j


def _checked_forward(bands, params: NdParams, eps, signed: bool):
    """Validate, then run ``_forward``; the public forwards share this."""
    eps = _check_eps(eps)
    batch, single = _as_batch(bands, "bands")
    _check_bands(batch, signed)
    idx = _pair_indexer(batch.shape[1])
    if params.n_pairs != idx.n_pairs:
        raise ValueError(
            f"params carry {params.n_pairs} pairs but input implies "
            f"{idx.n_pairs}"
        )
    out, cache = _forward(batch, np.concatenate((params.alpha, params.beta)),
                          eps, idx, signed)
    cache.single = single
    return (out[0] if single else out), cache


def _checked_backward(cache: NdCache, upstream, params: NdParams, eps,
                      signed: bool) -> NdGradients:
    """Validate, then run ``_backward``; the public backwards share this."""
    eps = _check_eps(eps)
    n_pairs = cache.indexer.n_pairs
    if params.n_pairs != n_pairs:
        raise ValueError(f"params carry {params.n_pairs} pairs but the cached "
                         f"forward has {n_pairs}")
    if eps != cache.eps:
        raise ValueError(f"eps {eps!r} differs from the cached forward's eps "
                         f"{cache.eps!r}")
    delta = np.asarray(upstream, dtype=np.float64)
    if cache.single:
        delta = delta[None, :]
    if delta.shape != cache.denom.shape:
        raise ValueError(f"upstream shape {delta.shape} does not match cached "
                         f"forward shape {cache.denom.shape}")
    d_alpha, d_beta = np.empty(n_pairs), np.empty(n_pairs)
    d_input = _backward(cache, delta, signed, d_alpha, d_beta)
    if cache.single:
        d_input = d_input[0]
    return NdGradients(d_alpha, d_beta, d_input)


def nd_forward(bands, params: NdParams, eps: float = DEFAULT_EPS):
    """Nonnegative-input forward pass over all channel pairs.

    Returns (outputs, cache) where outputs has one value in [-1, 1] per
    pair in lexicographic order. Rejects NaN, infinite and negative
    inputs; use ``nd_forward_signed`` or ``nd_forward_softplus`` for
    signed data.
    """
    return _checked_forward(bands, params, eps, signed=False)


def nd_backward(cache: NdCache, upstream, params: NdParams,
                eps: float = DEFAULT_EPS) -> NdGradients:
    """Backward pass matching ``nd_forward``.

    ``upstream`` is dLoss/dN per pair, shaped like the forward output.
    The gradients are taken at the coefficients the forward cached;
    ``params`` of another pair count or another eps raise a ValueError.
    Coefficient gradients are summed over the batch axis; each band's
    input gradient accumulates the contributions of all n-1 pairs.
    """
    return _checked_backward(cache, upstream, params, eps, signed=False)


def nd_forward_signed(bands, params: NdParams, eps: float = DEFAULT_EPS):
    """Signed-input forward: smooth absolute values in the denominator.

    N_ij = (sa*b_i - sb*b_j) / (sa*sqrt(b_i^2+eps) + sb*sqrt(b_j^2+eps) + eps).
    The denominator is strictly positive and dominates |numerator|, so
    outputs stay in [-1, 1] for inputs of any sign.
    """
    return _checked_forward(bands, params, eps, signed=True)


def nd_backward_signed(cache: NdCache, upstream, params: NdParams,
                       eps: float = DEFAULT_EPS) -> NdGradients:
    """Backward pass matching ``nd_forward_signed``."""
    return _checked_backward(cache, upstream, params, eps, signed=True)


def nd_forward_softplus(bands, params: NdParams, eps: float = DEFAULT_EPS):
    """Signed-input forward: inputs pass through softplus first.

    The transformed values softplus(b) are strictly positive, so the
    nonnegative formulation applies unchanged to them; outputs are in
    (-1, 1). Nonlinear in the inputs, unlike the smooth-|b| variant.
    """
    raw = np.asarray(bands, dtype=np.float64)
    out, cache = _checked_forward(softplus(raw), params, eps, signed=False)
    cache.raw = raw
    return out, cache


def nd_backward_softplus(cache: NdCache, upstream, params: NdParams,
                         eps: float = DEFAULT_EPS) -> NdGradients:
    """Backward pass matching ``nd_forward_softplus``.

    Chains the nonnegative backward (on the transformed inputs) with the
    softplus derivative: d softplus(b)/db = sigmoid(b).
    """
    if cache.raw is None:
        raise ValueError("cache does not come from nd_forward_softplus")
    grads = _checked_backward(cache, upstream, params, eps, signed=False)
    grads.d_input = grads.d_input * sigmoid(cache.raw)
    return grads


def _gate(batch, W, c, outputs):
    """Pair outputs scaled by gates sigmoid(W @ b + c); nothing is checked.

    ``W`` is (n_pairs, n_bands) and ``c`` (n_pairs,). Gates lie in (0, 1),
    so gated outputs keep the [-1, 1] bound of their inputs. Gradient
    checks pass (S, ...) stacks, as for ``_forward``, with a stacked ``W``
    or ``c``.
    """
    gate = sigmoid(batch @ W.swapaxes(-1, -2) + c)
    return gate * outputs, AttentionCache(batch, W, gate, outputs)


def _gate_backward(cache: AttentionCache, delta, d_weights, d_bias,
                   need_bands: bool = True):
    """Gradients of ``_gate`` for a 2-d ``delta``; nothing is checked.

    Writes the weight and bias gradients into ``d_weights`` and ``d_bias``
    and returns (d_nd_outputs, d_bands), d_bands None unless ``need_bands``.
    """
    d_nd = delta * cache.gate
    d_pre = delta * cache.nd_outputs * cache.gate * (1.0 - cache.gate)
    np.matmul(d_pre.T, cache.bands, out=d_weights)
    np.add.reduce(d_pre, axis=0, out=d_bias)
    return d_nd, (d_pre @ cache.weights if need_bands else None)
