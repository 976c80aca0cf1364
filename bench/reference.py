"""Independent numpy reference for the ndnet forward pass.

Written from the formulas in the project README and the ndlayer module
docstring, not from the code under test. It reads parameters from a
checkpoint JSON document (names ``nd.alpha``, ``nd.beta``,
``attn.weights``, ``attn.bias``, ``dense<k>.weights``, ``dense<k>.bias``
plus the ``activations`` list) and computes logits for a batch of rows:

    sa, sb  = softplus(alpha_ij), softplus(beta_ij)
    plain   N_ij = (sa*b_i - sb*b_j) / (sa*b_i + sb*b_j + eps)
    signed  N_ij = (sa*b_i - sb*b_j)
                   / (sa*sqrt(b_i^2+eps) + sb*sqrt(b_j^2+eps) + eps)
    attnd   N    = sigmoid(W b + c) * N
    dense   x    = relu(W x + c) for hidden layers, W x + c for the head

Pairs (i, j), i < j, are enumerated lexicographically.
"""

from __future__ import annotations

import numpy as np

CHUNK_ROWS = 50_000  # bounds the reference's memory on large scenes


def pairs(n_bands: int):
    i_idx, j_idx = np.triu_indices(n_bands, k=1)
    return i_idx, j_idx


def _real(x):
    """float64, or wider when the caller passes a wider float."""
    return np.asarray(x, dtype=np.result_type(x, np.float64))


def softplus(x):
    x = _real(x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * _real(x)))


def nd_features(X, alpha, beta, eps, signed=False):
    """Pair features of the rows of X, one column per pair."""
    X = _real(X)
    i_idx, j_idx = pairs(X.shape[1])
    sa, sb = softplus(alpha), softplus(beta)
    b_i, b_j = X[:, i_idx], X[:, j_idx]
    numer = sa * b_i - sb * b_j
    if signed:
        denom = sa * np.sqrt(b_i * b_i + eps) + sb * np.sqrt(b_j * b_j + eps) + eps
    else:
        denom = sa * b_i + sb * b_j + eps
    return numer / denom


def model_logits(doc: dict, X, signed=False, nd=nd_features):
    """Logits of a checkpoint document's model for the rows of X.

    ``nd`` computes the pair features; tests pass a deliberately wrong
    one to show that the checks notice.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(doc["band_names"]):
        raise ValueError(f"rows of shape {X.shape} do not fit the checkpoint")
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], CHUNK_ROWS):
        out[start:start + CHUNK_ROWS] = _logits(doc, X[start:start + CHUNK_ROWS],
                                                signed, nd)
    return out


def _logits(doc, X, signed, nd):
    params = {k: np.asarray(v, dtype=np.float64) for k, v in doc["params"].items()}
    eps = float(doc["eps"])
    arch = doc["arch"]
    if arch in ("nd", "attnd"):
        x = nd(X, params["nd.alpha"], params["nd.beta"], eps, signed)
        if arch == "attnd":
            x = sigmoid(X @ params["attn.weights"].T + params["attn.bias"]) * x
    elif arch == "mlp":
        x = X
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    for k, activation in enumerate(doc["activations"]):
        x = x @ params[f"dense{k}.weights"].T + params[f"dense{k}.bias"]
        if activation == "relu":
            x = np.maximum(x, 0.0)
        elif activation != "identity":
            raise ValueError(f"unknown activation {activation!r}")
    return x[:, 0]
