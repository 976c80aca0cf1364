"""Numerically stable elementary functions.

Everything here is 64-bit float arithmetic. Functions accept scalars or
numpy arrays and broadcast elementwise; outputs are guaranteed finite for
finite inputs, which the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softplus", "sigmoid"]


def softplus(x):
    """log(1 + e^x) without overflow anywhere on the float64 range.

    Evaluated as x + log1p(e^-x) for x > 0 and log1p(e^x) otherwise
    (via ``np.logaddexp``), so softplus(50.0) comes out as 50.0 + 2e-22
    instead of overflowing e^50, and softplus(-50.0) keeps full relative
    precision near e^-50. Strictly increasing; positive wherever e^x is
    representable (below x ~ -745 the result underflows to 0.0).
    """
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def sigmoid(x):
    """1 / (1 + e^-x) without overflow, in (0, 1).

    Evaluated as e^min(x, 0) / (1 + e^-|x|) in place, without branches:
    for x >= 0 that is 1/(1+t) and for x < 0 it is t/(1+t), where
    t = e^-|x| (= e^x there). Both signs share that t and the denominator
    d = 1 + t, which makes sigmoid(x) + sigmoid(-x) == 1 hold at ulp
    level. A scalar comes back as a 0-d array.
    """
    x = np.asarray(x, dtype=np.float64)
    d = np.abs(x, out=np.empty(x.shape))
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    out = np.minimum(x, 0.0, out=np.empty(x.shape))
    np.exp(out, out=out)
    out /= d
    return out
