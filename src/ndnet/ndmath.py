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

    Both sign branches share the common factor t = e^-|x|, which makes
    sigmoid(x) + sigmoid(-x) == 1 hold at ulp level: the two branches are
    1/(1+t) and t/(1+t) with the identical t and denominator.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    d = 1.0 + t
    return np.where(x >= 0, 1.0 / d, t / d)
