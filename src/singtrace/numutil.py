"""Small numeric helpers shared across modules."""

import numpy as np

INF = float("inf")


def logsubexp(a, b):
    """log(e^a - e^b) elementwise for a >= b; equal entries give -inf."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = a + np.log1p(-np.exp(np.minimum(b - a, 0.0)))
        out = np.where(b >= a, -np.inf, out)
    return out


def logaddexp(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.logaddexp(a, b)


def recip_extended(x):
    """Reciprocal with the conventions 1/0 = inf and 1/inf = 0."""
    if x == 0.0:
        return INF
    if x == INF:
        return 0.0
    return 1.0 / x


def as_float(x):
    return float(np.asarray(x))
