"""Scalar diagnostics that separate the three regimes of Y_{n,p}.

max_ratio and darling_ratio measure single-term domination of the normalizer
(the tightness pivot), and the modulus of continuity measures path
roughness.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterDomainError
# y_path is not called here, but stays bound because the benchmark's tracer
# (perfbench/tracing.py) rebinds it in this namespace
from .process import ProcessPath, _max_oscillations, _Rescaled, y_path  # noqa: F401

__all__ = [
    "max_ratio",
    "darling_ratio",
    "sum_sq_ratio",
    "modulus_of_continuity",
]

# Each ratio rescales the sample once (`_Rescaled`: NaN or inf raises
# NonFiniteSampleError, an all-zero sample DegenerateSampleError) and reads
# its power sums; a ProcessPath holds the same object for its own sample.


def max_ratio(x, p: float) -> float:
    """max_i |X_i| / V_{n,p}, in (0, 1]; equals 1 iff one single X_i is nonzero."""
    return _Rescaled(x).max_ratio(p)


def darling_ratio(x) -> float:
    """max_i X_i^2 / sum X_i^2, in [1/n, 1]."""
    return _Rescaled(x).darling_ratio()


def sum_sq_ratio(x, alpha: float) -> float:
    """sum X_i^2 / V_{n,alpha}^2; at most 1 for alpha <= 2, exactly 1 at alpha = 2."""
    return _Rescaled(x).sum_sq_ratio(alpha)


def modulus_of_continuity(path: ProcessPath, delta: float) -> float:
    """sup |Y(k/n) - Y(j/n)| over nodes with |k - j| <= delta n.

    Y is piecewise linear between the nodes k/n, where it is S_k/V, so the
    value is exact for the path whenever delta n is an integer (a window
    below one mesh step returns 0, since no distinct nodes qualify).

    V > 0 does not depend on t, so a window's range of Y is its range of S
    divided by V, and the largest range of Y is R/V with R the largest of S.
    The window pass over S gives fl(R), the correctly rounded R, since fl is
    monotone; the value is then one division, fl(fl(R)/V). Where that is not
    finite, S holds a NaN or inf, or a range of S overflows where the range
    of Y need not, and the exact pass over S/V runs instead. The pass over
    S/V alone would round each node before subtracting: where S is large
    against its ranges, that is far off R/V.
    """
    delta = float(delta)
    if not 0 < delta <= 1:
        raise ParameterDomainError(f"delta must lie in (0, 1], got {delta}")
    with np.errstate(over="ignore"):  # an overflowing range takes the pass over S/V
        om = _max_oscillations(path.sums, delta) / path.v
    if math.isfinite(om):
        return om
    return _max_oscillations(path.sums / path.v, delta)
