"""Scalar diagnostics that separate the three regimes of Y_{n,p}.

max_ratio and darling_ratio measure single-term domination of the normalizer
(the tightness pivot), the modulus of continuity measures path roughness,
and the norm chain V_{n,a} >= V_{n,1} >= V_{n,b} >= V_{n,2}
(a <= 1 <= b <= 2) is the deterministic inequality behind the degenerate
regime.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, ParameterDomainError
# y_path is not called here, but stays bound because the benchmark's tracer
# (perfbench/tracing.py) rebinds it in this namespace
from .process import (  # noqa: F401
    ProcessPath,
    _divided_ranges,
    _grid_index,
    _max_oscillations,
    _numerator,
    _Rescaled,
    p_norm,
    y_path,
)

__all__ = [
    "max_ratio",
    "darling_ratio",
    "sum_sq_ratio",
    "modulus_of_continuity",
    "NormChain",
    "norm_chain",
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


def modulus_of_continuity(path: ProcessPath, delta: float, grid_refinement: int = 1) -> float:
    """sup |Y(t) - Y(s)| over grid pairs with |t - s| <= delta.

    The grid has mesh 1/(grid_refinement * n) and contains every node k/n, so
    the value is exact for the piecewise-linear path whenever delta is a
    multiple of the mesh (window widths below one mesh step return 0, since
    no distinct grid pairs qualify). grid_refinement must be an integer
    >= 1.
    """
    delta = float(delta)
    if not 0 < delta <= 1:
        raise ParameterDomainError(f"delta must lie in (0, 1], got {delta}")
    if not isinstance(grid_refinement, numbers.Integral) or grid_refinement < 1:
        raise ParameterDomainError(f"grid_refinement must be an integer >= 1, got {grid_refinement!r}")
    # the largest window range of the numerator N = V Y on this grid, divided by V
    npts = grid_refinement * path.n
    numerator = _numerator(path.sums, path.values, *_grid_index(path.n, np.arange(npts + 1) / npts))
    deltas = (delta,)
    with np.errstate(over="ignore"):  # an overflowing range is `_divided_ranges`' to handle
        ranges = _max_oscillations(numerator, deltas)
    return _divided_ranges(numerator, deltas, ranges, path.v)[0]


class NormChain(NamedTuple):
    v_alpha: float
    v_one: float
    v_beta: float
    v_two: float


def norm_chain(x, alpha: float, beta: float) -> NormChain:
    """(V_{n,alpha}, V_{n,1}, V_{n,beta}, V_{n,2}) for alpha <= 1 <= beta <= 2.

    The chain V_alpha >= V_1 >= V_beta >= V_2 is deterministic; a violation
    beyond 1e-10 relative slack indicates a broken norm computation and
    raises rather than returning.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not 0 < alpha <= 1:
        raise ParameterDomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 1 <= beta <= 2:
        raise ParameterDomainError(f"beta must lie in [1, 2], got {beta}")
    chain = NormChain(
        v_alpha=p_norm(x, alpha),
        v_one=p_norm(x, 1.0),
        v_beta=p_norm(x, beta),
        v_two=p_norm(x, 2.0),
    )
    vals = np.array(chain)
    slack = 1e-10 * np.maximum(vals[:-1], vals[1:])
    if np.any(np.diff(vals) > slack):
        raise InternalConsistencyError(f"norm ordering violated beyond tolerance: {chain}")
    return chain
