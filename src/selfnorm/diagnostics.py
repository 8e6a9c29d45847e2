"""Scalar diagnostics that separate the three regimes of Y_{n,p}.

max_ratio and darling_ratio measure single-term domination of the normalizer
(the tightness pivot), the modulus of continuity measures path roughness,
and the norm chain V_{n,a} >= V_{n,1} >= V_{n,b} >= V_{n,2}
(a <= 1 <= b <= 2) is the deterministic inequality behind the degenerate
regime.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateSampleError,
    InternalConsistencyError,
    NonFiniteSampleError,
    ParameterDomainError,
)
from .process import ProcessPath, p_norm, y_path

__all__ = [
    "max_ratio",
    "darling_ratio",
    "sum_sq_ratio",
    "modulus_of_continuity",
    "NormChain",
    "norm_chain",
]


def _abs_rescaled(x) -> tuple[np.ndarray, float]:
    ax = np.abs(np.asarray(x, dtype=float))
    m = float(ax.max())
    if not math.isfinite(m):  # max|x| is NaN or inf iff some value is
        raise NonFiniteSampleError(f"the sample holds a non-finite value (max |x| = {m})")
    if m == 0.0:
        raise DegenerateSampleError("all-zero sample")
    return ax / m, m


def max_ratio(x, p: float) -> float:
    """max_i |X_i| / V_{n,p}, in (0, 1]; equals 1 iff one single X_i is nonzero."""
    p = float(p)
    if not 0 < p <= 2:
        raise ParameterDomainError(f"p must lie in (0, 2], got {p}")
    q, _ = _abs_rescaled(x)
    # M/V = (sum (|x|/M)^p)^(-1/p), scale-free by construction
    return float((q**p).sum() ** (-1.0 / p))


def darling_ratio(x) -> float:
    """max_i X_i^2 / sum X_i^2, in [1/n, 1]."""
    q, _ = _abs_rescaled(x)
    return float(1.0 / (q * q).sum())


def sum_sq_ratio(x, alpha: float) -> float:
    """sum X_i^2 / V_{n,alpha}^2; at most 1 for alpha <= 2, exactly 1 at alpha = 2."""
    alpha = float(alpha)
    if not 0 < alpha <= 2:
        raise ParameterDomainError(f"alpha must lie in (0, 2], got {alpha}")
    q, _ = _abs_rescaled(x)
    return float((q * q).sum() / (q**alpha).sum() ** (2.0 / alpha))


def modulus_of_continuity(path: ProcessPath, delta: float, grid_refinement: int = 1) -> float:
    """sup |Y(t) - Y(s)| over grid pairs with |t - s| <= delta.

    The grid has mesh 1/(grid_refinement * n) and contains every node k/n, so
    the value is exact for the piecewise-linear path whenever delta is a
    multiple of the mesh (window widths below one mesh step return 0, since
    no distinct grid pairs qualify).
    """
    delta = float(delta)
    if not 0 < delta <= 1:
        raise ParameterDomainError(f"delta must lie in (0, 1], got {delta}")
    if grid_refinement < 1:
        raise ParameterDomainError(f"grid_refinement must be >= 1, got {grid_refinement}")
    npts = grid_refinement * path.n
    return _max_oscillations(y_path(path, np.arange(npts + 1) / npts), (delta,))[0]


def _max_oscillations(y: np.ndarray, deltas) -> tuple[float, ...]:
    """Largest max-minus-min of y over windows of delta times its len(y) - 1 mesh steps.

    y holds a path on an evenly spaced grid of [0, 1]; this is the modulus of
    continuity once the grid is evaluated, so one grid, and one pass over it,
    serves every delta. Results come back in the order of `deltas`; a window
    below one mesh step gives 0.0, since no distinct grid pairs qualify.

    hi[j] and lo[j] hold the max and min of the valid window of k points that
    starts at node j, and the window grows through the sorted distinct widths.
    Window cover: for k <= K <= 2k, the windows of k points starting at j and
    at j + K - k overlap and together cover exactly the K points starting at
    j, so since max and min are idempotent, np.maximum and np.minimum of the
    two shifted arrays give the windows of K points.

    This equals the centred scipy.ndimage maximum_filter1d/minimum_filter1d
    of size K with mode="nearest" bit for bit. Each of its windows is either a
    full window of K points (every full window is centred on some node), or
    an edge window clipped by the mode; a clipped window is a run of fewer
    than K nodes, and since K <= len(y) (delta <= 1) it lies inside some full
    window, so its max is no larger and its min no smaller. Floating
    subtraction is monotone, so its oscillation is no larger either, and the
    largest oscillation is that of a full window. Only max, min and the same
    pairwise differences hi - lo of node values appear, so no rounding
    differs.
    """
    widths = [int(np.floor(d * (y.size - 1) + 1e-9)) for d in deltas]
    osc = {}
    hi = lo = y
    k = 1
    for w in sorted(set(widths)):
        if w < 1:
            osc[w] = 0.0
            continue
        while k <= w:
            step = min(k, w + 1 - k)
            hi = np.maximum(hi[:-step], hi[step:])
            lo = np.minimum(lo[:-step], lo[step:])
            k += step
        osc[w] = float((hi - lo).max())
    return tuple(osc[w] for w in widths)


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
