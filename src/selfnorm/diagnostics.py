"""Scalar diagnostics that separate the three regimes of Y_{n,p}.

max_ratio and darling_ratio measure single-term domination of the normalizer
(the tightness pivot), the modulus of continuity measures path roughness,
the sgn(X)|X|^(alpha/2) transform maps a tail-index-alpha sample into the
normal domain of attraction, and the norm chain V_{n,a} >= V_{n,1} >= V_{n,b}
>= V_{n,2} (a <= 1 <= b <= 2) is the deterministic inequality behind the
degenerate regime.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .errors import DegenerateSampleError, InternalConsistencyError, ParameterDomainError
from .families import SampleBatch
from .process import ProcessPath, p_norm, y_path

__all__ = [
    "max_ratio",
    "darling_ratio",
    "sum_sq_ratio",
    "modulus_of_continuity",
    "dan_transform",
    "dan_criterion_curve",
    "NormChain",
    "norm_chain",
]


def _abs_rescaled(batch: SampleBatch) -> tuple[np.ndarray, float]:
    ax = np.abs(np.asarray(batch.values, dtype=float))
    m = float(ax.max())
    if m == 0.0:
        raise DegenerateSampleError("all-zero sample")
    return ax / m, m


def max_ratio(batch: SampleBatch, p: float) -> float:
    """max_i |X_i| / V_{n,p}, in (0, 1]; equals 1 iff one single X_i is nonzero."""
    p = float(p)
    if not 0 < p <= 2:
        raise ParameterDomainError(f"p must lie in (0, 2], got {p}")
    q, _ = _abs_rescaled(batch)
    # M/V = (sum (|x|/M)^p)^(-1/p), scale-free by construction
    return float((q**p).sum() ** (-1.0 / p))


def darling_ratio(batch: SampleBatch) -> float:
    """max_i X_i^2 / sum X_i^2, in [1/n, 1]."""
    q, _ = _abs_rescaled(batch)
    return float(1.0 / (q * q).sum())


def sum_sq_ratio(batch: SampleBatch, alpha: float) -> float:
    """sum X_i^2 / V_{n,alpha}^2; at most 1 for alpha <= 2, exactly 1 at alpha = 2."""
    alpha = float(alpha)
    if not 0 < alpha <= 2:
        raise ParameterDomainError(f"alpha must lie in (0, 2], got {alpha}")
    q, _ = _abs_rescaled(batch)
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
    return _max_oscillation(y_path(path, np.arange(npts + 1) / npts), delta)


def _max_oscillation(y: np.ndarray, delta: float) -> float:
    """Largest max-minus-min of y over windows of delta times its len(y) - 1 mesh steps.

    y holds a path on an evenly spaced grid of [0, 1]; this is the modulus of
    continuity once the grid is evaluated, so one grid serves every delta.
    """
    w = int(np.floor(delta * (y.size - 1) + 1e-9))
    if w < 1:
        return 0.0
    size = w + 1
    # same centered window for both filters: each window max minus min is the
    # oscillation over one span of w mesh steps; every |t-s| <= delta pair on
    # the grid lies inside some such window
    hi = maximum_filter1d(y, size=size, mode="nearest")
    lo = minimum_filter1d(y, size=size, mode="nearest")
    return float((hi - lo).max())


def dan_transform(batch: SampleBatch, alpha: float) -> SampleBatch:
    """Elementwise sgn(X)|X|^(alpha/2), mapping tail index alpha into the normal domain."""
    alpha = float(alpha)
    if not 0 < alpha <= 2:
        raise ParameterDomainError(f"alpha must lie in (0, 2], got {alpha}")
    x = np.asarray(batch.values, dtype=float)
    out = np.sign(x) * np.abs(x) ** (alpha / 2.0)
    return SampleBatch(values=out, spec=batch.spec, n=batch.n)


def dan_criterion_curve(batch: SampleBatch, y_grid) -> np.ndarray:
    """Plug-in y^2 P(|X| > y) / E(X^2 1{|X| <= y}) on a grid of y values.

    Zero denominators yield +inf sentinels (never silent NaN). The curve
    decreasing toward 0 is the qualitative normal-domain signature.
    """
    yg = np.asarray(y_grid, dtype=float)
    if yg.size == 0:
        raise ParameterDomainError("empty y grid")
    if np.any(yg <= 0) or np.any(np.diff(yg) <= 0):
        raise ParameterDomainError("y grid must be positive and strictly increasing")
    ax = np.abs(np.asarray(batch.values, dtype=float))
    out = np.empty(yg.size)
    for i, y in enumerate(yg):
        tail = np.mean(ax > y)
        body = np.mean(np.where(ax <= y, ax * ax, 0.0))
        out[i] = np.inf if body == 0.0 else y * y * tail / body
    return out


class NormChain(NamedTuple):
    v_alpha: float
    v_one: float
    v_beta: float
    v_two: float


def norm_chain(batch: SampleBatch, alpha: float, beta: float) -> NormChain:
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
        v_alpha=p_norm(batch, alpha).value,
        v_one=p_norm(batch, 1.0).value,
        v_beta=p_norm(batch, beta).value,
        v_two=p_norm(batch, 2.0).value,
    )
    vals = np.array(chain)
    slack = 1e-10 * np.maximum(vals[:-1], vals[1:])
    if np.any(np.diff(vals) > slack):
        raise InternalConsistencyError(f"norm ordering violated beyond tolerance: {chain}")
    return chain
