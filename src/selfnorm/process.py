"""Partial sums, p-norms, and the interpolated self-normalized process.

The central object is Y_{n,p}(t) = S_[nt]/V_{n,p} + (nt - [nt]) X_{[nt]+1}/V_{n,p}
on [0,1], the continuous piecewise-linear interpolation of the normalized
partial sums, with the convention that the interpolation term vanishes at
t = 1. Heavy-tailed summands force two numerical choices here: prefix sums
are compensated for long samples (cancellation between huge opposite-sign
terms), and p-norms are computed max-rescaled (naive power sums overflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSampleError, NonFiniteSampleError, ParameterDomainError

__all__ = [
    "ProcessPath",
    "EKFunctionals",
    "partial_sums",
    "p_norm",
    "y_at",
    "y_path",
    "ek_functionals",
]

_COMPENSATE_FROM = 100_000
_BLOCK = 2048


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    # blockwise vector cumsum; the running carry across blocks is accumulated
    # with a Neumaier correction so long alternating-sign sums stay exact
    out = np.empty(x.size)
    carry = 0.0
    comp = 0.0
    for start in range(0, x.size, _BLOCK):
        seg = np.cumsum(x[start:start + _BLOCK])
        out[start:start + seg.size] = seg + (carry + comp)
        total = seg[-1]
        t = carry + total
        if abs(carry) >= abs(total):
            comp += (carry - t) + total
        else:
            comp += (total - t) + carry
        carry = t
    return out


def partial_sums(x) -> np.ndarray:
    """Left-to-right prefix sums S_0..S_n of the sample x, S_0 = 0."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ParameterDomainError("cannot build partial sums of an empty sample")
    sums = np.empty(x.size + 1)
    sums[0] = 0.0
    if x.size >= _COMPENSATE_FROM:
        sums[1:] = _compensated_cumsum(x)
    else:
        np.cumsum(x, out=sums[1:])
    return sums


def p_norm(x, p: float) -> float:
    """V_{n,p} via max-rescaling: V = M (sum (|X_i|/M)^p)^(1/p), M = max|X_i|."""
    p = float(p)
    if not 0 < p <= 2:
        raise ParameterDomainError(f"p must lie in (0, 2], got {p}")
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ParameterDomainError("cannot take the p-norm of an empty sample")
    ax = np.abs(x)
    m = float(ax.max())
    if not math.isfinite(m):  # max|x| is NaN or inf iff some value is
        raise NonFiniteSampleError(f"the sample holds a non-finite value (max |x| = {m})")
    if m == 0.0:
        # all-zero sample: flagged degenerate value, callers that need V > 0 raise
        return 0.0
    s = float(((ax / m) ** p).sum())
    try:
        return m * s ** (1.0 / p)
    except OverflowError:
        # Python ** raises past float range; IEEE inf is the right
        # degradation for norms of extreme heavy-tail draws
        return float("inf")


@dataclass(frozen=True, eq=False)
class ProcessPath:
    """The interpolated process Y_{n,p} for one sample X_1..X_n, evaluable on [0,1].

    Holds the sample as a float64 array and the two reductions every
    statistic of the path reads: the prefix sums S_0..S_n and the
    normalizer V_{n,p}.
    """

    values: np.ndarray
    p: float
    sums: np.ndarray = field(init=False, repr=False)
    v: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "sums", partial_sums(self.values))
        object.__setattr__(self, "v", p_norm(self.values, self.p))
        if self.v == 0.0:
            raise DegenerateSampleError("all-zero sample: Y_{n,p} undefined (V = 0)")

    @property
    def n(self) -> int:
        return self.values.size


def y_at(path: ProcessPath, t: float) -> float:
    """Y_{n,p}(t) at one point t in [0, 1]: `y_path` on the grid (t,).

    y_at(1) is the endpoint S_n/V exactly.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ParameterDomainError(f"t must lie in [0, 1], got {t}")
    return float(y_path(path, (t,))[0])


def y_path(path: ProcessPath, grid) -> np.ndarray:
    """Y_{n,p}(t) = S_[nt]/V + (nt - [nt]) X_{[nt]+1}/V on an increasing grid in [0, 1].

    At t = 1 the interpolation term is zero by convention.
    """
    tg = np.asarray(grid, dtype=float)
    if tg.size == 0:
        raise ParameterDomainError("empty evaluation grid")
    if not (tg.min() >= 0.0 and tg.max() <= 1.0):  # a NaN min or max fails both
        raise ParameterDomainError("grid points must lie in [0, 1]")
    if (tg[1:] <= tg[:-1]).any():
        raise ParameterDomainError("grid must be strictly increasing")
    n = path.n
    nt = n * tg
    ks = np.minimum(nt.astype(int), n)
    frac = nt - ks
    # frac is 0 at k = n (t = 1), so X_n stands in for the missing X_{n+1}
    return (path.sums[ks] + frac * path.values[np.minimum(ks, n - 1)]) / path.v


@dataclass(frozen=True)
class EKFunctionals:
    """The four path functionals paired with the Brownian limit laws G1..G4."""

    max_sn: float
    max_abs_sn: float
    mean_sq: float
    mean_abs: float


def ek_functionals(path: ProcessPath) -> EKFunctionals:
    """max, max-abs, mean-square and mean-abs of S_k/V_{n,p} over k = 1..n."""
    s = path.sums[1:] / path.v
    a = np.abs(s)
    return EKFunctionals(
        max_sn=float(s.max()),
        max_abs_sn=float(a.max()),
        mean_sq=float(np.mean(s * s)),
        mean_abs=float(a.mean()),
    )
