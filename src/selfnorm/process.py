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
from functools import cached_property, lru_cache

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


def _exponent(name: str, value) -> float:
    value = float(value)
    if not 0 < value <= 2:
        raise ParameterDomainError(f"{name} must lie in (0, 2], got {value}")
    return value


class _Rescaled:
    """|X_i|/M with M = max|X_i|, and its power sums S_e = sum (|X_i|/M)^e.

    The one place a sample is rescaled: V_{n,p} = M S_p^(1/p) and the three
    single-term ratios are all read from these sums, each computed once per
    exponent, so at alpha == p, S_alpha is S_p. An empty sample or a NaN or
    inf raises here; an all-zero sample has M = 0, V = 0.0, and no ratio
    (DegenerateSampleError). Each exponent must lie in (0, 2].
    """

    __slots__ = ("m", "q", "_sums")

    def __init__(self, x):
        q = np.abs(np.asarray(x, dtype=float))  # a fresh array, rescaled in place
        if q.size == 0:
            raise ParameterDomainError("cannot take the p-norm or a ratio of an empty sample")
        m = float(q.max())
        if not math.isfinite(m):  # max|x| is NaN or inf iff some value is
            raise NonFiniteSampleError(f"the sample holds a non-finite value (max |x| = {m})")
        if m != 0.0:
            q /= m
        self.m, self.q, self._sums = m, q, {}

    def power_sum(self, e: float) -> np.float64:
        if self.m == 0.0:
            raise DegenerateSampleError("all-zero sample")
        s = self._sums.get(e)
        if s is None:
            s = self._sums[e] = (self.q ** e).sum()
        return s

    def norm(self, p: float) -> float:
        p = _exponent("p", p)
        if self.m == 0.0:
            # all-zero sample: flagged degenerate value, callers that need V > 0 raise
            return 0.0
        s = float(self.power_sum(p))
        try:
            return self.m * s ** (1.0 / p)
        except OverflowError:
            # Python ** raises past float range; IEEE inf is the right
            # degradation for norms of extreme heavy-tail draws
            return float("inf")

    def max_ratio(self, p: float) -> float:
        p = _exponent("p", p)
        # M/V = S_p^(-1/p), scale-free by construction
        return float(self.power_sum(p) ** (-1.0 / p))

    def darling_ratio(self) -> float:
        return float(1.0 / self.power_sum(2.0))

    def sum_sq_ratio(self, alpha: float) -> float:
        alpha = _exponent("alpha", alpha)
        return float(self.power_sum(2.0) / self.power_sum(alpha) ** (2.0 / alpha))


def p_norm(x, p: float) -> float:
    """V_{n,p} via max-rescaling: V = M (sum (|X_i|/M)^p)^(1/p), M = max|X_i|."""
    return _Rescaled(x).norm(p)


@dataclass(frozen=True, eq=False)
class ProcessPath:
    """The interpolated process Y_{n,p} for one sample X_1..X_n, evaluable on [0,1].

    Holds the sample as a float64 array and the reductions every statistic
    of the path reads: the prefix sums S_0..S_n, the rescaled sample with its
    power sums, the normalizer V_{n,p}, and, on first use, Y on the node
    grid.
    """

    values: np.ndarray
    p: float
    sums: np.ndarray = field(init=False, repr=False)
    rescaled: _Rescaled = field(init=False, repr=False)
    v: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "sums", partial_sums(self.values))
        object.__setattr__(self, "rescaled", _Rescaled(self.values))
        object.__setattr__(self, "v", self.rescaled.norm(self.p))
        if self.v == 0.0:
            raise DegenerateSampleError("all-zero sample: Y_{n,p} undefined (V = 0)")

    @property
    def n(self) -> int:
        return self.values.size

    @cached_property
    def y_nodes(self) -> np.ndarray:
        """Y_{n,p}(k/n) for k = 0..n, read-only: `y_path(self, np.arange(n + 1) / n)` bit for bit."""
        y = _evaluate(self, *_node_index(self.n))
        y.flags.writeable = False
        return y


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

    At t = 1 the interpolation term is zero by convention. On the node grid
    t = k/n the value is not S_k/V at every node: n (k/n) != k in floating
    point at 35 of the 4 001 nodes at n = 4 000 and at 175 of the 16 001 at
    n = 16 000, and where it falls just below k the value is interpolated
    from S_{k-1}. `ProcessPath.y_nodes` does this arithmetic with a
    node-grid index cached per n, so it equals this function on that grid
    bit for bit.
    """
    tg = np.asarray(grid, dtype=float)
    if tg.size == 0:
        raise ParameterDomainError("empty evaluation grid")
    if not (tg.min() >= 0.0 and tg.max() <= 1.0):  # a NaN min or max fails both
        raise ParameterDomainError("grid points must lie in [0, 1]")
    if (tg[1:] <= tg[:-1]).any():
        raise ParameterDomainError("grid must be strictly increasing")
    return _evaluate(path, *_grid_index(path.n, tg))


def _grid_index(n: int, tg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (k, frac, j) with nt = k + frac, k = [nt] capped at n, and j = min(k, n - 1):
    # frac is 0 at k = n (t = 1), so X_n stands in for the missing X_{n+1}
    nt = n * tg
    ks = np.minimum(nt.astype(int), n)
    return ks, nt - ks, np.minimum(ks, n - 1)


@lru_cache(maxsize=8)
def _node_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the node grid's index depends on n alone, so every replication shares it
    index = _grid_index(n, np.arange(n + 1) / n)
    for a in index:
        a.flags.writeable = False
    return index


def _evaluate(path: ProcessPath, ks: np.ndarray, frac: np.ndarray, js: np.ndarray) -> np.ndarray:
    return (path.sums[ks] + frac * path.values[js]) / path.v


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
