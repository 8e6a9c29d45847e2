"""Partial sums, p-norms, and the interpolated self-normalized process.

The central object is Y_{n,p}(t) = S_[nt]/V_{n,p} + (nt - [nt]) X_{[nt]+1}/V_{n,p}
on [0,1], the continuous piecewise-linear interpolation of the normalized
partial sums, with the convention that the interpolation term vanishes at
t = 1. Heavy-tailed summands force two numerical choices here: prefix sums
are compensated for long samples (cancellation between huge opposite-sign
terms), and p-norms are computed max-rescaled (naive power sums overflow).

The interpolation term vanishes at every node, so Y(k/n) = S_k/V: the node
grid of Y is the prefix sums divided by V. Only V_{n,p} depends on p, so the
reductions a statistic needs of S_k are taken once per sample and shared by
its paths at every p, and each p divides only what it reads:

- the modulus of continuity of Y on the node grid is the largest range of
  S_k over the windows of each delta, divided by V: V > 0 does not depend
  on t. The ranges are taken once per sample and delta grid
  (`_max_oscillations` on S), and each p takes one division per delta;
- the EK functionals read max S_k, max |S_k| and |S_k| from the shared
  prefix and take per p only |S_k|/V and its two means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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


class _Prefix:
    """The reductions of one sample X_1..X_n that no p changes.

    One object is shared by every path that `ProcessPath.at_p` derives from
    the same sample. The prefix sums and the rescaled sample are taken at
    construction; the largest window ranges of S per delta grid, and the
    extremes of S_k and |S_k| for k = 1..n on first read.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.sums = partial_sums(values)
        self.rescaled = _Rescaled(values)
        self._ranges: dict[tuple, tuple[float, ...]] = {}

    @cached_property
    def sum_extremes(self) -> tuple[np.float64, np.float64, np.ndarray]:
        """(max S_k, max |S_k|, |S_k|) over k = 1..n."""
        s = self.sums[1:]
        a = np.abs(s)
        return s.max(), a.max(), a

    def ranges(self, deltas: tuple) -> tuple[float, ...]:
        """The largest range of S over the windows of each delta, once per delta grid."""
        ranges = self._ranges.get(deltas)
        if ranges is None:
            with np.errstate(over="ignore"):  # an overflowing range is `_divided_ranges`' to handle
                ranges = self._ranges[deltas] = _max_oscillations(self.sums, deltas)
        return ranges


@dataclass(frozen=True, eq=False)
class ProcessPath:
    """The interpolated process Y_{n,p} for one sample X_1..X_n, evaluable on [0,1].

    Holds the sample as a float64 array and the reductions every statistic
    of the path reads: the prefix sums S_0..S_n, the rescaled sample with its
    power sums, the normalizer V_{n,p}, and, on first use, the largest
    window ranges of S per delta and the extremes of S_k and |S_k|. Y on
    the node grid k/n is S_k/V. Of these only V_{n,p} depends on p: `at_p`
    gives the same sample's path at another p, sharing the rest, and each
    statistic divides by its own V last.
    """

    values: np.ndarray
    p: float
    sums: np.ndarray = field(init=False, repr=False)
    rescaled: _Rescaled = field(init=False, repr=False)
    v: float = field(init=False, repr=False)
    _prefix: _Prefix = field(init=False, repr=False)

    def __post_init__(self):
        self._share(_Prefix(np.asarray(self.values, dtype=float)))

    def _share(self, prefix: _Prefix) -> None:
        for name, value in (("values", prefix.values), ("sums", prefix.sums),
                            ("rescaled", prefix.rescaled), ("_prefix", prefix),
                            ("v", prefix.rescaled.norm(self.p))):
            object.__setattr__(self, name, value)
        if self.v == 0.0:
            raise DegenerateSampleError("all-zero sample: Y_{n,p} undefined (V = 0)")

    def at_p(self, p: float) -> ProcessPath:
        """Y_{n,p} of the same sample at another p, equal to `ProcessPath(self.values, p)` bit for bit.

        The prefix sums, the rescaled sample with its power sums and the
        p-independent reductions of the prefix are this path's own objects;
        only V_{n,p} is computed anew.
        """
        path = object.__new__(ProcessPath)
        object.__setattr__(path, "p", p)
        path._share(self._prefix)
        return path

    @property
    def n(self) -> int:
        return self.values.size


def _endpoint(path: ProcessPath) -> float:
    """Y_{n,p}(1) = S_n/V, the last node of the grid: `y_at(path, 1.0)` bit for bit."""
    return float(path.sums[-1] / path.v)


def _node_oscillations(path: ProcessPath, deltas: tuple) -> tuple[float, ...]:
    """The modulus of continuity of Y on the node grid for each delta, from the prefix's shared ranges."""
    prefix = path._prefix
    return _divided_ranges(prefix.sums, deltas, prefix.ranges(deltas), path.v)


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

    At t = 1 the interpolation term is zero by convention. The time is a
    float: n (k/n) != k at 35 of the 4 001 nodes k/n at n = 4 000 and at 175
    of the 16 001 at n = 16 000, and where it falls just below k the value
    is interpolated from S_{k-1}, so this function on the node grid is not
    S_k/V at every node. The scans read the node grid as S_k/V.
    """
    tg = np.asarray(grid, dtype=float)
    if tg.size == 0:
        raise ParameterDomainError("empty evaluation grid")
    if not (tg.min() >= 0.0 and tg.max() <= 1.0):  # a NaN min or max fails both
        raise ParameterDomainError("grid points must lie in [0, 1]")
    if (tg[1:] <= tg[:-1]).any():
        raise ParameterDomainError("grid must be strictly increasing")
    # nt = k + frac with k = [nt] capped at n: frac is 0 at k = n (t = 1), so
    # X_n stands in for the missing X_{n+1}
    n = path.n
    nt = n * tg
    ks = np.minimum(nt.astype(int), n)
    return (path.sums[ks] + (nt - ks) * path.values[np.minimum(ks, n - 1)]) / path.v


def _max_oscillations(y: np.ndarray, deltas) -> tuple[float, ...]:
    """Largest max-minus-min of y over windows of delta times its len(y) - 1 mesh steps.

    y holds a path on an evenly spaced grid of [0, 1]; this is the modulus of
    continuity once the grid is evaluated, reduced exactly over every
    window. Results come back in the order of `deltas`; a window below one
    mesh step gives 0.0, since no distinct grid pairs qualify.

    The window grows by doubling through the sorted widths. Window cover:
    for k <= K <= 2k, the windows of k points starting at j and at
    j + K - k overlap and together cover exactly the K points starting at
    j, so since max and min are idempotent, np.maximum and np.minimum of
    the two shifted arrays give the windows of K points, and hi[j] and lo[j]
    are the max and min of y[j:j + w + 1] without rounding.

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
    # mesh steps per window of each delta
    widths = [int(np.floor(d * (y.size - 1) + 1e-9)) for d in deltas]
    osc = dict.fromkeys(widths, 0.0)
    hi = lo = y
    k = 1
    for w in sorted(set(widths)):
        if w < 1:
            continue
        while k <= w:
            step = min(k, w + 1 - k)
            hi = np.maximum(hi[:-step], hi[step:])
            lo = np.minimum(lo[:-step], lo[step:])
            k += step
        osc[w] = float((hi - lo).max())
    return tuple(osc[w] for w in widths)


def _divided_ranges(sums: np.ndarray, deltas, ranges, v: float) -> tuple[float, ...]:
    """The modulus of continuity of Y = S/V per delta, from `ranges`, S's largest window ranges.

    V > 0 does not depend on t, so a window's range of Y is its range of S
    divided by V, and the largest range of Y is R/V with R the largest of S.
    `_max_oscillations` gives fl(R), the correctly rounded R, since fl is
    monotone; each value is then one division, fl(fl(R)/V). Where one is not
    finite, S holds a NaN or inf, or a range of S overflows where the range
    of Y need not, and the exact pass over S/V runs instead.
    """
    osc = tuple(r / v for r in ranges)
    if all(map(math.isfinite, osc)):
        return osc
    return _max_oscillations(sums / v, deltas)


@dataclass(frozen=True)
class EKFunctionals:
    """The four path functionals paired with the Brownian limit laws G1..G4."""

    max_sn: float
    max_abs_sn: float
    mean_sq: float
    mean_abs: float


def ek_functionals(path: ProcessPath) -> EKFunctionals:
    """max, max-abs, mean-square and mean-abs of S_k/V_{n,p} over k = 1..n.

    The extremes and |S_k| come from the path's shared prefix; only the
    divisions by V and the two means are taken per p. Each equals the
    reduction of s = S_k/V bit for bit: division is monotone, so
    max s = fl(max S_k / V) and max |s| = fl(max |S_k| / V) in value;
    |fl(S/V)| = fl(|S|/V), and s s = |s| |s|. Only a zero max of s may
    differ from fl(max S_k / V) in its sign, so it is taken from s itself.
    Each mean is np.mean's own arithmetic, the sum divided by the count,
    without its per-call overhead.
    """
    s_max, abs_max, abs_sums = path._prefix.sum_extremes
    a = abs_sums / path.v
    max_sn = float(s_max / path.v)
    if max_sn == 0.0:
        max_sn = float((path.sums[1:] / path.v).max())
    return EKFunctionals(
        max_sn=max_sn,
        max_abs_sn=float(abs_max / path.v),
        mean_sq=float((a * a).sum() / a.size),
        mean_abs=float(a.sum() / a.size),
    )
