"""Reference limit laws and statistical machinery.

Exact laws of four Brownian path functionals on [0, 1]: G1 (sup W, the
reflection closed form), G2 (sup |W|, theta and reflection series), G3 (the
integral of W^2, the Cameron-Martin series) and G4 (the integral of |W|,
Kac's Airy series inverted on a Bromwich line); a seeded Monte Carlo
simulator of the same four functionals, kept as an independent reference;
one- and two-sample Kolmogorov-Smirnov distances, empirical characteristic
functions, the Brownian dispersion matrix min(t_i, t_j), and numeric
evaluation of the limiting joint characteristic function

    chf(u, w) = exp(c(u, w)),
    c(u, w) = 2 r int_0^inf (exp(i w t^(p/a) y^p) cos(u t^(1/a) y) - 1) y^(-a-1) dy

for symmetric Paretian tails with Levy density constant r on each side and
p > alpha. The cosine-only part -2 r Cal(a) |u t^(1/a)|^a has a closed
form; the rest is the whole integral minus that closed form. On [0, y0],
where both phases stay below one radian, the integrand's double power
series is integrated term by term; on [y0, cutoff] phase-bounded
Gauss-Legendre panels take over; beyond the cutoff Y, -y^(-a-1) integrates
to -Y^(-a)/a and the oscillatory part closes with integration-by-parts
asymptotics. A stationary point of the phase beyond the affordable cutoff
gets a window of its own. The cutoff is refined until successive estimates
agree to the requested relative tolerance.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import ai_zeros, airy, binom, erfc, factorial, ndtr, smirnovi

from ._files import write_text_atomic
from .errors import InternalConsistencyError, OracleMissingError, ParameterDomainError
from .families import FamilySpec
from .rng import SeededStream

__all__ = [
    "ReferenceLaw",
    "std_normal_law",
    "g1_cdf",
    "g2_cdf",
    "g1_law",
    "g2_law",
    "g3_law",
    "g4_law",
    "brownian_functional_oracle",
    "save_oracle",
    "load_oracle",
    "ks_statistic",
    "ks_two_sample",
    "ks_critical_value",
    "empirical_chf",
    "tail_constants",
    "chf_exponent",
    "limit_chf",
    "dispersion_matrix",
]


# ---------------------------------------------------------------------------
# reference laws


@dataclass(frozen=True, eq=False)
class ReferenceLaw:
    """An evaluable CDF: a closed form, a series, or a simulated table."""

    kind: str
    cdf_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    table: np.ndarray | None = field(default=None, repr=False)
    meta: dict | None = None

    def cdf(self, x):
        return self.cdf_fn(np.asarray(x, dtype=float))

    def mean_and_stderr(self) -> tuple[float, float]:
        if self.table is None:
            raise ParameterDomainError(f"{self.kind} is not table-backed")
        t = self.table
        return float(t.mean()), float(t.std(ddof=1) / math.sqrt(t.size))


def std_normal_law() -> ReferenceLaw:
    return ReferenceLaw(kind="StdNormal", cdf_fn=ndtr)


def g1_cdf(x) -> np.ndarray:
    """P(sup W < x) = 2 Phi(x) - 1 for x > 0 (reflection principle), else 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, 2.0 * ndtr(x) - 1.0, 0.0)


# terms kept of each G2 series; the first one dropped is below 1e-100 on its
# side of x = 1, and the two series agree to 6e-16 on [0.5, 3]
_G2_TERMS = 12


def g2_cdf(x) -> np.ndarray:
    """P(sup |W| < x) for x > 0, else 0.

    Below x = 1 the theta series (4/pi) sum_k (-1)^k/(2k+1)
    exp(-(2k+1)^2 pi^2/(8 x^2)); from x = 1 on the reflection series
    1 - 4 sum_k (-1)^k Phibar((2k+1) x), which stays exact where the theta
    series loses every digit to cancellation (it gives 0.997 at x = 200).
    """
    x = np.asarray(x, dtype=float)
    k = np.arange(_G2_TERMS)
    sign = (-1.0) ** k
    out = np.zeros_like(x, dtype=float)
    low = (x > 0) & (x < 1.0)
    if np.any(low):
        with np.errstate(divide="ignore"):  # x^2 underflows below 1e-154
            expo = np.exp(-((2 * k + 1) ** 2) * np.pi**2 / (8.0 * x[low][..., None] ** 2))
        out[low] = (4.0 / np.pi) * (sign / (2 * k + 1) * expo).sum(axis=-1)
    high = x >= 1.0
    if np.any(high):
        out[high] = 1.0 - 4.0 * (sign * ndtr(-(2 * k + 1) * x[high][..., None])).sum(axis=-1)
    return np.clip(out, 0.0, 1.0)


# G3 = int_0^1 W^2 has the Laplace transform (cosh sqrt(2s))^(-1/2) (Cameron
# and Martin 1944). Expanded in powers of e^(-2 sqrt(2s)) and inverted term by
# term it gives F(x) = sqrt(2) sum_j binom(-1/2, j) erfc((4j + 1) / (2 sqrt(2x))).
# 32 terms are exact to rounding below x = 32 (8 are off by 5.7e-4 on [0, 30]),
# and 1 - F(32) < 1e-16.
_G3_TOP = 32.0
_G3_J = np.arange(32)
_G3_COEF = math.sqrt(2.0) * binom(-0.5, _G3_J)


def _g3_cdf(x: np.ndarray) -> np.ndarray:
    out = np.where(x >= _G3_TOP, 1.0, 0.0)
    mid = (x > 0) & (x < _G3_TOP)
    if np.any(mid):
        out[mid] = (_G3_COEF * erfc((4 * _G3_J + 1) / (2.0 * np.sqrt(2.0 * x[mid][..., None])))).sum(axis=-1)
    return np.clip(out, 0.0, 1.0)


# G4 = int_0^1 |W| has the Laplace transform (Kac 1946)
#     L(s) = E exp(-s G4) = sum_j d_j exp(-2^(-1/3) a_j s^(2/3)),
#     d_j = (1 + 3 int_0^{a_j} Ai(-t) dt) / (3 a_j Ai(-a_j)),
# with -a_j the zeros of Ai'. F(x) = (e^{cx}/pi) int_0^inf Re(e^{itx} L(c+it)/(c+it)) dt
# on the line Re s = c. There |s| >= c, so _G4_ZEROS terms of L suffice (the
# last one's exponent is at least 54). A trapezoid rule in t with step
# h = 2 pi c / 36 aliases F(x + 36/c) e^(-36) onto F(x) (Abate and Whitt 1992),
# and on the x grid of step 2 pi / (N h) its N-node sum is one FFT. F is kept
# on [0, _G4_TOP], and P(G4 > 6) <= P(sup |W| > 6) < 4e-9.
_G4_ZEROS = 60
_G4_LINE = 2.0
_G4_NODES = 2**14
_G4_TOP = 6.0


def _kac_laplace(s: np.ndarray) -> np.ndarray:
    """E exp(-s G4) at complex s with Re s > 0, from _G4_ZEROS terms of Kac's series."""
    _, ap, ai_at_ap, _ = ai_zeros(_G4_ZEROS)
    a = -ap
    # int_0^{a_j} Ai(-t) dt by the 16-node Gauss-Legendre rule on 25 equal
    # panels, within 7e-14 of 800-node Gauss-Legendre; scipy.special.itairy is
    # off by up to 2.9e-7 here, and scipy's own 400-node rule loads 6 MB of
    # linear algebra into every process
    u = ((np.arange(25)[:, None] + 0.5 * (_GL_NODES + 1.0)) / 25.0).ravel()
    ai_int = a * (airy(-a[:, None] * u)[0] @ np.tile(_GL_WEIGHTS / 50.0, 25))
    d = (1.0 + 3.0 * ai_int) / (3.0 * a * ai_at_ap)
    s23 = s ** (2.0 / 3.0)
    out = np.zeros(s.shape, dtype=complex)
    # one term at a time: an (s, zeros) matrix would hold 60 copies of s
    for a_j, d_j in zip(a, d):
        out += d_j * np.exp(-(2.0 ** (-1.0 / 3.0)) * a_j * s23)
    return out


@functools.lru_cache(maxsize=None)
def _g4_table() -> tuple[np.ndarray, np.ndarray]:
    """(x, F(x)) of G4 on an even grid of [0, _G4_TOP], built once per process."""
    c = _G4_LINE
    h = 2.0 * math.pi * c / 36.0
    s = c + 1j * h * np.arange(_G4_NODES)
    g = _kac_laplace(s) / s
    g[0] *= 0.5  # trapezoid end weight at t = 0
    dx = 2.0 * math.pi / (_G4_NODES * h)
    x = dx * np.arange(int(_G4_TOP / dx) + 2)
    f = h / math.pi * np.exp(c * x) * (np.fft.ifft(g) * _G4_NODES)[:x.size].real
    # rounding leaves wiggles of up to 4e-12, amplified by e^{cx}
    f = np.clip(np.maximum.accumulate(f), 0.0, 1.0)
    f[0] = 0.0  # G4 > 0 almost surely
    for arr in (x, f):  # every caller shares the cached arrays
        arr.setflags(write=False)
    return x, f


def _g4_cdf(x: np.ndarray) -> np.ndarray:
    grid, f = _g4_table()
    return np.interp(x, grid, f, left=0.0, right=1.0)


def g1_law() -> ReferenceLaw:
    return ReferenceLaw(kind="G1", cdf_fn=g1_cdf)


def g2_law() -> ReferenceLaw:
    return ReferenceLaw(kind="G2", cdf_fn=g2_cdf)


def g3_law() -> ReferenceLaw:
    """The exact law of int_0^1 W^2 (Cameron-Martin series)."""
    return ReferenceLaw(kind="G3", cdf_fn=_g3_cdf)


def g4_law() -> ReferenceLaw:
    """The exact law of int_0^1 |W| (Kac's series, Bromwich inversion by FFT)."""
    return ReferenceLaw(kind="G4", cdf_fn=_g4_cdf)


_ORACLE_KINDS = ("G1", "G2", "G3", "G4")
# Paths are simulated in blocks of about 2**17 float64 values (1 MiB), so the
# block stays in L2 through sampling, cumsum and reduction. The table does not
# depend on the block height: Philox fills the rows in C order however many
# rows one call asks for, and each row's cumsum and reduction read only that row.
_ORACLE_BLOCK_VALUES = 2**17


def _table_law(kind: str, table: np.ndarray, meta: dict) -> ReferenceLaw:
    table = np.sort(np.asarray(table, dtype=float))

    def cdf_fn(x, _t=table):
        return np.searchsorted(_t, x, side="right") / _t.size

    return ReferenceLaw(kind=kind, cdf_fn=cdf_fn, table=table, meta=meta)


def brownian_functional_oracle(kind: str, paths: int, steps: int, stream: SeededStream) -> ReferenceLaw:
    """Empirical CDF table of a Brownian path functional over simulated paths.

    kind: G1 = sup W, G2 = sup |W|, G3 = int W^2, G4 = int |W|, each on [0,1]
    via Gaussian increments of variance 1/steps and right-endpoint Riemann
    sums. Bit-reproducible given (kind, paths, steps, stream).
    """
    if kind not in _ORACLE_KINDS:
        raise ParameterDomainError(f"oracle kind must be one of {_ORACLE_KINDS}, got {kind!r}")
    if paths < 1 or steps < 1:
        raise ParameterDomainError("paths and steps must be >= 1")
    g = stream.generator()
    sd = 1.0 / math.sqrt(steps)
    vals = np.empty(paths)
    block = np.empty((max(1, _ORACLE_BLOCK_VALUES // steps), steps))
    for done in range(0, paths, block.shape[0]):
        w = block[:paths - done]
        g.standard_normal(out=w)
        w *= sd
        np.cumsum(w, axis=1, out=w)
        if kind == "G1":
            v = w.max(axis=1)
        elif kind == "G2":
            v = np.abs(w, out=w).max(axis=1)
        elif kind == "G3":
            v = np.square(w, out=w).mean(axis=1)
        else:
            v = np.abs(w, out=w).mean(axis=1)
        vals[done:done + w.shape[0]] = v
    meta = {
        "kind": kind,
        "paths": int(paths),
        "steps": int(steps),
        "master_seed": int(stream.master_seed),
        "stream_index": int(stream.stream_index),
        "built": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    return _table_law(kind, vals, meta)


_ORACLE_FORMAT = "selfnorm-oracle v1"


def save_oracle(law: ReferenceLaw, path) -> None:
    """Versioned flat text file: header, then sorted (x, cdf) pairs per line; written atomically."""
    if law.table is None or law.meta is None:
        raise ParameterDomainError("only table-backed oracle laws can be saved")
    t = law.table
    m = t.size
    lines = [f"# {_ORACLE_FORMAT}"]
    for key in ("kind", "paths", "steps", "master_seed", "stream_index", "built"):
        if key in law.meta:
            lines.append(f"# {key}: {law.meta[key]}")
    lines.extend(f"{x!r} {(i + 1) / m!r}" for i, x in enumerate(t.tolist()))
    lines.append("")
    write_text_atomic(path, "\n".join(lines))


def load_oracle(path) -> ReferenceLaw:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except FileNotFoundError:
        raise OracleMissingError(
            f"oracle table {path} not found; build it with `build_oracles`"
        ) from None
    if not raw or raw[0] != f"# {_ORACLE_FORMAT}":
        raise OracleMissingError(f"{path} is not a {_ORACLE_FORMAT} table")
    meta: dict = {}
    body_at = 1
    for line in raw[1:]:
        if not line.startswith("# "):
            break
        body_at += 1
        key, _, val = line[2:].partition(": ")
        meta[key] = int(val) if val.lstrip("-").isdigit() else val
    table = np.array([float(line.split()[0]) for line in raw[body_at:] if line])
    if table.size == 0 or "kind" not in meta:
        raise OracleMissingError(f"{path} is truncated or missing its header")
    if meta.get("paths") != table.size:
        raise OracleMissingError(
            f"{path} holds {table.size} rows but its header declares paths: {meta.get('paths')}")
    return _table_law(meta["kind"], table, meta)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery


def ks_statistic(sample, law: ReferenceLaw) -> float:
    """One-sample sup distance between the empirical CDF and a reference law."""
    s = np.sort(np.asarray(sample, dtype=float))
    m = s.size
    if m == 0:
        raise ParameterDomainError("empty sample")
    f = np.asarray(law.cdf(s), dtype=float)
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - f), np.max(f - (i - 1) / m)))


def ks_two_sample(a, b) -> float:
    """Two-sample sup distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ParameterDomainError("empty sample")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ks_critical_value(reps: int, level: float) -> float:
    """The distance the one-sample KS statistic of `reps` draws exceeds with probability <= `level`.

    The draws come from the reference law itself. Each one-sided Smirnov
    distance gets level / 2 (`scipy.special.smirnovi`), so by the union
    bound the two-sided distance exceeds the value with probability at most
    `level`; the exact two-sided level is smaller only by the chance that
    both one-sided distances exceed it.
    """
    if not (reps >= 1 and 0.0 < level < 1.0):
        raise ParameterDomainError(f"need reps >= 1 and level in (0, 1), got {reps!r}, {level!r}")
    return float(smirnovi(reps, level / 2.0))


# ---------------------------------------------------------------------------
# characteristic functions


def empirical_chf(samples, point) -> complex:
    """(1/m) sum exp(i (u a_j + w b_j)) over sample pairs (a_j, b_j)."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ParameterDomainError("empty sample")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterDomainError(f"expected pairs of shape (m, 2), got {arr.shape}")
    u, w = float(point[0]), float(point[1])
    return complex(np.exp(1j * (u * arr[:, 0] + w * arr[:, 1])).mean())


def tail_constants(spec: FamilySpec) -> float:
    """Levy density constant r of a declared family.

    r is defined by density(x) ~ r x^(-alpha-1) as x -> +inf (equivalently
    alpha * lim x^alpha P(X > x)). Every family here is symmetric, so the
    left tail has the same constant.
    """
    a = spec.alpha
    if spec.kind == "SymStable":
        if a >= 2:
            raise ParameterDomainError("alpha = 2 stable is Gaussian: no Paretian tail")
        r = _gamma(a + 1.0) * math.sin(math.pi * a / 2.0) / math.pi
    elif spec.kind == "SymPareto":
        r = a / 2.0
    elif spec.kind == "StudentT":
        r = _gamma((a + 1.0) / 2.0) * a ** (a / 2.0) / (math.sqrt(math.pi) * _gamma(a / 2.0))
    else:
        raise ParameterDomainError(f"{spec.kind} has no Paretian tail")
    return float(r)


# the oscillatory quadrature behind limit_chf
_REL_TOL = 1e-10  # agreement of successive refinements
_PHASE_PER_PANEL = 1.5  # largest phase change across one panel
_GROWTH_PER_PANEL = 0.25  # largest panel width relative to its left edge
_CUTOFF_FLOOR = 12.0  # cutoff of the first pass
_IBP_PHASE_FLOOR = 40.0  # least |phase'| y at the cutoff for the tail expansion
_IBP_TERMS = 6  # integration-by-parts orders summed in the tail expansion
_MAX_REFINEMENTS = 7  # passes, each doubling the cutoff
_PANEL_BUDGET = 300_000


def _cos_tail_const(alpha: float) -> float:
    # -int_0^inf (cos y - 1) y^(-a-1) dy = pi / (2 Gamma(1+a) sin(pi a/2))
    return math.pi / (2.0 * _gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))


def _j_closed_w_only(beta: float, alpha: float, p: float) -> complex:
    # int_0^inf (e^{i beta y^p} - 1) y^(-a-1) dy by substitution z = beta y^p
    b0 = alpha / p
    return (1.0 / p) * _gamma(-b0) * beta**b0 * complex(math.cos(math.pi * b0 / 2.0), -math.sin(math.pi * b0 / 2.0))


def _j_single_freq(delta: float, alpha: float) -> complex:
    # int_0^inf (e^{i delta y} - 1) y^(-a-1) dy for 0 < a < 1
    if delta == 0.0:
        return 0.0 + 0.0j
    mag = _gamma(-alpha) * abs(delta) ** alpha
    ph = math.pi * alpha / 2.0
    val = mag * complex(math.cos(ph), -math.sin(ph))
    return val if delta > 0 else val.conjugate()


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_panels(f, edges: np.ndarray) -> complex:
    # fixed-order Gauss-Legendre on a batch of panels, fully vectorized
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    half = 0.5 * (b - a)
    y = 0.5 * (a + b) + half * _GL_NODES[None, :]
    vals = f(y)
    return complex((vals * _GL_WEIGHTS[None, :] * half).sum())


# terms kept of the origin series, in powers of beta y^p and of gamma^2 y^2
_SERIES_K = 30
_SERIES_J = 15


def _origin_series(beta: float, gamma: float, alpha: float, p: float, y0: float) -> complex:
    """int_0^y0 (e^{i beta y^p} cos(gamma y) - 1) y^(-a-1) dy, integrated termwise.

    Expanding both factors and integrating each y^(k p + 2j - a - 1) gives

        y0^(-a) sum_{(k, j) != (0, 0)} (i x)^k / k! (-g^2)^j / (2j)! / e_kj,

    with x = beta y0^p, g = gamma y0 and e_kj = k p + 2j - a. Every e_kj is at
    least e_min = min(p - a, 2 - a) > 0, since p > a and a < 2. The caller's
    y0 makes x <= 1 and g <= 1/2, so a term is at most
    y0^(-a) / (k! (2j)! 4^j e_min). With sum_{k >= K} 1/k! < 2 / K!,
    sum_j 1 / ((2j)! 4^j) = cosh(1/2) < 1.13 and sum_k 1/k! = e, the terms
    dropped at k >= _SERIES_K or j >= _SERIES_J sum to less than
    y0^(-a) / e_min (2.26 / 30! + 2 e / (30! 4^15)) < 1e-32 y0^(-a) / e_min.
    """
    k = np.arange(_SERIES_K)[:, None]
    j = np.arange(_SERIES_J)[None, :]
    terms = ((1j * beta * y0**p) ** k / factorial(k) * (-((gamma * y0) ** 2)) ** j
             / factorial(2 * j) / (k * p + 2 * j - alpha))
    terms[0, 0] = 0.0
    return complex(terms.sum()) * y0 ** (-alpha)


def _head_edges(y_lo: float, y_hi: float, beta: float, gamma: float, p: float) -> np.ndarray:
    # panel edges keeping both total phase and envelope variation small
    edges = [y_lo]
    y = y_lo
    while y < y_hi:
        dphi = p * beta * y ** (p - 1.0) + gamma
        step = min(_PHASE_PER_PANEL / dphi, _GROWTH_PER_PANEL * y) if dphi > 0 \
            else _GROWTH_PER_PANEL * y
        y = min(y + step, y_hi)
        edges.append(y)
    return np.array(edges)


def _ibp_tail(coef: complex, sign: float, beta: float, gamma: float,
              alpha: float, p: float, y0: float) -> tuple[complex, float]:
    """Integration-by-parts tail of coef * int_{y0}^inf e^{i phi} y^(-a-1) dy.

    phi(y) = beta y^p + sign * gamma y. Iterates B_{j+1} = i (B_j / phi')'
    symbolically: each B_j is a sum of c * y^e / phi'^m terms, closed under
    differentiation since phi'' = (p - 1)(phi' - sign gamma) / y.
    Returns (value, error estimate). The omitted remainder is
    int_{y0}^inf B_n e^{i phi} dy, n = _IBP_TERMS; each order multiplies
    |B_j| by at least y^(-min(p, 1)) at large y (phi' tends to p beta
    y^(p-1) or to sign gamma), so |B_n| y0 / (a + n min(p, 1)) bounds it
    without using the oscillation.
    """
    sg = sign * gamma
    phi = beta * y0**p + sg * y0
    dphi = p * beta * y0 ** (p - 1.0) + sg

    def over_dphi(terms):
        return {(e, m + 1): c for (e, m), c in terms.items()}

    def ev(terms):
        return sum(c * y0**e / dphi**m for (e, m), c in terms.items())

    e_iphi = complex(math.cos(phi), math.sin(phi))
    terms: dict = {(-alpha - 1.0, 0): 1.0 + 0.0j}
    total = 0.0 + 0.0j
    for _ in range(_IBP_TERMS):
        quot = over_dphi(terms)
        total += 1j * ev(quot) * e_iphi
        nxt: dict = {}
        for (e, m), c in quot.items():
            nxt[(e - 1.0, m)] = nxt.get((e - 1.0, m), 0.0) + 1j * c * (e - m * (p - 1.0))
            nxt[(e - 1.0, m + 1)] = nxt.get((e - 1.0, m + 1), 0.0) + 1j * c * m * (p - 1.0) * sg
        terms = nxt
    err = abs(ev(terms)) * y0 / (alpha + _IBP_TERMS * min(p, 1.0))
    return coef * total, abs(coef) * err


# largest integration-by-parts expansion parameter, max(1/(y |psi'|),
# |psi''| / psi'^2), allowed at the edges of the stationary-point window
_WINDOW_IBP_RATIO = 1e-3


def _minus_branch_across(beta: float, gamma: float, alpha: float, p: float, ystat: float,
                         cutoff: float) -> tuple[complex, float]:
    """0.5 int_cutoff^inf e^{i psi} y^(-a-1) dy, psi = beta y^p - gamma y, for cutoff < ystat.

    The window [y1, y2] around the stationary point ystat is integrated
    directly, on panels whose phase change is bounded through the local
    curvature; beyond y2 the integration-by-parts tail applies, and on
    [cutoff, y1] the difference of the tails at its two ends. The edges are
    the nearest points, on a doubling grid, where the expansion parameter
    falls to _WINDOW_IBP_RATIO; the window reaches down to the cutoff when no
    such point lies above it. In units of ystat, with lam = gamma ystat and
    q = p - 1, psi'(x ystat) = gamma (x^q - 1); the window spans of order
    1 / _WINDOW_IBP_RATIO radians of phase, or |q| lam when that is smaller,
    so its cost does not grow with lam. Returns (value, error estimate).
    """
    lam = gamma * ystat
    q = p - 1.0

    def ratio(x: float) -> float:
        d1 = abs(x**q - 1.0)
        return max(1.0, abs(q) * x**q / d1) / (lam * x * d1)

    step = 1.0 / math.sqrt(abs(q) * lam)  # psi'' (step ystat)^2 = 1
    d = step
    while ratio(1.0 + d) > _WINDOW_IBP_RATIO:
        d *= 2.0
    y2 = ystat * (1.0 + d)
    d = step
    while 1.0 - d > cutoff / ystat and ratio(1.0 - d) > _WINDOW_IBP_RATIO:
        d *= 2.0
    y1 = max(cutoff, ystat * (1.0 - d))

    edges = [y1]
    y = y1
    while y < y2:
        # a panel of width h changes the phase by about |psi'| h + |psi''| h^2 / 2
        d1 = abs(p * beta * y**q - gamma)
        d2 = abs(p * q * beta * y ** (q - 1.0))
        step = _PHASE_PER_PANEL / (d1 + math.sqrt(0.5 * d2 * _PHASE_PER_PANEL))
        y = min(y + min(step, _GROWTH_PER_PANEL * y), y2)
        edges.append(y)

    def f(y):
        th = beta * y**p - gamma * y
        return 0.5 * (np.cos(th) + 1j * np.sin(th)) * y ** (-alpha - 1.0)

    total = _gl_panels(f, np.array(edges))
    ends = ((y2, 1.0),) if y1 == cutoff else ((y2, 1.0), (cutoff, 1.0), (y1, -1.0))
    err = 0.0
    for y_end, side in ends:
        v, e = _ibp_tail(0.5, -1.0, beta, gamma, alpha, p, y_end)
        total += side * v
        err += e
    return total, err


def _j_quad_once(beta: float, gamma: float, alpha: float, p: float,
                 cutoff: float) -> tuple[complex, float, float]:
    def f(y):
        # e^(i th) cos(gy) - 1 with e^(i th) - 1 = -2 sin^2(th/2) + i sin th
        # and cos(gy) - 1 = -2 sin^2(gy/2), cancellation-free near 0
        th = beta * y**p
        osc = -2.0 * np.sin(0.5 * th) ** 2 + 1j * np.sin(th)
        return (osc * np.cos(gamma * y) - 2.0 * np.sin(0.5 * gamma * y) ** 2) * y ** (-alpha - 1.0)

    # the minus-frequency piece e^{i(beta y^p - gamma y)} has a stationary
    # point at ystat with contribution ~ 0.5 sqrt(2 pi / phi'') ystat^(-a-1);
    # if negligible, book it as tail error; if affordable, integrate through
    # it; otherwise keep the cutoff well below it and integrate that piece
    # alone across a window around ystat (_minus_branch_across)
    hump_err = 0.0
    across = False
    try:
        ystat = (gamma / (p * beta)) ** (1.0 / (p - 1.0))
    except OverflowError:
        ystat = math.inf  # stationary point beyond any cutoff: hump vanishes
    if math.isfinite(ystat) and ystat > 0:
        # log space: the direct product inf * 0 -> nan for extreme ystat
        log_ystat = math.log(ystat)
        log_phi2 = math.log(p * abs(p - 1.0) * beta) + (p - 2.0) * log_ystat
        log_hump = (math.log(0.5) + 0.5 * (math.log(2.0 * math.pi) - log_phi2)
                    - (alpha + 1.0) * log_ystat)
        hump = math.exp(log_hump) if log_hump < 700.0 else math.inf
        scale0 = max(_cos_tail_const(alpha) * gamma**alpha,
                     abs(_j_closed_w_only(beta, alpha, p)), 1e-6)
        if hump <= 0.01 * _REL_TOL * scale0 and cutoff < ystat / 4.0:
            hump_err = hump
        else:
            through = max(cutoff, 4.0 * ystat)
            panels = (beta * through**p + 2.0 * gamma * through) / _PHASE_PER_PANEL
            if panels <= 0.9 * _PANEL_BUDGET:
                cutoff = through
            else:
                across = True
                cutoff = min(cutoff, ystat / 4.0)
    # both exponential tail pieces must oscillate fast enough at the cutoff
    # for the integration-by-parts asymptotics
    while cutoff < 1e12:
        d_plus = p * beta * cutoff ** (p - 1.0) + gamma
        d_minus = abs(p * beta * cutoff ** (p - 1.0) - gamma)
        if min(d_plus, d_minus) * cutoff >= _IBP_PHASE_FLOOR:
            break
        if across and 2.0 * cutoff > ystat / 4.0:
            break
        cutoff *= 2.0

    n_panels = (beta * cutoff**p + 2.0 * gamma * cutoff) / _PHASE_PER_PANEL \
        + 2.0 * math.log(max(cutoff, 2.0)) / math.log1p(_GROWTH_PER_PANEL)
    if n_panels > _PANEL_BUDGET:
        raise InternalConsistencyError(
            f"oscillatory quadrature needs ~{n_panels:.0f} panels at "
            f"beta={beta:g}, gamma={gamma:g}, alpha={alpha:g}, p={p:g}; "
            "parameters are too extreme for the tail expansion")

    try:
        bturn = beta ** (-1.0 / p)
    except OverflowError:
        bturn = math.inf  # beta phase turns on beyond any relevant scale
    # below y0 both phases stay under one radian: the origin series converges
    y0 = min(1.0, cutoff, bturn, 0.5 / gamma)
    total = _origin_series(beta, gamma, alpha, p, y0)
    total += _gl_panels(f, _head_edges(y0, cutoff, beta, gamma, p))

    # beyond the cutoff, -int_Y^inf y^(-a-1) dy = -Y^(-a)/a; and j leaves out
    # the cosine-only int_0^inf (cos(gy) - 1) y^(-a-1) dy = -C(a) g^a
    total += _cos_tail_const(alpha) * gamma**alpha - cutoff ** (-alpha) / alpha

    err = hump_err
    for coef, sign in ((0.5, 1.0), (0.5, -1.0)):
        if across and sign < 0:
            v, e = _minus_branch_across(beta, gamma, alpha, p, ystat, cutoff)
        else:
            v, e = _ibp_tail(coef, sign, beta, gamma, alpha, p, cutoff)
        total += v
        err += e
    return total, err, cutoff


def _cross_bound(beta: float, gamma: float, alpha: float, p: float) -> float:
    # rigorous bound on |int (e^{i beta y^p} - 1)(cos(gamma y) - 1) y^(-a-1) dy|
    # from |e^{i th} - 1| <= min(|th|, 2) and |cos th - 1| <= min(th^2/2, 2),
    # integrated piecewise across the two phase turn-on scales (log space: the
    # direct powers overflow long before the bound stops being meaningful)
    lb = math.log(beta)
    lg = math.log(gamma)
    l_yb = -lb / p

    def ex(x: float) -> float:
        return math.inf if x > 700.0 else math.exp(x)

    if l_yb <= -lg:
        head = ex(2.0 * lg + (2.0 - alpha) * l_yb) / (2.0 * (p + 2.0 - alpha))
        mid = ex(alpha * lg) / (2.0 - alpha)
        tail = 4.0 * ex(alpha * lg) / alpha
    else:
        head = ex(lb - (p - alpha) * lg) / (2.0 * (p + 2.0 - alpha))
        mid = 2.0 * ex(alpha / p * lb) / (p - alpha)
        tail = 4.0 * ex(alpha / p * lb) / alpha
    return head + mid + tail


def _j_quad(beta: float, gamma: float, alpha: float, p: float) -> complex:
    # j is homogeneous of degree a: j(beta, gamma) = k^a j(beta / k^p, gamma / k).
    # The cutoff floor and ceiling are sized for phases that turn on by
    # y ~ 1, so slower phases are first rescaled to turn on there (the
    # rescaled k is 1, so this recurses once); a w phase that underflows in
    # the rescaling contributes nothing
    k = max(gamma, beta ** (1.0 / p))
    if k < 1.0:
        b = (beta ** (1.0 / p) / k) ** p
        return k**alpha * _j_quad(b, gamma / k, alpha, p) if b > 0.0 else 0j
    closed = _j_closed_w_only(beta, alpha, p)
    scale = max(abs(closed), _cos_tail_const(alpha) * gamma**alpha, 1e-6)
    if _cross_bound(beta, gamma, alpha, p) <= 0.1 * _REL_TOL * scale:
        # both phases dormant at every reachable cutoff: the cosine factor is
        # 1 to within the bound and the w-only closed form applies
        return closed
    # fixed panel density (already near machine precision per panel); each
    # refinement doubles the cutoff the previous pass actually used (the
    # stationary-point clamp and phase-floor loop may have grown or capped
    # it), so the integration-by-parts tail error shrinks geometrically until
    # successive estimates agree
    cutoff = _CUTOFF_FLOOR
    prev = prev_cutoff = None
    for _ in range(_MAX_REFINEMENTS):
        est, tail_err, cutoff = _j_quad_once(beta, gamma, alpha, p, cutoff)
        if prev is not None:
            tol = _REL_TOL * max(abs(est), _cos_tail_const(alpha) * gamma**alpha, 1e-6)
            if abs(est - prev) + tail_err <= tol:
                return est
            if cutoff == prev_cutoff:
                # the next pass would start from the same cutoff and repeat
                # this one exactly: what error is left, refinement cannot shrink
                if tail_err <= tol:
                    return est
                break
        prev, prev_cutoff = est, cutoff
        cutoff *= 2.0
    raise InternalConsistencyError(
        f"chf quadrature did not converge to rel_tol={_REL_TOL:g} at "
        f"beta={beta:g}, gamma={gamma:g}, alpha={alpha:g}, p={p:g}")


def chf_exponent(u: float, w: float, alpha: float, p: float, r: float) -> complex:
    """The exponent c(u, w) with chf = exp(c); non-positive real part.

    r is the Levy density constant of each (symmetric) tail, as returned by
    `tail_constants`.
    """
    for name, value in (("u", u), ("w", w), ("alpha", alpha), ("p", p)):
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ParameterDomainError(f"{name} must be a finite real, got {value!r}")
    alpha = float(alpha)
    p = float(p)
    if not 0 < alpha < 2:
        raise ParameterDomainError(f"alpha must lie in (0, 2), got {alpha}")
    if not p > alpha:
        raise ParameterDomainError(f"need p > alpha (the integral diverges at 0), got p={p}, alpha={alpha}")
    if not (isinstance(r, numbers.Real) and 0 < r < math.inf):
        raise ParameterDomainError(f"the tail constant r must be a positive finite real, got {r!r}")
    r = float(r)
    gamma = abs(float(u))
    beta = abs(float(w))

    c_cos = -_cos_tail_const(alpha) * gamma**alpha if gamma > 0 else 0.0
    if beta == 0.0:
        j = 0.0 + 0.0j
    elif gamma == 0.0:
        j = _j_closed_w_only(beta, alpha, p)
    elif p == 1.0:
        # product-to-sum: every term is a pure frequency with a closed form
        j = 0.5 * (_j_single_freq(beta + gamma, alpha) + _j_single_freq(beta - gamma, alpha)) \
            - 0.5 * (_j_single_freq(gamma, alpha) + _j_single_freq(-gamma, alpha))
    else:
        j = _j_quad(beta, gamma, alpha, p)
    c = 2.0 * r * (c_cos + j)
    if w < 0:
        c = c.conjugate()
    return complex(c)


def limit_chf(u: float, w: float, alpha: float, p: float, r: float) -> complex:
    """Limiting joint chf value exp(c(u, w)); modulus at most 1."""
    c = chf_exponent(u, w, alpha, p, r)
    return complex(np.exp(c))


def dispersion_matrix(t_grid) -> np.ndarray:
    """Brownian dispersion matrix v_ij = min(t_i, t_j) on an increasing grid."""
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ParameterDomainError("empty time grid")
    if not np.all((t > 0) & (t <= 1)) or np.any(np.diff(t) <= 0):  # NaN fails the range
        raise ParameterDomainError("t grid must be strictly increasing within (0, 1]")
    return np.minimum.outer(t, t)
