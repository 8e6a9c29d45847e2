"""Seeded sampling from symmetric families inside stable domains of attraction.

Four families cover every regime of the self-normalized limit theory:

- SymStable(alpha): exactly alpha-stable, via the angle/exponential transform.
- SymPareto(alpha): pure Paretian tail P(|X| > x) = x^(-alpha) for x >= 1.
- Gaussian: the alpha = 2 boundary with finite variance.
- StudentT(nu): density family with tail index nu (nu = degrees of freedom).

SymStable, SymPareto and Gaussian consume uniforms in a fixed per-variate
order (one row of the uniform matrix per variate), so for a fixed stream the
first m variates of a size-n sample equal the size-m sample. StudentT does
not: its chi-square part uses rejection sampling with variable draw counts,
so a shorter draw is not a prefix of a longer one. The harness does not
depend on this property: as the paper builds every Y_{n,p} from the first n
terms of one i.i.d. sequence, it draws each replication once at the largest
n and reads every smaller n as a prefix of that draw, for all four families.

SymStable and SymPareto fill one preallocated output in blocks of `_BLOCK`
variates: each block draws its rows of uniforms and writes its transform in
place, so the temporaries stay in L2 and are small enough for the allocator
to reuse instead of handing them back to the kernel and refaulting them on
every call. Blocking does not change a value: the generator fills rows in C
order whatever the block height, and each variate's transform reads only
its own row. At alpha = 1 SymStable skips the factor with exponent
(1 - alpha)/alpha = 0.0, which is exact (t**0.0 == 1.0 for every t, inf and
NaN included); it still draws that factor's uniform.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .rng import SeededStream

__all__ = [
    "FamilySpec",
    "FAMILY_KINDS",
    "sample_sym_stable",
    "sample_sym_pareto",
    "sample_gaussian",
    "sample_student_t",
    "sample_family",
]

FAMILY_KINDS = ("SymStable", "SymPareto", "Gaussian", "StudentT")
# variates per block of the SymStable and SymPareto samplers: 256 KiB of
# uniforms and 128 KiB per temporary, so a block stays in a 2 MiB L2
_BLOCK = 2**14


@dataclass(frozen=True)
class FamilySpec:
    """Declared generating family: kind, tail/stability index, scale.

    alpha is the stability index for SymStable (in (0,2]), fixed at 2 for
    Gaussian, and the tail index for SymPareto / StudentT (any positive
    value; indices above 2 put those families in the normal domain).
    """

    kind: str
    alpha: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ParameterDomainError(f"unknown family kind {self.kind!r}; choose from {FAMILY_KINDS}")
        for name, value in (("alpha", self.alpha), ("scale", self.scale)):
            if not isinstance(value, numbers.Real):
                raise ParameterDomainError(f"{name} must be a real number, got {value!r}")
        a = float(self.alpha)
        if not np.isfinite(a) or a <= 0:
            raise ParameterDomainError(f"alpha must be a positive finite real, got {self.alpha}")
        if self.kind == "SymStable" and a > 2:
            raise ParameterDomainError(f"SymStable needs alpha in (0, 2], got {a}")
        if self.kind == "Gaussian" and a != 2.0:
            raise ParameterDomainError(f"Gaussian fixes alpha = 2, got {a}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ParameterDomainError(f"scale must be positive, got {self.scale}")


def _check_n_scale(n: int, scale: float):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"n must be a positive integer, got {n}")
    if not (isinstance(scale, numbers.Real) and np.isfinite(scale) and scale > 0):
        raise ParameterDomainError(f"scale must be a positive finite real, got {scale!r}")


def sample_sym_stable(alpha: float, stream: SeededStream, n: int, scale: float = 1.0) -> np.ndarray:
    """Symmetric alpha-stable sample via the angle/exponential transform.

    X = sin(alpha T)/cos(T)^(1/alpha) * (cos((1-alpha)T)/W)^((1-alpha)/alpha)
    with T uniform on (-pi/2, pi/2) and W unit exponential. At alpha = 1 this
    collapses to tan(T) (standard Cauchy); at alpha = 2 it collapses to
    2 sin(T) sqrt(W), a centered normal with variance 2 (kept as is, not
    renormalized: the standard scale convention of this parameterization).

    Variates are transformed in blocks of `_BLOCK` rows (see the module
    docstring). At alpha = 1 the third factor is skipped: its exponent is 0.0
    and t**0.0 == 1.0 for every t, inf and NaN included, so the values are
    the same; W's uniform is still drawn, so the stream order is too.
    """
    alpha = float(alpha)
    if not 0 < alpha <= 2:
        raise ParameterDomainError(f"stable index must lie in (0, 2], got {alpha}")
    _check_n_scale(n, scale)
    g = stream.generator()
    e = (1.0 - alpha) / alpha
    x = np.empty(n)
    for lo in range(0, n, _BLOCK):
        seg = x[lo:lo + _BLOCK]
        u = g.random((len(seg), 2))
        theta = np.subtract(u[:, 0], 0.5)
        theta *= np.pi
        np.multiply(alpha, theta, out=seg)
        np.sin(seg, out=seg)
        c = np.cos(theta)
        c **= 1.0 / alpha
        seg /= c
        if e != 0.0:
            np.multiply(1.0 - alpha, theta, out=c)
            np.cos(c, out=c)
            w = np.negative(u[:, 1], out=theta)  # theta is spent: W takes its buffer
            np.log1p(w, out=w)
            np.negative(w, out=w)  # inverse-CDF exponential: one uniform per variate
            c /= w
            c **= e
            seg *= c
    x *= scale
    return x


def sample_sym_pareto(alpha: float, stream: SeededStream, n: int, scale: float = 1.0) -> np.ndarray:
    """Symmetric Pareto sample: R (1-U)^(-1/alpha), P(|X| > x) = x^(-alpha) for x >= 1.

    Variates are transformed in blocks of `_BLOCK` rows (see the module docstring).
    """
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha > 0):
        raise ParameterDomainError(f"tail index must be positive, got {alpha}")
    _check_n_scale(n, scale)
    g = stream.generator()
    x = np.empty(n)
    for lo in range(0, n, _BLOCK):
        seg = x[lo:lo + _BLOCK]
        u = g.random((len(seg), 2))
        np.subtract(1.0, u[:, 0], out=seg)
        seg **= -1.0 / alpha
        np.negative(seg, out=seg, where=u[:, 1] < 0.5)
    x *= scale
    return x


def _box_muller(g: np.random.Generator, n: int) -> np.ndarray:
    m = (n + 1) // 2
    u = g.random((m, 2))
    rad = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    ang = 2.0 * np.pi * u[:, 1]
    z = np.empty(2 * m)
    z[0::2] = rad * np.cos(ang)
    z[1::2] = rad * np.sin(ang)
    return z[:n]


def sample_gaussian(stream: SeededStream, n: int, scale: float = 1.0) -> np.ndarray:
    """Standard normal sample (times scale) by the Box-Muller transform."""
    _check_n_scale(n, scale)
    return scale * _box_muller(stream.generator(), n)


def sample_student_t(nu: float, stream: SeededStream, n: int, scale: float = 1.0) -> np.ndarray:
    """Student t sample as a normal over chi ratio: Z / sqrt(Q_nu / nu).

    The chi-square draws come after all n normals and use rejection sampling,
    so a shorter draw is not a prefix of a longer one from the same stream.
    """
    nu = float(nu)
    if not (np.isfinite(nu) and nu > 0):
        raise ParameterDomainError(f"degrees of freedom must be positive, got {nu}")
    _check_n_scale(n, scale)
    g = stream.generator()
    z = _box_muller(g, n)
    q = g.chisquare(nu, n)
    return scale * z / np.sqrt(q / nu)


def sample_family(spec: FamilySpec, stream: SeededStream, n: int) -> np.ndarray:
    """Draw X_1..X_n i.i.d. from the declared family as a float64 array; pure in (spec, stream, n)."""
    if not isinstance(spec, FamilySpec):
        raise ParameterDomainError(f"spec must be a FamilySpec, got {type(spec).__name__}")
    if spec.kind == "SymStable":
        return sample_sym_stable(spec.alpha, stream, n, spec.scale)
    if spec.kind == "SymPareto":
        return sample_sym_pareto(spec.alpha, stream, n, spec.scale)
    if spec.kind == "Gaussian":
        return sample_gaussian(stream, n, spec.scale)
    return sample_student_t(spec.alpha, stream, n, spec.scale)
