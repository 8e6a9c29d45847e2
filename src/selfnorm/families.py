"""Seeded sampling from symmetric families inside stable domains of attraction.

Four families cover every regime of the self-normalized limit theory:

- SymStable(alpha): exactly alpha-stable, via the angle/exponential transform.
- SymPareto(alpha): pure Paretian tail P(|X| > x) = x^(-alpha) for x >= 1.
- Gaussian: the alpha = 2 boundary with finite variance.
- StudentT(nu): density family with tail index nu (nu = degrees of freedom).

All samplers consume uniforms in a fixed per-variate order (one row of the
uniform matrix per variate), so for a fixed stream the first m variates of a
size-n sample equal the size-m sample. That prefix property is what makes
statistics smooth along an n-grid under common random numbers. StudentT is
the one exception: its chi-square part uses rejection sampling with variable
draw counts, so only same-n determinism holds there. `FamilySpec.prefix_coherent`
declares which kinds hold the prefix property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .rng import SeededStream

__all__ = [
    "FamilySpec",
    "SampleBatch",
    "FAMILY_KINDS",
    "sample_sym_stable",
    "sample_sym_pareto",
    "sample_gaussian",
    "sample_student_t",
    "sample_family",
]

FAMILY_KINDS = ("SymStable", "SymPareto", "Gaussian", "StudentT")
# kinds whose samplers consume a fixed number of uniforms per variate
_PREFIX_COHERENT_KINDS = ("SymStable", "SymPareto", "Gaussian")


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
        a = float(self.alpha)
        if not np.isfinite(a) or a <= 0:
            raise ParameterDomainError(f"alpha must be a positive finite real, got {self.alpha}")
        if self.kind == "SymStable" and a > 2:
            raise ParameterDomainError(f"SymStable needs alpha in (0, 2], got {a}")
        if self.kind == "Gaussian" and a != 2.0:
            raise ParameterDomainError(f"Gaussian fixes alpha = 2, got {a}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ParameterDomainError(f"scale must be positive, got {self.scale}")

    @property
    def prefix_coherent(self) -> bool:
        """Whether a length-m sample is the prefix of the length-n sample of the same stream."""
        return self.kind in _PREFIX_COHERENT_KINDS


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """One i.i.d. sample X_1..X_n with its generating provenance."""

    values: np.ndarray
    spec: FamilySpec
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterDomainError(f"n must be >= 1, got {self.n}")
        if len(self.values) != self.n:
            raise ParameterDomainError(f"values has length {len(self.values)}, expected n = {self.n}")


def _check_n(n: int):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"n must be a positive integer, got {n}")


def sample_sym_stable(alpha: float, stream: SeededStream, n: int, scale: float = 1.0) -> SampleBatch:
    """Symmetric alpha-stable sample via the angle/exponential transform.

    X = sin(alpha T)/cos(T)^(1/alpha) * (cos((1-alpha)T)/W)^((1-alpha)/alpha)
    with T uniform on (-pi/2, pi/2) and W unit exponential. At alpha = 1 this
    collapses to tan(T) (standard Cauchy); at alpha = 2 it collapses to
    2 sin(T) sqrt(W), a centered normal with variance 2 (kept as is, not
    renormalized: the standard scale convention of this parameterization).
    """
    alpha = float(alpha)
    if not 0 < alpha <= 2:
        raise ParameterDomainError(f"stable index must lie in (0, 2], got {alpha}")
    _check_n(n)
    g = stream.generator()
    u = g.random((n, 2))
    theta = (u[:, 0] - 0.5) * np.pi
    w = -np.log1p(-u[:, 1])  # inverse-CDF exponential: one uniform per variate
    x = (
        np.sin(alpha * theta)
        / np.cos(theta) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)
    )
    spec = FamilySpec("SymStable", alpha, scale)
    return SampleBatch(values=scale * x, spec=spec, n=n)


def sample_sym_pareto(alpha: float, stream: SeededStream, n: int, scale: float = 1.0) -> SampleBatch:
    """Symmetric Pareto sample: R (1-U)^(-1/alpha), P(|X| > x) = x^(-alpha) for x >= 1."""
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha > 0):
        raise ParameterDomainError(f"tail index must be positive, got {alpha}")
    _check_n(n)
    g = stream.generator()
    u = g.random((n, 2))
    mag = (1.0 - u[:, 0]) ** (-1.0 / alpha)
    sign = np.where(u[:, 1] < 0.5, -1.0, 1.0)
    spec = FamilySpec("SymPareto", alpha, scale)
    return SampleBatch(values=scale * sign * mag, spec=spec, n=n)


def _box_muller(g: np.random.Generator, n: int) -> np.ndarray:
    m = (n + 1) // 2
    u = g.random((m, 2))
    rad = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    ang = 2.0 * np.pi * u[:, 1]
    z = np.empty(2 * m)
    z[0::2] = rad * np.cos(ang)
    z[1::2] = rad * np.sin(ang)
    return z[:n]


def sample_gaussian(stream: SeededStream, n: int, scale: float = 1.0) -> SampleBatch:
    """Standard normal sample (times scale) by the Box-Muller transform."""
    _check_n(n)
    g = stream.generator()
    spec = FamilySpec("Gaussian", 2.0, scale)
    return SampleBatch(values=scale * _box_muller(g, n), spec=spec, n=n)


def sample_student_t(nu: float, stream: SeededStream, n: int, scale: float = 1.0) -> SampleBatch:
    """Student t sample as a normal over chi ratio: Z / sqrt(Q_nu / nu)."""
    nu = float(nu)
    if not (np.isfinite(nu) and nu > 0):
        raise ParameterDomainError(f"degrees of freedom must be positive, got {nu}")
    _check_n(n)
    g = stream.generator()
    z = _box_muller(g, n)
    q = g.chisquare(nu, n)
    spec = FamilySpec("StudentT", nu, scale)
    return SampleBatch(values=scale * z / np.sqrt(q / nu), spec=spec, n=n)


def sample_family(spec: FamilySpec, stream: SeededStream, n: int) -> SampleBatch:
    """Draw n i.i.d. variates from the declared family; pure in (spec, stream, n)."""
    if not isinstance(spec, FamilySpec):
        raise ParameterDomainError(f"spec must be a FamilySpec, got {type(spec).__name__}")
    if spec.kind == "SymStable":
        return sample_sym_stable(spec.alpha, stream, n, spec.scale)
    if spec.kind == "SymPareto":
        return sample_sym_pareto(spec.alpha, stream, n, spec.scale)
    if spec.kind == "Gaussian":
        return sample_gaussian(stream, n, spec.scale)
    return sample_student_t(spec.alpha, stream, n, spec.scale)
