"""Seeded sampling from symmetric families inside stable domains of attraction.

Four families cover every regime of the self-normalized limit theory; each
is declared as a `FamilySpec` and drawn by `sample_family`, the one
sampling entry point, through its private `_fill_*` transform:

- SymStable(alpha): exactly alpha-stable, via the angle/exponential transform.
- SymPareto(alpha): pure Paretian tail P(|X| > x) = x^(-alpha) for x >= 1.
- Gaussian: the alpha = 2 boundary with finite variance.
- StudentT(nu): density family with tail index nu (nu = degrees of freedom).

SymStable and SymPareto consume one row of the uniform matrix per variate,
Gaussian one row per pair of variates (Box-Muller), so for a fixed stream
the first m variates of a size-n sample equal the size-m sample. StudentT
does not: its chi-square part uses rejection sampling with variable draw
counts, so a shorter draw is not a prefix of a longer one. The harness does
not depend on this property: as the paper builds every Y_{n,p} from the
first n terms of one i.i.d. sequence, it draws each replication once at the
largest n and reads every smaller n as a prefix of that draw, for all four
families.

Every fill writes over an output array its caller owns (`_sample_into`);
`sample_family` allocates one per call, and the harness one per worker
block, which every replication of the block draws over, so no replication
hands its pages back to the kernel and refaults them. SymStable and
SymPareto fill it in blocks of `_BLOCK` variates: each block draws its rows
of uniforms into one scratch buffer, allocated once per call or passed in
by the caller, and writes its transform in place, so the temporaries stay
in L2. Blocking does not change a value: the generator fills rows in C
order whatever the block height, and each variate's transform reads only
its own row. At alpha = 1 SymStable computes the whole transform as one
tan(T) (the Cauchy case) and still draws W's uniform, so the stream order
does not depend on alpha; at alpha = 2 it computes cos(T) once for the two
factors that read it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .rng import SeededStream

__all__ = ["FamilySpec", "FAMILY_KINDS", "sample_family"]

FAMILY_KINDS = ("SymStable", "SymPareto", "Gaussian", "StudentT")
# variates per block of the SymStable and SymPareto samplers: 256 KiB of
# uniforms and 128 KiB per temporary, so a block stays in a 2 MiB L2
_BLOCK = 2**14


def _scratch_size(n: int) -> int:
    """Scratch values a blocked sampler of n variates needs: a block's (m, 2) uniforms and 3 temporaries."""
    return 5 * min(n, _BLOCK)


def _block_scratch(scratch: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """The (m, 2) uniforms and three length-m temporaries of one block, as views of scratch.

    SymStable reads the third temporary only at alpha = 2, SymPareto only the uniforms.
    """
    return (scratch[:2 * m].reshape(m, 2), *(scratch[k * m:(k + 1) * m] for k in (2, 3, 4)))


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
        # stored as float, so 2, 2.0 and np.float64(2.0) give one payload and run_id
        for name, value in (("alpha", self.alpha), ("scale", self.scale)):
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
                raise ParameterDomainError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        a = self.alpha
        if not np.isfinite(a) or a <= 0:
            raise ParameterDomainError(f"alpha must be a positive finite real, got {a}")
        if self.kind == "SymStable" and a > 2:
            raise ParameterDomainError(f"SymStable needs alpha in (0, 2], got {a}")
        if self.kind == "Gaussian" and a != 2.0:
            raise ParameterDomainError(f"Gaussian fixes alpha = 2, got {a}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ParameterDomainError(f"scale must be positive, got {self.scale}")


def _fill_sym_stable(alpha: float, g: np.random.Generator, x: np.ndarray, scale: float,
                     scratch: np.ndarray) -> None:
    """Symmetric alpha-stable variates via the Chambers-Mallows-Stuck transform.

    X = sin(alpha T)/cos(T)^(1/alpha) * (cos((1-alpha)T)/W)^((1-alpha)/alpha)
    with T uniform on (-pi/2, pi/2) and W unit exponential. At alpha = 1 this
    collapses to tan(T) (standard Cauchy); at alpha = 2 it collapses to
    2 sin(T) sqrt(W), a centered normal with variance 2 (kept as is, not
    renormalized: the standard scale convention of this parameterization).

    Variates are transformed in blocks of `_BLOCK` rows (see the module
    docstring). At alpha = 1 each block is one `np.tan(T)`: that is the
    transform itself (the third factor is W**0 == 1), it is within 1 ULP of
    tan(T) where sin(T)/cos(T) is within 2, and it costs about a third as
    much per variate. On an x86-64 numpy 2.4 build whose `np.show_runtime()`
    reports 'found': ['X86_V3', 'X86_V4', 'AVX512_ICL', 'AVX512_SPR'],
    float64 tan runs as a SIMD loop while sin and cos fall back to scalar
    libm: about 3 ns against 15 ns each per value, on one block of T on a
    2-vCPU Xeon. W's uniform is still drawn, so the stream order is the same
    at every alpha. At alpha = 2, (1 - alpha) T = -T exactly and cos(-T) ==
    cos(T) bit for bit, so cos(T) is computed once and serves both factors.
    """
    e = (1.0 - alpha) / alpha
    for lo in range(0, x.size, _BLOCK):
        seg = x[lo:lo + _BLOCK]
        u, theta, c, c3 = _block_scratch(scratch, len(seg))
        g.random(out=u)
        np.subtract(u[:, 0], 0.5, out=theta)
        theta *= np.pi
        if alpha == 1.0:
            np.tan(theta, out=seg)  # the whole transform; W's uniform is drawn and unused
            continue
        np.multiply(alpha, theta, out=seg)
        np.sin(seg, out=seg)
        np.cos(theta, out=c)
        if alpha == 2.0:
            np.copyto(c3, c)  # (1 - alpha) T = -T exactly and cos(-T) == cos(T) bit for bit
        c **= 1.0 / alpha
        seg /= c
        if alpha != 2.0:
            c3 = np.multiply(1.0 - alpha, theta, out=c)  # c is spent: the third factor takes its buffer
            np.cos(c3, out=c3)
        w = np.negative(u[:, 1], out=theta)  # theta is spent: W takes its buffer
        np.log1p(w, out=w)
        np.negative(w, out=w)  # inverse-CDF exponential: one uniform per variate
        c3 /= w
        c3 **= e
        seg *= c3
    if scale != 1.0:  # x * 1.0 == x for every float: skip the pass
        x *= scale


def _fill_sym_pareto(alpha: float, g: np.random.Generator, x: np.ndarray, scale: float,
                     scratch: np.ndarray) -> None:
    """Symmetric Pareto variates: R (1-U)^(-1/alpha), P(|X| > x) = x^(-alpha) for x >= 1.

    R is a random sign from the row's second uniform. Variates are
    transformed in blocks of `_BLOCK` rows (see the module docstring).
    """
    for lo in range(0, x.size, _BLOCK):
        seg = x[lo:lo + _BLOCK]
        u = _block_scratch(scratch, len(seg))[0]
        g.random(out=u)
        np.subtract(1.0, u[:, 0], out=seg)
        seg **= -1.0 / alpha
        np.negative(seg, out=seg, where=u[:, 1] < 0.5)
    if scale != 1.0:
        x *= scale


def _box_muller(g: np.random.Generator, n: int) -> np.ndarray:
    m = (n + 1) // 2
    u = g.random((m, 2))
    rad = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    ang = 2.0 * np.pi * u[:, 1]
    z = np.empty(2 * m)
    z[0::2] = rad * np.cos(ang)
    z[1::2] = rad * np.sin(ang)
    return z[:n]


def _fill_gaussian(g: np.random.Generator, x: np.ndarray, scale: float) -> None:
    """Standard normal variates (times scale) by the Box-Muller transform."""
    np.multiply(scale, _box_muller(g, x.size), out=x)


def _fill_student_t(nu: float, g: np.random.Generator, x: np.ndarray, scale: float) -> None:
    """Student t variates as a normal over chi ratio: Z / sqrt(Q_nu / nu).

    The chi-square draws come after all n normals and use rejection sampling,
    so a shorter draw is not a prefix of a longer one from the same stream.
    """
    z = _box_muller(g, x.size)
    q = g.chisquare(nu, x.size)
    np.divide(scale * z, np.sqrt(q / nu), out=x)


def sample_family(spec: FamilySpec, stream: SeededStream, n: int) -> np.ndarray:
    """Draw X_1..X_n i.i.d. from the declared family as a float64 array; pure in (spec, stream, n)."""
    if not isinstance(spec, FamilySpec):
        raise ParameterDomainError(f"spec must be a FamilySpec, got {type(spec).__name__}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"n must be a positive integer, got {n}")
    x = np.empty(n)
    _sample_into(spec, stream, x)
    return x


def _sample_into(spec: FamilySpec, stream: SeededStream, x: np.ndarray,
                 scratch: np.ndarray | None = None) -> None:
    """Write `sample_family(spec, stream, x.size)` over all of x, bit for bit.

    SymStable and SymPareto write their block temporaries over `scratch`,
    of at least `_scratch_size(x.size)` values, or over one they allocate
    for the call.
    """
    g = stream.generator()
    if spec.kind in ("SymStable", "SymPareto"):
        fill = _fill_sym_stable if spec.kind == "SymStable" else _fill_sym_pareto
        fill(spec.alpha, g, x, spec.scale,
             np.empty(_scratch_size(x.size)) if scratch is None else scratch)
    elif spec.kind == "Gaussian":
        _fill_gaussian(g, x, spec.scale)
    else:
        _fill_student_t(spec.alpha, g, x, spec.scale)
