"""Seeded sampling from symmetric families inside stable domains of attraction.

Four families cover every regime of the self-normalized limit theory; each
is declared as a `FamilySpec` and drawn by `sample_family`, the one
sampling entry point, through its private `_fill_*` transform:

- SymStable(alpha): exactly alpha-stable, via the angle/exponential transform.
- SymPareto(alpha): pure Paretian tail P(|X| > x) = x^(-alpha) for x >= 1.
- Gaussian: the alpha = 2 boundary with finite variance.
- StudentT(nu): density family with tail index nu (nu = degrees of freedom).

SymStable and SymPareto consume one row of two uniforms per variate (one
uniform at SymStable alpha = 1), Gaussian one row per pair of variates
(Box-Muller), so for a fixed stream the first m variates of a size-n sample
equal the size-m sample. StudentT does not: its chi-square part uses
rejection sampling with variable draw counts, so a shorter draw is not a
prefix of a longer one. The harness does not depend on this property: as the
paper builds every Y_{n,p} from the first n terms of one i.i.d. sequence, it
draws each replication once at the largest n and reads every smaller n as a
prefix of that draw, for all four families.

Every fill writes over an output array its caller owns (`_sample_into`);
`sample_family` allocates one per call, and the harness one per worker
block, which every replication of the block draws over, so no replication
hands its pages back to the kernel and refaults them. SymStable and
SymPareto fill it in blocks of `_BLOCK` variates: each block draws its rows
of uniforms into one scratch buffer, allocated once per call or passed in
by the caller, and writes its transform in place, so the temporaries stay
in L2. Blocking does not change a value: the generator fills rows in C
order whatever the block height, and each variate's transform reads only
its own row. At alpha = 1 the SymStable transform is tan(T) alone (the
Cauchy case), so SymStable draws only T's uniforms, straight over the
output block, and reads no scratch, so none is allocated: an n-draw reads
n uniforms of its stream, where every other alpha reads 2n. At every other
alpha the transform calls no sin or cos: each sine is read from one
half-angle tangent, a SIMD loop where numpy's sin and cos are scalar libm
calls, with cos(T) and cos((1-alpha)T) taken as sines of angles built from
min(u0, 1 - u0), so the tails near T = +-pi/2 keep their accuracy (see
`_fill_sym_stable`; the timings are in CHANGES.md and BENCH_32.json).
Gaussian and StudentT write their normals over the output too, a block of
2**14 pairs at a time through three temporaries of the same scratch, and
StudentT its chi ratio over the chi-square array, the one n-sized array it
allocates.
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
    """Scratch values a blocked sampler of n variates needs: a block's (m, 2) uniforms and 3 temporaries.

    SymStable at alpha = 1 reads none of it.
    """
    return 5 * min(n, _BLOCK)


def _block_scratch(scratch: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """The (m, 2) uniforms and three length-m temporaries of one block, as views of scratch.

    SymStable reads two temporaries at alpha = 2 and no scratch at alpha = 1;
    SymPareto reads only the uniforms, and Box-Muller only the temporaries.
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
                     scratch: np.ndarray | None) -> None:
    """Symmetric alpha-stable variates via the Chambers-Mallows-Stuck transform.

    X = sin(alpha T)/cos(T)^(1/alpha) * (cos((1-alpha)T)/W)^((1-alpha)/alpha)
    with T = pi (u0 - 1/2) uniform on (-pi/2, pi/2) and W = -log1p(-u1) unit
    exponential. At alpha = 1 this collapses to tan(T) (standard Cauchy); at
    alpha = 2 it collapses to 2 sin(T) sqrt(W), a centered normal with
    variance 2 (kept as is, not renormalized: the standard scale convention
    of this parameterization).

    Variates are transformed in blocks of `_BLOCK` rows (see the module
    docstring), and no sin or cos is called: each sine comes from one
    half-angle tangent, sin(a)/2 = t/(1 + t^2) with t = tan(a/2). numpy's
    float64 tan is a SIMD loop on x86-64 builds with AVX-512, where its sin
    and cos are scalar libm calls. With h = min(u0, 1 - u0), which is exact,
    and |T| = pi (1/2 - h):

    - sin(alpha T) is read at alpha pi (u0 - 1/2)/2, whose sign is T's
      (u0 - 1/2 and sign(T) (1/2 - h) are one float);
    - cos(T) = sin(pi h), so no rounded T near +-pi/2 is cancelled;
    - cos((1-alpha)T) = sin(pi c/2 + |1-alpha| pi h), c = min(alpha, 2 - alpha)
      = 1 - |1-alpha| exactly: a sum of two non-negative terms.

    The halves cancel in R1 = sin(alpha T)/cos(T) and R3 = cos((1-alpha)T)/cos(T),
    and cos(T)^(-1/alpha) = cos(T)^-1 cos(T)^-e with e = (1-alpha)/alpha, so
    X = R1 (R3/W)^e takes one power. At alpha = 2 the path computes
    2 sin(T) sqrt(W) alone, as sin(T)/2 sqrt(16 W). At alpha = 1 each block
    is one `np.tan(T)`: the transform itself (the third factor is W**0 == 1),
    within 1 ULP of tan(T). W's uniform is not drawn there: each block's T
    uniforms are one contiguous draw of m doubles over the output,
    transformed in place, so an m-draw is still a prefix of an n-draw.

    Against the formula at 40 digits with exact T, tails u = k 2^-53 and
    1 - k 2^-53 included, the variates are within the 32 ulps that
    `test_stable_draws_within_32_ulps_of_the_formula` asserts at alpha in
    {0.5, 0.8, 1.5, 1.9, 2}; sin and cos of a rounded T lose all accuracy
    there. The bound loosens where the arithmetic is ill-conditioned: near
    alpha = 2, where sin(alpha |T|) is read at an angle near pi, and at small
    alpha, where the rounding of e is scaled by log(R3/W).

    Ends of the uniforms: u0 = 0 is T = -pi/2, outside the open interval,
    and gives the transform's limit there, X = -inf at every alpha < 2 (and
    -2 sqrt(W) at alpha = 2). u1 = 0 is W = 0 and gives the limits as
    W -> 0: sign(T) inf at alpha < 1, sign(T) 0 at alpha > 1, and 0 inf = NaN
    at T = 0 and alpha < 1. `_sample_into` writes them under one
    `np.errstate`, so they raise no numpy warning, and the harness raises
    every non-finite variate as `NonFiniteSampleError`.
    """
    d = abs(1.0 - alpha)
    e = (1.0 - alpha) / alpha
    for lo in range(0, x.size, _BLOCK):
        seg = x[lo:lo + _BLOCK]
        if alpha == 1.0:
            g.random(out=seg)  # T's uniforms only: W is not drawn
            seg -= 0.5
            seg *= np.pi
            np.tan(seg, out=seg)  # the whole transform
            continue
        u, a, b, c = _block_scratch(scratch, len(seg))
        g.random(out=u)
        u0, u1 = u[:, 0], u[:, 1]
        if alpha == 2.0:
            np.subtract(u0, 0.5, out=a)
            a *= np.pi / 2
            np.tan(a, out=a)  # tan(T/2)
            np.multiply(a, a, out=b)
            b += 1.0
            a /= b  # sin(T)/2
            np.negative(u1, out=b)
            np.log1p(b, out=b)
            b *= -16.0  # 16 W, exactly
            np.sqrt(b, out=b)
            np.multiply(a, b, out=seg)
            continue
        np.subtract(1.0, u0, out=a)
        np.minimum(u0, a, out=a)  # h
        edge = a.min() == 0.0  # u0 = 0 is in the block
        np.subtract(u0, 0.5, out=b)
        b *= alpha * np.pi / 2
        np.tan(b, out=b)
        np.multiply(b, b, out=seg)
        seg += 1.0
        b /= seg  # sin(alpha T)/2
        np.multiply(a, d * np.pi / 2, out=c)
        c += min(alpha, 2.0 - alpha) * np.pi / 4
        np.tan(c, out=c)
        np.multiply(c, c, out=seg)
        np.subtract(-1.0, seg, out=seg)
        c /= seg  # -cos((1-alpha)T)/2: the sign cancels the one of log1p(-u1) below
        a *= np.pi / 2
        np.tan(a, out=a)
        np.multiply(a, a, out=seg)
        seg += 1.0
        a /= seg  # cos(T)/2
        b /= a  # R1
        c /= a  # -R3
        np.negative(u1, out=a)  # cos(T) is spent: -W takes its buffer
        np.log1p(a, out=a)
        c /= a  # R3/W
        c **= e
        np.multiply(b, c, out=seg)
        if edge:  # R1 = -inf meets (R3/W)^e = 0 at alpha > 1: write the limit
            seg[u0 == 0.0] = -np.inf
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


def _polar_pairs(rows: np.ndarray, scratch: np.ndarray) -> None:
    """Turn each row (u0, u1) of rows into the normal pair R cos(A), R sin(A), in place.

    R = sqrt(-2 log1p(-u0)) and A = 2 pi u1 are held in the block
    temporaries of scratch (`_block_scratch`), so every transcendental call
    reads and writes contiguous values, as the whole-array transform's do.
    """
    _, rad, ang, c = _block_scratch(scratch, len(rows))
    np.negative(rows[:, 0], out=rad)
    np.log1p(rad, out=rad)
    rad *= -2.0
    np.sqrt(rad, out=rad)
    np.multiply(rows[:, 1], 2.0 * np.pi, out=ang)
    np.cos(ang, out=c)
    np.multiply(rad, c, out=rows[:, 0])
    np.sin(ang, out=ang)
    np.multiply(rad, ang, out=rows[:, 1])


def _box_muller(g: np.random.Generator, z: np.ndarray, scratch: np.ndarray) -> None:
    """Standard normal variates over all of z by Box-Muller, a pair per row of two uniforms.

    Row i's uniforms are drawn over z[2i], z[2i + 1] and turned into its pair
    in place, `_BLOCK` rows at a time, with the temporaries in scratch; an
    odd n draws its last row into a 2-value array and keeps that row's first
    variate. The values, and the uniforms read, are those of the whole-array
    transform of g.random(((n + 1)//2, 2)), bit for bit.
    """
    n = z.size
    pairs = z[:n - n % 2].reshape(-1, 2)
    g.random(out=pairs)
    for lo in range(0, len(pairs), _BLOCK):
        _polar_pairs(pairs[lo:lo + _BLOCK], scratch)
    if n % 2:
        last = g.random((1, 2))
        _polar_pairs(last, scratch)
        z[-1] = last[0, 0]


def _fill_gaussian(g: np.random.Generator, x: np.ndarray, scale: float, scratch: np.ndarray) -> None:
    """Standard normal variates (times scale) by the Box-Muller transform."""
    _box_muller(g, x, scratch)
    if scale != 1.0:
        x *= scale


def _fill_student_t(nu: float, g: np.random.Generator, x: np.ndarray, scale: float,
                    scratch: np.ndarray) -> None:
    """Student t variates as a normal over chi ratio: Z / sqrt(Q_nu / nu).

    The chi-square draws come after all n normals and use rejection sampling,
    so a shorter draw is not a prefix of a longer one from the same stream.
    Z is written over x and sqrt(Q_nu / nu) over the chi-square array, the
    one n-sized array a draw allocates.
    """
    _box_muller(g, x, scratch)
    q = g.chisquare(nu, x.size)
    q /= nu
    np.sqrt(q, out=q)
    if scale != 1.0:
        x *= scale
    x /= q


def sample_family(spec: FamilySpec, stream: SeededStream, n: int) -> np.ndarray:
    """Draw X_1..X_n i.i.d. from the declared family as a float64 array; pure in (spec, stream, n)."""
    if not isinstance(spec, FamilySpec):
        raise ParameterDomainError(f"spec must be a FamilySpec, got {type(spec).__name__}")
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"n must be a positive integer, got {n}")
    x = np.empty(n)
    _sample_into(spec, stream, x)
    return x


def _sample_into(spec: FamilySpec, stream: SeededStream, x: np.ndarray,
                 scratch: np.ndarray | None = None) -> None:
    """Write `sample_family(spec, stream, x.size)` over all of x, bit for bit.

    Every family but SymStable at alpha = 1 writes its block temporaries
    over `scratch`, of at least `_scratch_size(x.size)` values, or over one
    it allocates for the call; SymStable at alpha = 1 reads none, and none
    is allocated.
    """
    g = stream.generator()
    if scratch is None and not (spec.kind == "SymStable" and spec.alpha == 1.0):
        scratch = np.empty(_scratch_size(x.size))
    if spec.kind == "SymStable":
        with np.errstate(divide="ignore", invalid="ignore"):  # the ends of the uniforms
            _fill_sym_stable(spec.alpha, g, x, spec.scale, scratch)
    elif spec.kind == "SymPareto":
        _fill_sym_pareto(spec.alpha, g, x, spec.scale, scratch)
    elif spec.kind == "Gaussian":
        _fill_gaussian(g, x, spec.scale, scratch)
    else:
        _fill_student_t(spec.alpha, g, x, spec.scale, scratch)
