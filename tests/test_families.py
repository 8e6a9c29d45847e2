import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfnorm import FAMILY_KINDS, FamilySpec, ParameterDomainError, SeededStream, sample_family
from selfnorm.families import _BLOCK


def test_family_kinds_frozen():
    assert FAMILY_KINDS == ("SymStable", "SymPareto", "Gaussian", "StudentT")


@pytest.mark.parametrize("kind,alpha", [
    ("SymStable", 2.5),
    ("SymStable", 0.0),
    ("SymStable", -1.0),
    ("Gaussian", 1.5),
    ("SymPareto", 0.0),
    ("StudentT", -3.0),
    ("Levy", 1.0),
])
def test_spec_rejects_bad_parameters(kind, alpha):
    with pytest.raises(ParameterDomainError):
        FamilySpec(kind=kind, alpha=alpha)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_spec_rejects_bad_scale(scale):
    # the spec is the one place a scale is checked: sample_family takes no other
    with pytest.raises(ParameterDomainError):
        FamilySpec(kind="Gaussian", scale=scale)


@pytest.mark.parametrize("over", [dict(alpha="x"), dict(alpha=None), dict(alpha="1.5"),
                                  dict(alpha=True), dict(scale="2"), dict(scale=None)])
def test_spec_rejects_non_numeric_parameters(over):
    # a typed domain error, not a raw TypeError or ValueError from float()
    with pytest.raises(ParameterDomainError, match="must be a real number"):
        FamilySpec(kind="SymStable", **over)


@pytest.mark.parametrize("kind,alpha", [("SymStable", 1.3), ("SymPareto", 2.0),
                                        ("Gaussian", 2.0), ("StudentT", 4.0)])
def test_same_stream_same_sample(kind, alpha):
    spec = FamilySpec(kind=kind, alpha=alpha)
    a = sample_family(spec, SeededStream(99, 3), 500)
    b = sample_family(spec, SeededStream(99, 3), 500)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_different_stream_index_decorrelates(kind):
    spec = FamilySpec(kind=kind, alpha=2.0 if kind == "Gaussian" else 1.5)
    a = sample_family(spec, SeededStream(99, 0), 200)
    b = sample_family(spec, SeededStream(99, 1), 200)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_prefix_coherence_along_n(kind):
    # first m variates of a size-n draw equal the size-m draw exactly, except
    # for StudentT, whose chi-square rejection sampler has no fixed
    # per-variate draw count (the harness reads prefixes of one draw, so it
    # does not depend on this property)
    spec = FamilySpec(kind=kind, alpha=2.0 if kind == "Gaussian" else 1.2)
    short = sample_family(spec, SeededStream(7, 0), 100)
    long = sample_family(spec, SeededStream(7, 0), 1000)
    # every kind returns the sample itself: a float64 array of length n
    for x, n in ((short, 100), (long, 1000)):
        assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (n,)
    assert np.array_equal(short, long[:100]) == (kind != "StudentT")


@given(scale=st.floats(0.1, 50.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_scale_equivariance(scale, seed):
    base = sample_family(FamilySpec(kind="SymStable", alpha=1.5), SeededStream(seed), 64)
    scaled = sample_family(FamilySpec(kind="SymStable", alpha=1.5, scale=scale), SeededStream(seed), 64)
    assert np.allclose(scaled, scale * base, rtol=1e-12)


def test_pareto_support_and_symmetry():
    x = sample_family(FamilySpec(kind="SymPareto", alpha=1.0), SeededStream(5), 20_000)
    assert np.all(np.abs(x) >= 1.0)
    # sign comes from an independent uniform: near-balanced by construction
    assert abs(np.mean(np.sign(x))) < 0.03


def test_pareto_tail_index():
    # P(|X| > x) = x^(-alpha) exactly: quantile check at the 99th percentile
    x = sample_family(FamilySpec(kind="SymPareto", alpha=0.8), SeededStream(11), 200_000)
    q = np.quantile(np.abs(x), 0.99)
    assert q == pytest.approx(0.01 ** (-1 / 0.8), rel=0.1)


def test_gaussian_moments():
    x = sample_family(FamilySpec(kind="Gaussian"), SeededStream(13), 200_000)
    assert abs(x.mean()) < 0.01
    assert x.std() == pytest.approx(1.0, abs=0.01)


def test_stable_alpha_two_is_gaussian_variance_two():
    x = sample_family(FamilySpec(kind="SymStable", alpha=2.0), SeededStream(17), 200_000)
    assert x.std() == pytest.approx(np.sqrt(2.0), rel=0.01)


def test_cauchy_quartiles():
    # standard Cauchy quartiles are +-1 exactly
    x = sample_family(FamilySpec(kind="SymStable", alpha=1.0), SeededStream(19), 200_000)
    assert np.quantile(x, 0.75) == pytest.approx(1.0, abs=0.02)
    assert np.quantile(x, 0.25) == pytest.approx(-1.0, abs=0.02)


@pytest.mark.parametrize("n", [0, -5, 2.5])
def test_bad_n_rejected(n):
    with pytest.raises(ParameterDomainError, match="n must be a positive integer"):
        sample_family(FamilySpec(kind="Gaussian"), SeededStream(1), n)


def _stable_reference(alpha, u, scale):
    # the whole-array transforms the blocked samplers must reproduce; at
    # alpha = 1 the transform is tan(T) itself
    theta = (u[:, 0] - 0.5) * np.pi
    if alpha == 1.0:
        return scale * np.tan(theta)
    w = -np.log1p(-u[:, 1])
    x = (np.sin(alpha * theta) / np.cos(theta) ** (1.0 / alpha)
         * (np.cos((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))
    return scale * x


def _pareto_reference(alpha, u, scale):
    mag = (1.0 - u[:, 0]) ** (-1.0 / alpha)
    return scale * np.where(u[:, 1] < 0.5, -1.0, 1.0) * mag


_BLOCK_NS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 100_000)


@pytest.mark.parametrize("n", _BLOCK_NS)
@pytest.mark.parametrize("kind,alpha", [("SymStable", 0.5), ("SymStable", 1.0), ("SymStable", 1.5),
                                        ("SymStable", 2.0), ("SymPareto", 0.8), ("SymPareto", 1.5)])
@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_blocks_match_whole_array_transform(n, kind, alpha, scale):
    # the same bytes as one g.random((n, 2)) call through the whole-array formula,
    # on either side of every block boundary
    stream = SeededStream(31, 4)
    u = stream.generator().random((n, 2))
    reference = _stable_reference if kind == "SymStable" else _pareto_reference
    expected = reference(alpha, u, scale)
    got = sample_family(FamilySpec(kind=kind, alpha=alpha, scale=scale), stream, n)
    assert got.tobytes() == expected.tobytes()


class _FixedUniforms:
    # stands in for a stream: writes the rows of u in order, block by block,
    # over the sampler's buffer of uniforms
    def __init__(self, u):
        self.u, self.next = u, 0

    def generator(self):
        return self

    def random(self, *, out):
        out[...] = self.u[self.next:self.next + len(out)]
        self.next += len(out)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is no wider than float64")
def test_cauchy_draws_within_one_ulp_of_tan():
    # X = tan(T) for the float T = (u0 - 0.5) pi, checked against tan(T) in
    # long double, the forced tails u0 = k 2^-53 and 1 - k 2^-53 included;
    # a float64 quotient sin(T)/cos(T) would be off by up to 2 ULP
    k = np.arange(2000)
    u0 = np.concatenate([k * 2.0**-53, 1.0 - (k + 1) * 2.0**-53,
                         SeededStream(41).generator().random(3 * _BLOCK)])
    u = np.column_stack([u0, np.full(u0.size, 0.5)])
    x = sample_family(FamilySpec(kind="SymStable", alpha=1.0), _FixedUniforms(u), u0.size)
    exact = np.tan((u0 - 0.5) * np.pi, dtype=np.longdouble)
    ulp = np.spacing(np.abs(exact.astype(np.float64)))
    assert np.all(np.abs(x - exact) <= ulp)


def test_stable_draw_memory_is_bounded():
    # the output plus one block of temporaries; the whole-array transform held
    # several n-sized temporaries at once
    n = 100_000
    tracemalloc.start()
    try:
        sample_family(FamilySpec(kind="SymStable", alpha=1.5), SeededStream(5), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 8 + 2**20
