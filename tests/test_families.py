import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfnorm import FAMILY_KINDS, FamilySpec, ParameterDomainError, SeededStream, sample_family
from selfnorm.families import _BLOCK, sample_gaussian, sample_sym_pareto, sample_sym_stable


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


def test_spec_rejects_bad_scale():
    with pytest.raises(ParameterDomainError):
        FamilySpec(kind="Gaussian", scale=0.0)


@pytest.mark.parametrize("over", [dict(alpha="x"), dict(alpha=None), dict(alpha="1.5"),
                                  dict(scale="2"), dict(scale=None)])
def test_spec_rejects_non_numeric_parameters(over):
    # a typed domain error, not a raw TypeError or ValueError from float()
    with pytest.raises(ParameterDomainError, match="must be a real number"):
        FamilySpec(kind="SymStable", **over)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf"), "2"])
def test_samplers_reject_bad_scale(scale):
    for draw in (lambda: sample_sym_stable(1.5, SeededStream(1), 10, scale),
                 lambda: sample_sym_pareto(1.5, SeededStream(1), 10, scale),
                 lambda: sample_gaussian(SeededStream(1), 10, scale)):
        with pytest.raises(ParameterDomainError):
            draw()


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
    base = sample_sym_stable(1.5, SeededStream(seed), 64)
    scaled = sample_sym_stable(1.5, SeededStream(seed), 64, scale=scale)
    assert np.allclose(scaled, scale * base, rtol=1e-12)


def test_pareto_support_and_symmetry():
    x = sample_sym_pareto(1.0, SeededStream(5), 20_000)
    assert np.all(np.abs(x) >= 1.0)
    # sign comes from an independent uniform: near-balanced by construction
    assert abs(np.mean(np.sign(x))) < 0.03


def test_pareto_tail_index():
    # P(|X| > x) = x^(-alpha) exactly: quantile check at the 99th percentile
    x = sample_sym_pareto(0.8, SeededStream(11), 200_000)
    q = np.quantile(np.abs(x), 0.99)
    assert q == pytest.approx(0.01 ** (-1 / 0.8), rel=0.1)


def test_gaussian_moments():
    x = sample_gaussian(SeededStream(13), 200_000)
    assert abs(x.mean()) < 0.01
    assert x.std() == pytest.approx(1.0, abs=0.01)


def test_stable_alpha_two_is_gaussian_variance_two():
    x = sample_sym_stable(2.0, SeededStream(17), 200_000)
    assert x.std() == pytest.approx(np.sqrt(2.0), rel=0.01)


def test_cauchy_quartiles():
    # standard Cauchy quartiles are +-1 exactly
    x = sample_sym_stable(1.0, SeededStream(19), 200_000)
    assert np.quantile(x, 0.75) == pytest.approx(1.0, abs=0.02)
    assert np.quantile(x, 0.25) == pytest.approx(-1.0, abs=0.02)


def test_bad_n_rejected():
    with pytest.raises(ParameterDomainError):
        sample_gaussian(SeededStream(1), 0)
    with pytest.raises(ParameterDomainError):
        sample_family(FamilySpec(kind="Gaussian"), SeededStream(1), -5)


def _stable_reference(alpha, u, scale):
    # the whole-array transforms the blocked samplers must reproduce
    theta = (u[:, 0] - 0.5) * np.pi
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


def test_stable_draw_memory_is_bounded():
    # the output plus one block of temporaries; the whole-array transform held
    # several n-sized temporaries at once
    n = 100_000
    tracemalloc.start()
    try:
        sample_sym_stable(1.5, SeededStream(5), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 8 + 2**20
