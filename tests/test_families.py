import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfnorm import FAMILY_KINDS, FamilySpec, ParameterDomainError, SeededStream, sample_family
from selfnorm.families import sample_gaussian, sample_sym_pareto, sample_sym_stable


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


@pytest.mark.parametrize("kind,alpha", [("SymStable", 1.3), ("SymPareto", 2.0),
                                        ("Gaussian", 2.0), ("StudentT", 4.0)])
def test_same_stream_same_sample(kind, alpha):
    spec = FamilySpec(kind=kind, alpha=alpha)
    a = sample_family(spec, SeededStream(99, 3), 500)
    b = sample_family(spec, SeededStream(99, 3), 500)
    assert np.array_equal(a.values, b.values)
    assert a.n == 500 and a.spec == spec


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_different_stream_index_decorrelates(kind):
    spec = FamilySpec(kind=kind, alpha=2.0 if kind == "Gaussian" else 1.5)
    a = sample_family(spec, SeededStream(99, 0), 200)
    b = sample_family(spec, SeededStream(99, 1), 200)
    assert not np.array_equal(a.values, b.values)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_prefix_coherence_along_n(kind):
    # first m variates of a size-n draw equal the size-m draw exactly where the
    # family declares it (StudentT does not: its chi-square rejection sampler
    # has no fixed per-variate draw count)
    spec = FamilySpec(kind=kind, alpha=2.0 if kind == "Gaussian" else 1.2)
    short = sample_family(spec, SeededStream(7, 0), 100)
    long = sample_family(spec, SeededStream(7, 0), 1000)
    assert np.array_equal(short.values, long.values[:100]) == spec.prefix_coherent


@given(scale=st.floats(0.1, 50.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_scale_equivariance(scale, seed):
    base = sample_sym_stable(1.5, SeededStream(seed), 64)
    scaled = sample_sym_stable(1.5, SeededStream(seed), 64, scale=scale)
    assert np.allclose(scaled.values, scale * base.values, rtol=1e-12)


def test_pareto_support_and_symmetry():
    batch = sample_sym_pareto(1.0, SeededStream(5), 20_000)
    assert np.all(np.abs(batch.values) >= 1.0)
    # sign comes from an independent uniform: near-balanced by construction
    assert abs(np.mean(np.sign(batch.values))) < 0.03


def test_pareto_tail_index():
    # P(|X| > x) = x^(-alpha) exactly: quantile check at the 99th percentile
    batch = sample_sym_pareto(0.8, SeededStream(11), 200_000)
    q = np.quantile(np.abs(batch.values), 0.99)
    assert q == pytest.approx(0.01 ** (-1 / 0.8), rel=0.1)


def test_gaussian_moments():
    batch = sample_gaussian(SeededStream(13), 200_000)
    assert abs(batch.values.mean()) < 0.01
    assert batch.values.std() == pytest.approx(1.0, abs=0.01)


def test_stable_alpha_two_is_gaussian_variance_two():
    batch = sample_sym_stable(2.0, SeededStream(17), 200_000)
    assert batch.values.std() == pytest.approx(np.sqrt(2.0), rel=0.01)


def test_cauchy_quartiles():
    # standard Cauchy quartiles are +-1 exactly
    batch = sample_sym_stable(1.0, SeededStream(19), 200_000)
    assert np.quantile(batch.values, 0.75) == pytest.approx(1.0, abs=0.02)
    assert np.quantile(batch.values, 0.25) == pytest.approx(-1.0, abs=0.02)


def test_bad_n_rejected():
    with pytest.raises(ParameterDomainError):
        sample_gaussian(SeededStream(1), 0)
    with pytest.raises(ParameterDomainError):
        sample_family(FamilySpec(kind="Gaussian"), SeededStream(1), -5)
