import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from selfnorm import (
    DegenerateSampleError,
    FamilySpec,
    ParameterDomainError,
    ProcessPath,
    SampleBatch,
    SeededStream,
    ek_functionals,
    p_norm,
    partial_sums,
    sample_family,
    y_at,
    y_path,
)

SPEC = FamilySpec(kind="Gaussian")


def batch_of(values) -> SampleBatch:
    arr = np.asarray(values, dtype=float)
    return SampleBatch(values=arr, spec=SPEC, n=arr.size)


finite_arrays = hnp.arrays(
    np.float64, st.integers(1, 60),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def test_partial_sums_prepends_zero():
    assert np.array_equal(partial_sums(batch_of([1.0, -2.0, 3.0])), [0.0, 1.0, -1.0, 2.0])


def test_compensated_cumsum_matches_naive_on_long_input():
    x = SeededStream(3).generator().standard_normal(150_000)
    got = partial_sums(batch_of(x))[1:]
    assert np.allclose(got, np.cumsum(x), rtol=1e-12, atol=1e-9)


def test_p_norm_hand_values():
    b = batch_of([1.0, -2.0, 3.0])
    assert p_norm(b, 1.0) == pytest.approx(6.0, rel=1e-14)
    assert p_norm(b, 2.0) == pytest.approx(np.sqrt(14.0), rel=1e-14)


def test_p_norm_survives_huge_values():
    # naive sum |x|^2 overflows at 1e200; max-rescaling must not
    v = p_norm(batch_of([1e200, -1e200]), 2.0)
    assert v == pytest.approx(1e200 * np.sqrt(2.0), rel=1e-12)


def test_p_norm_domain():
    with pytest.raises(ParameterDomainError):
        p_norm(batch_of([1.0]), 2.5)
    with pytest.raises(ParameterDomainError):
        p_norm(batch_of([1.0]), 0.0)


def test_all_zero_sample_raises():
    with pytest.raises(DegenerateSampleError):
        ProcessPath(batch_of([0.0, 0.0]), 1.0)


def test_y_at_knots_and_interpolation():
    b = batch_of([1.0, -2.0, 3.0])
    path = ProcessPath(b, 2.0)
    v = np.sqrt(14.0)
    assert y_at(path, 0.0) == 0.0
    assert y_at(path, 1.0 / 3.0) == pytest.approx(1.0 / v, rel=1e-14)
    assert y_at(path, 2.0 / 3.0) == pytest.approx(-1.0 / v, rel=1e-14)
    assert y_at(path, 1.0) == pytest.approx(2.0 / v, rel=1e-14)
    # halfway into the second increment: S_1 + 0.5 X_2
    assert y_at(path, 0.5) == pytest.approx((1.0 - 1.0) / v, abs=1e-14)


def test_y_at_domain():
    path = ProcessPath(batch_of([1.0]), 1.0)
    with pytest.raises(ParameterDomainError):
        y_at(path, -0.1)
    with pytest.raises(ParameterDomainError):
        y_at(path, 1.1)


def test_y_path_matches_pointwise():
    batch = sample_family(FamilySpec(kind="SymStable", alpha=1.2), SeededStream(23), 257)
    path = ProcessPath(batch, 1.2)
    grid = np.linspace(0.001, 1.0, 97)
    vec = y_path(path, grid)
    pts = np.array([y_at(path, t) for t in grid])
    assert np.allclose(vec, pts, rtol=1e-13, atol=1e-15)


def test_y_path_rejects_bad_grids():
    path = ProcessPath(batch_of([1.0, 2.0]), 1.0)
    with pytest.raises(ParameterDomainError):
        y_path(path, [])
    with pytest.raises(ParameterDomainError):
        y_path(path, [0.2, 0.2])
    with pytest.raises(ParameterDomainError):
        y_path(path, [0.2, 1.3])


@given(finite_arrays, st.floats(0.05, 2.0), st.floats(1.1, 1e6))
@settings(max_examples=60, deadline=None)
def test_self_normalization_is_scale_invariant(values, p, c):
    if np.max(np.abs(values)) == 0.0:
        return
    a = ProcessPath(batch_of(values), p)
    b = ProcessPath(batch_of(c * values), p)
    grid = np.linspace(0.1, 1.0, 7)
    assert np.allclose(y_path(a, grid), y_path(b, grid), rtol=1e-9, atol=1e-12)


@given(finite_arrays, st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_endpoint_bounded_by_norm_chain(values, p):
    # |S_n| <= V_{n,1} and V_{n,1} <= V_{n,p} for p <= 1: |Y(1)| <= 1 when p <= 1
    if np.max(np.abs(values)) == 0.0:
        return
    path = ProcessPath(batch_of(values), p)
    if p <= 1.0:
        assert abs(y_at(path, 1.0)) <= 1.0 + 1e-10


def test_ek_functionals_hand_values():
    b = batch_of([1.0, -2.0, 3.0])
    v = np.sqrt(14.0)
    ek = ek_functionals(ProcessPath(b, 2.0))
    assert ek.max_sn == pytest.approx(2.0 / v, rel=1e-14)
    assert ek.max_abs_sn == pytest.approx(2.0 / v, rel=1e-14)
    assert ek.mean_sq == pytest.approx((1.0 + 1.0 + 4.0) / 14.0 / 3.0, rel=1e-14)
    assert ek.mean_abs == pytest.approx((1.0 + 1.0 + 2.0) / v / 3.0, rel=1e-14)


@given(finite_arrays)
@settings(max_examples=40, deadline=None)
def test_ek_consistent_with_path(values):
    if np.max(np.abs(values)) == 0.0:
        return
    b = batch_of(values)
    path = ProcessPath(b, 2.0)
    knots = np.arange(1, b.n + 1) / b.n
    ys = y_path(path, knots)
    ek = ek_functionals(path)
    assert ek.max_sn == pytest.approx(ys.max(), rel=1e-12, abs=1e-12)
    assert ek.max_abs_sn == pytest.approx(np.abs(ys).max(), rel=1e-12, abs=1e-12)
