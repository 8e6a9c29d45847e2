import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from selfnorm import (
    DegenerateSampleError,
    FamilySpec,
    NonFiniteSampleError,
    ParameterDomainError,
    ProcessPath,
    SeededStream,
    ek_functionals,
    p_norm,
    partial_sums,
    sample_family,
    y_at,
    y_path,
)

# a numpy RuntimeWarning fails the test: the path layer raises or handles
# each overflow and invalid operation itself, and a test that makes one on
# purpose says so with np.errstate
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

finite_arrays = hnp.arrays(
    np.float64, st.integers(1, 60),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def test_partial_sums_prepends_zero():
    assert np.array_equal(partial_sums(np.array([1.0, -2.0, 3.0])), [0.0, 1.0, -1.0, 2.0])


def test_compensated_cumsum_matches_naive_on_long_input():
    x = SeededStream(3).generator().standard_normal(150_000)
    got = partial_sums(np.array(x))[1:]
    assert np.allclose(got, np.cumsum(x), rtol=1e-12, atol=1e-9)


def test_p_norm_hand_values():
    b = np.array([1.0, -2.0, 3.0])
    assert p_norm(b, 1.0) == pytest.approx(6.0, rel=1e-14)
    assert p_norm(b, 2.0) == pytest.approx(np.sqrt(14.0), rel=1e-14)
    assert p_norm([1.0, -2.0, 3.0], 2.0) == p_norm(b, 2.0)  # array-likes are accepted


def test_p_norm_survives_huge_values():
    # naive sum |x|^2 overflows at 1e200; max-rescaling must not
    v = p_norm(np.array([1e200, -1e200]), 2.0)
    assert v == pytest.approx(1e200 * np.sqrt(2.0), rel=1e-12)


def test_p_norm_domain():
    with pytest.raises(ParameterDomainError):
        p_norm(np.array([1.0]), 2.5)
    with pytest.raises(ParameterDomainError):
        p_norm(np.array([1.0]), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_raises(bad):
    # one O(1) check on max|x|, before any power or division can warn
    x = np.array([1.0, bad, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError):
            p_norm(x, 1.5)
        with pytest.raises(NonFiniteSampleError):
            ProcessPath(x, 2.0)


def test_process_path_holds_the_sample():
    x = np.array([1.0, -2.0, 3.0])
    path = ProcessPath(x, 2.0)
    assert path.values is x and path.n == 3
    listed = ProcessPath([1, -2, 3], 2.0)
    assert listed.values.dtype == np.float64 and listed.n == 3
    assert np.array_equal(listed.sums, path.sums) and listed.v == path.v


def test_all_zero_sample_raises():
    with pytest.raises(DegenerateSampleError):
        ProcessPath(np.array([0.0, 0.0]), 1.0)


def test_y_at_knots_and_interpolation():
    b = np.array([1.0, -2.0, 3.0])
    path = ProcessPath(b, 2.0)
    v = np.sqrt(14.0)
    assert y_at(path, 0.0) == 0.0
    assert y_at(path, 1.0 / 3.0) == pytest.approx(1.0 / v, rel=1e-14)
    assert y_at(path, 2.0 / 3.0) == pytest.approx(-1.0 / v, rel=1e-14)
    assert y_at(path, 1.0) == pytest.approx(2.0 / v, rel=1e-14)
    # halfway into the second increment: S_1 + 0.5 X_2
    assert y_at(path, 0.5) == pytest.approx((1.0 - 1.0) / v, abs=1e-14)


def test_y_at_domain():
    path = ProcessPath(np.array([1.0]), 1.0)
    with pytest.raises(ParameterDomainError):
        y_at(path, -0.1)
    with pytest.raises(ParameterDomainError):
        y_at(path, 1.1)
    with pytest.raises(ParameterDomainError):
        y_at(path, float("nan"))


def test_y_path_matches_pointwise():
    x = sample_family(FamilySpec(kind="SymStable", alpha=1.2), SeededStream(23), 257)
    path = ProcessPath(x, 1.2)
    grid = np.linspace(0.001, 1.0, 97)
    vec = y_path(path, grid)
    pts = np.array([y_at(path, t) for t in grid])
    assert np.array_equal(vec, pts)  # y_at is y_path on a one-point grid


def test_y_path_rejects_bad_grids():
    path = ProcessPath(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ParameterDomainError):
        y_path(path, [])
    with pytest.raises(ParameterDomainError):
        y_path(path, [0.2, 0.2])
    with pytest.raises(ParameterDomainError):
        y_path(path, [0.2, 1.3])
    # NaN fails the range check, never reaches the index arithmetic
    with pytest.raises(ParameterDomainError):
        y_path(path, [0.5, np.nan])
    with pytest.raises(ParameterDomainError):
        y_path(path, [np.nan])


@given(finite_arrays, st.floats(0.05, 2.0), st.floats(1.1, 1e6))
@settings(max_examples=60, deadline=None)
def test_self_normalization_is_scale_invariant(values, p, c):
    if np.max(np.abs(values)) == 0.0:
        return
    a = ProcessPath(np.array(values), p)
    b = ProcessPath(np.array(c * values), p)
    grid = np.linspace(0.1, 1.0, 7)
    assert np.allclose(y_path(a, grid), y_path(b, grid), rtol=1e-9, atol=1e-12)


@given(finite_arrays, st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_endpoint_bounded_by_norm_chain(values, p):
    # |S_n| <= V_{n,1} and V_{n,1} <= V_{n,p} for p <= 1: |Y(1)| <= 1 when p <= 1
    if np.max(np.abs(values)) == 0.0:
        return
    path = ProcessPath(np.array(values), p)
    if p <= 1.0:
        assert abs(y_at(path, 1.0)) <= 1.0 + 1e-10


def test_ek_functionals_hand_values():
    b = np.array([1.0, -2.0, 3.0])
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
    b = np.array(values)
    path = ProcessPath(b, 2.0)
    knots = np.arange(1, b.size + 1) / b.size
    ys = y_path(path, knots)
    ek = ek_functionals(path)
    assert ek.max_sn == pytest.approx(ys.max(), rel=1e-12, abs=1e-12)
    assert ek.max_abs_sn == pytest.approx(np.abs(ys).max(), rel=1e-12, abs=1e-12)
