import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from selfnorm import (
    ExperimentConfig,
    FamilySpec,
    NonFiniteSampleError,
    ParameterDomainError,
    ProcessPath,
    SeededStream,
    darling_ratio,
    max_ratio,
    modulus_of_continuity,
    norm_chain,
    sample_family,
    y_path,
)
from selfnorm.diagnostics import _max_oscillations

nonzero_arrays = hnp.arrays(
    np.float64, st.integers(2, 50),
    elements=st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False),
).filter(lambda a: np.max(np.abs(a)) > 0)


def test_max_ratio_hand_values():
    b = np.array([1.0, -2.0, 3.0])
    assert max_ratio(b, 1.0) == pytest.approx(3.0 / 6.0, rel=1e-14)
    assert max_ratio(b, 2.0) == pytest.approx(3.0 / np.sqrt(14.0), rel=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ratios_reject_non_finite_samples(bad):
    from selfnorm import sum_sq_ratio
    x = np.array([1.0, bad, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raise before any power or division warns
        for call in (lambda: max_ratio(x, 1.5), lambda: darling_ratio(x),
                     lambda: sum_sq_ratio(x, 1.5), lambda: norm_chain(x, 0.5, 1.5)):
            with pytest.raises(NonFiniteSampleError):
                call()


def test_darling_is_squared_max_ratio():
    b = np.array([1.0, -2.0, 3.0])
    assert darling_ratio(b) == pytest.approx(9.0 / 14.0, rel=1e-14)
    assert darling_ratio(b) == pytest.approx(max_ratio(b, 2.0) ** 2, rel=1e-12)


@given(nonzero_arrays, st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_max_ratio_bounds(values, p):
    r = max_ratio(np.array(values), p)
    n = len(values)
    assert n ** (-1.0 / p) - 1e-12 <= r <= 1.0 + 1e-12


def test_sum_sq_ratio_is_one_at_alpha_two():
    b = np.array([0.5, -4.0, 2.5])
    from selfnorm import sum_sq_ratio
    assert sum_sq_ratio(b, 2.0) == pytest.approx(1.0, rel=1e-13)
    assert sum_sq_ratio(b, 1.0) == pytest.approx((0.25 + 16.0 + 6.25) / 49.0, rel=1e-13)


@given(nonzero_arrays, st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_sum_sq_ratio_at_most_one(values, alpha):
    from selfnorm import sum_sq_ratio
    assert sum_sq_ratio(np.array(values), alpha) <= 1.0 + 1e-12


def test_modulus_full_window_is_total_oscillation():
    b = np.array([1.0, -2.0, 3.0])
    path = ProcessPath(b, 2.0)
    v = np.sqrt(14.0)
    # knot values 0, 1/v, -1/v, 2/v: total oscillation (2 - (-1))/v
    assert modulus_of_continuity(path, 1.0) == pytest.approx(3.0 / v, rel=1e-13)


def test_modulus_single_step_is_largest_increment():
    b = np.array([1.0, -2.0, 3.0])
    path = ProcessPath(b, 2.0)
    assert modulus_of_continuity(path, 1.0 / 3.0) == pytest.approx(3.0 / np.sqrt(14.0), rel=1e-13)


def test_modulus_monotone_in_delta():
    x = sample_family(FamilySpec(kind="SymStable", alpha=1.5), SeededStream(31), 400)
    path = ProcessPath(x, 1.5)
    oms = [modulus_of_continuity(path, d) for d in (0.05, 0.1, 0.2, 0.5, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(oms, oms[1:]))


def test_modulus_refinement_consistent():
    # knots already lie on the coarse grid; refining cannot change node values,
    # only add interpolated points between them
    x = sample_family(FamilySpec(kind="Gaussian"), SeededStream(37), 50)
    path = ProcessPath(x, 2.0)
    coarse = modulus_of_continuity(path, 0.2)
    fine = modulus_of_continuity(path, 0.2, grid_refinement=4)
    assert fine == pytest.approx(coarse, rel=1e-10)


def test_modulus_domain():
    path = ProcessPath(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ParameterDomainError):
        modulus_of_continuity(path, 0.0)
    with pytest.raises(ParameterDomainError):
        modulus_of_continuity(path, 1.5)
    with pytest.raises(ParameterDomainError):
        modulus_of_continuity(path, 0.5, grid_refinement=0)


def _brute_oscillations(y, deltas):
    """max - min over every window of w + 1 nodes, O(len(y) * w) per delta."""
    out = []
    for d in deltas:
        w = int(np.floor(d * (y.size - 1) + 1e-9))
        out.append(0.0 if w < 1 else
                   max(float(y[j:j + w + 1].max() - y[j:j + w + 1].min())
                       for j in range(y.size - w)))
    return tuple(out)


def _scipy_oscillations(y, deltas):
    """Reference: one centred scipy filter pair per delta, mode="nearest"."""
    from scipy.ndimage import maximum_filter1d, minimum_filter1d
    out = []
    for d in deltas:
        w = int(np.floor(d * (y.size - 1) + 1e-9))
        if w < 1:
            out.append(0.0)
            continue
        hi = maximum_filter1d(y, size=w + 1, mode="nearest")
        lo = minimum_filter1d(y, size=w + 1, mode="nearest")
        out.append(float((hi - lo).max()))
    return tuple(out)


# few distinct values, so windows hold ties and constant runs
node_values = hnp.arrays(
    np.float64, st.integers(2, 60),
    elements=st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)),
)
# 1.0, sub-mesh widths, duplicates and any order
delta_lists = st.lists(
    st.one_of(st.sampled_from([1.0, 0.5, 1e-3]), st.floats(1e-3, 1.0)), min_size=1, max_size=6,
)


@given(node_values, delta_lists)
@settings(max_examples=200, deadline=None)
def test_max_oscillations_equal_brute_force_and_scipy(y, deltas):
    got = _max_oscillations(y, deltas)
    assert got == _brute_oscillations(y, deltas)
    assert got == _scipy_oscillations(y, deltas)


@pytest.mark.parametrize("y, deltas, want", [
    ([0.0, 2.0], (1.0, 0.5, 0.4), (2.0, 0.0, 0.0)),  # one mesh step: only delta = 1 spans it
    ([0.0, 3.0, -1.0], (0.4, 1.0, 0.5, 1.0), (0.0, 4.0, 4.0, 4.0)),  # sub-mesh, duplicates, unsorted
    ([1.0, 1.0, 1.0, 1.0], (0.25, 1.0, 0.5), (0.0, 0.0, 0.0)),  # constant path
    ([2.0, 0.0, 2.0, 0.0, 1.0], (0.5, 0.25, 0.75), (2.0, 2.0, 2.0)),  # tied max and min
])
def test_max_oscillations_edge_cases(y, deltas, want):
    y = np.array(y)
    assert _max_oscillations(y, deltas) == want
    assert _scipy_oscillations(y, deltas) == want


@pytest.mark.parametrize("refinement", [1, 4])
def test_modulus_matches_one_pass_over_delta_grid(refinement):
    x = sample_family(FamilySpec(kind="SymStable", alpha=1.5), SeededStream(41), 500)
    path = ProcessPath(x, 1.5)
    deltas = ExperimentConfig.delta_grid
    npts = refinement * x.size
    oms = _max_oscillations(y_path(path, np.arange(npts + 1) / npts), deltas)
    assert oms == tuple(modulus_of_continuity(path, d, grid_refinement=refinement) for d in deltas)


def test_import_leaves_scipy_ndimage_unloaded():
    import selfnorm
    src = str(Path(selfnorm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, selfnorm; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


@given(nonzero_arrays, st.floats(0.05, 1.0), st.floats(1.0, 2.0))
@settings(max_examples=80, deadline=None)
def test_norm_chain_ordering(values, alpha, beta):
    chain = norm_chain(np.array(values), alpha, beta)
    vals = list(chain)
    slack = [1e-10 * max(a, b) for a, b in zip(vals, vals[1:])]
    assert all(b <= a + s for a, b, s in zip(vals, vals[1:], slack))


def test_norm_chain_domain():
    b = np.array([1.0, 2.0])
    with pytest.raises(ParameterDomainError):
        norm_chain(b, 1.2, 1.5)
    with pytest.raises(ParameterDomainError):
        norm_chain(b, 0.5, 2.3)
