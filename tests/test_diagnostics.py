import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from selfnorm import (
    FamilySpec,
    NonFiniteSampleError,
    ParameterDomainError,
    ProcessPath,
    SeededStream,
    darling_ratio,
    max_ratio,
    modulus_of_continuity,
    p_norm,
    sample_family,
)
from selfnorm.process import _max_oscillations

# a numpy RuntimeWarning fails the test: the path layer raises or handles
# each overflow and invalid operation itself, and a test that makes one on
# purpose says so with np.errstate
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
                     lambda: sum_sq_ratio(x, 1.5), lambda: p_norm(x, 0.5)):
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


def test_modulus_domain():
    path = ProcessPath(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ParameterDomainError):
        modulus_of_continuity(path, 0.0)
    with pytest.raises(ParameterDomainError):
        modulus_of_continuity(path, 1.5)


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
    got = tuple(_max_oscillations(y, d) for d in deltas)
    assert got == _brute_oscillations(y, deltas)
    assert got == _scipy_oscillations(y, deltas)


def _ulps(got, want) -> float:
    return max(abs(g - w) / np.spacing(abs(w)) for g, w in zip(got, want))


def _exact_ranges(y, deltas):
    """The largest max-minus-min of y over every window, in exact rational arithmetic."""
    exact = [Fraction(v) for v in y]
    out = []
    for d in deltas:
        w = int(np.floor(d * (y.size - 1) + 1e-9))
        out.append(Fraction(0) if w < 1 else
                   max(max(exact[j:j + w + 1]) - min(exact[j:j + w + 1])
                       for j in range(y.size - w)))
    return out


@given(nonzero_arrays, delta_lists, st.floats(0.5, 2.0))
@settings(max_examples=400, deadline=None)
def test_modulus_is_the_largest_range_of_s_divided_by_v(values, deltas, p):
    # the spec: fl(fl(R)/V), R the exact largest window range of the prefix
    # sums S_k = V Y(k/n), for each delta; two roundings leave it within 2
    # ulps of R/V
    path = ProcessPath(values, p)
    ranges = _exact_ranges(path.sums, deltas)
    want = tuple(float(r) / path.v for r in ranges)
    assert [modulus_of_continuity(path, d).hex() for d in deltas] == [x.hex() for x in want]
    for x, r in zip(want, ranges):
        assert abs(Fraction(x) - r / Fraction(path.v)) <= 2 * Fraction(np.spacing(x))


def _path_over(sums, v: float) -> ProcessPath:
    """A path whose prefix sums and V are set as given: the modulus reads only these two."""
    path = ProcessPath(np.ones(len(sums) - 1), 2.0)
    object.__setattr__(path, "sums", np.array(sums, dtype=float))
    object.__setattr__(path, "v", v)
    return path


def test_modulus_where_n_is_large_against_its_ranges():
    # S in [1e6, 1e6 + 1]: the pass over Y = S/V rounds each node near 3e5
    # before subtracting and lands 699 051 ulps off 1/3; the range of S is exact
    sums, v = np.array([1e6, 1e6 + 1, 1e6 + 0.5]), 3.0
    assert modulus_of_continuity(_path_over(sums, v), 0.5) == 1 / 3
    assert _ulps((1 / 3,), (_max_oscillations(sums / v, 0.5),)) > 699_000


def test_modulus_of_unit_steps_is_one_step_over_v():
    # every window of one mesh step rises by exactly 1 in S; the exact pass
    # over Y = S/V rounds k/V and (k - 1)/V apart and lands about 400 ulps off
    path = ProcessPath(np.ones(1000), 2.0)
    assert modulus_of_continuity(path, 1e-3) == 1.0 / path.v
    assert modulus_of_continuity(path, 0.5) == 500.0 / path.v


def test_modulus_where_a_range_of_n_overflows_takes_the_exact_pass():
    # S = 0.9e308 and -0.9e308 lie one window apart: their range overflows,
    # the range of Y = S/V does not, and no overflow warning is raised
    path = ProcessPath(np.array([0.9e308, -1.0e308, -0.8e308, 1.0]), 2.0)
    assert modulus_of_continuity(path, 0.5) == 1.1499778169998915
    assert modulus_of_continuity(path, 1.0) == 1.1499778169998915


@pytest.mark.parametrize("y, deltas, want", [
    ([0.0, 2.0], (1.0, 0.5, 0.4), (2.0, 0.0, 0.0)),  # one mesh step: only delta = 1 spans it
    ([0.0, 3.0, -1.0], (0.4, 1.0, 0.5), (0.0, 4.0, 4.0)),  # sub-mesh and whole-path windows
    ([1.0, 1.0, 1.0, 1.0], (0.25, 1.0, 0.5), (0.0, 0.0, 0.0)),  # constant path
    ([2.0, 0.0, 2.0, 0.0, 1.0], (0.5, 0.25, 0.75), (2.0, 2.0, 2.0)),  # tied max and min
])
def test_max_oscillations_edge_cases(y, deltas, want):
    y = np.array(y)
    assert tuple(_max_oscillations(y, d) for d in deltas) == want
    assert _scipy_oscillations(y, deltas) == want


@pytest.mark.parametrize("n", [4000, 16000])
def test_modulus_reads_the_node_grid_exactly(n):
    # the largest one-step rise is the spike X_1001 = 1e12 = V, from S_1000 to
    # S_1001; n (k/n) != k at k = 1001, and interpolating at that float time
    # reads 0.1136 below S_1001, which would leave the modulus 512 ulps low
    x = np.ones(n)
    x[1000] = 1e12
    path = ProcessPath(x, 2.0)
    assert modulus_of_continuity(path, 1 / n) == 1.0
    assert n * (1001 / n) != 1001


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats alone costs about 47 MB of resident memory
    import selfnorm
    src = str(Path(selfnorm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    heavy = ("scipy.ndimage", "scipy.stats", "scipy.integrate", "scipy.linalg")
    code = f"import sys, selfnorm; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@given(nonzero_arrays, st.floats(0.05, 1.0), st.floats(1.0, 2.0))
@settings(max_examples=80, deadline=None)
def test_p_norm_ordering(values, alpha, beta):
    # V_{n,alpha} >= V_{n,1} >= V_{n,beta} >= V_{n,2} for alpha <= 1 <= beta <= 2
    vals = [p_norm(np.array(values), q) for q in (alpha, 1.0, beta, 2.0)]
    slack = [1e-10 * max(a, b) for a, b in zip(vals, vals[1:])]
    assert all(b <= a + s for a, b, s in zip(vals, vals[1:], slack))
