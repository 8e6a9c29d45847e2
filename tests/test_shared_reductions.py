"""The scans read one rescale and one set of prefix sums per prefix.

Each (replication, n) builds one ProcessPath, and one more per further p
of a regime_map row, sharing its reductions (`ProcessPath.at_p`); V_{n,p},
max_ratio, darling_ratio and sum_sq_ratio come from the rescaled sample's
power sums, Y(1) from S_n, and the EK functionals from the shared extremes
of S_k and |S_k|. These tests hold what the scans get to the public
functions, and to a reference that rescales the sample anew for each
statistic, bit for bit. The public modulus of continuity is the largest
window range of S divided by V (Y(k/n) = S_k/V on the node grid), within 4
ulps of the exact pass over every window of S/V.
"""
import warnings

import numpy as np
import pytest

from selfnorm import (
    DegenerateSampleError,
    FDD_T_GRID,
    ExperimentConfig,
    FamilySpec,
    ParameterDomainError,
    ProcessPath,
    SeededStream,
    darling_ratio,
    ek_functionals,
    max_ratio,
    modulus_of_continuity,
    p_norm,
    run_experiment,
    sample_family,
    sum_sq_ratio,
    y_at,
    y_path,
)
from selfnorm import diagnostics, harness
from selfnorm.process import _max_oscillations

# a numpy RuntimeWarning fails the test: the path layer raises or handles
# each overflow and invalid operation itself, and a test that makes one on
# purpose says so with np.errstate
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# (family, p): alpha == p, alpha = 2 with p = 2 and p < 2, p = 2 above alpha,
# and alpha != p on both sides, over all four families
CASES = [
    (FamilySpec(kind="SymStable", alpha=1.5), 1.5),
    (FamilySpec(kind="SymStable", alpha=0.8), 2.0),
    (FamilySpec(kind="SymPareto", alpha=1.0), 1.5),
    (FamilySpec(kind="Gaussian"), 2.0),
    (FamilySpec(kind="Gaussian"), 1.0),
    (FamilySpec(kind="StudentT", alpha=1.5), 0.8),
]
# 4 000 and 16 000 have nodes with n (k/n) != k; 1 000 has none
N_VALUES = (49, 1000, 4000, 16000)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _ulps(got, want) -> float:
    return max(abs(g - w) / np.spacing(abs(w)) for g, w in zip(got, want))


def _scan_configs(family: FamilySpec, p: float, n: int) -> dict[str, ExperimentConfig]:
    return {kind: ExperimentConfig(family=family, p=p, n_grid=(n,), reps=2, master_seed=1,
                                   experiment=kind)
            for kind in (*harness.REGIME_SCAN_KINDS, "fdd_covariance")}


def _old_ratios(x: np.ndarray, p: float, alpha: float) -> dict[str, float]:
    # reference: each statistic from its own rescale of the sample
    ax = np.abs(x)
    m = float(ax.max())
    q = ax / m
    return {
        "v": m * float(((ax / m) ** p).sum()) ** (1.0 / p),
        "max_ratio": float((q**p).sum() ** (-1.0 / p)),
        "darling_ratio": float(1.0 / (q * q).sum()),
        "sum_sq_ratio": float((q * q).sum() / (q**alpha).sum() ** (2.0 / alpha)),
    }


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("family,p", CASES, ids=lambda v: getattr(v, "kind", v))
def test_scan_stats_equal_the_public_functions_bit_for_bit(family, p, n):
    x = sample_family(family, SeededStream(7, n), n)
    configs = _scan_configs(family, p, n)
    path = ProcessPath(x, p)  # one path, shared by every scan as in the kernel
    got = {kind: harness._KINDS[cfg.experiment].stats(cfg, x, path, None) for kind, cfg in configs.items()}

    fresh = ProcessPath(x, p)
    nodes = fresh.sums / fresh.v  # Y(k/n) = S_k/V, divided anew
    old = _old_ratios(x, p, family.alpha)
    assert _hex([path.v, p_norm(x, p)]) == _hex([old["v"]] * 2)

    assert _hex(got["degenerate_scan"]) == _hex((y_at(fresh, 1.0),))
    assert _hex(got["degenerate_scan"]) == _hex((nodes[-1],))

    assert _hex(got["tightness_scan"]) == _hex((darling_ratio(x), max_ratio(x, p)))
    assert _hex(got["tightness_scan"]) == _hex((old["darling_ratio"], old["max_ratio"]))

    ek = ek_functionals(fresh)
    assert _hex(got["ek_functionals"]) == _hex((ek.max_sn, ek.max_abs_sn, ek.mean_sq, ek.mean_abs))
    s = fresh.sums[1:] / fresh.v  # reference: S_k/V divided anew
    assert _hex(got["ek_functionals"]) == _hex(
        (s.max(), np.abs(s).max(), np.mean(s * s), np.abs(s).mean()))
    assert _hex(got["fdd_covariance"]) == _hex(y_path(fresh, FDD_T_GRID))

    # one power sum per distinct exponent: the scans read S_p and S_2, and
    # sum_sq_ratio adds S_alpha only where alpha != p
    assert set(path.rescaled._sums) == {p, 2.0}
    assert _hex([path.rescaled.sum_sq_ratio(family.alpha)] * 2) == \
        _hex([sum_sq_ratio(x, family.alpha), old["sum_sq_ratio"]])
    assert set(path.rescaled._sums) == {p, 2.0, family.alpha}


@pytest.mark.parametrize("n", N_VALUES)
@pytest.mark.parametrize("family,p", CASES, ids=lambda v: getattr(v, "kind", v))
def test_modulus_is_the_largest_range_of_s_over_v_bit_for_bit(family, p, n):
    x = sample_family(family, SeededStream(7, n), n)
    path = ProcessPath(x, p)
    old_v = _old_ratios(x, p, family.alpha)["v"]
    nodes = path.sums / path.v  # Y(k/n) = S_k/V, divided anew
    for delta in (0.5, 0.2, 0.1, 0.05):
        om = modulus_of_continuity(path, delta)
        assert _hex([om]) == _hex([_max_oscillations(path.sums, delta) / old_v])
        assert _ulps([om], [_max_oscillations(nodes, delta)]) <= 4


def test_node_grid_is_not_s_over_v_at_every_node():
    # y_path's float time: n (k/n) != k at the counts its docstring and the
    # README state, and there it may interpolate from S_{k-1}
    for n, inexact in ((1000, 0), (4000, 35), (16000, 175)):
        k = np.arange(n + 1)
        assert int(np.count_nonzero(n * (k / n) != k)) == inexact
    x = sample_family(FamilySpec(kind="SymStable", alpha=1.5), SeededStream(3), 4000)
    path = ProcessPath(x, 1.5)
    k = np.arange(x.size + 1)
    exact = x.size * (k / x.size) == k
    nodes, s = y_path(path, k / x.size), path.sums / path.v
    assert nodes[exact].tobytes() == s[exact].tobytes()
    assert not np.array_equal(nodes, s)


def test_the_node_grid_read_is_s_over_v_at_every_node(monkeypatch):
    # the modulus and the endpoint read S_k itself: the window pass runs on
    # the path's sums, once per delta
    x = sample_family(FamilySpec(kind="SymStable", alpha=1.5), SeededStream(3), 4000)
    path = ProcessPath(x, 1.5)
    s = path.sums / path.v
    seen = []
    exact_pass = diagnostics._max_oscillations
    monkeypatch.setattr(diagnostics, "_max_oscillations", lambda y, d: seen.append(y) or exact_pass(y, d))
    deltas = (0.5, 0.2, 0.1, 0.05)
    assert _hex([modulus_of_continuity(path, d) for d in deltas]) == \
        _hex([exact_pass(path.sums, d) / path.v for d in deltas])
    assert len(seen) == len(deltas) and all(y is path.sums for y in seen)
    assert _hex([harness._endpoint(path)]) == _hex([s[-1]])


def test_edge_behaviour_of_the_shared_rescale():
    # NaN and inf are refused by test_process and test_diagnostics
    ratios = (lambda x: max_ratio(x, 1.5), darling_ratio, lambda x: sum_sq_ratio(x, 1.5))
    zeros = np.zeros(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # M = 0 is never divided by
        assert p_norm(zeros, 1.5) == 0.0
        for ratio in ratios:
            with pytest.raises(DegenerateSampleError):
                ratio(zeros)
    for fn in (lambda x: p_norm(x, 1.5), *ratios):
        with pytest.raises(ParameterDomainError):
            fn(np.array([]))
    with pytest.raises(ParameterDomainError):
        max_ratio(np.ones(3), 2.5)
    with pytest.raises(ParameterDomainError):
        sum_sq_ratio(np.ones(3), 0.0)


@pytest.mark.parametrize("family", [FamilySpec(kind="StudentT", alpha=3.0),
                                    FamilySpec(kind="StudentT", alpha=5.0),
                                    FamilySpec(kind="SymPareto", alpha=4.0)],
                         ids=lambda f: f"{f.kind}-{f.alpha:g}")
def test_degenerate_scan_of_a_tail_index_above_two(family):
    # a tail index above 2 means a finite variance, so the family lies in
    # DA(2); the scan reads the endpoint alone, which needs no stable index,
    # and the sum-of-squares ratio at the DA index min(alpha, 2) = 2 is 1
    cfg = ExperimentConfig(family=family, p=1.5, n_grid=(50, 200), reps=4, master_seed=1,
                           experiment="degenerate_scan")
    x = sample_family(family, SeededStream(1, 0), 200)
    assert _hex(harness._KINDS[cfg.experiment].stats(cfg, x, ProcessPath(x, 1.5), None)) == \
        _hex((y_at(ProcessPath(x, 1.5), 1.0),))
    rows = [(r.n, r.statistic) for r in run_experiment(cfg).aggregates]
    assert rows == [(n, stat) for n in (50, 200) for stat in ("mean_sq_self_norm", "exceedance")]
    assert sum_sq_ratio(x, 2.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterDomainError, match="alpha must lie in"):
        sum_sq_ratio(x, family.alpha)  # the public ratio still needs alpha in (0, 2]


@pytest.mark.parametrize("n", (49, 4000))
@pytest.mark.parametrize("family,p", CASES, ids=lambda v: getattr(v, "kind", v))
def test_path_at_another_p_equals_a_fresh_path_bit_for_bit(family, p, n):
    # a regime_map row reads every p of the row from one path's reductions
    x = sample_family(family, SeededStream(11, n), n)
    first = ProcessPath(x, 2.0 if p != 2.0 else 0.8)
    for c in _scan_configs(family, first.p, n).values():
        # the shared reductions exist before the second p reads them
        harness._KINDS[c.experiment].stats(c, x, first, None)
    path = first.at_p(p)
    fresh = ProcessPath(x, p)
    assert path.p == p and path.n == n
    assert path.values is first.values and path.sums is first.sums
    assert path.rescaled is first.rescaled and path._prefix is first._prefix
    assert _hex([path.v]) == _hex([fresh.v])
    assert path.sums.tobytes() == fresh.sums.tobytes()
    cfg = _scan_configs(family, p, n)
    assert [_hex(harness._KINDS[c.experiment].stats(c, x, path, None)) for c in cfg.values()] == \
        [_hex(harness._KINDS[c.experiment].stats(c, x, fresh, None)) for c in cfg.values()]


def test_path_at_another_p_refuses_what_a_fresh_path_refuses():
    path = ProcessPath(np.array([1.0, -2.0]), 1.0)
    with pytest.raises(ParameterDomainError):
        path.at_p(2.5)
    zeros = ProcessPath(np.array([1.0]), 1.0)
    object.__setattr__(zeros.rescaled, "m", 0.0)  # V = 0 at every p
    with pytest.raises(DegenerateSampleError):
        zeros.at_p(1.5)


# (hi_a, lo_a, hi_b, lo_b, V), found by search: window b's range of S is 3.0
# to 3.5 u max|S| below window a's, yet the exact pass over Y = S/V rounds
# its range of Y above a's
ROUNDING_WINS = [
    ("0x1.35f9027675f72p+0", "-0x1.9d8498b626997p-1", "0x1.b3ee868dae800p-1",
     "-0x1.2ac40b8ab203dp+0", "0x1.156987e8f1228p-2"),
    ("0x1.4627fce05ad7cp+0", "-0x1.f4610c17f2b8ep-1", "0x1.de183d61995cbp-1",
     "-0x1.514c643b8785dp+0", "0x1.8a67c159c02bfp-3"),
    ("0x1.4e42fbb92eec8p+0", "-0x1.1388173667ab2p+0", "0x1.d6918bac11ae4p-1",
     "-0x1.76824d198dc07p+0", "0x1.48edbdb90aa07p+2"),
    ("0x1.27eb3d2f26e96p+0", "-0x1.183e2593625c9p+0", "0x1.b3bdd8e662cbfp-1",
     "-0x1.664a764f57dffp+0", "0x1.13f1bfead0e1dp-2"),
    ("0x1.3eb556b03c281p+0", "-0x1.ae17227617434p-1", "0x1.30cb05cf8047cp+0",
     "-0x1.c9ebc4378f03dp-1", "0x1.2a4db82f8e43cp+1"),
]


def _path_over(sums, v: float) -> ProcessPath:
    """A path whose prefix sums and V are set as given: the modulus reads only these two."""
    path = ProcessPath(np.ones(len(sums) - 1), 2.0)
    object.__setattr__(path, "sums", np.array(sums, dtype=float))
    object.__setattr__(path, "v", v)
    return path


@pytest.mark.parametrize("case", ROUNDING_WINS)
def test_the_largest_range_of_n_gives_the_modulus_where_rounding_favours_another_window(case):
    hi_a, lo_a, hi_b, lo_b, v = (float.fromhex(h) for h in case)
    assert hi_b - lo_b < hi_a - lo_a and hi_b / v - lo_b / v > hi_a / v - lo_a / v
    # width-one windows; those through the middle value span about half the range
    sums = np.array([lo_a, hi_a, (hi_a + lo_b) / 2, lo_b, hi_b])
    got = modulus_of_continuity(_path_over(sums, v), 0.25)
    assert _hex([got]) == _hex([(hi_a - lo_a) / v])
    # the exact pass over Y reads window b, within 4 ulps
    exact_pass = _max_oscillations(sums / v, 0.25)
    assert _hex([exact_pass]) == _hex([hi_b / v - lo_b / v])
    assert _ulps([got], [exact_pass]) <= 4


def _brute_range(sums, delta):
    # max - min over every window of S
    w = int(np.floor(delta * (sums.size - 1) + 1e-9))
    return max(sums[j:j + w + 1].max() - sums[j:j + w + 1].min() for j in range(sums.size - w))


@pytest.mark.parametrize("sums, v, falls_back", [
    ([0.0, 1.0, -0.5, 2.0], 3.0, False),
    ([0.0, np.nan, 1.0], 1.0, True),  # S is not finite
    ([0.0, np.inf, 1.0], 1.0, True),
    ([0.0, 1.5e308, -1.5e308], 1.0, True),  # a window's range overflows
    ([0.0, 1.0, -0.5, 2.0], np.inf, False),  # V is not finite: every R/V is 0
    ([0.0, 1.0, -0.5, 2.0], 1e300, False),  # S/V is small but normal
    ([0.0, 1.0, -0.5, 2.0], 2.0**1022 * 1.5, False),  # R/V underflows
    ([-0.0, 0.0, -0.0, -0.0], 1.0, False),  # S is all zeros
    ([-0.0, 1e-320, -1e-320, 0.0], 1.0, False),  # S is subnormal
    ([3.0, 3.0, 3.0, 3.0], 1.0, False),  # the largest range is 0
    ([-0.0, -1e-300, -0.0, -1e-300], 1e10, False),  # R/V is subnormal
])
def test_modulus_at_the_edges(sums, v, falls_back, monkeypatch):
    # only a range divided by V that is not finite sends the exact pass over S/V
    sums = np.array(sums)
    path = _path_over(sums, v)
    deltas = (1.0, 0.5, 0.34, 0.2)
    calls = []
    exact = diagnostics._max_oscillations
    with np.errstate(all="ignore"):
        want = [exact(sums / v, d) if falls_back else _brute_range(sums, d) / v for d in deltas]
        monkeypatch.setattr(diagnostics, "_max_oscillations", lambda *a: calls.append(a) or exact(*a))
        assert _hex([modulus_of_continuity(path, d) for d in deltas]) == _hex(want)
    # one pass over S per delta, and one over S/V only where it falls back
    assert [y is path.sums for y, _ in calls].count(True) == len(deltas)
    assert any(y is not path.sums for y, _ in calls) == falls_back


@pytest.mark.parametrize("experiment", ["degenerate_scan", "ek_functionals"])
def test_prefix_sums_that_overflow_still_raise_in_the_scans_that_read_them(experiment, monkeypatch):
    x = np.array([1e308, 1e308, -1.0, 2.0] * 4)
    cfg = ExperimentConfig(family=FamilySpec(kind="SymStable", alpha=1.5), p=2.0, n_grid=(16,),
                           reps=1, master_seed=1, experiment=experiment)
    monkeypatch.setattr(harness, "_sample_into", lambda family, stream, out, scaled: np.copyto(out, x))
    with pytest.raises(harness.NonFiniteSampleError, match=experiment), \
            np.errstate(all="ignore"):
        harness._rep_stats((cfg,), 0, np.empty(16), None)


@pytest.mark.parametrize("values, p", [
    ([1e300, -1e300, 1e300, 5e299], 0.05),  # V = inf, N finite: Y is all zeros
    ([-0.0, 1e-310, -2e-310, 1e-310], 1.0),  # N is -0.0 or subnormal
    ([-0.0, -0.0, 1.0, -1.0, -0.0], 2.0),  # S_k is -0.0
    ([2.0], 1.5),  # n = 1
    ([2.0, -3.0], 0.8),  # n = 2
    ([1.0, -1.0, 0.5], 2.0),  # n = 3
])
def test_path_oscillations_and_ek_at_the_edges(values, p):
    x = np.array(values)
    path = ProcessPath(x, p)
    fresh_at_p = ProcessPath(x, 2.0 if p != 2.0 else 1.0).at_p(p)
    deltas = (0.5, 0.2, 0.1, 0.05, 1.0, 1e-3)  # widths below one mesh step give 0.0
    with np.errstate(all="ignore"):
        nodes = path.sums / path.v  # Y(k/n) = S_k/V, divided anew
        want = [_max_oscillations(path.sums, d) / path.v for d in deltas]
        assert _hex([modulus_of_continuity(path, d) for d in deltas]) == _hex(want)
        assert _hex([modulus_of_continuity(fresh_at_p, d) for d in deltas]) == _hex(want)
        assert _ulps(want, [_max_oscillations(nodes, d) for d in deltas]) <= 4
        s = path.sums[1:] / path.v  # reference: S_k/V divided anew
        ref = (s.max(), np.abs(s).max(), np.mean(s * s), np.abs(s).mean())
        assert _hex(ek_functionals(path).__dict__.values()) == _hex(ref)
        assert _hex(ek_functionals(fresh_at_p).__dict__.values()) == _hex(ref)
    assert _hex([harness._endpoint(path)]) == _hex([y_at(path, 1.0)])
