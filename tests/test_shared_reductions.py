"""The scans read one rescale and one node-grid evaluation per prefix.

Each (replication, n) builds one ProcessPath, and one more per further p
of a regime_map row, sharing its reductions (`ProcessPath.at_p`); V_{n,p},
max_ratio, darling_ratio and sum_sq_ratio come from the rescaled sample's
power sums, and Y(1) and the oscillations from the node-grid values. These
tests hold what the scans get to the public functions, and to a reference
that rescales the sample anew for each statistic, bit for bit.
"""
import warnings

import numpy as np
import pytest

from selfnorm import (
    DegenerateSampleError,
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
from selfnorm import harness, process
from selfnorm.diagnostics import _max_oscillations

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
    got = {kind: harness._scan_stats(cfg, x, path) for kind, cfg in configs.items()}

    fresh = ProcessPath(x, p)
    nodes = y_path(fresh, np.arange(n + 1) / n)
    assert path.y_nodes.tobytes() == nodes.tobytes()
    old = _old_ratios(x, p, family.alpha)
    assert _hex([path.v, p_norm(x, p)]) == _hex([old["v"]] * 2)

    assert _hex(got["degenerate_scan"]) == _hex((y_at(fresh, 1.0), sum_sq_ratio(x, family.alpha)))
    assert _hex(got["degenerate_scan"]) == _hex((nodes[-1], old["sum_sq_ratio"]))

    deltas = configs["tightness_scan"].delta_grid
    oms = [modulus_of_continuity(fresh, d) for d in deltas]
    assert _hex(got["tightness_scan"]) == _hex((darling_ratio(x), max_ratio(x, p), *oms))
    assert _hex(got["tightness_scan"]) == _hex(
        (old["darling_ratio"], old["max_ratio"], *_max_oscillations(nodes, deltas)))

    ek = ek_functionals(fresh)
    assert _hex(got["ek_functionals"]) == _hex((ek.max_sn, ek.max_abs_sn, ek.mean_sq, ek.mean_abs))
    s = fresh.sums[1:] / fresh.v  # reference: S_k/V divided anew
    assert _hex(got["ek_functionals"]) == _hex(
        (s.max(), np.abs(s).max(), np.mean(s * s), np.abs(s).mean()))
    assert _hex(got["fdd_covariance"]) == _hex(y_path(fresh, configs["fdd_covariance"].t_grid))

    # one power sum per distinct exponent: at alpha == p, S_alpha is S_p
    assert set(path.rescaled._sums) == {p, 2.0, family.alpha}


def test_node_grid_is_not_s_over_v_at_every_node():
    # the counts the y_path docstring and the README state
    for n, inexact in ((1000, 0), (4000, 35), (16000, 175)):
        k = np.arange(n + 1)
        assert int(np.count_nonzero(n * (k / n) != k)) == inexact
    x = sample_family(FamilySpec(kind="SymStable", alpha=1.5), SeededStream(3), 4000)
    path = ProcessPath(x, 1.5)
    assert not np.array_equal(path.y_nodes, path.sums / path.v)


def test_node_index_is_built_once_per_n_and_read_only():
    process._node_index.cache_clear()
    family = FamilySpec(kind="SymStable", alpha=1.5)
    paths = [ProcessPath(sample_family(family, SeededStream(5, rep), 300), 1.5) for rep in range(3)]
    ys = [path.y_nodes for path in paths]
    assert process._node_index.cache_info().misses == 1
    assert ys[0] is paths[0].y_nodes  # memoised on the path
    for array in (*process._node_index(300), ys[0]):
        assert not array.flags.writeable


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


def test_degenerate_scan_still_refuses_alpha_above_two():
    # sum_sq_ratio needs alpha in (0, 2]; a StudentT tail index of 3 is a valid
    # family but has no V_{n,alpha}, as before the reductions were shared
    cfg = ExperimentConfig(family=FamilySpec(kind="StudentT", alpha=3.0), p=2.0, n_grid=(50,),
                           reps=2, master_seed=1, experiment="degenerate_scan")
    with pytest.raises(ParameterDomainError, match="alpha must lie in"):
        run_experiment(cfg)


@pytest.mark.parametrize("n", (49, 4000))
@pytest.mark.parametrize("family,p", CASES, ids=lambda v: getattr(v, "kind", v))
def test_path_at_another_p_equals_a_fresh_path_bit_for_bit(family, p, n):
    # a regime_map row reads every p of the row from one path's reductions
    x = sample_family(family, SeededStream(11, n), n)
    first = ProcessPath(x, 2.0 if p != 2.0 else 0.8)
    first.y_nodes  # the node-grid sums exist before the second p reads them
    path = first.at_p(p)
    fresh = ProcessPath(x, p)
    assert path.p == p and path.n == n
    assert path.values is first.values and path.sums is first.sums
    assert path.rescaled is first.rescaled
    assert _hex([path.v]) == _hex([fresh.v])
    assert path.y_nodes.tobytes() == fresh.y_nodes.tobytes()
    assert not path.y_nodes.flags.writeable
    cfg = _scan_configs(family, p, n)
    assert [_hex(harness._scan_stats(c, x, path)) for c in cfg.values()] == \
        [_hex(harness._scan_stats(c, x, fresh)) for c in cfg.values()]


def test_path_at_another_p_refuses_what_a_fresh_path_refuses():
    path = ProcessPath(np.array([1.0, -2.0]), 1.0)
    with pytest.raises(ParameterDomainError):
        path.at_p(2.5)
    zeros = ProcessPath(np.array([1.0]), 1.0)
    object.__setattr__(zeros.rescaled, "m", 0.0)  # V = 0 at every p
    with pytest.raises(DegenerateSampleError):
        zeros.at_p(1.5)
