import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from selfnorm import (
    FamilySpec,
    OracleMissingError,
    ParameterDomainError,
    SeededStream,
    brownian_functional_oracle,
    chf_exponent,
    dispersion_matrix,
    empirical_chf,
    g1_law,
    g2_law,
    g3_law,
    g4_law,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    limit_chf,
    load_oracle,
    save_oracle,
    std_normal_law,
    tail_constants,
)
from selfnorm.limits import _j_closed_w_only, _j_quad, _kac_laplace, g1_cdf, g2_cdf

# a numpy overflow or NaN inside a quadrature fails the test instead of
# hiding inside a refinement that never converges
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# frozen high-precision references for the limiting chf exponent at time t,
# t c(u, w) = 2r int (exp(i |w| t^(p/a) y^p) cos(|u| t^(1/a) y) - 1) y^(-a-1) dy,
# computed once with 50-digit arbitrary-precision quadrature and pinned here;
# substituting z = t^(1/a) y gives the factor t, so the rows with t != 1 test
# t chf_exponent(u, w)
CHF_REFS = [
    # (alpha, p, r, t, u, w, expected t c(u, w))
    (1.0, 2.0, 1 / np.pi, 1.0, 1.0, 0.0, complex(-1.0, 0.0)),
    (1.0, 2.0, 1 / np.pi, 1.0, 1.0, 0.5, complex(-0.867248960009258923, 0.30772844065377427)),
    (1.0, 2.0, 1 / np.pi, 1.0, 1.0, 1.0, complex(-1.00523362693252106, 0.607121034833881908)),
    (1.0, 2.0, 1 / np.pi, 1.0, 2.0, 0.5, complex(-1.88450071642781907, -0.10267651232009009)),
    (1.0, 2.0, 1 / np.pi, 1.0, 2.0, 1.0, complex(-1.69823058476500485, 0.15420030187819068)),
    (1.0, 2.0, 1 / np.pi, 1.0, 0.5, 1.0, complex(-0.848265236987892078, 0.748542651880866615)),
    (1.0, 2.0, 1 / np.pi, 1.0, 0.0, 0.5, complex(-0.564189583547756287, 0.564189583547756287)),
    (1.0, 2.0, 1 / np.pi, 1.0, 0.0, 1.0, complex(-0.797884560802865356, 0.797884560802865356)),
    (1.0, 2.0, 1 / np.pi, 0.5, 1.0, 1.0, complex(-0.50261681346626053, 0.303560517416940954)),
    (1.5, 2.0, 0.299206710301074508, 1.0, 1.5, 0.7, complex(-1.67898123783382434, 0.597714816878480211)),
    (1.5, 2.0, 0.299206710301074508, 1.0, 0.0, 1.0, complex(-0.553516793111050901, 1.33630774892996163)),
    (0.8, 1.2, 0.35, 0.8, 2.0, 1.0, complex(-1.68842876227054708, 0.768171658412094675)),
    (0.8, 1.2, 0.35, 0.8, 0.0, 1.0, complex(-0.937628487147711636, 1.62402017836377898)),
]


@pytest.mark.parametrize("alpha,p,r,t,u,w,want", CHF_REFS)
def test_chf_exponent_frozen_references(alpha, p, r, t, u, w, want):
    got = t * chf_exponent(u, w, alpha, p, r)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_chf_exponent_cauchy_checkpoint():
    # standard Cauchy tails, w = 0: c(1, 0) = -1, chf = 1/e exactly
    r = tail_constants(FamilySpec(kind="SymStable", alpha=1.0))
    assert r == pytest.approx(1.0 / np.pi, rel=1e-14)
    z = limit_chf(1.0, 0.0, 1.0, 2.0, r)
    assert abs(z - math.exp(-1.0)) <= 1e-6


@given(st.floats(0.3, 1.9), st.floats(0.0, 1.0), st.floats(-3, 3), st.floats(-2, 2),
       st.floats(0.1, 1.0))
@settings(max_examples=30, deadline=None)
# stationary point of the minus-frequency branch beyond the panel budget
# (p = 1.255 and 1.099): once raised InternalConsistencyError
@example(alpha=0.875, frac=0.15625, u=2.0, w=0.125, t=1.0)
@example(alpha=0.3125, frac=0.3125, u=1.0, w=0.25, t=1.0)
# p = 1.03, near the diagonal: a power substitution at the origin once
# overflowed there and raised InternalConsistencyError
@example(alpha=1.0, frac=0.0, u=1.0, w=1.0, t=1.0)
def test_chf_invariants(alpha, frac, u, w, t):
    p = alpha + 0.03 + frac * (2.5 - alpha - 0.03)  # p in (alpha + 0.03, 2.5]
    # the point (u, w) seen at time t
    u, w = u * t ** (1.0 / alpha), w * t ** (p / alpha)
    z = limit_chf(u, w, alpha, p, 0.4)
    assert abs(z) <= 1.0 + 1e-12
    assert abs(z - limit_chf(-u, w, alpha, p, 0.4)) <= 1e-10
    assert abs(np.conj(z) - limit_chf(u, -w, alpha, p, 0.4)) <= 1e-10


def test_fractional_origin_power_resolved():
    # the head of the quadrature near y = 0 behaves like y^(p - a - 1), a
    # fractional power, down to p - a = 0.03 near the diagonal. With
    # gamma = 1.6e-15 the gamma correction to Im j is about 1e-11, so the
    # w-only closed form is the reference for the value of the head.
    for alpha, p in ((0.30078125, 0.45078125), (0.30078125, 0.33078125)):
        got = _j_quad(1.0, 1.6e-15, alpha, p).imag
        want = _j_closed_w_only(1.0, alpha, p).imag
        assert abs(got - want) <= 1e-10 * abs(want)


def test_chf_exponent_domain():
    with pytest.raises(ParameterDomainError):
        chf_exponent(1.0, 1.0, 1.5, 1.5, 0.4)  # needs p > alpha
    with pytest.raises(ParameterDomainError):
        chf_exponent(1.0, 1.0, 2.0, 2.5, 0.4)  # alpha must be < 2
    # the tail constant must be a positive finite real
    for r in (0.0, -0.4, math.inf, math.nan, "0.4", None):
        with pytest.raises(ParameterDomainError, match="tail constant"):
            chf_exponent(1.0, 1.0, 1.0, 2.0, r)
        with pytest.raises(ParameterDomainError, match="tail constant"):
            limit_chf(1.0, 1.0, 1.0, 2.0, r)
    # u, w, alpha and p too: a string or None is refused, not compared or converted
    for bad in ("1.5", None, 1j):
        for name, args in (("u", (bad, 1.0, 1.0, 2.0)), ("w", (1.0, bad, 1.0, 2.0)),
                           ("alpha", (1.0, 1.0, bad, 2.0)), ("p", (1.0, 1.0, 1.0, bad))):
            with pytest.raises(ParameterDomainError, match=f"{name} must be"):
                limit_chf(*args, 0.3)
    for bad in (math.nan, math.inf):
        for name, args in (("u", (bad, 1.0, 1.0, 2.0)), ("w", (1.0, bad, 1.0, 2.0)),
                           ("p", (1.0, 1.0, 1.0, bad))):
            with pytest.raises(ParameterDomainError, match=f"{name} must be"):
                chf_exponent(*args, 0.3)


def test_tail_constants_values():
    # SymPareto: P(|X| > x) = x^-a, so each side has r = a/2
    r = tail_constants(FamilySpec(kind="SymPareto", alpha=1.6))
    assert type(r) is float and r == pytest.approx(0.8, rel=1e-14)
    # StudentT(1) is the Cauchy: r = 1/pi
    rt = tail_constants(FamilySpec(kind="StudentT", alpha=1.0))
    assert rt == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_tail_constants_rejects_light_tails():
    with pytest.raises(ParameterDomainError):
        tail_constants(FamilySpec(kind="Gaussian"))
    with pytest.raises(ParameterDomainError):
        tail_constants(FamilySpec(kind="SymStable", alpha=2.0))


def test_g1_cdf_closed_form():
    x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    want = np.where(x > 0, 2.0 * scipy.stats.norm.cdf(x) - 1.0, 0.0)
    assert np.allclose(g1_cdf(x), want, atol=1e-14)


def test_g2_cdf_shape():
    x = np.linspace(0.05, 4.0, 80)
    c = g2_cdf(x)
    assert np.all(np.diff(c) >= -1e-12)
    assert c[0] < 1e-6 and c[-1] > 0.999
    assert g2_cdf(np.array([-1.0, 0.0]))[0] == 0.0
    # series is inside the g1 law: sup |W| >= sup W pointwise
    assert np.all(c <= g1_cdf(x) + 1e-12)
    # far out the law is 1 to double precision; 64 terms of the theta series
    # alone gave 0.99979 at x = 80 and 0.99700 at x = 200
    assert np.array_equal(g2_cdf(np.array([80.0, 200.0, 1e6])), np.ones(3))
    assert 1.0 - g2_cdf(6.0) == pytest.approx(4.0 * scipy.stats.norm.sf(6.0), rel=1e-6)
    # the theta series below x = 1 and the reflection series above it agree
    assert abs(g2_cdf(np.nextafter(1.0, 0.0)) - g2_cdf(1.0)) <= 1e-15


# (law, the point from which the CDF is exactly 1)
EXACT_LAWS = {"G3": (g3_law(), 32.0), "G4": (g4_law(), 6.0)}


@pytest.mark.parametrize("kind", sorted(EXACT_LAWS))
def test_g3_g4_cdf_shape(kind):
    law, top = EXACT_LAWS[kind]
    x = np.linspace(0.0, top, 20_001)
    c = law.cdf(x)
    assert c[0] == 0.0 and law.cdf(-1.0) == 0.0
    assert np.all(np.diff(c) >= -1e-15)  # monotone up to rounding
    assert law.cdf(top) == 1.0 and law.cdf(10.0 * top) == 1.0
    assert 0.0 < law.cdf(0.5) < 1.0


@pytest.mark.parametrize("kind,mean,var", [("G3", 0.5, 1.0 / 3.0),
                                           ("G4", 2.0 / 3.0 * math.sqrt(2.0 / math.pi), None)])
def test_g3_g4_moments(kind, mean, var):
    # E G = int (1 - F), E G^2 = int 2x (1 - F), by the trapezoid rule on a
    # grid fine enough that its own error is below 1e-8
    law, top = EXACT_LAWS[kind]
    x = np.linspace(0.0, top, 600_001)
    tail = 1.0 - law.cdf(x)
    m1 = np.trapezoid(tail, x)
    assert abs(m1 - mean) <= 1e-6
    if var is not None:
        assert abs(np.trapezoid(2.0 * x * tail, x) - m1**2 - var) <= 1e-6


def test_g4_law_matches_direct_bromwich_sum():
    # the trapezoid sum of the Bromwich integral, taken directly at each x on
    # another line (Re s = 1.5) instead of by one FFT on a grid at Re s = 2
    c = 1.5
    h = 2.0 * math.pi * c / 36.0
    t = h * np.arange(int(2000.0 / h))
    g = _kac_laplace(c + 1j * t) / (c + 1j * t)
    g[0] *= 0.5
    xs = np.linspace(0.125, 3.0, 24)
    direct = h / math.pi * np.exp(c * xs) * (np.exp(1j * np.outer(xs, t)) @ g).real
    assert np.max(np.abs(g4_law().cdf(xs) - direct)) <= 5e-6


def test_g2_series_matches_fresh_simulation():
    # dual route: series vs an independent small Brownian simulation
    law = brownian_functional_oracle("G2", paths=4000, steps=2000, stream=SeededStream(555))
    xs = np.array([0.8, 1.2, 1.6, 2.2])
    assert np.max(np.abs(g2_cdf(xs) - law.cdf(xs))) < 0.03


def test_oracle_is_bit_reproducible():
    a = brownian_functional_oracle("G3", paths=500, steps=300, stream=SeededStream(77, 2))
    b = brownian_functional_oracle("G3", paths=500, steps=300, stream=SeededStream(77, 2))
    assert np.array_equal(a.table, b.table)
    assert a.meta["paths"] == 500 and a.meta["steps"] == 300


# each kind's row reduction of whole Brownian paths, one path per row
_ROW_REDUCTIONS = {
    "G1": lambda w: w.max(axis=1),
    "G2": lambda w: np.abs(w).max(axis=1),
    "G3": lambda w: np.mean(w * w, axis=1),
    "G4": lambda w: np.abs(w).mean(axis=1),
}


@pytest.mark.parametrize("kind", sorted(_ROW_REDUCTIONS))
@pytest.mark.parametrize("paths,steps", [(300, 1000), (3, 2**17 + 1)])
def test_oracle_does_not_depend_on_block_height(kind, paths, steps):
    # 300 x 1000 is simulated in blocks of 131 + 131 + 38 rows, and
    # 2**17 + 1 steps one row per block; the reference draws all paths at once
    stream = SeededStream(20260815, 2)
    w = np.cumsum(stream.generator().standard_normal((paths, steps)) * (1.0 / math.sqrt(steps)), axis=1)
    law = brownian_functional_oracle(kind, paths, steps, stream)
    assert np.array_equal(law.table, np.sort(_ROW_REDUCTIONS[kind](w)))


def test_oracle_build_memory_is_bounded():
    # one reused block of about 1 MiB; simulating 2000 paths at once would
    # hold 16 MB per array
    tracemalloc.start()
    try:
        for i, kind in enumerate(sorted(_ROW_REDUCTIONS)):
            brownian_functional_oracle(kind, paths=2000, steps=1000, stream=SeededStream(3, i))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_oracle_save_load_round_trip(tmp_path):
    law = brownian_functional_oracle("G4", paths=400, steps=200, stream=SeededStream(9))
    dest = tmp_path / "g4_oracle.txt"
    save_oracle(law, dest)
    back = load_oracle(dest)
    assert np.array_equal(back.table, law.table)  # repr floats: exact round trip
    assert back.kind == "G4"
    assert back.meta["paths"] == 400
    assert back.meta["master_seed"] == 9
    x = np.linspace(0.0, 2.0, 21)
    assert np.allclose(back.cdf(x), law.cdf(x), atol=1e-12)


def test_oracle_load_errors(tmp_path):
    with pytest.raises(OracleMissingError):
        load_oracle(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("not an oracle\n")
    with pytest.raises(OracleMissingError):
        load_oracle(bad)
    truncated = tmp_path / "trunc.txt"
    truncated.write_text("# selfnorm-oracle v1\n# kind: G3\n")
    with pytest.raises(OracleMissingError):
        load_oracle(truncated)


def test_oracle_load_rejects_row_count_mismatch(tmp_path):
    # a 500-path table cut to 300 rows must not load as a 300-row law
    dest = tmp_path / "g3_oracle.txt"
    save_oracle(brownian_functional_oracle("G3", paths=500, steps=50, stream=SeededStream(5)), dest)
    lines = dest.read_text().splitlines()
    body_at = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    dest.write_text("\n".join(lines[:body_at + 300]) + "\n")
    with pytest.raises(OracleMissingError, match="300 rows"):
        load_oracle(dest)


def test_oracle_save_is_atomic(tmp_path, monkeypatch):
    dest = tmp_path / "g4_oracle.txt"
    save_oracle(brownian_functional_oracle("G4", paths=64, steps=50, stream=SeededStream(1)), dest)
    before = dest.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_oracle(brownian_functional_oracle("G4", paths=80, steps=50, stream=SeededStream(2)), dest)
    assert dest.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == [dest.name]


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(2)
    sample = rng.standard_normal(400)
    ours = ks_statistic(sample, std_normal_law())
    ref = scipy.stats.kstest(sample, "norm").statistic
    assert ours == pytest.approx(ref, rel=1e-9)


def test_ks_two_sample_matches_scipy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(300)
    b = rng.standard_normal(450) * 1.3
    ours = ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b).statistic
    assert ours == pytest.approx(ref, rel=1e-9)


def test_ks_rejects_empty():
    with pytest.raises(ParameterDomainError):
        ks_statistic(np.array([]), std_normal_law())
    with pytest.raises(ParameterDomainError):
        ks_two_sample(np.array([]), np.array([1.0]))


def test_empirical_chf_hand_values():
    pts = np.array([[np.pi, 0.0], [np.pi, 0.0]])
    z = empirical_chf(pts, (1.0, 0.0))
    assert z == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    assert empirical_chf(np.zeros((5, 2)), (0.7, -1.3)) == pytest.approx(1.0 + 0.0j)
    with pytest.raises(ParameterDomainError):
        empirical_chf(np.zeros((5, 3)), (0.0, 0.0))


def test_dispersion_matrix_is_min():
    t = (0.25, 0.5, 1.0)
    m = dispersion_matrix(t)
    want = np.minimum.outer(np.array(t), np.array(t))
    assert np.array_equal(m, want)
    with pytest.raises(ParameterDomainError):
        dispersion_matrix((0.5, 0.25))
    with pytest.raises(ParameterDomainError):
        dispersion_matrix(())
    # NaN fails the range check instead of giving a NaN matrix
    with pytest.raises(ParameterDomainError):
        dispersion_matrix((0.5, float("nan")))
    with pytest.raises(ParameterDomainError):
        dispersion_matrix((float("nan"),))


@pytest.mark.parametrize("reps,level", [(8, 1e-3 / 8), (400, 1e-3 / 12), (1500, 1e-3 / 12), (400, 0.05)])
def test_ks_critical_value_matches_kolmogorovs_two_sided_law(reps, level):
    # the union of the two one-sided Smirnov tails is nearly the two-sided level
    got = ks_critical_value(reps, level)
    assert scipy.stats.kstwo.sf(got, reps) == pytest.approx(level, rel=level / 2)


def test_ks_critical_value_domain():
    for reps, level in ((0, 0.01), (400, 0.0), (400, 1.0), (400, math.nan)):
        with pytest.raises(ParameterDomainError):
            ks_critical_value(reps, level)
