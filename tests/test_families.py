import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfnorm import FAMILY_KINDS, FamilySpec, ParameterDomainError, SeededStream, sample_family
from selfnorm.families import _BLOCK, _sample_into, _scratch_size


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


@pytest.mark.parametrize("n", [0, -5, 2.5, True, np.True_])
def test_bad_n_rejected(n):
    with pytest.raises(ParameterDomainError, match="n must be a positive integer"):
        sample_family(FamilySpec(kind="Gaussian"), SeededStream(1), n)


def _stable_reference(alpha, u, scale):
    # the whole-array transforms the blocked samplers must reproduce: each sine
    # from its half-angle tangent, sin(a)/2 = t/(1 + t^2) with t = tan(a/2), and
    # cos(T) = sin(pi h), cos((1 - alpha) T) = sin(pi c/2 + |1 - alpha| pi h) with
    # h = min(u0, 1 - u0) and c = min(alpha, 2 - alpha); at alpha = 1 the
    # transform is tan(T) itself and u holds T's uniforms alone
    if alpha == 1.0:
        return scale * np.tan((u - 0.5) * np.pi)
    u0, u1 = u[:, 0], u[:, 1]

    def half_sine(half_angle):
        t = np.tan(half_angle)
        return t / (t * t + 1.0)

    if alpha == 2.0:  # 2 sin(T) sqrt(W)
        return scale * (half_sine((u0 - 0.5) * (np.pi / 2)) * np.sqrt(np.log1p(-u1) * -16.0))
    h = np.minimum(u0, 1.0 - u0)
    sin_a = half_sine((u0 - 0.5) * (alpha * np.pi / 2))
    cos_1a = half_sine(h * (abs(1.0 - alpha) * np.pi / 2) + min(alpha, 2.0 - alpha) * np.pi / 4)
    cos_t = half_sine(h * (np.pi / 2))
    x = sin_a / cos_t * (cos_1a / cos_t / -np.log1p(-u1)) ** ((1.0 - alpha) / alpha)
    x[u0 == 0.0] = -np.inf
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
    # or one g.random(n) call for the Cauchy case, on either side of every block
    # boundary
    stream = SeededStream(31, 4)
    u = stream.generator().random(n if (kind, alpha) == ("SymStable", 1.0) else (n, 2))
    reference = _stable_reference if kind == "SymStable" else _pareto_reference
    expected = reference(alpha, u, scale)
    got = sample_family(FamilySpec(kind=kind, alpha=alpha, scale=scale), stream, n)
    assert got.tobytes() == expected.tobytes()


def _box_muller_reference(g, n):
    # the whole-array Box-Muller transform: one row of uniforms per pair
    u = g.random(((n + 1) // 2, 2))
    rad = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    ang = 2.0 * np.pi * u[:, 1]
    z = np.empty(2 * len(u))
    z[0::2] = rad * np.cos(ang)
    z[1::2] = rad * np.sin(ang)
    return z[:n]


@pytest.mark.parametrize("n", [1, 2, 3, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 2 * _BLOCK + 2,
                               100_000, 100_001])
@pytest.mark.parametrize("kind,alpha", [("Gaussian", 2.0), ("StudentT", 1.5), ("StudentT", 4.0)])
@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_normal_draws_match_whole_array_transform(n, kind, alpha, scale):
    # the normals are written over the output a block of 2**14 rows (pairs) at
    # a time, the chi ratio over the chi-square array: the bytes of the
    # whole-array transforms, odd n and every row-block edge included
    stream = SeededStream(37, 2)
    g = stream.generator()
    z = _box_muller_reference(g, n)
    expected = scale * z if kind == "Gaussian" else scale * z / np.sqrt(g.chisquare(alpha, n) / alpha)
    got = sample_family(FamilySpec(kind=kind, alpha=alpha, scale=scale), stream, n)
    assert got.tobytes() == expected.tobytes()


class _FixedUniforms:
    # stands in for a stream: writes the rows (or, for a 1-d u, the values)
    # of u in order, block by block, over the sampler's buffer of uniforms
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
    x = sample_family(FamilySpec(kind="SymStable", alpha=1.0), _FixedUniforms(u0), u0.size)
    exact = np.tan((u0 - 0.5) * np.pi, dtype=np.longdouble)
    ulp = np.spacing(np.abs(exact.astype(np.float64)))
    assert np.all(np.abs(x - exact) <= ulp)


def _cms_at_40_digits(alpha, u0, u1):
    # the transform with exact T = pi (u0 - 1/2) and W = -log1p(-u1)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, t = mpmath.mpf(alpha), mpmath.pi * (mpmath.mpf(u0) - 0.5)
        w = -mpmath.log1p(-mpmath.mpf(u1))
        return float(mpmath.sin(a * t) / mpmath.cos(t) ** (1 / a)
                     * (mpmath.cos((1 - a) * t) / w) ** ((1 - a) / a))


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.5, 1.9, 2.0])
def test_stable_draws_within_32_ulps_of_the_formula(alpha):
    # the forced tails u = k 2^-53 and 1 - k 2^-53 (1 <= k <= 300) for u0 and
    # for u1, where sin and cos of a rounded T lose all accuracy, then three
    # blocks of random rows, every 64th of them checked
    k = np.arange(1, 301)
    tails = np.concatenate([k * 2.0**-53, 1.0 - k * 2.0**-53])
    rows = SeededStream(47).generator().random((3 * _BLOCK, 2))
    forced = np.concatenate([np.column_stack([tails, rows[:tails.size, 1]]),
                             np.column_stack([rows[:tails.size, 0], tails]),
                             np.column_stack([tails, tails]), np.column_stack([tails, tails[::-1]])])
    u = np.concatenate([forced, rows])
    x = sample_family(FamilySpec(kind="SymStable", alpha=alpha), _FixedUniforms(u), len(u))
    checked = np.r_[:len(forced), len(forced):len(u):64]
    exact = np.array([_cms_at_40_digits(alpha, *u[i]) for i in checked])
    ulps = np.abs(x[checked] - exact) / np.spacing(np.abs(exact))
    assert ulps.max() <= 32


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.5, 1.9, 2.0])
def test_stable_draws_at_the_ends_of_the_uniforms(alpha):
    # u0 = 0 is T = -pi/2, outside the open interval: the transform's limit
    # there, -inf at every alpha < 2 and -2 sqrt(W) at alpha = 2. u1 = 0 is
    # W = 0: the limits sign(T) inf at alpha < 1 and sign(T) 0 at alpha > 1,
    # and 0 inf = NaN at T = 0 and alpha < 1. No limit raises a RuntimeWarning
    u = np.array([[0.0, 0.3], [0.0, 0.0], [0.2, 0.0], [0.7, 0.0], [0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = sample_family(FamilySpec(kind="SymStable", alpha=alpha), _FixedUniforms(u), len(u))
    if alpha == 2.0:
        assert x[0] == pytest.approx(-2.0 * np.sqrt(-np.log1p(-0.3)), rel=1e-15)
        expected = [-0.0, -0.0, 0.0, 0.0]
    elif alpha < 1.0:
        assert x[0] == -np.inf
        expected = [-np.inf, -np.inf, np.inf, np.nan]
    else:
        assert x[0] == -np.inf
        expected = [-np.inf, -0.0, 0.0, 0.0]
    assert [repr(v) for v in x[1:].tolist()] == [repr(v) for v in expected]  # the sign of 0 too


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.5, 1.9, 2.0])
def test_stable_draws_follow_the_stable_law(alpha):
    # the lab's sigma = 1 convention, E cos(uX) = exp(-|u|^alpha), within 4
    # standard errors; the variance of cos(uX) is (1 + phi(2u))/2 - phi(u)^2
    x = sample_family(FamilySpec(kind="SymStable", alpha=alpha), SeededStream(53), 200_000)
    for u in (0.5, 1.0, 2.0):
        phi = np.exp(-u**alpha)
        se = np.sqrt(((1.0 + np.exp(-(2.0 * u)**alpha)) / 2.0 - phi**2) / x.size)
        assert abs(np.cos(u * x).mean() - phi) < 4.0 * se


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_cauchy_draw_reads_one_uniform_per_variate(n):
    # T's uniform alone: an alpha = 1 draw of n leaves the generator where
    # random(n) leaves it, on either side of a block edge
    drawn, reference = SeededStream(43, 2).generator(), SeededStream(43, 2).generator()

    class _Stream:
        def generator(self):
            return drawn

    sample_family(FamilySpec(kind="SymStable", alpha=1.0), _Stream(), n)
    reference.random(n)
    assert _plain(drawn.bit_generator.state) == _plain(reference.bit_generator.state)


def _plain(state):
    # Philox's state holds numpy arrays (counter, key, buffer): compare them as lists
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}


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


def test_cauchy_draw_allocates_no_scratch():
    # alpha = 1 draws T's uniforms straight over the output and reads no block
    # scratch, so the output (160 kB at n = 20 000) is all it holds; with the
    # scratch of 5 * min(n, _BLOCK) doubles it peaked at 817 kB
    n = 20_000
    tracemalloc.start()
    try:
        sample_family(FamilySpec(kind="SymStable", alpha=1.0), SeededStream(5), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n * 8 <= peak < n * 8 + 2**16


def test_student_t_draw_memory_is_bounded():
    # the output and the chi-square array, plus the block scratch of
    # 5 * _BLOCK doubles: 2 257 392 B, where the whole-array transform, with
    # several n-sized temporaries at once, peaked at 4 802 694 B
    n = 100_000
    tracemalloc.start()
    try:
        sample_family(FamilySpec(kind="StudentT", alpha=3.0), SeededStream(5), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 8 + 2**20


@pytest.mark.parametrize("n", [99_999, 100_000])
@pytest.mark.parametrize("kind,alpha", [("Gaussian", 2.0), ("StudentT", 3.0)])
def test_normal_draws_write_over_the_callers_scratch(n, kind, alpha):
    # given a scratch, as a chf_compare block passes its scaled buffer, the
    # normals take their temporaries from it: a Gaussian draw allocates only
    # an odd n's last row, StudentT only its chi-square array besides, and
    # the bytes are those of sample_family whatever the scratch held
    spec = FamilySpec(kind=kind, alpha=alpha)
    x, scratch = np.empty(n), np.full(_scratch_size(n), np.nan)
    tracemalloc.start()
    try:
        _sample_into(spec, SeededStream(5), x, scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n * 8 if kind == "StudentT" else 0) + 2**14
    assert x.tobytes() == sample_family(spec, SeededStream(5), n).tobytes()
