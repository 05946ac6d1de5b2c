"""Distance-correlation permutation test, two-sample KS test and Monte Carlo error helpers."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from symcone import stats as st


def test_dcor_detects_dependence():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400)
    assert st.distance_correlation(x, x) == pytest.approx(1.0)
    # nonlinear (uncorrelated) dependence still shows up
    y = x**2
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.15
    assert st.distance_correlation(x, y) > 0.3


def test_permutation_test_independent_and_dependent():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(600)
    y = rng.standard_normal(600)
    _, p_indep = st.permutation_dcor_test(x, y, 300, np.random.default_rng(2))
    assert p_indep > 0.01
    _, p_dep = st.permutation_dcor_test(x, x + 0.1 * y, 300, np.random.default_rng(3))
    assert p_dep == pytest.approx(1.0 / 301.0)


def test_permutation_test_subsample_path():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(5000)
    y = rng.standard_normal(5000)
    r, p = st.permutation_dcor_test(x, y, 100, np.random.default_rng(5), subsample=300)
    assert 0.0 <= r <= 1.0
    assert 1.0 / 101.0 <= p <= 1.0


def test_permutation_test_determinism():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(500)
    y = rng.standard_normal(500)
    out1 = st.permutation_dcor_test(x, y, 200, np.random.default_rng(7))
    out2 = st.permutation_dcor_test(x, y, 200, np.random.default_rng(7))
    assert out1 == out2


def _reference_permutation_dcor_test(x, y, n_permutations, rng, subsample):
    """The per-permutation loop: permute rows and columns of the centred b."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if subsample is not None and x.size > subsample:
        idx = rng.choice(x.size, size=subsample, replace=False)
        x, y = x[idx], y[idx]
    a, b = st._centered_distance_matrices(x, y)
    observed = (a * b).mean()
    count = 0
    for _ in range(n_permutations):
        perm = rng.permutation(x.size)
        if (a * b[perm][:, perm]).mean() >= observed:
            count += 1
    return st._dcor_from_centered(a, b), (count + 1.0) / (n_permutations + 1.0)


def _pair(data, size, rng):
    x = rng.standard_normal(size)
    if data == "independent":
        return x, rng.standard_normal(size)
    if data == "dependent":
        return x, x + 0.5 * rng.standard_normal(size)
    # few distinct values, so many pairs tie
    return np.round(x, 1), np.round(x + rng.standard_normal(size))


@pytest.mark.parametrize("subsampled", [False, True], ids=["all", "subsample"])
@pytest.mark.parametrize("data", ["independent", "dependent", "ties"])
@pytest.mark.parametrize("m", [2, 50, 400, 1100])
def test_batched_permutation_test_matches_loop(m, data, subsampled, monkeypatch):
    # m pairs are tested; with a subsample they are drawn from 3m
    x, y = _pair(data, 3 * m if subsampled else m, np.random.default_rng(m))
    subsample = m if subsampled else None
    if m <= 50:
        n_permutations = 600  # two blocks of the default size
    else:
        n_permutations = 40
        monkeypatch.setattr(st, "PERMUTATION_BLOCK", 16)  # three blocks
    rng_ref = np.random.default_rng(11)
    rng_new = np.random.default_rng(11)
    expected = _reference_permutation_dcor_test(x, y, n_permutations, rng_ref, subsample)
    assert st.permutation_dcor_test(x, y, n_permutations, rng_new, subsample) == expected
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("subsampled", [False, True], ids=["all", "subsample"])
@pytest.mark.parametrize("n_permutations", [1, 16, 40], ids=["one", "one-block", "three-blocks"])
@pytest.mark.parametrize("m", [2, 3, 17, 400, 1100])
def test_permutation_blocks_hold_the_sequential_draws(m, n_permutations, subsampled,
                                                      monkeypatch):
    # each block is the observed sample and then the permutations that
    # rng.permutation(m) gives one call after the other, and rng ends in the
    # state those calls leave
    blocks = []
    sums = st._permuted_dcov_sums

    def spy(a, yt):
        blocks.append(yt.copy())
        return sums(a, yt)

    monkeypatch.setattr(st, "_permuted_dcov_sums", spy)
    monkeypatch.setattr(st, "PERMUTATION_BLOCK", 16)
    x, y = np.random.default_rng(m).standard_normal((2, 3 * m if subsampled else m))
    rng_new, rng_ref = np.random.default_rng(12), np.random.default_rng(12)
    st.permutation_dcor_test(x, y, n_permutations, rng_new, m if subsampled else None)
    if subsampled:
        y = y[rng_ref.choice(3 * m, size=m, replace=False)]
    z = y - y.min()
    perms = [z[rng_ref.permutation(m)] for _ in range(n_permutations)]
    assert len(blocks) == -(-n_permutations // 16)
    assert all(np.array_equal(yt[:, 0], z) for yt in blocks)
    assert np.array_equal(np.concatenate([yt[:, 1:] for yt in blocks], axis=1),
                          np.stack(perms, axis=1))
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("subsample", [None, 200], ids=["all", "subsample"])
def test_permutation_test_of_a_non_finite_sample_is_nan(side, bad, subsample):
    # the verdict must not depend on which side holds the bad value, and the
    # generator must advance as a finite sample would advance it
    x, y = np.random.default_rng(16).standard_normal((2, 300))
    rng_bad, rng_ref = np.random.default_rng(17), np.random.default_rng(17)
    finite = st.permutation_dcor_test(x, y, 40, rng_ref, subsample)
    # 101 bad values among 300: a subsample of 200 holds at least one
    (x if side == "x" else y)[::3] = bad
    r, p = st.permutation_dcor_test(x, y, 40, rng_bad, subsample)
    assert math.isnan(r) and math.isnan(p)
    assert rng_bad.bit_generator.state == rng_ref.bit_generator.state
    assert not any(math.isnan(t) for t in finite)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_permutation_test_decides_finiteness_after_the_subsample_draw():
    x, y = np.random.default_rng(18).standard_normal((2, 300))
    tested = np.random.default_rng(19).choice(300, size=200, replace=False)
    expected = st.permutation_dcor_test(x, y, 40, np.random.default_rng(19), 200)
    x[np.setdiff1d(np.arange(300), tested)[0]] = np.nan  # a pair left out of the test
    assert st.permutation_dcor_test(x, y, 40, np.random.default_rng(19), 200) == expected


@pytest.mark.parametrize("m", [3, 17, 200, 400])
def test_identical_columns_give_identical_sums(m):
    # a permutation that leaves the sample unchanged must tie with the
    # observed column exactly, wherever it sits in the block
    rng = np.random.default_rng(m)
    a, _ = st._centered_distance_matrices(rng.standard_normal(m), np.zeros(m))
    stat = st._permuted_dcov_sums(a, np.repeat(rng.standard_normal((m, 1)), 13, axis=1))
    assert np.all(stat == stat[0])
    # the identity in the last of 501 columns, the width of a B = 500 block
    y = rng.standard_normal(m)
    y -= y.min()
    yt = np.stack([y, *(y[rng.permutation(m)] for _ in range(499)), y], axis=1)
    stat = st._permuted_dcov_sums(a, yt)
    assert stat[-1] == stat[0]


def _direct_dcov_sums(a, yt):
    """sum_{i<j} a[i, j] |yt[i, k] - yt[j, k]|, one row of pairs at a time."""
    stat = np.zeros(yt.shape[1])
    for f in range(1, yt.shape[0]):
        stat += (np.abs(yt[:f] - yt[f]) * a[f, :f, None]).sum(axis=0)
    return stat


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e8, 1e12])
def test_permuted_sums_match_the_direct_sums_at_any_offset(offset, monkeypatch):
    # the min form cancels to the result; the shift in permutation_dcor_test
    # keeps that cancellation at rounding level however far the data sit
    # from 0
    calls = []

    def spy(a, yt):
        stat = sums(a, yt)
        calls.append((a, yt.copy(), stat))
        return stat

    sums = st._permuted_dcov_sums
    monkeypatch.setattr(st, "_permuted_dcov_sums", spy)
    rng = np.random.default_rng(14)
    x = rng.standard_normal(400)
    y = offset + rng.standard_normal(400)
    st.permutation_dcor_test(x, y, 100, np.random.default_rng(15), subsample=None)
    (a, yt, stat), = calls
    np.testing.assert_allclose(stat, _direct_dcov_sums(a, yt), rtol=1e-12, atol=0)


def test_permutation_test_identical_samples_reach_the_floor():
    x = np.random.default_rng(12).standard_normal(300)
    r, p = st.permutation_dcor_test(x, x.copy(), 200, np.random.default_rng(13))
    assert r == pytest.approx(1.0)
    assert p == 1.0 / 201.0


@pytest.mark.parametrize("n_permutations", [0, -3])
def test_permutation_test_needs_permutations(n_permutations):
    x = np.arange(10.0)
    with pytest.raises(ValueError, match="n_permutations"):
        st.permutation_dcor_test(x, x, n_permutations, np.random.default_rng(0))


@pytest.mark.parametrize("size, subsample", [(1, None), (1, 1000), (100, 1), (100, 0), (0, None)])
def test_permutation_test_needs_two_pairs(size, subsample):
    x = np.arange(float(size))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="2 pairs"):
        st.permutation_dcor_test(x, x, 10, rng, subsample)
    assert rng.bit_generator.state == state


def test_distance_correlation_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        st.distance_correlation(np.arange(5.0), np.arange(6.0))


def test_permutation_test_rejects_unequal_lengths():
    # indexing both samples with one subsample would hide the mismatch
    with pytest.raises(ValueError, match="equal length"):
        st.permutation_dcor_test(np.arange(200.0), np.arange(300.0), 10, subsample=50)


def test_ks_helpers():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(2000)
    y = rng.standard_normal(2000)
    stat, p = st.ks_2sample(x, y)
    assert p > 0.01
    stat, p = st.ks_2sample(x, y + 1.0)
    assert p < 1e-6
    # 1% asymptotic critical value ~ 1.628 / sqrt(n)
    assert st.ks_critical_value(10000, 0.01) == pytest.approx(1.6276 / 100.0, abs=1e-3)


def _shifted(n, shift):
    # the ECDFs of 0..n-1 and of the same points moved by an integer shift
    # differ by shift/n at most
    x = np.arange(float(n))
    return x, x + shift


# (n, h) where Hodges' Horner form leaves [0, 1] and the p-value falls back
# to Kolmogorov's law at N = round(n/2) and d = h/n; N <= 140 at the first three
KS_FALLBACKS = [(5, 1), (7, 1), (135, 3), (400, 5), (10000, 25)]
# n > 10000: shifts giving d in each branch of Kolmogorov's survival function,
# in order: Ruben-Gambino twice (d just above 1/(2N)), Durbin's matrix,
# Pelz-Good, 2 smirnov at N d^2 = 2.25 and 9, 0 at N d^2 = 900, 2 smirnov at
# d = 0.6, 2 (1 - d)^N at N d >= N - 1, 0 at d = 1, and Pelz-Good above
# N = 1e5 where Durbin's matrix would serve a smaller N.
# N = round(20003/2) = 10002, not 20003 // 2
KS_ASYMPTOTIC = [(20001, 2), (20003, 1), (20003, 50), (20003, 200), (20003, 300),
                 (20003, 600), (20003, 6000), (20003, 12000), (20003, 20002),
                 (20003, 20003), (200003, 100)]


def _ks_cases():
    rng = np.random.default_rng(10)
    a, b = rng.standard_normal((2, 50))
    c, d = rng.standard_normal((2, 10000))
    nan = np.arange(5.0)
    nan[2] = np.nan
    return [
        pytest.param(np.array([0.0, 1.0]), np.array([0.5, 2.0]), id="exact-n2"),
        pytest.param(np.round(a, 1), np.round(b + 0.5, 1), id="exact-n50-ties"),
        pytest.param(np.round(c, 2), np.round(d + 0.05, 2), id="exact-n10000-ties"),
        pytest.param(*_shifted(10000, 3000), id="exact-n10000-shift"),
        *(pytest.param(*_shifted(n, h), id=f"fallback-n{n}-h{h}") for n, h in KS_FALLBACKS),
        *(pytest.param(*_shifted(n, s), id=f"asymptotic-n{n}-shift{s}") for n, s in KS_ASYMPTOTIC),
        pytest.param(nan, np.arange(5.0), id="nan"),
    ]


@pytest.mark.parametrize("x, y", _ks_cases())
def test_ks_2sample_matches_scipy_to_the_last_bit(x, y):
    from scipy import stats as sps

    with warnings.catch_warnings():
        # scipy warns where its exact calculation falls back
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = sps.ks_2samp(x, y)
    got = np.array(st.ks_2sample(x, y))
    assert got.tobytes() == np.array([ref.statistic, ref.pvalue]).tobytes(), (got, ref)


def _reference_prob_outside_square(n, h):
    """Hodges' Horner form one term, and one step of each term, at a time."""
    p = 0.0
    for k in range(n // h, -1, -1):
        a = 1.0
        for j in range(h):
            a = (n - k * h - j) * a / (n + k * h + j + 1)
        p = a * (1.0 - p)
    return 2 * p


def _reference_ks_2sample(x, y):
    """``ks_2sample`` with scipy's statistic as scipy takes it, two binary
    searches per point, and Hodges' law one term at a time."""
    x, y = np.sort(x), np.sort(y)
    n = x.size
    both = np.concatenate([x, y])
    diffs = np.searchsorted(x, both, side="right") / n - np.searchsorted(y, both, side="right") / n
    d = diffs.max()
    min_s = np.clip(-diffs.min(), 0, 1)
    if min_s > d:
        d = min_s
    if n <= st.KS_EXACT_MAX_N:
        h = int(np.round(d * n))
        d = h / n
        if h == 0:
            return d, 1.0
        p = _reference_prob_outside_square(n, h)
        if 0 <= p <= 1:
            return d, p
    return float(d), float(np.clip(st._kolmogorov_sf(int(np.round(n / 2)), np.asarray(d)), 0, 1))


def _ks_pairs(kind, rng):
    """Random sample pairs of one kind, as (x, y)."""
    if kind == "ties":  # rounded to a few digits, so points tie within and across the samples
        for _ in range(150):
            n = int(rng.integers(2, 400))
            digits = int(rng.integers(0, 3))
            yield (np.round(rng.standard_normal(n), digits),
                   np.round(rng.standard_normal(n) + rng.uniform(-1, 1), digits))
    elif kind == "constant":
        for _ in range(30):
            n = int(rng.integers(1, 300))
            c = np.round(rng.standard_normal(), 1)
            yield np.full(n, c), np.round(rng.standard_normal(n), 1)
            yield np.full(n, c), np.full(n, c)
            yield np.full(n, c), np.full(n, c + 1.0)
    elif kind == "inf":
        for _ in range(60):
            n = int(rng.integers(1, 300))
            x, y = np.round(rng.standard_normal((2, n)), 1)
            x[rng.integers(0, n, n // 3 + 1)] = np.inf
            y[rng.integers(0, n, n // 4 + 1)] = -np.inf
            y[rng.integers(0, n, n // 5 + 1)] = np.inf
            yield x, y
    elif kind == "n1":
        for x, y in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (np.inf, 0.0), (-np.inf, np.inf)]:
            yield np.array([x]), np.array([y])
    else:  # the exact/asymptotic cut
        for n in (10000, 10001):
            for shift in (0.0, 0.01, 0.05, 0.3):
                yield (np.round(rng.standard_normal(n), 2),
                       np.round(rng.standard_normal(n) + shift, 2))


@pytest.mark.parametrize("kind", ["ties", "constant", "inf", "n1", "cut"])
def test_ks_2sample_matches_the_searchsorted_form(kind):
    rng = np.random.default_rng(["ties", "constant", "inf", "n1", "cut"].index(kind))
    for x, y in _ks_pairs(kind, rng):
        got, ref = st.ks_2sample(x, y), _reference_ks_2sample(x, y)
        assert np.array(got).tobytes() == np.array(ref).tobytes(), (x.size, got, ref)
        assert [type(t) for t in got] == [type(t) for t in ref]


def test_ks_2sample_holds_at_most_6_mib_at_1e5_points():
    # below the 7.7 MiB of the searchsorted form: the merge holds its inputs'
    # concatenation, the argsort, the merged points and two masks (5.0 MiB);
    # a fresh array per count or quotient would hold 1.5 MiB more each
    x, y = np.random.default_rng(20).standard_normal((2, 100_000))
    st.ks_2sample(x, y)
    tracemalloc.start()
    try:
        st.ks_2sample(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


# every h at these n, and 12 h from 1 to n at n = 400, 801, ..., 10000
HODGES_EVERY_H = [*range(1, 100), 127, 256, 331, 399]
HODGES_SWEEP = range(400, 10001, 401)


@pytest.mark.parametrize("n", [*HODGES_EVERY_H, *HODGES_SWEEP])
def test_prob_outside_square_matches_the_scalar_loop(n):
    if n in HODGES_EVERY_H:
        hs = range(1, n + 1)
    else:
        hs = sorted({int(h) for h in np.geomspace(1, n, 12)})
    for h in hs:
        assert st._prob_outside_square(n, h) == _reference_prob_outside_square(n, h), (n, h)


@pytest.mark.parametrize("n, h", KS_FALLBACKS)
def test_ks_fallback_cases_leave_the_exact_law(n, h):
    # otherwise the bit comparison above would not reach the fallback
    assert not 0 <= st._prob_outside_square(n, h) <= 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ks_2sample_falls_back_to_the_asymptotic_law_without_a_warning():
    x = np.random.default_rng(11).standard_normal(200)
    y = x.copy()
    y[0] = 99.0  # h = 1, where Hodges' form leaves [0, 1]
    assert st.ks_2sample(x, y) == (0.005, 1.0)


@pytest.mark.parametrize("x, y", [
    (np.arange(5.0), np.arange(6.0)),
    (np.ones((3, 2)), np.ones((3, 2))),
    (np.array(1.0), np.array(1.0)),
    (np.array([]), np.array([])),
], ids=["unequal", "2-d", "0-d", "empty"])
def test_ks_2sample_needs_two_1d_samples_of_equal_length(x, y):
    with pytest.raises(ValueError, match="need two 1-d samples of equal length"):
        st.ks_2sample(x, y)


def test_mean_std_err_chain_blocks():
    rng = np.random.default_rng(9)
    values = rng.standard_normal(8000)
    m_flat, e_flat = st.mean_std_err(values)
    m_chain, e_chain = st.mean_std_err(values, n_chains=8)
    assert m_flat == pytest.approx(m_chain)
    assert e_chain == pytest.approx(e_flat, rel=0.5)
    # strongly correlated chains inflate the chain-based error estimate
    chain_offsets = np.repeat(rng.standard_normal(8), 1000)
    _, e_corr = st.mean_std_err(values + chain_offsets, n_chains=8)
    assert e_corr > 3 * e_flat
