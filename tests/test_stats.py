"""Distance-correlation permutation test and Monte Carlo error helpers."""

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
