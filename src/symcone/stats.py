"""Statistical test helpers used by the verification checks.

Two-sample and CDF-based Kolmogorov-Smirnov tests are delegated to scipy,
which is imported on their first call;
the permutation distance-correlation independence test is implemented here
so that its p-values are reproducible from an explicit generator.

Its permuted statistics are summed in min form,
sum_{i<j} a_ij |z_i - z_j| = sum_i c_i z_i - 2 sum_{i<j} a_ij min(z_i, z_j),
where c holds the off-diagonal row sums of the centred matrix a.  c is
computed, not taken as 0, because centring leaves the row sums at rounding
level; the sample is shifted to start at 0 once, because the two terms
cancel to the result; and each row's products are summed by ``np.einsum``,
not by BLAS, so every column is summed in the same order and a permutation
that leaves the sample unchanged ties with it exactly.
"""

from __future__ import annotations

import numpy as np

# permutations whose statistics are summed in one pass; a pass holds two
# (m, PERMUTATION_BLOCK + 1) float arrays
PERMUTATION_BLOCK = 512


def distance_correlation(x, y) -> float:
    """Sample distance correlation of two scalar samples (V-statistic form)."""
    a, b = _centered_distance_matrices(np.asarray(x, float), np.asarray(y, float))
    return _dcor_from_centered(a, b)


def _centered_distance_matrices(x: np.ndarray, y: np.ndarray):
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("need two 1-d samples of equal length")
    a = np.abs(x[:, None] - x[None, :])
    b = np.abs(y[:, None] - y[None, :])
    return _double_center(a), _double_center(b)


def _double_center(m: np.ndarray) -> np.ndarray:
    row = m.mean(axis=0, keepdims=True)
    col = m.mean(axis=1, keepdims=True)
    return m - row - col + m.mean()

def _dcor_from_centered(a: np.ndarray, b: np.ndarray) -> float:
    dcov2 = (a * b).mean()
    denom = np.sqrt((a * a).mean() * (b * b).mean())
    if denom <= 0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / denom))


def permutation_dcor_test(
    x,
    y,
    n_permutations: int = 500,
    rng: np.random.Generator | None = None,
    subsample: int | None = 1000,
) -> tuple[float, float]:
    """Permutation test of independence via distance correlation.

    Returns (dcor, p_value).  The p-value counts permuted squared distance
    covariances at least as large as the observed one, with the +1 finite-
    sample correction, so it is never below 1 / (n_permutations + 1).  When
    the samples are longer than ``subsample``, a random subsample of that
    size is tested; the centred distance matrices take O(m^2) memory, so
    this bounds it while leaving the null distribution of the p-value
    uniform.

    The permutations are drawn one after the other from ``rng`` with
    ``rng.permutation(m)``, after the subsample draw.  Raises ValueError
    when ``n_permutations < 1`` or when fewer than 2 pairs would be tested,
    since then the test cannot reject.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("need two 1-d samples of equal length")
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    m = x.size if subsample is None else min(x.size, subsample)
    if m < 2:
        raise ValueError(f"need at least 2 pairs to test, got {m}")
    if m < x.size:
        idx = rng.choice(x.size, size=m, replace=False)
        x, y = x[idx], y[idx]
    a, b = _centered_distance_matrices(x, y)
    # the min-form sums cancel unless the sample starts at 0; b is already
    # built, and distances do not see the shift
    y = y - y.min()
    count = 0
    for start in range(0, n_permutations, PERMUTATION_BLOCK):
        size = min(PERMUTATION_BLOCK, n_permutations - start)
        # column 0 is the observed sample, summed by the same code as the rest
        yt = np.stack([y, *(y[rng.permutation(m)] for _ in range(size))], axis=1)
        stat = _permuted_dcov_sums(a, yt)
        count += int(np.count_nonzero(stat[1:] >= stat[0]))
    p_value = (count + 1.0) / (n_permutations + 1.0)
    return _dcor_from_centered(a, b), p_value


def _permuted_dcov_sums(a: np.ndarray, yt: np.ndarray) -> np.ndarray:
    """sum_{i<j} a[i, j] |yt[i, k] - yt[j, k]| for every column k of yt.

    With ``a`` the double-centred distance matrix of x, this is m^2 / 2
    times the squared distance covariance of x with column k: the centring
    terms of the other sample sum to zero against ``a``.

    The sum is taken in min form,
    sum_i c_i z_i - 2 sum_{i<j} a[i, j] min(z_i, z_j),
    with c the off-diagonal row sums of ``a``, so that a row costs one
    minimum and one product-sum.  ``c`` is computed rather than taken as 0:
    the centring leaves row sums at rounding level, not at zero.  The two
    terms cancel to the result, so the caller shifts the sample to start at
    0 (``permutation_dcor_test`` does); without the shift the relative
    error is about 1e-6 at an offset of 1e8.  Products are summed by
    ``np.einsum``, which adds every column in the same order, so identical
    columns give identical sums.  A BLAS product would round its trailing
    columns differently, and an identity permutation would stop tying with
    the observed column.
    """
    c = a.sum(axis=1) - a.diagonal()
    stat = np.einsum("i,ik->k", c, yt)
    mins = np.zeros(yt.shape[1])
    buf = np.empty_like(yt)
    for f in range(1, yt.shape[0]):
        d = np.minimum(yt[:f], yt[f], out=buf[:f])
        mins += np.einsum("i,ik->k", a[f, :f], d)
    return stat - 2.0 * mins


def ks_2sample(x, y) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and p-value."""
    from scipy import stats as sps  # imported here: it dominates import time

    res = sps.ks_2samp(np.asarray(x, float), np.asarray(y, float))
    return float(res.statistic), float(res.pvalue)


def ks_against_cdf(x, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test of data against a CDF callable."""
    from scipy import stats as sps

    res = sps.kstest(np.asarray(x, float), cdf)
    return float(res.statistic), float(res.pvalue)


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample KS critical value c(alpha)/sqrt(n)."""
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))


def mean_std_err(values, n_chains: int = 1) -> tuple[float, float]:
    """Mean and Monte Carlo standard error of a scalar sample.

    For ``n_chains > 1`` the values are interpreted as ``n_chains``
    contiguous equal-length blocks from independent chains and the error is
    estimated from the spread of the per-chain means, which stays honest for
    autocorrelated within-chain samples.
    """
    values = np.asarray(values, float)
    if n_chains <= 1:
        return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))
    per = values.size // n_chains
    chain_means = values[: per * n_chains].reshape(n_chains, per).mean(axis=1)
    err = chain_means.std(ddof=1) / np.sqrt(n_chains)
    return float(values.mean()), float(err)
