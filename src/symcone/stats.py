"""Statistical test helpers used by the verification checks.

The two-sample Kolmogorov-Smirnov test is implemented here, with the
statistic and p-value of ``scipy.stats.ks_2samp`` bit for bit, so that a
verification run does not load ``scipy.stats`` (about 70 MB resident and a
second of import); the test against a CDF, which only tests call, is
delegated to ``scipy.stats``.  The permutation distance-correlation
independence test is implemented here so that its p-values are
reproducible from an explicit generator.

Its permuted statistics are summed in min form,
sum_{i<j} a_ij |z_i - z_j| = sum_i c_i z_i - 2 sum_{i<j} a_ij min(z_i, z_j),
where c holds the off-diagonal row sums of the centred matrix a.  c is
computed, not taken as 0, because centring leaves the row sums at rounding
level; the sample is shifted to start at 0 once, because the two terms
cancel to the result; and each row's products are summed by ``np.einsum``,
not by BLAS, so every column is summed in the same order and a permutation
that leaves the sample unchanged ties with it exactly.

Both tests run in whole-array passes.  The KS statistic reads the two ECDFs off
one stable merge of the sorted samples rather than from a binary search per
point, Hodges' exact law takes the terms of its Horner form all at once,
and each block of permutations is one shuffle of the columns of a matrix.
Every result keeps the bits, and every generator the stream, of the
one-at-a-time forms these replace.
"""

from __future__ import annotations

import math

import numpy as np

# permutations whose statistics are summed in one pass; a pass holds two
# (m, PERMUTATION_BLOCK + 1) float arrays: the block's permuted copies of the
# sample, one per column after the observed one, and a buffer of minima
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

    The permutations are drawn from ``rng`` after the subsample draw, each
    the one ``rng.permutation(m)`` would give in turn, and leave ``rng`` in
    the state those calls would.  A tested pair set holding inf or nan gives
    (nan, nan), and still draws its permutations, so that later draws from
    ``rng`` do not depend on it.  Raises ValueError when
    ``n_permutations < 1`` or when fewer than 2 pairs would be tested, since
    then the test cannot reject.
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
    finite = bool(np.isfinite(x).all() and np.isfinite(y).all())
    if finite:
        a, b = _centered_distance_matrices(x, y)
        dcor = _dcor_from_centered(a, b)
        del b  # not held while the permutation blocks are
        # the min-form sums cancel unless the sample starts at 0; distances
        # do not see the shift
        y = y - y.min()
    count = 0
    for start in range(0, n_permutations, PERMUTATION_BLOCK):
        size = min(PERMUTATION_BLOCK, n_permutations - start)
        # column 0 is the observed sample, summed by the same code as the
        # rest; rng.permuted shuffles the further columns, copies of y, one
        # after the other with the draws of rng.permutation(m)
        yt = np.repeat(y[:, None], size + 1, axis=1)
        rng.permuted(yt[:, 1:], axis=0, out=yt[:, 1:])
        if finite:
            stat = _permuted_dcov_sums(a, yt)
            count += int(np.count_nonzero(stat[1:] >= stat[0]))
    if not finite:
        return math.nan, math.nan
    return dcor, (count + 1.0) / (n_permutations + 1.0)


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


# the largest samples whose two-sample p-value is taken from the exact law
KS_EXACT_MAX_N = 10000


def ks_2sample(x, y) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test of two equal-size samples.

    Returns the statistic and p-value of ``scipy.stats.ks_2samp(x, y)``
    (method "auto") bit for bit.  Up to ``KS_EXACT_MAX_N`` points per sample
    the statistic is rounded to h/n and the p-value is the exact law of
    Hodges (1958); where its Horner form leaves [0, 1], which happens at
    small h where p is near 1, and above ``KS_EXACT_MAX_N`` points, it is
    the survival function of Kolmogorov's law at N = round(n/2)
    (``_kolmogorov_sf``).  A sample holding nan gives (nan, nan).  Raises
    ValueError unless both samples are 1-d, non-empty and of equal length.

    The statistic is scipy's arithmetic, a/n - b/n with a and b the numbers
    of points of x and of y at or below a point, where scipy takes a and b
    from two binary searches per point.  Here they are counts along one
    merge of the two sorted samples, read only where a run of tied points
    ends, the one place the counts equal a and b.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("need two 1-d samples of equal length")
    n = x.size
    both = np.concatenate([np.sort(x), np.sort(y)])
    if np.isnan(both[n - 1]) or np.isnan(both[-1]):  # a sort puts nan last
        return math.nan, math.nan
    # a stable argsort (numpy's timsort) merges the two sorted runs in one
    # linear pass.  The counts and their quotients are written into the
    # buffers of the argsort and the merge, and a count is summed in place:
    # a cumsum of the bool mask would cast a copy of it first
    order = np.argsort(both, kind="stable")
    merged = both[order]
    ends = np.empty(2 * n, bool)
    np.not_equal(merged[1:], merged[:-1], out=ends[:-1])
    ends[-1] = True
    from_x = order < n
    np.copyto(order, from_x)
    diffs = np.divide(np.cumsum(order, out=order), n, out=both)
    np.logical_not(from_x, out=order)
    diffs -= np.divide(np.cumsum(order, out=order), n, out=merged)
    d = np.maximum.reduce(diffs, where=ends, initial=-np.inf)
    min_s = np.clip(-np.minimum.reduce(diffs, where=ends, initial=np.inf), 0, 1)
    if min_s > d:
        d = min_s
    if n <= KS_EXACT_MAX_N:
        h = int(np.round(d * n))
        d = h / n
        if h == 0:
            return d, 1.0
        p = _prob_outside_square(n, h)
        if 0 <= p <= 1:
            return d, p
    return float(d), float(np.clip(_kolmogorov_sf(int(np.round(n / 2)), np.asarray(d)), 0, 1))


def _prob_outside_square(n: int, h: int) -> float:
    """Pr(D_{n,n} >= h/n) in Hodges' Horner form, 2 A0 (1 - A1 (1 - A2 (...))).

    A_k is binom(2n, n - (k+1)h) / binom(2n, n - kh), a product of h ratios
    taken without forming a binomial coefficient.  The h steps of the
    product run for every k at once, a vector of n//h + 1 terms, each term
    rounded as the step alone would; only the Horner sweep over k is taken
    one term at a time.  That is O(h) array operations and O(n/h) scalar
    ones, where one term at a time is O(n) scalar ones.
    """
    # row j holds kh + j for every k
    steps = np.add.outer(np.arange(h), h * np.arange(n // h + 1))
    num = (n - steps).astype(float)
    den = (n + 1 + steps).astype(float)
    a = np.ones(n // h + 1)
    for num_j, den_j in zip(num, den):
        a *= num_j
        a /= den_j
    p = 0.0
    for a_k in a[::-1].tolist():
        p = a_k * (1.0 - p)
    return 2 * p


def _kolmogorov_sf(n: int, x: np.ndarray):
    """Pr(D_n > x) for Kolmogorov's two-sided one-sample statistic D_n.

    The branches of Simard & L'Ecuyer (2011), as ``scipy.stats.kstwo.sf``
    takes them, with ``x`` a 0-d array as scipy evaluates it; ``smirnov``
    is scipy's C code.  scipy's rule for n <= 140, Pomeranz's recursion
    among it, is not carried.  ``ks_2sample`` reaches n <= 140 only where
    the exact law fails, and a sweep of every h at every sample size up to
    281 found n x^2 <= 0.082 there.  scipy takes Durbin's matrix below
    n x^2 = 0.754693, and so does the rule for larger n kept here: n x^2 <=
    0.082 gives n x^1.5 = (n x^2)^0.75 n^0.25 <= 0.53.
    """
    if x <= 0.5 / n:
        return 1.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_factorial_over_power(n) + n * np.log(2 * t - 1))
        return 1.0 - prob
    if t >= n - 1:  # Ruben-Gambino; 0 at x = 1, where scipy returns 0 up front
        return 2 * (1.0 - x) ** n
    if x < 0.5 and t * x >= 370.0:
        return 0.0
    if x >= 0.5 or t * x >= 2.2:
        from scipy.special import smirnov  # imported here: most calls never reach it

        return 2 * smirnov(n, x)
    if n <= 100000 and n * x**1.5 <= 1.4:
        return 1.0 - _kolmogorov_cdf_durbin(n, x)
    return 1.0 - _kolmogorov_cdf_pelz_good(n, x)


_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
# Bernoulli numbers B_2j / (2j (2j - 1)) for j = 8, ..., 1
_STIRLING = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
             -1.9175269175269175269e-3, 8.4175084175084175084e-4,
             -5.952380952380952381e-4, 7.9365079365079365079e-4,
             -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _log_factorial_over_power(n: int):
    """log(n! / n^n) by Stirling's series, with n log n removed up front."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + np.log(2 * np.pi) / 2 + rn * np.polyval(_STIRLING, rn / n)


def _kolmogorov_cdf_durbin(n: int, d):
    """Pr(D_n <= d) from Durbin's matrix, powered as Marsaglia, Tsang & Wang do.

    With d = (k - h)/n, the k-th diagonal entry of (n!/n^n) H^n for an
    m x m matrix H, m = 2k - 1; the powers are rescaled by 2^128 as they
    grow and the factorial by 2^-128 as it shrinks, in long double as scipy
    does.  Called with n d > 1 and d < 0.5.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)
    power, expnt, h_expnt, nn = np.eye(m), 0, 0, n
    while nn > 0:
        if nn % 2:
            power = np.matmul(power, H)
            expnt += h_expnt
        H = np.matmul(H, H)
        h_expnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            h_expnt += _E128
        nn //= 2
    p = power[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _kolmogorov_cdf_pelz_good(n: int, x):
    """Pr(D_n <= x) by the Pelz-Good (1976) series, for 0 < x < 1.

    The Li-Chien/Korolyuk expansion K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in
    z = x sqrt(n), each term summed in its Jacobi theta form for small z.
    """
    z = np.sqrt(n) * x
    z2, z3, z4, z6 = z**2, z**3, z**4, z**6
    qlog = -np.pi**2 / 8 / z2
    if qlog < -708:
        return 0.0
    q = np.exp(qlog)
    k1a, k1b = -z2, np.pi**2 / 4
    k2a = 6 * z6 + 2 * z4
    k2b = (2 * z4 - 5 * z2) * np.pi**2 / 4
    k2c = np.pi**4 * (1 - 2 * z2) / 16
    k3d = np.pi**6 * (5 - 30 * z2) / 64
    k3c = np.pi**4 * (-60 * z2 + 212 * z4) / 16
    k3b = np.pi**2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z**8
    terms = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):  # Horner in q^8k over the odd m = 2k - 1
        m = 2 * k - 1
        m2, m4, m6 = m**2, m**4, m**6
        terms *= np.power(q, 8 * k)
        terms += np.array([1.0, k1a + k1b * m2, k2a + k2b * m2 + k2c * m4,
                           k3a + k3b * m2 + k3c * m4 + k3d * m6])
    terms *= q
    terms *= np.sqrt(2 * np.pi)
    terms /= np.array([z, 6 * z4, 72 * z**7, 6480 * z**10])
    # the terms of K2 and K3 over every integer k
    q = np.exp(-np.pi**2 / 2 / z2)
    ks = np.arange(maxk, 0, -1)
    ks2 = ks**2
    sqrt3z, kspi = np.sqrt(3) * z, np.pi * ks
    qpowers = q**ks2
    terms[2] += np.sum(ks2 * qpowers) * (np.pi**2 * np.sqrt(2 * np.pi) / (-36 * z3))
    terms[3] += (np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ks2 * qpowers)
                 * (np.pi**2 * np.sqrt(2 * np.pi) / (216 * z6)))
    terms /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(terms)


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
