"""Densities, Laplace transforms, normalizers, and samplers."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from symcone import algebra as ja
from symcone import distributions as dist
from symcone import stats as st

A1 = ja.sym_real(1)
A2 = ja.sym_real(2)
H2 = ja.herm_complex(2)
L2 = ja.lorentz(2)
ONE = ja.identity(A1)
E2 = ja.identity(A2)


# Metropolis settings as constant overrides: one chain with no burn-in, and
# proposals so wide that the acceptance rate stays near 0 through the
# burn-in adaptation, so the batch is flagged as diverged
SINGLE_CHAIN = {"BURN_IN": 0, "THIN": 1, "CHAINS": 1}
WIDE_PROPOSALS = {"BURN_IN": 200, "THIN": 2, "CHAINS": 4, "PROPOSAL_SCALE": 80.0}


def _mcmc(params, seed, n):
    """The Metropolis batch of one law, also where an exact route exists."""
    return dist._metropolis_batches([(params, seed)], n)[0]


def scalar(v):
    return ja.Element(A1, np.array([float(v)]))


# ---------------------------------------------------------------------------
# Cone Gamma function
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sample_batch_rejects_non_finite_coords(bad):
    coords = np.ones((4, 3))
    coords[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        dist.SampleBatch(A2, {}, coords, 0, "bartlett")


def test_gamma_cone_rank1_is_ordinary_gamma():
    for p in (0.5, 1.0, 2.0, 3.7):
        assert dist.gamma_cone(p, A1) == pytest.approx(math.gamma(p), rel=1e-12)


def test_gamma_cone_sym2_closed_form():
    assert dist.gamma_cone(2.0, A2) == pytest.approx(
        math.sqrt(2 * math.pi) * math.sqrt(math.pi) / 2.0, rel=1e-12
    )


@pytest.mark.parametrize("p", [2.0, 2.5, 3.7])
def test_gamma_cone_sym2_quadrature_oracle(p):
    # with c3 = sqrt(2 c1 c2) sin t, the cone integral of
    # (det)^(p - 3/2) e^(-c1 - c2) over the coordinates factorizes into
    # sqrt(2) * (integral of u^(p-1) e^-u)^2 * (integral of cos^(2p-2) t)
    gamma_1d, _ = integrate.quad(lambda u: u ** (p - 1) * np.exp(-u), 0, np.inf)
    cos_int, _ = integrate.quad(lambda t: np.cos(t) ** (2 * p - 2), -np.pi / 2, np.pi / 2)
    oracle = math.sqrt(2.0) * gamma_1d**2 * cos_int
    assert dist.gamma_cone(p, A2) == pytest.approx(oracle, rel=1e-9)


def test_gamma_cone_shape_out_of_range():
    with pytest.raises(dist.ShapeOutOfRangeError):
        dist.gamma_cone(0.5, A2)  # needs p > 1/2
    with pytest.raises(dist.ShapeOutOfRangeError):
        dist.log_gamma_cone(0.0, A1)


# ---------------------------------------------------------------------------
# Wishart density / Laplace transform
# ---------------------------------------------------------------------------

def test_wishart_log_density_rank1_examples():
    assert dist.wishart_log_density(dist.WishartParams(1.0, ONE), scalar(1.0)) == pytest.approx(-1.0)
    assert dist.wishart_log_density(dist.WishartParams(2.0, ONE), scalar(2.0)) == pytest.approx(
        math.log(2.0) - 2.0
    )


def test_wishart_density_normalizes_rank1():
    params = dist.WishartParams(2.5, ONE)
    val, _ = integrate.quad(
        lambda x: np.exp(dist.wishart_log_density(params, scalar(x))), 1e-12, 50.0, limit=200
    )
    assert val == pytest.approx(1.0, abs=1e-6)


def test_wishart_density_normalizes_sym2_importance_sampling():
    # proposal: diagonals Gamma(p, 1), off-diagonal N(0, sqrt(c1 c2 / 2))
    p = 2.5
    params = dist.WishartParams(p, E2)
    rng = np.random.default_rng(0)
    n = 200000
    c1 = rng.gamma(p, 1.0, n)
    c2 = rng.gamma(p, 1.0, n)
    s = np.sqrt(c1 * c2 / 2.0)
    c3 = rng.normal(0.0, s)
    coords = np.stack([c1, c2, c3], axis=1)
    det = ja.batch_det(A2, coords)
    ok = det > 0
    log_target = np.full(n, -np.inf)
    log_target[ok] = (
        -dist.log_gamma_cone(p, A2)
        + (p - 1.5) * np.log(det[ok])
        - ja.batch_inner(A2, E2.coords, coords[ok])
    )
    log_q = sps.gamma.logpdf(c1, p) + sps.gamma.logpdf(c2, p) + sps.norm.logpdf(c3, scale=s)
    w = np.where(ok, np.exp(log_target - log_q), 0.0)
    assert w.mean() == pytest.approx(1.0, abs=0.02)


def test_wishart_density_depends_only_on_det_and_inner():
    # two diagonal points with equal determinant and equal <a, x>
    a = ja.from_matrix(A2, np.diag([2.0, 1.0]))
    params = dist.WishartParams(3.0, a)
    # 2 x1 + x2 = 5, x1 x2 = 2 has roots x1 in {2, 1/2}
    x_one = ja.from_matrix(A2, np.diag([2.0, 1.0]))
    x_two = ja.from_matrix(A2, np.diag([0.5, 4.0]))
    assert ja.det(x_one) == pytest.approx(ja.det(x_two))
    assert ja.inner(a, x_one) == pytest.approx(ja.inner(a, x_two))
    assert dist.wishart_log_density(params, x_one) == pytest.approx(
        dist.wishart_log_density(params, x_two), rel=1e-12
    )


def test_wishart_density_errors():
    with pytest.raises(dist.ShapeOutOfRangeError):
        dist.wishart_log_density(dist.WishartParams(0.5, E2), E2)
    with pytest.raises(ja.NotInConeError):
        dist.wishart_log_density(
            dist.WishartParams(2.0, E2), ja.from_matrix(A2, np.diag([1.0, -1.0]))
        )
    with pytest.raises(ja.NotInConeError):
        dist.WishartParams(2.0, ja.from_matrix(A2, np.diag([1.0, -1.0])))


def _with_coords(alg, values):
    return ja.Element(alg, np.array(values, dtype=float))


@pytest.mark.parametrize("make", [
    lambda: dist.WishartParams(math.nan, E2),
    lambda: dist.WishartParams(math.inf, E2),
    lambda: dist.WishartParams(2.0, _with_coords(A2, [math.inf, 1.0, 0.0])),
    lambda: dist.WishartParams(2.0, _with_coords(L2, [1.0, math.nan, 0.0])),
    lambda: dist.GigParams(math.nan, ONE, ONE),
    lambda: dist.GigParams(-math.inf, E2, E2),
    lambda: dist.GigParams(1.0, ONE, scalar(math.inf)),
    lambda: dist.GigParams(1.0, _with_coords(A2, [1.0, math.nan, 0.0]), E2),
], ids=["wishart-p-nan", "wishart-p-inf", "wishart-a-inf", "wishart-lorentz-a-nan",
        "gig-p-nan", "gig-p-minus-inf", "gig-b-inf", "gig-a-nan"])
def test_params_reject_non_finite_values(make):
    # NaN passes every shape guard and an infinite coordinate passes the cone
    # test, so without this the samplers hang or run on nonsense
    with pytest.raises(ValueError, match="finite"):
        make()


def test_wishart_laplace_examples():
    assert dist.wishart_laplace(dist.WishartParams(2.0, ONE), ja.zero(A1)) == 1.0
    assert dist.wishart_laplace(dist.WishartParams(2.0, ONE), scalar(1.0)) == pytest.approx(0.25)
    assert dist.wishart_laplace(dist.WishartParams(1.5, E2), E2) == pytest.approx(0.125)
    with pytest.raises(ja.NotInConeError):
        dist.wishart_laplace(dist.WishartParams(1.5, E2), -2.0 * E2)


# ---------------------------------------------------------------------------
# GIG density and normalizer
# ---------------------------------------------------------------------------

def test_gig_log_density_examples():
    params = dist.GigParams(-1.0, ONE, ONE)
    assert dist.gig_log_density_unnorm(params, scalar(1.0)) == pytest.approx(-2.0)
    a = ja.from_matrix(A2, np.diag([2.0, 1.0]))
    b = ja.from_matrix(A2, np.diag([1.0, 3.0]))
    params2 = dist.GigParams(0.7, a, b)
    assert dist.gig_log_density_unnorm(params2, E2) == pytest.approx(
        -ja.trace(a) - ja.trace(b)
    )


@pytest.mark.parametrize("alg", [A1, A2, H2, L2], ids=["sym1", "sym2", "herm2", "lorentz3"])
def test_batch_log_densities_against_the_spectral_formula(alg):
    # (p - dim/r) sum log lambda_i - <a, x> [- <b, x^-1>], row by row
    rng = np.random.default_rng(alg.dim)
    a, b = ja.random_cone_points_banded(alg, rng, 2)
    x = ja.random_cone_points_banded(alg, rng, 20)
    p = -1.3
    log_det = np.log(ja.batch_eigenvalues(alg, x)).sum(axis=-1)
    wishart = (p - alg.dim_over_rank) * log_det - ja.batch_inner(alg, a, x)
    gig = wishart - ja.batch_inner(alg, b, ja.batch_inverse(alg, x))
    np.testing.assert_allclose(dist.batch_wishart_log_unnorm(alg, p, a, x), wishart,
                               rtol=1e-12)
    np.testing.assert_allclose(dist.batch_gig_log_unnorm(alg, p, a, b, x), gig, rtol=1e-12)
    el = ja.Element(alg, x[0])
    params = dist.GigParams(p, ja.Element(alg, a), ja.Element(alg, b))
    assert dist.gig_log_density_unnorm(params, el) == pytest.approx(gig[0], rel=1e-12)


def test_gig_reciprocal_density_identity():
    # the unnormalized density of (p, a, b) at x equals that of (-p, b, a)
    # at 1/x times x^(-2 dim / r); rank 1, exact identity
    p, a, b = 1.3, 0.8, 1.7
    params = dist.GigParams(p, scalar(a), scalar(b))
    swapped = dist.GigParams(-p, scalar(b), scalar(a))
    for x in (0.3, 1.0, 2.4):
        lhs = dist.gig_log_density_unnorm(params, scalar(x))
        rhs = dist.gig_log_density_unnorm(swapped, scalar(1.0 / x)) - 2.0 * math.log(x)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    # and the normalizing constants agree (substitution x -> 1/x)
    k1 = dist.gig_norm_constant_rank1(params)
    k2 = dist.gig_norm_constant_rank1(swapped)
    assert k1 == pytest.approx(k2, rel=1e-8)


def test_gig_norm_constant_half_shape_closed_form():
    a, b = 1.3, 0.7
    params = dist.GigParams(0.5, scalar(a), scalar(b))
    closed = math.sqrt(math.pi / a) * math.exp(-2.0 * math.sqrt(a * b))
    assert dist.gig_norm_constant_rank1(params) == pytest.approx(closed, rel=1e-8)


def test_gig_norm_constant_symmetry_and_limit():
    params = dist.GigParams(1.7, scalar(0.9), scalar(0.9))
    flipped = dist.GigParams(-1.7, scalar(0.9), scalar(0.9))
    assert dist.gig_norm_constant_rank1(params) == pytest.approx(
        dist.gig_norm_constant_rank1(flipped), rel=1e-8
    )
    # p = 1, b -> 0 approaches the exponential normalizer 1/a
    limit = dist.GigParams(1.0, scalar(2.0), scalar(1e-12))
    assert dist.gig_norm_constant_rank1(limit) == pytest.approx(0.5, rel=1e-5)


def _gig_norm_by_quadrature(p, a, b):
    # the integral of x^(p-1) exp(-a x - b/x) over (0, inf), after x = e^t,
    # split at the mode of the integrand and scaled by its value there
    t_mode = math.log((p + math.hypot(p, 2.0 * math.sqrt(a * b))) / (2.0 * a))
    peak = p * t_mode - a * math.exp(t_mode) - b * math.exp(-t_mode)

    def f(t):
        with np.errstate(over="ignore"):
            return np.exp(p * t - a * np.exp(t) - b * np.exp(-t) - peak)

    left, _ = integrate.quad(f, -np.inf, t_mode, epsabs=0, epsrel=1e-12, limit=400)
    right, _ = integrate.quad(f, t_mode, np.inf, epsabs=0, epsrel=1e-12, limit=400)
    return math.exp(peak) * (left + right)


@pytest.mark.parametrize("p", [-4.5, -1.0, -0.3, 0.5, 1.0, 2.7, 12.0, 35.0])
@pytest.mark.parametrize("a, b", [(1e-3, 1e-8), (1.0, 1e-8), (0.7, 1.3), (25.0, 4.0),
                                  (2.0, 150.0)])
def test_gig_norm_constant_matches_quadrature(p, a, b):
    params = dist.GigParams(p, scalar(a), scalar(b))
    assert dist.gig_norm_constant_rank1(params) == pytest.approx(
        _gig_norm_by_quadrature(p, a, b), rel=1e-12)


@pytest.mark.parametrize("p", [-2.0, 0.0, 2.0, 35.0])
@pytest.mark.parametrize("a", [1e9, 1e200])
def test_gig_norm_constant_is_zero_where_it_underflows(p, a):
    # e^(-2e9) and e^(-2e200) leave no double; scipy's kve is nan from
    # z = 2^30 on, and at 1e200 a * b overflowed to inf
    assert dist.gig_norm_constant_rank1(dist.GigParams(p, scalar(a), scalar(a))) == 0.0


@pytest.mark.parametrize("p, a, b", [(3.0, 1.0, 1e-300), (-3.0, 1e-300, 1.0)])
def test_gig_norm_constant_holds_where_the_bessel_function_overflows(p, a, b):
    # K_3(2e-150) overflows and (b/a)^(p/2) underflows, whose product was nan;
    # the constant is Gamma(3) = 2 to within the rounding of its logs
    assert dist.gig_norm_constant_rank1(dist.GigParams(p, scalar(a), scalar(b))) == pytest.approx(
        2.0, rel=1e-12)


# on each side of the z = 2 sqrt(ab) below which kve(2.5, z) overflows (z near
# 3.18e-122 at a = 3), the two nearest pairs first
KVE_SWITCH = [(8.413873941523413e-245, True), (8.413873941523416e-245, False),
              (2.1e-245, True), (3.4e-244, False)]


@pytest.mark.parametrize("b, overflows", KVE_SWITCH)
def test_gig_norm_constant_matches_quadrature_where_kve_overflows(b, overflows):
    from scipy.special import kve

    p, a = 2.5, 3.0
    assert math.isinf(kve(p, 2.0 * math.sqrt(a) * math.sqrt(b))) == overflows
    quadrature = _gig_norm_by_quadrature(p, a, b)
    # the law with -p and a and b swapped has the same constant (x -> 1/x)
    for law in ((p, a, b), (-p, b, a)):
        params = dist.GigParams(law[0], scalar(law[1]), scalar(law[2]))
        assert dist.gig_norm_constant_rank1(params) == pytest.approx(quadrature, rel=1e-12)


# kve(|p|, z) overflows in each; Gamma(|p|) (2/z)^|p| / 2 alone is 0.5% off K_200(2)
# and e^22 above K_1000(300).  At p = 1000 the constant is the exponent of a sum of
# logs near -1000 and +870, whose rounding alone is about 1e-12 of it.
@pytest.mark.parametrize("p, a, b, rel", [(200.0, 10.0, 0.1, 1e-12),
                                          (1000.0, 150.0 * math.e, 150.0 / math.e, 1e-11)])
def test_gig_norm_constant_matches_quadrature_at_large_order(p, a, b, rel):
    quadrature = _gig_norm_by_quadrature(p, a, b)
    for law in ((p, a, b), (-p, b, a)):
        params = dist.GigParams(law[0], scalar(law[1]), scalar(law[2]))
        assert dist.gig_norm_constant_rank1(params) == pytest.approx(quadrature, rel=rel)


@pytest.mark.parametrize("p, a, b", [(2.0, 1e10, 1e-310), (3.0, 1e5, 1e-205)])
def test_gig_norm_constant_holds_where_b_over_a_is_subnormal(p, a, b):
    # kve is finite, but 2 (b/a)^(p/2) e^(-z) is a subnormal with few digits;
    # z is so small that the constant is Gamma(p) / a^p
    expected = math.gamma(p) / a**p
    assert dist.gig_norm_constant_rank1(dist.GigParams(p, scalar(a), scalar(b))) == pytest.approx(
        expected, rel=1e-12)


def test_gig_norm_constant_rank2_unsupported():
    with pytest.raises(ValueError):
        dist.gig_norm_constant_rank1(dist.GigParams(1.0, E2, E2))


def test_gig_cdf_rank2_unsupported():
    with pytest.raises(ValueError, match="rank 1 only"):
        dist.gig_cdf_rank1(dist.GigParams(1.0, E2, E2))


def test_gig_params_and_density_reject_off_cone():
    off = ja.from_matrix(A2, np.diag([1.0, -1.0]))
    with pytest.raises(ja.NotInConeError, match="GIG parameters"):
        dist.GigParams(1.0, E2, off)
    with pytest.raises(ja.NotInConeError, match="GIG density"):
        dist.gig_log_density_unnorm(dist.GigParams(1.0, E2, E2), off)


# ---------------------------------------------------------------------------
# Wishart sampling
# ---------------------------------------------------------------------------

def test_wishart_rank1_mean():
    n = 100000
    batch = dist.sample_wishart(dist.WishartParams(1.0, ONE), 42, n)
    assert batch.method == "bartlett"
    assert batch.all_in_cone()
    assert abs(batch.coords.mean() - 1.0) < 4.0 / math.sqrt(n)


def test_wishart_sym2_mean_matches_classical_identification():
    # cone Wishart with shape p and scale a is W_2(2p, (2a)^-1): mean p a^-1
    n = 100000
    batch = dist.sample_wishart(dist.WishartParams(2.0, E2), 42, n)
    target = 2.0 * ja.inverse(E2).coords
    assert np.abs(batch.coords.mean(axis=0) - target).max() < 5.0 / math.sqrt(n) * 2.0

    a = ja.from_matrix(A2, np.array([[2.0, 0.5], [0.5, 1.0]]))
    batch2 = dist.sample_wishart(dist.WishartParams(2.5, a), 7, n)
    target2 = 2.5 * ja.inverse(a).coords
    scale = np.abs(target2).max()
    assert np.abs(batch2.coords.mean(axis=0) - target2).max() < 5.0 / math.sqrt(n) * scale


@pytest.mark.parametrize(
    "alg,p",
    [(A2, 2.0), (H2, 2.5), (A1, 1.0)],
    ids=["sym2", "herm2", "rank1"],
)
def test_wishart_bartlett_laplace_probes(alg, p):
    e = ja.identity(alg)
    params = dist.WishartParams(p, e)
    n = 50000
    batch = dist.sample_wishart(params, 11, n)
    assert batch.all_in_cone()
    for c in (0.25, 0.5, 1.0):
        sigma = c * e
        values = np.exp(-ja.batch_inner(alg, sigma.coords, batch.coords))
        mean, err = st.mean_std_err(values)
        exact = dist.wishart_laplace(params, sigma)
        assert abs(mean - exact) < 3.0 * err


def test_wishart_lorentz_mcmc_laplace_probes():
    e = ja.identity(L2)
    params = dist.WishartParams(2.0, e)
    batch = dist.sample_wishart(params, 5, 50000)
    assert batch.method == "mcmc"
    assert batch.all_in_cone()
    assert not batch.mcmc["diverged"]
    chains = batch.mcmc["chains"]
    for c in (0.25, 0.5, 1.0):
        sigma = c * e
        values = np.exp(-ja.batch_inner(L2, sigma.coords, batch.coords))
        mean, err = st.mean_std_err(values, n_chains=chains)
        exact = dist.wishart_laplace(params, sigma)
        assert abs(mean - exact) < 3.0 * err
    mean0, err0 = st.mean_std_err(batch.coords[:, 0], n_chains=chains)
    assert abs(mean0 - 2.0) < 3.0 * err0


def test_wishart_sampler_determinism_and_range():
    b1 = dist.sample_wishart(dist.WishartParams(2.0, E2), 3, 100)
    b2 = dist.sample_wishart(dist.WishartParams(2.0, E2), 3, 100)
    assert np.array_equal(b1.coords, b2.coords)
    with pytest.raises(dist.ShapeOutOfRangeError):
        dist.sample_wishart(dist.WishartParams(0.5, E2), 0, 10)


@pytest.mark.parametrize("alg", [A2, H2], ids=["sym2", "herm2"])
def test_wishart_scale_near_identity_is_transported(alg):
    # W(p, c e) is W(p, e) scaled by 1/c, however close c is to 1
    e = ja.identity(alg)
    c = 1.0 + 1e-6
    at_e = dist.sample_wishart(dist.WishartParams(2.5, e), 4, 200).coords
    near_e = dist.sample_wishart(dist.WishartParams(2.5, c * e), 4, 200).coords
    np.testing.assert_allclose(c * near_e, at_e, rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(near_e - at_e)) > 1e-7


def test_sample_batch_elements_view():
    batch = dist.sample_wishart(dist.WishartParams(2.0, E2), 9, 5)
    els = batch.elements
    assert len(els) == 5
    assert np.array_equal(els[2].coords, batch.coords[2])
    assert batch.n == 5


# ---------------------------------------------------------------------------
# GIG sampling
# ---------------------------------------------------------------------------

def test_gig_rejection_matches_quadrature_cdf():
    params = dist.GigParams(-1.0, ONE, ONE)
    n = 10000
    batch = dist.sample_gig(params, 11, n)
    assert batch.method == "rejection"
    assert batch.all_in_cone()
    cdf = dist.gig_cdf_rank1(params)
    stat, _ = st.ks_against_cdf(batch.coords[:, 0], cdf)
    assert stat < st.ks_critical_value(n, alpha=0.01)


@pytest.mark.parametrize("p,a,b", [(0.5, 2.0, 0.5), (-2.3, 0.7, 1.9), (0.0, 1.0, 1.0)])
def test_gig_rejection_other_shapes(p, a, b):
    params = dist.GigParams(p, scalar(a), scalar(b))
    n = 5000
    batch = dist.sample_gig(params, 23, n)
    cdf = dist.gig_cdf_rank1(params)
    stat, _ = st.ks_against_cdf(batch.coords[:, 0], cdf)
    assert stat < st.ks_critical_value(n, alpha=0.01)


def _ks_against_quadrature(p, a, b, n, seed=23):
    params = dist.GigParams(p, scalar(a), scalar(b))
    stat, _ = st.ks_against_cdf(dist.sample_gig(params, seed, n).coords[:, 0],
                                dist.gig_cdf_rank1(params))
    return stat < st.ks_critical_value(n, alpha=0.01)


@pytest.mark.parametrize("p,a,b", [(0.05, 0.01, 0.01), (30.0, 5.0, 5.0)],
                         ids=["small-t-and-s", "big-s"])
def test_gig_rejection_envelope_branches(p, a, b):
    # Devroye's rules for t and s take their small forms at the first shape
    # and their big forms at the second
    assert _ks_against_quadrature(p, a, b, 200000)


@pytest.mark.parametrize("p,a,b", [(0.5, 1e-12, 1e-6), (0.05, 1e-20, 1e-20),
                                   (0.5, 1e-160, 1e-160), (-0.5, 1e-160, 1e-160)])
def test_gig_rejection_holds_where_alpha_rounds_to_zero(p, a, b):
    # hypot(omega, |p|) - |p| rounds to 0; the s rule divided by it, and at
    # 1e-160 (|p| / omega)^2 overflowed
    assert _ks_against_quadrature(p, a, b, 20000)


@pytest.mark.parametrize("a,b", [(1e-30, 1.5e30), (1e-100, 1.5e100), (1e-160, 1.5e160),
                                 (1.5e160, 1e-160)])
def test_gig_rejection_and_quadrature_hold_across_scale(a, b):
    # sqrt(b / a) overflowed the sampler at 1e160, and the quadrature grid
    # missed the mass from 1e30 on
    assert _ks_against_quadrature(2.0, a, b, 20000)


@pytest.mark.parametrize("a", [5e4, 5e8])
def test_gig_quadrature_holds_for_a_concentrated_law(a):
    # omega near 1e5 and 1e9 with the mode at log x = 0.125, half way between
    # two points of the 0.25 bracketing grid and hundreds of nats above both:
    # the density normalized by their maximum overflowed, and one fine grid
    # gave the law at 1e9 about three points per standard deviation
    assert _ks_against_quadrature(2.0, a, a * math.exp(0.25), 20000)


def test_gig_rejection_draws_scale_exactly():
    # 2^-j X ~ GIG(p, a 2^j, b 2^-j) for X ~ GIG(p, a, b), draw for draw
    unit = dist.sample_gig(dist.GigParams(2.0, ONE, scalar(1.5)), 5, 100).coords
    for j in (-530, -100, 100, 530):
        params = dist.GigParams(2.0, scalar(math.ldexp(1.0, j)), scalar(math.ldexp(1.5, -j)))
        assert np.array_equal(dist.sample_gig(params, 5, 100).coords, np.ldexp(unit, -j))


# Draws a rank-1 GIG batch for each (p, a, b) in argv[1] (seed: the case's
# index) and prints each batch's KS p-value: against gig_cdf_rank1 up to
# omega = 1e12, above it against the normal limit of log X,
# N(log(sqrt(b/a)) + asinh(p/omega), 1/hypot(p, omega)), to within
# 1/sqrt(omega).  The centre is taken as a ratio, so log X near 700 keeps
# every digit of its spread.
_SWEEP_CHILD = """
import json, math, sys
import numpy as np
from scipy.special import ndtr
from symcone import algebra as ja, distributions as dist, stats as st
one = ja.sym_real(1)
p_values = []
for seed, (p, a, b) in enumerate(json.loads(sys.argv[1])):
    params = dist.GigParams(p, ja.Element(one, np.array([a])), ja.Element(one, np.array([b])))
    x = dist.sample_gig(params, seed, int(sys.argv[2])).coords[:, 0]
    omega = 2.0 * math.sqrt(a) * math.sqrt(b)
    if omega <= 1e12:
        cdf = dist.gig_cdf_rank1(params)
    else:
        mode = math.sqrt(b) / math.sqrt(a) * math.exp(math.asinh(p / omega))
        cdf = lambda x: ndtr(np.log(x / mode) * math.sqrt(math.hypot(p, omega)))
    p_values.append(st.ks_against_cdf(x, cdf)[1])
print(json.dumps(p_values))
"""


def _whole_range_cases():
    # 150 laws with p in [-50, 50] or +-{0, 1e-9, 1e-3}, and a and b in
    # 10^[-300, 300] with omega = 2 sqrt(ab) <= 1e24
    rng = np.random.default_rng(18)
    cases = []
    while len(cases) < 150:
        if rng.uniform() < 0.25:
            p = float(rng.choice([0.0, 1e-9, 1e-3]) * rng.choice([-1.0, 1.0]))
        else:
            p = float(rng.uniform(-50.0, 50.0))
        la, lb = rng.uniform(-300.0, 300.0, size=2)
        if (la + lb) / 2.0 + math.log10(2.0) <= 24.0:
            cases.append((p, 10.0**la, 10.0**lb))
    # the concentrated laws where cosh(x) - 1 cancelled, and the tiny-omega
    # laws at which the sampler divided by 0 or never returned
    cases += [(2.0, w / 2.0, w / 2.0) for w in (1e15, 1e16, 1e18, 1e24)]
    return cases + [(0.0, 1e-200, 1e-200), (1e-9, 1e-170, 1e-170), (1e-3, 1e-200, 1e-200)]


def test_gig_rejection_follows_the_law_over_the_whole_range():
    # in a child with a timeout, so a sampler that never returns fails;
    # a RuntimeWarning there is an error
    cases = _whole_range_cases()
    src = Path(dist.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _SWEEP_CHILD, json.dumps(cases),
         "5000"], env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    p_values = json.loads(done.stdout)
    assert [case for case, pv in zip(cases, p_values) if not pv > 1e-6] == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1e-9, 0.0, 1e-300, 1e-310])
def test_gig_rejection_refuses_a_draw_past_the_largest_double(p):
    # near the smallest normal a and b, about 3e-6 of the law lies past the
    # largest double: at p = 1e-9 a draw overflowed with a warning, at p = 0
    # psi was 0 * inf = nan there, and at the subnormal p = 1e-310 it was
    # -inf, where lam (e^x - 1 - x) is finite, so that mass was silently left out
    tiny = scalar(2.3e-308)
    with pytest.raises(dist.MassPastDoublesError,
                       match=r"GIG\(p=.*, a=2.3e-308, b=2.3e-308\) has mass above the largest double"):
        dist.sample_gig(dist.GigParams(p, tiny, tiny), 3, 2_000_000)


# a law with mass past the largest double on the Bartlett and Metropolis
# routes, and the name its error gives it; the rank-1 route has its own test
# above
PAST_THE_DOUBLES = [
    (dist.WishartParams(3.0, 1e-307 * E2), 1, 100_000,
     r"Wishart\(p=3\.0, a=\[1e-307, 1e-307, 0\.0\]\)"),
    (dist.WishartParams(3.0, 1e-307 * ja.identity(H2)), 1, 100_000,
     r"Wishart\(p=3\.0, a=\[1e-307, 1e-307, 0\.0, 0\.0\]\)"),
    (dist.WishartParams(3.0, 3e-308 * ja.identity(L2)), 3, 100,
     r"Wishart\(p=3\.0, a=\[3e-308, 0\.0, 0\.0\]\)"),
]


@pytest.mark.parametrize("params, seed, n, name", PAST_THE_DOUBLES,
                         ids=["bartlett-sym2", "bartlett-herm2", "mcmc-lorentz3"])
def test_every_route_refuses_a_draw_past_the_largest_double(params, seed, n, name):
    # the transport's product or the scale-back by 2^k overflows; every route
    # ends in the one exit, which names the law and warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dist.MassPastDoublesError,
                           match=f"^{name} has mass above the largest double, and a draw fell "
                                 f"there$"):
            dist.sample_laws([(params, seed)], n)


@pytest.mark.parametrize("alg", [A2, ja.sym_real(3), H2], ids=["sym2", "sym3", "herm2"])
@pytest.mark.parametrize("smallest", [1e-13, 1e-200])
def test_bartlett_holds_at_ill_conditioned_scales(alg, smallest):
    # <a, X> is Gamma(r p) for every kind and open-cone scale a:
    # E exp(-t <a, X>) = (det a / det((1 + t) a))^p = (1 + t)^(-r p)
    scale = np.ones(alg.rank)
    scale[0] = smallest
    a = ja.from_matrix(alg, np.diag(scale))
    p, n = 3.0, 20000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = dist.sample_wishart(dist.WishartParams(p, a), 1, n)
    assert batch.method == "bartlett"
    assert batch.all_in_cone()
    values = ja.batch_inner(alg, a.coords, batch.coords)
    assert sps.kstest(values, sps.gamma(alg.rank * p).cdf).pvalue > 1e-3


def test_gig_params_from_two_algebras_are_a_mismatch():
    with pytest.raises(ja.AlgebraMismatchError):
        dist.GigParams(2.0, ONE, ja.identity(ja.herm_complex(1)))


# seed-5 draws of the rank-1 GIG: plain, omega = 2 sqrt(ab) far below |p|,
# omega near 6e27 (where the law's relative sd is 1.3e-14), small omega at a
# small shape, and a negative shape
GIG_RANK1_BITS = [
    ((2.0, 1.0, 1.5), ["0x1.fbcd850ce3d75p-1", "0x1.0d5d17acd7cd3p-1", "0x1.22dd6122e00c0p+1"]),
    ((3.0, 1e-20, 1e-10),
     ["0x1.6200627bacc9bp+66", "0x1.25da86292d1d1p+65", "0x1.e0504b866df3ap+67"]),
    ((-4.0, 1e30, 1e25), ["0x1.9e7c6e4339149p-9", "0x1.9e7c6e43391a7p-9", "0x1.9e7c6e43390ccp-9"]),
    ((0.7, 1e-5, 2e-4), ["0x1.e00f378e3066fp+11", "0x1.4ebd9ebf54906p+7", "0x1.a0c9c55b20825p+12"]),
    ((-0.2, 3.0, 1e-3), ["0x1.1129262752d28p-11", "0x1.b04ef347276a2p-13", "0x1.07f992a160275p-6"]),
]


@pytest.mark.parametrize("pab, draws", GIG_RANK1_BITS)
def test_gig_rejection_keeps_its_bits(pab, draws):
    p, a, b = pab
    batch = dist.sample_gig(dist.GigParams(p, scalar(a), scalar(b)), 5, 3)
    assert [float(z).hex() for z in batch.coords[:, 0]] == draws


def test_gig_mcmc_agrees_with_rejection():
    params = dist.GigParams(-1.0, ONE, ONE)
    n = 10000
    rej = dist.sample_gig(params, 11, n)
    mc = _mcmc(params, 12, n)
    assert mc.mcmc is not None
    assert 0.1 <= mc.mcmc["acceptance_rate"] <= 0.7
    _, p_value = st.ks_2sample(rej.coords[:, 0], mc.coords[:, 0])
    assert p_value > 0.01


def test_gig_reciprocal_sampling_property():
    # X ~ (p, a, b) implies X^-1 ~ (-p, b, a); compare on the det functional
    a = ja.from_matrix(A2, np.diag([1.5, 0.8]))
    b = ja.from_matrix(A2, np.diag([0.7, 1.2]))
    n = 8000
    fwd = dist.sample_gig(dist.GigParams(1.1, a, b), 31, n)
    inv_coords = ja.batch_inverse(A2, fwd.coords)
    bwd = dist.sample_gig(dist.GigParams(-1.1, b, a), 32, n)
    _, p_value = st.ks_2sample(ja.batch_det(A2, inv_coords), ja.batch_det(A2, bwd.coords))
    assert p_value > 0.01
    assert fwd.all_in_cone() and bwd.all_in_cone()


def test_gig_mcmc_metadata_and_determinism(mcmc_settings):
    params = dist.GigParams(-2.0, E2, E2)
    mcmc_settings(BURN_IN=500, THIN=5, CHAINS=8)
    b1 = dist.sample_gig(params, 4, 400)
    b2 = dist.sample_gig(params, 4, 400)
    assert np.array_equal(b1.coords, b2.coords)
    assert b1.mcmc["burn_in"] == 500
    assert b1.mcmc["thin"] == 5
    assert b1.mcmc["chains"] == 8
    assert len(b1.mcmc["acceptance_per_chain"]) == 8


def test_mcmc_divergence_is_flagged(mcmc_settings):
    params = dist.GigParams(-2.0, E2, E2)
    mcmc_settings(**WIDE_PROPOSALS)
    with pytest.warns(RuntimeWarning):
        batch = dist.sample_gig(params, 4, 200)
    assert batch.mcmc["diverged"]


def _mcmc_trace_mean(batch, scale):
    assert batch.method == "mcmc"
    assert not batch.mcmc["diverged"]
    assert batch.all_in_cone()
    tr = ja.batch_trace(batch.algebra, batch.coords) / scale
    return st.mean_std_err(tr, n_chains=batch.mcmc["chains"])


def test_metropolis_wishart_holds_across_scale(mcmc_settings):
    # at a = 1e-156 e the chains start near 2e156 e, where det x overflows
    mcmc_settings(BURN_IN=1000)
    e = ja.identity(L2)
    for scale in (1.0, 1e156, 1e-156, 1e160, 1e-160):
        params = dist.WishartParams(2.0, ja.Element(L2, e.coords / scale))
        mean, err = _mcmc_trace_mean(dist.sample_wishart(params, 1, 2000), scale)
        assert abs(mean - 4.0) < 3.0 * err  # E tr X = rank * p at a = e


@pytest.mark.parametrize("alg", [A2, ja.sym_real(3), H2, ja.lorentz(4)],
                         ids=["sym2", "sym3", "herm2", "lorentz-dim5"])
def test_metropolis_gig_holds_across_scale(alg, mcmc_settings):
    # GIG(p, a / s, s b) is s GIG(p, a, b); its start sqrt(<b, e> / <a, e>) e
    # overflowed as a ratio at s = 1e156, and det x of points near s e
    # overflows or underflows at the larger scales
    mcmc_settings(BURN_IN=1000)
    e = ja.identity(alg)

    def trace_mean(scale):
        params = dist.GigParams(-1.7, ja.Element(alg, e.coords / scale),
                                ja.Element(alg, e.coords * scale))
        return _mcmc_trace_mean(dist.sample_gig(params, 2, 1000), scale)

    ref, ref_err = trace_mean(1.0)
    for scale in (1e156, 1e-156, 1e160, 1e-160):
        mean, err = trace_mean(scale)
        assert abs(mean - ref) < 3.0 * math.hypot(err, ref_err)


def test_gig_start_ratio_keeps_its_bits_and_never_overflows():
    rng = np.random.default_rng(16)
    for num, den in 10.0 ** rng.uniform(-150, 150, (2000, 2)):
        assert dist._sqrt_ratio(num, den) == math.sqrt(num / den)
    for num, den, root in ((2e156, 2e-156, 1e156), (1e-160, 1e160, 1e-160),
                           (4.0, 1.0, 2.0), (2.0, 1.0, math.sqrt(2.0))):
        assert dist._sqrt_ratio(num, den) == pytest.approx(root, rel=1e-15)


# ---------------------------------------------------------------------------
# Rank-2 closed-form Metropolis target
# ---------------------------------------------------------------------------

RANK2 = [L2, ja.lorentz(5), ja.lorentz(8), A2, H2]
RANK2_IDS = ["lorentz-dim3", "lorentz-dim6", "lorentz-dim9", "sym2", "herm2"]


def _reference_log_pdf_batch(alg, p, a_coords, b_coords=None):
    """The eigenvalue/inverse target, as every rank used it before the closed
    form.  The matrix kinds take their eigenvalues from LAPACK, not from the
    library's Jacobi rotations, so that the reference neither shares the
    sampler's code nor runs the rotations at every step."""
    exponent = p - alg.dim_over_rank

    def eigenvalues(x):
        if alg.kind is ja.Kind.LORENTZ:
            return ja.batch_eigenvalues(alg, x)
        return np.linalg.eigvalsh(ja.coords_to_matrices(alg, x))[..., ::-1]

    def log_pdf(x):
        lam = eigenvalues(x)
        ok = lam[..., -1] > 0.0
        out = np.full(x.shape[:-1], -np.inf)
        if np.any(ok):
            xo = x[ok]
            log_det = np.sum(np.log(lam[ok]), axis=-1)
            if b_coords is None:
                out[ok] = exponent * log_det - ja.batch_inner(alg, a_coords, xo)
            else:
                inv = ja.batch_inverse(alg, xo)
                out[ok] = (
                    exponent * log_det
                    - ja.batch_inner(alg, a_coords, xo)
                    - ja.batch_inner(alg, b_coords, inv)
                )
        return out

    return log_pdf


def _one_law_target(alg, p, a_coords, b_coords):
    """The sampler's target of one law on points (n, dim), -inf where it
    marks a point off the cone."""

    def log_pdf(x):
        cols = np.ascontiguousarray(x.T)
        lp, ok = np.empty(len(x)), np.empty(len(x), bool)
        dist._log_pdf_batch(alg, [p], a_coords[None], None if b_coords is None else b_coords[None],
                            cols, lp, ok)()
        return np.where(ok, lp, -np.inf)

    return log_pdf


def _law_by_law_target(alg, p, a_coords, b_coords, x, lp, ok):
    """The target of several laws from :func:`_reference_log_pdf_batch`,
    one law's block of chains at a time, bound as the sampler binds its
    target: to coordinate-major points, with the cone mask true but where
    the target is -inf, which no log uniform is below."""
    b_rows = [None] * len(p) if b_coords is None else b_coords
    targets = [_reference_log_pdf_batch(alg, *law) for law in zip(p, a_coords, b_rows)]

    def log_pdf():
        blocks = x.T.reshape(len(targets), -1, alg.dim)
        lp[...] = np.concatenate([target(block) for target, block in zip(targets, blocks)])
        np.greater(lp, -np.inf, out=ok)

    return log_pdf


def _scaled_params(alg, scale, lo=0.5, hi=2.0):
    """a = A / scale and b = B * scale, with the eigenvalues of A and B drawn
    from [lo, hi], so GIG and Wishart draws sit near scale."""
    pts = ja.random_cone_points_banded(alg, np.random.default_rng(alg.dim), 2, lo, hi)
    return ja.Element(alg, pts[0] / scale), ja.Element(alg, pts[1] * scale)


def _near_bound_shape(alg):
    """A Wishart shape 0.05 above the density bound dim/rank - 1: the exponent
    p - dim/rank is negative and the chains hug the cone's boundary, where an
    accept decision is most sensitive to how the target rounds."""
    return alg.dim_over_rank - 0.95


# GIG parameters far from e and from each other, so tr x, <a, x> and <b, x>
# are three unrelated linear terms of the target
SKEWED = {"lo": 0.01, "hi": 10.0}


def _rank2_points(alg, rng, scale, n):
    """scale * (l1 c1 + l2 c2) on random Jordan frames, with l1 / l2 up to 1e6."""
    pts = np.empty((n, alg.dim))
    for i in range(n):
        c1, c2 = ja.spectral_decomposition(ja.random_element(alg, rng)).idempotents
        l1 = rng.uniform(1.0, 10.0)
        l2 = l1 * 10.0 ** -rng.uniform(0.0, 6.0)
        pts[i] = scale * (l1 * c1.coords + l2 * c2.coords)
    return pts


MCMC_EDGE_SETTINGS = {"single-chain": SINGLE_CHAIN, "wide-proposals": WIDE_PROPOSALS}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("settings", MCMC_EDGE_SETTINGS)
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("alg", RANK2, ids=RANK2_IDS)
def test_rank2_target_leaves_seeded_samplers_unchanged(alg, scale, settings, monkeypatch,
                                                       mcmc_settings):
    a, b = _scaled_params(alg, scale)
    skewed_a, skewed_b = _scaled_params(alg, scale, **SKEWED)
    mcmc_settings(**MCMC_EDGE_SETTINGS[settings])

    def draw():
        return (
            dist.sample_gig(dist.GigParams(-1.7, a, b), 7, 300),
            dist.sample_gig(dist.GigParams(0.8, skewed_a, skewed_b), 8, 300),
            _mcmc(dist.WishartParams(alg.dim_over_rank + 0.5, a), 9, 300),
            _mcmc(dist.WishartParams(_near_bound_shape(alg), a), 10, 300),
        )

    closed_form = draw()
    monkeypatch.setattr(dist, "_log_pdf_batch", _law_by_law_target)
    for got, ref in zip(closed_form, draw()):
        assert got.coords.tobytes() == ref.coords.tobytes()
        assert got.mcmc == ref.mcmc


@pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e150])
@pytest.mark.parametrize("alg", RANK2, ids=RANK2_IDS)
def test_rank2_target_matches_eigenvalue_target(alg, scale):
    x = _rank2_points(alg, np.random.default_rng(11), scale, 200)
    a, b = _scaled_params(alg, scale)
    for p, b_coords in ((2.3, None), (-1.7, b.coords)):
        got = _one_law_target(alg, p, a.coords, b_coords)(x)
        ref = _reference_log_pdf_batch(alg, p, a.coords, b_coords)(x)
        assert np.all(np.isfinite(ref))
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


DET_ALGEBRAS = [A2, H2, L2, ja.lorentz(5), ja.lorentz(8), ja.lorentz(9)]
DET_IDS = ["sym2", "herm2", "lorentz-dim3", "lorentz-dim6", "lorentz-dim9", "lorentz-dim10"]


@pytest.mark.parametrize("alg", DET_ALGEBRAS, ids=DET_IDS)
def test_rank2_target_det_keeps_the_accuracy_of_rank2_det(alg):
    # at exponent 1 and a = 0 the target is log det x, with det x the
    # quadratic form <x, Q x>
    k = ja.kernels(alg)
    rng = np.random.default_rng(alg.dim + 30)
    banded = ja.random_cone_points_banded(alg, rng, 1000, 0.01, 10.0)
    gaussian = rng.standard_normal((4000, alg.dim))
    gaussian = gaussian[(k.rank2_det(alg, gaussian) > 0) & (k.trace(alg, gaussian) > 0)]
    target = _one_law_target(alg, alg.dim_over_rank + 1.0, np.zeros(alg.dim), None)
    for exponent in range(-140, 141, 20):
        x = np.concatenate([banded, gaussian]) * 10.0**exponent
        got, ref = target(x), np.log(k.rank2_det(alg, x))
        if alg.kind is ja.Kind.SYM_REAL:
            assert got.tobytes() == ref.tobytes()
            continue
        # each det is a sum of dim terms whose magnitudes add up to ``size``,
        # so it is within dim eps / 2 size of the exact one, and each log is
        # within 1 ulp of the exact log of its det
        size = np.sum(x * x, axis=1) if alg.kind is ja.Kind.LORENTZ else \
            np.abs(x[:, 0] * x[:, 1]) + 0.5 * np.sum(x[:, 2:] ** 2, axis=1)
        bound = alg.dim * np.finfo(float).eps * size / k.rank2_det(alg, x) \
            + 2.0 * np.spacing(np.abs(ref))
        assert np.all(np.abs(got - ref) <= bound)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("alg", RANK2, ids=RANK2_IDS)
def test_rank2_target_is_minus_inf_off_the_open_cone(alg, scale):
    e = ja.identity(alg).coords
    edge = np.zeros(alg.dim)  # diag(1, 0), or Lorentz (1, 1, 0, ...)
    edge[:2] = 1.0 if alg.kind is ja.Kind.LORENTZ else (1.0, 0.0)
    indefinite = e.copy()  # diag(1, -1), or Lorentz (1, 2, 0, ...)
    indefinite[1] = 2.0 if alg.kind is ja.Kind.LORENTZ else -1.0
    off_cone = scale * np.stack([edge, np.zeros(alg.dim), -e, -edge, indefinite])
    a, b = _scaled_params(alg, scale)
    gaussian = scale * np.random.default_rng(3).standard_normal((400, alg.dim))
    for b_coords in (None, b.coords):
        # under the error state the sampler calls the target with: the log and
        # division warnings of off-cone rows are the caller's to silence
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.all(_one_law_target(alg, 2.3, a.coords, b_coords)(off_cone) == -np.inf)
            got = _one_law_target(alg, 2.3, a.coords, b_coords)(gaussian)
        ref = _reference_log_pdf_batch(alg, 2.3, a.coords, b_coords)(gaussian)
        assert not np.any(np.isnan(got))
        assert np.array_equal(got == -np.inf, ref == -np.inf)
        assert 0 < np.sum(got == -np.inf) < len(gaussian)


MASK_ALGEBRAS = [A2, H2, L2, ja.lorentz(5), ja.lorentz(8)]
MASK_IDS = ["sym2", "herm2", "lorentz-dim3", "lorentz-dim6", "lorentz-dim9"]


@pytest.mark.parametrize("alg", MASK_ALGEBRAS, ids=MASK_IDS)
def test_rank2_target_mask_agrees_with_batch_in_cone_off_the_boundary(alg):
    # the target decides by tr x > 0 and its closed-form det x > 0,
    # batch_in_cone by the pivots or by x0 - |xbar|: the two may differ only
    # where det x is within rounding of 0
    rng = np.random.default_rng(alg.dim + 17)
    gaussian = rng.standard_normal((4000, alg.dim))
    # near-boundary rows: the least eigenvalue moved to +-10^-u times the
    # spread of the two, u up to 14, and the scale varied
    lam = ja.batch_eigenvalues(alg, gaussian)
    sign = rng.choice([-1.0, 1.0], 4000)
    gap = (lam[:, 0] - lam[:, 1]) * sign * 10.0 ** -rng.uniform(0, 14, 4000)
    near = (gaussian + (gap - lam[:, 1])[:, None] * ja.identity(alg).coords) \
        * 10.0 ** rng.uniform(-100, 100, 4000)[:, None]
    x = np.concatenate([gaussian, near])
    cols = np.ascontiguousarray(x.T)
    lp, ok = np.empty(len(x)), np.empty(len(x), bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # log det of the rows off the cone
        dist._log_pdf_batch(alg, [2.3], ja.identity(alg).coords[None], None, cols, lp, ok)()
    mask = ja.batch_in_cone(alg, x)
    det, tr = ja.kernels(alg).rank2_det(alg, x), ja.batch_trace(alg, x)
    clear = np.abs(det) > 1e-12 * tr * tr
    assert np.array_equal(ok[clear], mask[clear])
    # neither side is trivial, and rows close to the boundary are compared
    assert 0 < np.sum(mask[clear]) < np.sum(clear)
    assert np.sum((clear & (np.abs(det) < 1e-6 * tr * tr))[4000:]) > 500


# ---------------------------------------------------------------------------
# Lean Metropolis step: same chains as the per-step reference
# ---------------------------------------------------------------------------

def _sum_in_turn(sq):
    """The sum of (chains, dim) rows ``sq``, adding their coordinates in turn
    from the left, the order of the sampler's sums over its coordinate axis."""
    total = sq[:, 0].copy()
    for j in range(1, sq.shape[1]):
        total += sq[:, j]
    return total


def _reference_metropolis_cone(alg, log_pdf, seed, n, init):
    """The per-step formulation: norms recomputed every step, masked updates."""
    burn_in, thin, scale = dist.BURN_IN, dist.THIN, dist.PROPOSAL_SCALE
    chains = max(1, min(dist.CHAINS, n))
    per_chain = -(-n // chains)
    steps = burn_in + per_chain * thin
    streams = np.random.SeedSequence(seed).spawn(chains)
    noise = np.empty((steps, chains, alg.dim))
    log_u = np.empty((steps, chains))
    for c, ss in enumerate(streams):
        gen = np.random.default_rng(ss)
        noise[:, c, :] = gen.standard_normal((steps, alg.dim))
        log_u[:, c] = np.log(gen.uniform(size=steps))

    cur = np.tile(init, (chains, 1))
    lp_cur = log_pdf(cur)
    factors = np.ones(chains)
    accepted_post = np.zeros(chains)
    kept = np.empty((per_chain, chains, alg.dim))
    k = 0
    for step in range(steps):
        rms = np.sqrt(_sum_in_turn(cur * cur)) / math.sqrt(alg.dim)
        std = factors * scale * rms
        prop = cur + std[:, None] * noise[step]
        lp_prop = log_pdf(prop)
        rms_prop = np.sqrt(_sum_in_turn(prop * prop)) / math.sqrt(alg.dim)
        z_sq = _sum_in_turn(noise[step] ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_sq = (rms / rms_prop) ** 2
            hastings = alg.dim * 0.5 * np.log(ratio_sq) + 0.5 * z_sq * (1.0 - ratio_sq)
        log_alpha = lp_prop - lp_cur + np.where(np.isfinite(lp_prop), hastings, -np.inf)
        acc = log_u[step] < log_alpha
        cur[acc] = prop[acc]
        lp_cur[acc] = lp_prop[acc]
        if step < burn_in:
            gain = 0.5 / (1.0 + step) ** 0.6
            factors *= np.exp(gain * (acc.astype(float) - dist.TARGET_ACCEPT))
        else:
            accepted_post += acc
            if (step - burn_in) % thin == thin - 1:
                kept[k] = cur
                k += 1
    rate_per_chain = accepted_post / (steps - burn_in)
    rate = float(rate_per_chain.mean())
    lo, hi = dist.ACCEPT_BAND
    diverged = not (lo <= rate <= hi)
    if diverged:
        warnings.warn(
            f"MCMC acceptance rate {rate:.3f} outside [{lo}, {hi}] after adaptation",
            RuntimeWarning,
        )
    coords = kept.transpose(1, 0, 2).reshape(chains * per_chain, alg.dim)[:n]
    meta = {
        "burn_in": burn_in,
        "thin": thin,
        "chains": chains,
        "per_chain": per_chain,
        "acceptance_rate": rate,
        "acceptance_per_chain": [float(x) for x in rate_per_chain],
        "proposal_scale": scale,
        "adapted_factors": [float(x) for x in factors],
        "diverged": diverged,
    }
    return coords, meta


def _reference_law_by_law(alg, laws, n):
    """:func:`_reference_metropolis_cone` on :func:`_reference_masked_log_pdf_batch`,
    one law at a time."""
    return [_reference_metropolis_cone(alg, _reference_masked_log_pdf_batch(alg, p, a, b),
                                       seed, n, init)
            for p, a, b, seed, init in laws]


def _reference_masked_log_pdf_batch(alg, p, a_coords, b_coords=None):
    """The rank-2 target as a gather of the cone rows and a scatter of their values.

    Other ranks use the eigenvalue reference above.
    """
    if alg.rank != 2:
        return _reference_log_pdf_batch(alg, p, a_coords, b_coords)
    exponent = p - alg.dim_over_rank
    lorentz = alg.kind is ja.Kind.LORENTZ

    def inner(u, x):
        dot = np.sum(u * x, axis=-1)
        return 2.0 * dot if lorentz else dot

    def trace(x):
        return 2.0 * x[..., 0] if lorentz else np.sum(x[..., :2], axis=-1)

    tr_b = None if b_coords is None else float(trace(b_coords))

    def log_pdf(x):
        tr = trace(x)
        if lorentz:
            dt = x[..., 0] ** 2 - np.sum(x[..., 1:] ** 2, axis=-1)
        else:
            dt = x[..., 0] * x[..., 1] - 0.5 * np.sum(x[..., 2:] ** 2, axis=-1)
        ok = (tr > 0.0) & (dt > 0.0)
        out = np.full(x.shape[:-1], -np.inf)
        if np.any(ok):
            xo, tr, dt = x[ok], tr[ok], dt[ok]
            val = exponent * np.log(dt) - inner(a_coords, xo)
            if b_coords is not None:
                val -= (tr * tr_b - inner(b_coords, xo)) / dt
            out[ok] = val
        return out

    return log_pdf


# Lorentz dim 9 is past dim 8, where the step's sums in turn and numpy's row
# sum differ, and herm-complex r = 3 (also dim 9) takes the pivot target of
# rank >= 3
LEAN_ALGEBRAS = [L2, ja.lorentz(5), ja.lorentz(8), A2, ja.sym_real(3), H2, ja.herm_complex(3), A1]
LEAN_IDS = ["lorentz-dim3", "lorentz-dim6", "lorentz-dim9", "sym2", "sym3", "herm2", "herm3",
            "rank1"]
# n = 203 divides by none of the chain counts above 1
LEAN_N = 203
LEAN_SETTINGS = {
    "default": {},
    "single-chain": SINGLE_CHAIN,
    "diverging": WIDE_PROPOSALS,
}
LEAN_FAMILIES = ("gig", "gig-skewed", "wishart", "wishart-near-bound")
# the default settings run 5000 burn-in steps, so they skip the Wishart at
# p = dim/rank + 0.5 except on Lorentz dim 3, which has no exact sampler; the
# skewed GIG and the near-bound Wishart probe the closed-form target, so they
# run at rank 2 only
LEAN_CASES = [
    pytest.param(alg, config, family, id=f"{alg_id}-{config}-{family}")
    for alg, alg_id in zip(LEAN_ALGEBRAS, LEAN_IDS)
    for config in LEAN_SETTINGS
    for family in LEAN_FAMILIES
    if (config != "default" or family != "wishart" or alg == L2)
    and (family in ("gig", "wishart") or alg.rank == 2)
]


def _lean_draw(alg, family):
    """The batch and the warnings of one seeded Metropolis call."""
    a, b = _scaled_params(alg, 1.0, **(SKEWED if family == "gig-skewed" else {}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if family == "gig":
            batch = _mcmc(dist.GigParams(-1.7, a, b), 7, LEAN_N)
        elif family == "gig-skewed":
            batch = _mcmc(dist.GigParams(0.8, a, b), 8, LEAN_N)
        else:
            p = alg.dim_over_rank + 0.5 if family == "wishart" else _near_bound_shape(alg)
            batch = _mcmc(dist.WishartParams(p, a), 9, LEAN_N)
    return batch, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("alg, config, family", LEAN_CASES)
def test_lean_metropolis_step_keeps_every_chain(alg, config, family, monkeypatch,
                                                mcmc_settings):
    mcmc_settings(**LEAN_SETTINGS[config])
    got, got_warnings = _lean_draw(alg, family)
    monkeypatch.setattr(dist, "_metropolis_cone", _reference_law_by_law)
    ref, ref_warnings = _lean_draw(alg, family)
    assert got.coords.tobytes() == ref.coords.tobytes()
    assert got.mcmc == ref.mcmc
    assert got_warnings == ref_warnings
    # a batch warns exactly when it is flagged; the default settings never are
    assert [c for c, _ in got_warnings] == ([RuntimeWarning] if got.mcmc["diverged"] else [])
    if config != "single-chain":
        assert got.mcmc["diverged"] == (config == "diverging")


# ---------------------------------------------------------------------------
# Several laws in one draw: each batch is the one its law gives alone
# ---------------------------------------------------------------------------

JOINT_ALGEBRAS = [L2, ja.lorentz(8), H2, ja.sym_real(3), A1]
JOINT_IDS = ["lorentz-dim3", "lorentz-dim9", "herm2", "sym3", "rank1"]


def _joint_laws(alg):
    """The X, Y, V and U laws of the independence test at a != b: two GIG and
    two Wishart laws, Metropolis, Bartlett or rejection by the algebra."""
    a, b = _scaled_params(alg, 1.0, **SKEWED)
    p = alg.dim_over_rank + 0.5
    return [(dist.GigParams(-p, a, b), 11), (dist.WishartParams(p, a), 12),
            (dist.WishartParams(p, b), 13), (dist.GigParams(-p, b, a), 14)]


def _with_warnings(draw):
    """The batches of ``draw()`` and the warnings they raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batches = draw()
    return batches, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("config", LEAN_SETTINGS)
@pytest.mark.parametrize("alg", JOINT_ALGEBRAS, ids=JOINT_IDS)
def test_joint_draw_gives_each_law_its_own_batch(alg, config, mcmc_settings):
    mcmc_settings(**LEAN_SETTINGS[config])
    laws = _joint_laws(alg)
    joint, joint_warnings = _with_warnings(lambda: dist.sample_laws(laws, LEAN_N))
    alone, alone_warnings = _with_warnings(lambda: [
        dist.sample_wishart(params, seed, LEAN_N) if isinstance(params, dist.WishartParams)
        else dist.sample_gig(params, seed, LEAN_N) for params, seed in laws])
    assert len(joint) == len(laws)
    for got, ref in zip(joint, alone):
        assert (got.method, got.params, got.seed) == (ref.method, ref.params, ref.seed)
        assert got.coords.tobytes() == ref.coords.tobytes()
        assert got.mcmc == ref.mcmc
    assert joint_warnings == alone_warnings
    # the GIG is Metropolis from rank 2 on, the Wishart on Lorentz alone
    methods = [b.method for b in joint]
    if alg.rank == 1:
        assert methods == ["rejection", "bartlett", "bartlett", "rejection"]
    elif alg.kind is ja.Kind.LORENTZ:
        assert methods == ["mcmc"] * 4
    else:
        assert methods == ["mcmc", "bartlett", "bartlett", "mcmc"]
    # each Metropolis law is flagged, and warns, on its own
    flagged = [b.mcmc["diverged"] for b in joint if b.mcmc is not None]
    assert [c for c, _ in joint_warnings] == [RuntimeWarning] * sum(flagged)
    if config != "single-chain":
        assert flagged == [config == "diverging"] * len(flagged)


def test_joint_draw_checks_every_law_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a sampler ran")

    for name in ("_bartlett", "_gig_rejection_rank1", "_metropolis_cone"):
        monkeypatch.setattr(dist, name, no_draws)
    gig = (dist.GigParams(-2.0, E2, E2), 1)
    with pytest.raises(dist.ShapeOutOfRangeError):
        dist.sample_laws([gig, (dist.WishartParams(2.0, E2), 2), (dist.WishartParams(0.5, E2), 3)],
                         10)
    with pytest.raises(ja.AlgebraMismatchError):
        dist.sample_laws([gig, (dist.WishartParams(2.0, ja.identity(H2)), 2)], 10)
    assert dist.sample_laws([], 10) == []
