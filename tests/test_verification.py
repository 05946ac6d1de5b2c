"""Identity checks, functional-equation families, and the independence test."""

import numpy as np
import pytest

from symcone import algebra as ja
from symcone import distributions as dist
from symcone import my_transform as mt
from symcone import serialization as ser
from symcone import verification as ver

ALL_ALGEBRAS = [
    ja.sym_real(1),
    ja.sym_real(2),
    ja.sym_real(3),
    ja.herm_complex(2),
    ja.herm_complex(3),
    ja.lorentz(2),
    ja.lorentz(3),
    ja.lorentz(4),
]
IDS = [f"{a.kind.value}-dim{a.dim}" for a in ALL_ALGEBRAS]

A1 = ja.sym_real(1)
A2 = ja.sym_real(2)
ONE = ja.identity(A1)
E2 = ja.identity(A2)


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_identity_checks_pass(alg):
    assert ver.check_jordan_axioms(alg, n=300, seed=1).passed
    assert ver.check_det_product_rule(alg, n=300, seed=2).passed
    assert ver.check_det_operator_power(alg, n=300, seed=3).passed
    assert ver.check_hua(alg, n=300, seed=4).passed
    assert ver.check_involution(alg, n=300, seed=5).passed


@pytest.mark.parametrize("alg", [A2, ja.lorentz(2), ja.herm_complex(2)])
def test_jacobian_check_passes(alg):
    report = ver.check_jacobian(alg, n=50, seed=6)
    assert report.passed
    assert report.max_residual < 1e-4


def _capture_residuals(monkeypatch):
    """Record the per-trial residual array each check hands to its report."""
    captured = []
    report = ver._report

    def recording(check, alg, residuals, *args, **kwargs):
        captured.append(np.asarray(residuals, float).copy())
        return report(check, alg, residuals, *args, **kwargs)

    monkeypatch.setattr(ver, "_report", recording)
    return captured


def test_det_operator_power_matches_per_trial_loop(monkeypatch):
    alg = ja.herm_complex(3)
    n = ver.BLOCK_TRIALS + 88  # more than one block
    captured = _capture_residuals(monkeypatch)
    report = ver.check_det_operator_power(alg, n=n, seed=3)
    x = ja.random_cone_points_banded(alg, np.random.default_rng(3), n)
    power = 2.0 * alg.dim / alg.rank
    expected = []
    for xi in x:
        target = ja.det(ja.Element(alg, xi)) ** power
        op_det = ja.quad_rep(ja.Element(alg, xi)).det()
        expected.append(abs(op_det - target) / abs(target))
    # the stacked power may differ from the scalar one by an ulp per trial
    np.testing.assert_allclose(captured[0], expected, rtol=0.0, atol=1e-15)
    assert report.passed and report.trials == n


def test_jacobian_richardson_path_matches_per_trial_loop(monkeypatch):
    # at step 1e-3 a few trials miss the tolerance and are refined
    alg, n, seed, step, tol = ja.lorentz(3), 60, 5, 1e-3, 1e-4
    captured = _capture_residuals(monkeypatch)
    report = ver.check_jacobian(alg, n=n, seed=seed, step=step, tol=tol)
    rng = np.random.default_rng(seed)
    u = ja.random_cone_points_banded(alg, rng, n)
    v = ja.random_cone_points_banded(alg, rng, n)
    expected, refined = [], 0
    for ui, vi in zip(u, v):
        formula = mt.batch_log_jacobian_det(alg, ui, vi)
        rel = abs(np.expm1(mt.batch_log_jacobian_det_numeric(alg, ui, vi, step) - formula))
        if rel > tol:
            refined += 1
            numeric = mt.batch_log_jacobian_det_numeric(alg, ui, vi, step, richardson=True)
            rel = abs(np.expm1(numeric - formula))
        expected.append(rel)
    assert 0 < refined < n
    # the stacked closed form may differ from the scalar one by an ulp per trial
    np.testing.assert_allclose(captured[0], expected, rtol=1e-12, atol=1e-15)
    assert report.passed


@pytest.mark.parametrize("alg", [ja.sym_real(18), ja.herm_complex(13)],
                         ids=["sym-real-r18", "herm-complex-r13"])
def test_jacobian_check_passes_where_the_jacobian_leaves_the_double_range(alg):
    # the Jacobian itself underflows here, so only its log can be compared
    report = ver.check_jacobian(alg, n=3, seed=1)
    assert report.passed and report.max_residual < 1e-6


@pytest.mark.parametrize("alg", [A2, ja.herm_complex(2), ja.lorentz(3)],
                         ids=["sym-real-dim3", "herm-complex-dim4", "lorentz-dim4"])
def test_batched_checks_block_invariant(alg, monkeypatch):
    # 64 splits the operator-power check; 16 splits the Jacobian's 41 trials too
    for check, n in ((ver.check_det_operator_power, 701), (ver.check_jacobian, 41)):
        default = check(alg, n=n, seed=6).to_dict()
        for block in (64, 16):
            monkeypatch.setattr(ver, "BLOCK_TRIALS", block)
            assert check(alg, n=n, seed=6).to_dict() == default
        monkeypatch.undo()


def _sweep_checks(alg, seed):
    """The twelve residual checks the identity sweep runs on one algebra,
    all at one seed; the Jacobian check at fewer trials, as there."""
    rng = np.random.default_rng(41)
    k = ver.random_fe_constants(alg, rng)
    a, b = (ja.Element(alg, ja.random_cone_points_banded(alg, rng, 1, 0.5, 2.0)[0])
            for _ in range(2))
    p, kw = alg.dim_over_rank, {"n": 60, "seed": seed}
    return {
        "jordan-axioms": lambda: ver.check_jordan_axioms(alg, **kw),
        "det-product-rule": lambda: ver.check_det_product_rule(alg, **kw),
        "det-operator-power": lambda: ver.check_det_operator_power(alg, **kw),
        "hua": lambda: ver.check_hua(alg, **kw),
        "involution": lambda: ver.check_involution(alg, **kw),
        "jacobian": lambda: ver.check_jacobian(alg, n=20, seed=seed),
        "cauchy-additive": lambda: ver.check_cauchy_additive(alg, k.f, **kw),
        "pexider-log": lambda: ver.check_pexider_log(alg, k.q, k.gamma1, k.gamma2, **kw),
        "fe-cone": lambda: ver.check_fe_cone(alg, k, **kw),
        "fe-cone-perturbed": lambda: ver.check_perturbed_fe_rejects(alg, k, 0.5, **kw),
        "density-factorization": lambda: ver.density_factorization_check(alg, p, a, b, **kw),
        "density-factorization-control": lambda: ver.density_factorization_check(
            alg, p, a, b, negative_control=True, **kw),
    }


@pytest.mark.parametrize("alg", [ja.sym_real(3), ja.herm_complex(3)],
                         ids=["sym-real-dim6", "herm-complex-dim9"])
def test_checks_that_share_their_points_report_the_same_in_any_order(alg, monkeypatch):
    checks = _sweep_checks(alg, seed=7)
    alone = {}
    for name, check in checks.items():
        ver._seeded_cone_pairs.cache_clear()
        alone[name] = check().to_dict()
    draws = []
    banded = ver.random_cone_points_banded
    monkeypatch.setattr(ver, "random_cone_points_banded",
                        lambda alg, rng, n: draws.append(n) or banded(alg, rng, n))
    ver._seeded_cone_pairs.cache_clear()
    forward = {name: check().to_dict() for name, check in checks.items()}
    # the sweep's order: the Jacobian's smaller pair, drawn between checks
    # at n = 60, leaves their pair in the memo, so each pair is drawn once
    assert draws == [60, 60, 20, 20]
    backward = {name: check().to_dict() for name, check in reversed(checks.items())}
    assert draws == [60, 60, 20, 20]
    assert forward == alone
    assert backward == alone


def test_shared_cone_points_are_read_only_and_keyed_on_the_algebra():
    sym, spin = ja.sym_real(2), ja.lorentz(2)  # both of dim 3
    for seed in (5, None):
        for points in ver._cone_pairs(sym, 40, seed):
            with pytest.raises(ValueError):
                points[0, 0] = 1.0
    first, second = ver._cone_pairs(sym, 40, None), ver._cone_pairs(sym, 40, None)
    assert not np.array_equal(first[0], second[0])
    assert not np.array_equal(ver._cone_pairs(sym, 40, 5)[0], ver._cone_pairs(spin, 40, 5)[0])
    # each is the pair its own seeded stream gives
    for alg in (sym, spin):
        rng = np.random.default_rng(5)
        for points in ver._cone_pairs(alg, 40, 5):
            assert np.array_equal(points, ja.random_cone_points_banded(alg, rng, 40))


def test_det_operator_power_gate_can_fail(monkeypatch):
    alg = ja.sym_real(3)
    assert ver.check_det_operator_power(alg, n=200, seed=3).passed
    quad_rep = ver.batch_quad_rep
    monkeypatch.setattr(ver, "batch_quad_rep", lambda a, x: quad_rep(a, x) * (1.0 + 1e-6))
    report = ver.check_det_operator_power(alg, n=200, seed=3)
    assert not report.passed
    assert report.max_residual > 100.0 * report.tolerance


def test_jacobian_gate_can_fail(monkeypatch):
    alg = A2
    assert ver.check_jacobian(alg, n=50, seed=6).passed

    def skewed_formula(a, u, v):
        # the exponent -2 dim/rank skewed by a factor 1 + 1e-4
        return (1.0 + 1e-4) * mt.batch_log_jacobian_det(a, u, v)

    monkeypatch.setattr(ver, "batch_log_jacobian_det", skewed_formula)
    report = ver.check_jacobian(alg, n=50, seed=6)
    assert not report.passed
    assert report.max_residual > 10.0 * report.tolerance


@pytest.mark.parametrize("step", [0.0, -1.0])
def test_jacobian_check_rejects_bad_step(step):
    # step 0 would give a NaN residual, step -1 leaves the cone
    with pytest.raises(ValueError, match="step"):
        ver.check_jacobian(A2, n=3, seed=6, step=step)


def test_cauchy_additive_cases():
    zero_vec = ja.zero(A2)
    report = ver.check_cauchy_additive(A2, zero_vec, n=200, seed=7)
    assert report.max_residual == 0.0
    report = ver.check_cauchy_additive(A1, ONE, n=200, seed=8)
    assert report.max_residual == 0.0
    rng = np.random.default_rng(9)
    for alg in (A2, ja.lorentz(3)):
        f_vec = ja.random_element(alg, rng)
        report = ver.check_cauchy_additive(alg, f_vec, n=500, tol=1e-12, seed=10)
        assert report.passed


def test_pexider_log_cases():
    report = ver.check_pexider_log(A2, 0.0, 1.5, -2.0, n=200, seed=11)
    assert report.max_residual == 0.0
    # scalar sanity: log 4 + log 2 = log(P(2) 2) = log 8
    report = ver.check_pexider_log(A1, 1.0, 0.0, 0.0, n=200, seed=12)
    assert report.passed
    report = ver.check_pexider_log(A2, 2.5, 0.3, -0.7, n=500, tol=1e-9, seed=13)
    assert report.passed


def test_fe_univariate_g_alpha_cases():
    assert ver.check_fe_univariate_g_alpha(
        {"A": 0.0, "B": 0.0, "C": 2.0, "D": -1.0}, n=200, seed=14
    ).max_residual == 0.0
    # A=1, B=0: x(x+y) - y(x+y) = x^2 - y^2 identically
    assert ver.check_fe_univariate_g_alpha(
        {"A": 1.0, "B": 0.0, "C": 0.0, "D": 0.0}, n=200, seed=15
    ).passed
    report = ver.check_fe_univariate_g_alpha(
        {"A": 2.0, "B": 3.0, "C": 0.5, "D": 1.5}, n=1000, tol=1e-10, seed=16
    )
    assert report.passed


def test_fe_univariate_abcd_cases():
    flat = ver.Fe1dConstants(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    assert ver.check_fe_univariate_abcd(flat, n=200, seed=17).max_residual < 1e-12
    log_only = ver.Fe1dConstants(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert ver.check_fe_univariate_abcd(log_only, n=500, tol=1e-12, seed=18).passed
    linear = ver.Fe1dConstants(0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert ver.check_fe_univariate_abcd(linear, n=500, tol=1e-10, seed=19).passed
    rng = np.random.default_rng(20)
    for _ in range(5):
        k = ver.random_fe1d_constants(rng)
        assert ver.check_fe_univariate_abcd(k, n=500, seed=21).passed


def test_fe1d_constraint_enforced():
    with pytest.raises(ValueError):
        ver.Fe1dConstants(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0)
    k = ver.Fe1dConstants.from_free(1.0, 0.5, -0.5, 1.0, 2.0, 0.5)
    assert k.c4 == pytest.approx(2.5)


def test_fe_cone_constant_balance():
    k = ver.FeSolutionConstants(0.0, ja.zero(A2), ja.zero(A2), 1.0, 2.0, 3.0)
    # constants: LHS = (1 + 3) + 2, RHS = 3 + (1 + 2)
    report = ver.check_fe_cone(A2, k, n=100, seed=22)
    assert report.max_residual == 0.0


def test_fe_cone_rank1_log_point():
    k = ver.FeSolutionConstants(1.0, ja.zero(A1), ja.zero(A1), 0.0, 0.0, 0.0)
    report = ver.check_fe_cone(A1, k, n=500, tol=1e-12, seed=23)
    assert report.passed


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=IDS)
def test_fe_cone_random_constants(alg):
    rng = np.random.default_rng(24)
    for _ in range(3):
        k = ver.random_fe_constants(alg, rng)
        assert ver.check_fe_cone(alg, k, n=300, seed=25).passed


def test_perturbed_fe_negative_control():
    rng = np.random.default_rng(26)
    k = ver.random_fe_constants(A1, rng)
    report = ver.check_perturbed_fe_rejects(A1, k, 0.1, n=300, seed=27)
    assert not report.passed
    assert report.max_residual > 10.0 * report.tolerance
    assert report.max_residual > 0.01
    # zero perturbation reduces to the family check
    assert ver.check_perturbed_fe_rejects(A1, k, 0.0, n=300, seed=27).passed
    # perturbation below tolerance passes: threshold semantics
    assert ver.check_perturbed_fe_rejects(A1, k, 1e-9, n=300, seed=27, tol=1e-7).passed


@pytest.mark.parametrize("alg,p", [(A1, 2.0), (A2, 2.0), (ja.lorentz(2), 2.0)])
def test_density_factorization_constancy(alg, p):
    e = ja.identity(alg)
    report = ver.density_factorization_check(alg, p, e, 2.0 * e, n=500, seed=28)
    assert report.passed
    assert report.max_residual < 1e-10


def test_density_factorization_negative_control():
    report = ver.density_factorization_check(
        A2, 2.0, E2, 2.0 * E2, n=500, seed=29, negative_control=True
    )
    assert not report.passed
    assert report.max_residual > 1e-3


def test_density_factorization_identity_point_is_finite():
    # evaluate both log sides at u = v = e directly: all terms finite
    from symcone.distributions import GigParams, gig_log_density_unnorm

    alg = A2
    p = 2.0
    e = ja.identity(alg)
    u = v = e
    lhs = gig_log_density_unnorm(GigParams(-p, 2.0 * e, e), u)
    x = ja.inverse(u + v)
    y = ja.inverse(u) - x
    rhs = gig_log_density_unnorm(GigParams(-p, e, 2.0 * e), x)
    assert np.isfinite(lhs) and np.isfinite(rhs) and np.isfinite(ja.det(y))


def test_density_factorization_shape_guard():
    with pytest.raises(Exception):
        ver.density_factorization_check(A2, 0.5, E2, E2, n=10, seed=0)


def test_my_property_rejects_a_shape_below_the_density_range_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a sampler ran")

    monkeypatch.setattr(ver, "sample_laws", no_draws)
    for p in (0.5, 0.2, float("nan")):  # dim/rank - 1 = 0.5 on sym-real r=2
        with pytest.raises(dist.ShapeOutOfRangeError, match="dim/rank - 1 = 0.5"):
            ver.my_property_test(A2, p, E2, E2, 2000, negative_control=True)


def test_my_property_gates_on_the_bonferroni_constant():
    assert ver.BONFERRONI_GATE == ver.SIGNIFICANCE / 7
    report = ver.my_property_test(A1, 2.0, ONE, ONE, 300, seed=3, n_permutations=100,
                                  subsample=200)
    assert report.significance == ver.SIGNIFICANCE
    ps = report.dcor_p_values + report.ks_p_values
    assert report.passed == all(p > ver.BONFERRONI_GATE for p in ps)


def test_my_property_small_run_passes():
    report = ver.my_property_test(
        A1, 2.0, ONE, ONE, 4000, seed=5, n_permutations=200, subsample=500
    )
    assert report.passed
    assert not report.inconclusive
    assert all(0.0 <= p <= 1.0 for p in report.dcor_p_values + report.ks_p_values)
    assert len(report.correlation_matrix) == 6
    assert report.functionals == ["trace", "det", "inner"]


def test_my_property_negative_control_fails():
    report = ver.my_property_test(
        A1, 2.0, ONE, ONE, 4000, seed=5, n_permutations=200, subsample=500,
        negative_control=True,
    )
    assert not report.passed
    assert min(report.dcor_p_values) < 0.01


def test_my_property_negative_control_fails_through_dcor_alone():
    # at B = 1000 the smallest attainable p-value 1/1001 is below the gate
    report = ver.my_property_test(
        A1, 2.0, ONE, ONE, 4000, seed=5, n_permutations=1000, subsample=500,
        negative_control=True,
    )
    assert len(report.dcor_p_values + report.ks_p_values) == 7
    assert all(p <= ver.SIGNIFICANCE / 7 for p in report.dcor_p_values)


def test_default_negative_control_fails_through_dcor_alone():
    # the default B = 1000 puts the dCor floor 1/1001 below the gate; at
    # B = 500 the floor 1/501 is above it and no dCor test could reject
    report = ver.my_property_test(A1, 2.0, ONE, ONE, 4000, seed=5, negative_control=True)
    assert report.n_permutations == 1000
    assert all(p <= ver.BONFERRONI_GATE for p in report.dcor_p_values)


def test_report_determinism():
    r1 = ver.check_hua(A2, n=200, seed=42)
    r2 = ver.check_hua(A2, n=200, seed=42)
    assert ser.reports_to_json([r1]) == ser.reports_to_json([r2])
    i1 = ver.my_property_test(A1, 2.0, ONE, ONE, 1000, seed=7, n_permutations=100, subsample=300)
    i2 = ver.my_property_test(A1, 2.0, ONE, ONE, 1000, seed=7, n_permutations=100, subsample=300)
    assert ser.reports_to_json([i1]) == ser.reports_to_json([i2])


# dCor and its permutation p-values at the benchmark's B = 500 and subsample
# 400, recorded before the permutation sums took their min form; each p-value
# is (count + 1) / 501.  The rank-1 dCor values were re-recorded when the
# rank-1 GIG sampler took its closed forms (they moved in the 16th digit)
PINNED_DCOR = [
    (1, 20000, False,
     [0.07736111798001295, 0.12353091714682844, 0.07596855590419853],
     [0.6047904191616766, 0.05389221556886228, 0.6846307385229541]),
    (1, 20000, True,
     [0.6891737742053817, 0.6352661655994319, 0.6832434912956218],
     [0.001996007984031936, 0.001996007984031936, 0.001996007984031936]),
    (2, 2000, False,
     [0.0714126530025381, 0.06969391633153074, 0.09845600376493238],
     [0.8423153692614771, 0.8562874251497006, 0.2155688622754491]),
]


@pytest.mark.parametrize("rank, n, negative, dcor, p_values", PINNED_DCOR,
                         ids=["rank-1", "rank-1-negative-control", "sym-real-2"])
def test_my_property_dcor_p_values_are_pinned(rank, n, negative, dcor, p_values):
    alg = ja.sym_real(rank)
    e = ja.identity(alg)
    report = ver.my_property_test(alg, 2.0, e, e, n, seed=8, n_permutations=500,
                                  subsample=400, negative_control=negative)
    assert report.dcor == dcor
    assert report.dcor_p_values == p_values


def test_p_value_uniformity_over_seeded_runs():
    # under the property, p-values across independent seeded runs are roughly
    # uniform; count how many fall below 0.05 per statistic over 50 runs
    runs = 50
    low_counts = np.zeros(7)
    for s in range(runs):
        report = ver.my_property_test(
            A1, 2.0, ONE, ONE, 1500, seed=1000 + s, n_permutations=150, subsample=400
        )
        ps = np.array(report.dcor_p_values + report.ks_p_values)
        low_counts += ps < 0.05
    # binomial(50, 0.05) at 99% confidence allows at most 6 lows per statistic
    assert low_counts.max() <= 6
