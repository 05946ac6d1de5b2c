"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines while passing).
"""

import time

import numpy as np

from symcone import algebra as ja
from symcone import cli
from symcone import distributions as dist
from symcone import stats as st
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

A1 = ja.sym_real(1)
A2 = ja.sym_real(2)
L2 = ja.lorentz(2)
ONE = ja.identity(A1)
E2 = ja.identity(A2)


def _line(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok


def test_criterion_01_jordan_axiom_suite():
    start = time.monotonic()
    worst = 0.0
    ok = True
    for alg in ALL_ALGEBRAS:
        report = ver.check_jordan_axioms(alg, n=1000, tol=1e-10, seed=101)
        worst = max(worst, report.max_residual)
        ok &= report.passed
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _line(1, "jordan axioms", ok,
          f"8 algebras x 1000 triples, worst scaled residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_determinant_identities():
    start = time.monotonic()
    worst = 0.0
    ok = True
    for alg in ALL_ALGEBRAS:
        product_rule = ver.check_det_product_rule(alg, n=1000, tol=1e-8, seed=102)
        operator_power = ver.check_det_operator_power(alg, n=1000, tol=1e-8, seed=103)
        worst = max(worst, product_rule.max_residual, operator_power.max_residual)
        ok &= product_rule.passed and operator_power.passed
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _line(2, "determinant identities", ok,
          f"worst relative residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_03_hua_and_involution():
    worst_hua = worst_inv = 0.0
    ok = True
    for alg in ALL_ALGEBRAS:
        hua = ver.check_hua(alg, n=1000, tol=1e-8, seed=104)
        inv = ver.check_involution(alg, n=1000, tol=1e-9, seed=105)
        worst_hua = max(worst_hua, hua.max_residual)
        worst_inv = max(worst_inv, inv.max_residual)
        ok &= hua.passed and inv.passed
    _line(3, "hua identity and involution", ok,
          f"worst hua {worst_hua:.3e} (tol 1e-8), worst involution {worst_inv:.3e} (tol 1e-9)")


def test_criterion_04_jacobian():
    ok = True
    worst = 0.0
    for alg in (A2, L2):
        report = ver.check_jacobian(alg, n=100, tol=1e-4, seed=106)
        worst = max(worst, report.max_residual)
        ok &= report.passed
    from symcone.my_transform import jacobian_det_numeric

    rank1_numeric = jacobian_det_numeric(ONE, ONE, 1e-5)
    ok &= abs(rank1_numeric - 0.25) < 1e-6
    _line(4, "jacobian closed form", ok,
          f"worst relative gap {worst:.3e} at 100 points per kind; "
          f"rank-1 point gives {rank1_numeric:.8f} vs 1/4")


def test_criterion_05_functional_equation_families():
    start = time.monotonic()
    cone_kinds = [A2, ja.herm_complex(2), L2]
    ok = True
    worst = 0.0
    rng = np.random.default_rng(107)
    for i in range(20):
        alg = cone_kinds[i % len(cone_kinds)]
        constants = ver.random_fe_constants(alg, rng)
        seed = 200 + i
        for report in (
            ver.check_fe_cone(alg, constants, n=1000, tol=1e-8, seed=seed),
            ver.check_cauchy_additive(alg, constants.f, n=1000, tol=1e-8, seed=seed),
            ver.check_pexider_log(alg, constants.q, constants.gamma1, constants.gamma2,
                                  n=1000, tol=1e-8, seed=seed),
        ):
            worst = max(worst, report.max_residual)
            ok &= report.passed
        k1d = ver.random_fe1d_constants(rng)
        univariate = {"A": rng.uniform(-3, 3), "B": rng.uniform(-3, 3),
                      "C": rng.uniform(-5, 5), "D": rng.uniform(-5, 5)}
        for report in (
            ver.check_fe_univariate_abcd(k1d, n=1000, tol=1e-8, seed=seed),
            ver.check_fe_univariate_g_alpha(univariate, n=1000, tol=1e-8, seed=seed),
        ):
            worst = max(worst, report.max_residual)
            ok &= report.passed
    control = ver.check_perturbed_fe_rejects(
        A2, ver.random_fe_constants(A2, rng), 0.1, n=1000, seed=299
    )
    ok &= not control.passed and control.max_residual > 10 * control.tolerance
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _line(5, "functional-equation families", ok,
          f"5 checks x 20 constant sets x 1000 points, worst residual {worst:.3e}; "
          f"perturbed control residual {control.max_residual:.3e}; {elapsed:.1f}s")


def _laplace_probe_ok(alg, params, batch, probes):
    chains = batch.mcmc["chains"] if batch.mcmc else 1
    for c in probes:
        sigma = c * ja.identity(alg)
        values = np.exp(-ja.batch_inner(alg, sigma.coords, batch.coords))
        mean, err = st.mean_std_err(values, n_chains=chains)
        if abs(mean - dist.wishart_laplace(params, sigma)) >= 3.0 * err:
            return False
    return True


def test_criterion_06_wishart_sampler_correctness():
    start = time.monotonic()
    n = 100000
    ok = True

    params1 = dist.WishartParams(1.0, ONE)
    b1 = dist.sample_wishart(params1, 401, n)
    ok &= _laplace_probe_ok(A1, params1, b1, (0.25, 0.5, 1.0))
    mean, err = st.mean_std_err(b1.coords[:, 0])
    ok &= abs(mean - 1.0) < 3.0 * err

    params2 = dist.WishartParams(2.0, E2)
    b2 = dist.sample_wishart(params2, 402, n)
    ok &= _laplace_probe_ok(A2, params2, b2, (0.25, 0.5, 1.0))
    target = 2.0 * ja.inverse(E2).coords
    for k in range(A2.dim):
        mean, err = st.mean_std_err(b2.coords[:, k])
        ok &= abs(mean - target[k]) < 3.0 * err

    params3 = dist.WishartParams(2.0, ja.identity(L2))
    b3 = dist.sample_wishart(params3, 403, n)
    chains = b3.mcmc["chains"]
    ok &= not b3.mcmc["diverged"]
    ok &= _laplace_probe_ok(L2, params3, b3, (0.25, 0.5, 1.0))
    target = 2.0 * ja.inverse(ja.identity(L2)).coords
    for k in range(L2.dim):
        mean, err = st.mean_std_err(b3.coords[:, k], n_chains=chains)
        ok &= abs(mean - target[k]) < 3.0 * err

    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _line(6, "wishart samplers", ok,
          f"laplace probes and means within 3 MC std at n=1e5 "
          f"(rank-1 + sym r=2 bartlett, lorentz n=2 mcmc accept="
          f"{b3.mcmc['acceptance_rate']:.2f}); {elapsed:.1f}s")


def test_criterion_07_gig_sampler_rank1():
    n = 10000
    params = dist.GigParams(-1.0, ONE, ONE)
    rejection = dist.sample_gig(params, 404, n)
    cdf = dist.gig_cdf_rank1(params)
    stat, _ = st.ks_against_cdf(rejection.coords[:, 0], cdf)
    crit = st.ks_critical_value(n, alpha=0.01)
    ok = stat < crit
    mcmc = dist._metropolis_batches([(params, 405)], n)[0]
    _, p_two = st.ks_2sample(rejection.coords[:, 0], mcmc.coords[:, 0])
    ok &= p_two > 0.01
    _line(7, "gig sampler rank 1", ok,
          f"rejection-vs-quadrature KS {stat:.4f} < {crit:.4f}; "
          f"mcmc-vs-rejection two-sample p {p_two:.3f} > 0.01")


def test_criterion_08_forward_independence_property():
    start = time.monotonic()
    rank1 = ver.my_property_test(A1, 2.0, ONE, ONE, 100000, seed=42)
    ps1 = rank1.dcor_p_values + rank1.ks_p_values
    ok = all(p > 0.01 for p in ps1) and not rank1.inconclusive

    sym2 = ver.my_property_test(A2, 2.0, E2, E2, 10000, seed=43)
    ps2 = sym2.dcor_p_values + sym2.ks_p_values
    ok &= all(p > 0.01 for p in ps2) and not sym2.inconclusive

    control = ver.my_property_test(A1, 2.0, ONE, ONE, 100000, seed=42, negative_control=True)
    ok &= min(control.dcor_p_values) < 0.01

    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _line(8, "forward independence property", ok,
          f"rank-1 n=1e5 min p {min(ps1):.3f}; sym r=2 n=1e4 min p {min(ps2):.3f}; "
          f"negative control min p {min(control.dcor_p_values):.4f}; {elapsed:.1f}s")


def test_criterion_09_density_factorization():
    ok = True
    worst = 0.0
    for alg in (A1, A2):
        e = ja.identity(alg)
        report = ver.density_factorization_check(alg, 2.0, e, 2.0 * e, n=1000,
                                                 tol=1e-10, seed=108)
        worst = max(worst, report.max_residual)
        ok &= report.passed
    _line(9, "density factorization", ok,
          f"max log-constancy deviation {worst:.3e} < 1e-10 over 1000 pairs per kind")


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ("check", "hua", "--kind", "sym-real", "--rank", "2",
         "--trials", "500", "--seed", "42"),
        ("suite", "--kind", "lorentz", "--dim", "3", "--seed", "7", "--trials", "200"),
        ("sample", "wishart", "--kind", "sym-real", "--rank", "2", "--p", "2",
         "-n", "500", "--seed", "3", "--format", "csv"),
        ("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "-1",
         "-n", "500", "--seed", "9"),
        ("test", "my-property", "--kind", "sym-real", "--rank", "1", "--p", "2",
         "-n", "2000", "--seed", "5", "--permutations", "700", "--subsample", "400"),
    ]
    ok = True
    for i, argv in enumerate(commands):
        first = tmp_path / f"run{i}_a.out"
        second = tmp_path / f"run{i}_b.out"
        code1 = cli.run(list(argv) + ["-o", str(first)])
        code2 = cli.run(list(argv) + ["-o", str(second)])
        ok &= code1 == code2
        ok &= first.read_bytes() == second.read_bytes()
        meta1 = tmp_path / f"run{i}_a.out.meta.json"
        meta2 = tmp_path / f"run{i}_b.out.meta.json"
        if meta1.exists():
            ok &= meta1.read_bytes() == meta2.read_bytes()
    _line(10, "cli determinism", ok,
          f"{len(commands)} seeded commands reproduced byte-identical outputs")
