"""Command-line front end: parsing, dispatch, exit codes, determinism."""

import ast
import csv
import errno
import hashlib
import inspect
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symcone import algebra as ja
from symcone import cli
from symcone import distributions as dist
from symcone import serialization as ser
from symcone import stats
from symcone import verification as ver


def run_cli(*argv):
    return cli.run(list(argv))


# ---------------------------------------------------------------------------
# Element parsing
# ---------------------------------------------------------------------------

def test_parse_element_identity_and_diag():
    a2 = ja.sym_real(2)
    assert np.allclose(cli.parse_element("identity", a2).coords, ja.identity(a2).coords)
    x = cli.parse_element("diag:2,1", a2)
    assert np.allclose(ja.to_matrix(x), np.diag([2.0, 1.0]))
    lz = ja.lorentz(2)
    e = cli.parse_element("coords:1,0,0", lz)
    assert np.allclose(e.coords, ja.identity(lz).coords)


def test_parse_element_errors():
    a2 = ja.sym_real(2)
    with pytest.raises(cli.UsageError):
        cli.parse_element("diag:1", a2)  # wrong length
    with pytest.raises(cli.UsageError):
        cli.parse_element("coords:1,2", a2)
    with pytest.raises(cli.UsageError):
        cli.parse_element("diag:1,2", ja.lorentz(2))
    with pytest.raises(cli.UsageError):
        cli.parse_element("nonsense", a2)
    with pytest.raises(cli.UsageError):
        cli.parse_element("diag:1,oops", a2)
    with pytest.raises(cli.UsageError, match="finite"):
        cli.parse_element("diag:1,inf", ja.herm_complex(2))
    with pytest.raises(cli.UsageError, match="finite"):
        cli.parse_element("coords:1,nan,0", ja.lorentz(2))


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_check_hua_passes(tmp_path, capsys):
    out = tmp_path / "hua.json"
    code = run_cli(
        "check", "hua", "--kind", "sym-real", "--rank", "2",
        "--trials", "1000", "--seed", "42", "--tol", "1e-8", "-o", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    report = payload["reports"][0]
    assert report["check"] == "hua-identity"
    assert report["max_residual"] < 1e-8
    assert "[PASS] hua-identity" in capsys.readouterr().out


# the check function behind each report name
CHECKS = {
    "jordan-axioms": ver.check_jordan_axioms,
    "det-product-rule": ver.check_det_product_rule,
    "det-operator-power": ver.check_det_operator_power,
    "hua-identity": ver.check_hua,
    "involution": ver.check_involution,
    "jacobian-closed-form": ver.check_jacobian,
    "cauchy-additive": ver.check_cauchy_additive,
    "pexider-log": ver.check_pexider_log,
    "fe-cone": ver.check_fe_cone,
    "fe-univariate-abcd": ver.check_fe_univariate_abcd,
    "fe-univariate-g-alpha": ver.check_fe_univariate_g_alpha,
    "density-factorization": ver.density_factorization_check,
}


def test_suite_runs_all_residual_checks(tmp_path):
    out = tmp_path / "suite.json"
    code = run_cli("suite", "--kind", "lorentz", "--dim", "3", "--seed", "7",
                   "--trials", "200", "-o", str(out))
    assert code == 0
    names = {r["check"] for r in json.loads(out.read_text())["reports"]}
    assert names == set(CHECKS)


# the check subcommands, in the order ``suite`` runs them
CHECK_SUBCOMMANDS = ["algebra", "hua", "involution", "jacobian", "fe-cone", "fe-1d",
                     "factorization"]


def test_suite_equals_its_check_subcommands_run_one_after_another(tmp_path):
    flags = ("--kind", "lorentz", "--dim", "4", "--trials", "60", "--seed", "3")
    out = tmp_path / "s.json"
    assert run_cli("suite", *flags, "-o", str(out)) == 0
    one_by_one = []
    for what in CHECK_SUBCOMMANDS:
        assert run_cli("check", what, *flags, "-o", str(tmp_path / "c.json")) == 0
        one_by_one += json.loads((tmp_path / "c.json").read_text())["reports"]
    assert json.loads(out.read_text())["reports"] == one_by_one
    assert len(one_by_one) == 12


def test_each_check_subcommand_is_named_once_in_the_cli():
    tree = ast.parse(Path(cli.__file__).read_text())
    constants = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    assert {what: constants.count(what) for what in CHECK_SUBCOMMANDS} == dict.fromkeys(
        CHECK_SUBCOMMANDS, 1)


@pytest.mark.parametrize("tol", [None, "1e-3"])
@pytest.mark.parametrize("kind", [("--kind", "sym-real", "--rank", "2"),
                                  ("--kind", "lorentz", "--dim", "4")],
                         ids=["sym-real", "lorentz"])
def test_suite_tolerance_is_the_flag_or_each_checks_default(kind, tol, tmp_path):
    out = tmp_path / "suite.json"
    flag = () if tol is None else ("--tol", tol)
    assert run_cli("suite", *kind, "--trials", "50", *flag, "-o", str(out)) == 0
    reports = json.loads(out.read_text())["reports"]
    assert {r["check"] for r in reports} == set(CHECKS)
    for r in reports:
        default = inspect.signature(CHECKS[r["check"]]).parameters["tol"].default
        assert r["tolerance"] == (default if tol is None else float(tol)), r["check"]


def test_invalid_rank_is_usage_error(capsys):
    assert run_cli("check", "algebra", "--kind", "sym-real", "--rank", "0") == 64
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run_cli("check", "nonsense") == 64
    assert run_cli() == 64


def test_failing_tolerance_exits_one(tmp_path):
    # an impossibly tight tolerance forces a hard failure
    out = tmp_path / "r.json"
    code = run_cli("check", "hua", "--kind", "sym-real", "--rank", "3",
                   "--tol", "1e-30", "--trials", "50", "-o", str(out))
    assert code == 1
    assert json.loads(out.read_text())["reports"][0]["passed"] is False


def test_my_property_cli(tmp_path):
    out = tmp_path / "my.json"
    code = run_cli(
        "test", "my-property", "--kind", "sym-real", "--rank", "1", "--p", "2",
        "-n", "2000", "--seed", "5", "--permutations", "700", "--subsample", "400",
        "-o", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())["reports"][0]
    assert report["check"] == "my-property"
    assert report["passed"] is True


@pytest.mark.filterwarnings("ignore:MCMC acceptance rate:RuntimeWarning")
def test_diverged_sample_prints_inconclusive(capsys, mcmc_settings, tmp_path):
    mcmc_settings(CHAINS=1, BURN_IN=0)
    code = run_cli("sample", "gig", "--kind", "sym-real", "--rank", "2", "--p", "-2", "-n", "200",
                   "--seed", "16", "-o", str(tmp_path / "g.json"))
    assert code == 2
    assert capsys.readouterr().out.startswith("[INCONCLUSIVE] sample gig method=mcmc")


@pytest.mark.filterwarnings("ignore:MCMC acceptance rate:RuntimeWarning")
def test_diverged_independence_test_prints_inconclusive(capsys, mcmc_settings):
    mcmc_settings(CHAINS=1, BURN_IN=0)
    code = run_cli("test", "my-property", "--kind", "sym-real", "--rank", "2", "--p", "2",
                   "-n", "200", "--seed", "16", "--subsample", "100")
    assert code == 2
    assert capsys.readouterr().out.startswith("[INCONCLUSIVE] my-property kind=sym-real")


def test_sample_shape_guard_is_usage_error(tmp_path, capsys):
    assert run_cli("sample", "wishart", "--kind", "sym-real", "--rank", "2",
                   "--p", "0.5", "-n", "10", "-o", str(tmp_path / "w.json")) == 64
    assert "shape p must be >" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_sample_past_the_largest_double_is_a_usage_error(tmp_path, capsys):
    code = run_cli("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "0",
                   "--a", "diag:2.3e-308", "--b", "diag:2.3e-308", "-n", "2000000", "--seed", "3",
                   "-o", str(tmp_path / "g.json"))
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err == ("usage error: GIG(p=0.0, a=2.3e-308, b=2.3e-308) has mass above "
                            "the largest double, and a draw fell there\n")
    assert not (tmp_path / "g.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("law, name", [
    (["--kind", "sym-real", "--rank", "2", "--a", "diag:1e-307,1e-307", "-n", "100000",
      "--seed", "1"], "Wishart(p=3.0, a=[1e-307, 1e-307, 0.0])"),
    (["--kind", "lorentz", "--dim", "3", "--a", "coords:3e-308,0,0", "-n", "100",
      "--seed", "3"], "Wishart(p=3.0, a=[3e-308, 0.0, 0.0])"),
], ids=["bartlett", "mcmc"])
def test_wishart_past_the_largest_double_is_a_usage_error(law, name, tmp_path, capsys):
    code = run_cli("sample", "wishart", *law, "--p", "3", "-o", str(tmp_path / "w.json"))
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err == (f"usage error: {name} has mass above the largest double, "
                            "and a draw fell there\n")
    assert not (tmp_path / "w.json").exists()


def test_sample_without_an_output_is_a_usage_error_before_the_draw(monkeypatch, capsys):
    # the draws go only to -o, so a run without one would throw them away
    monkeypatch.setattr(cli, "sample_wishart", _must_not_run)
    monkeypatch.setattr(cli, "sample_gig", _must_not_run)
    for family in ("wishart", "gig"):
        assert run_cli("sample", family, "--kind", "lorentz", "--dim", "4",
                       "-n", "100000", "--format", "csv") == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: sample writes its draws only to -o")
        assert "-o /dev/stdout" in captured.err


def test_csv_sample_to_a_device_is_a_usage_error_before_the_draw(monkeypatch, capsys):
    # the sidecar would otherwise be created beside the device
    monkeypatch.setattr(cli, "sample_wishart", _must_not_run)
    monkeypatch.setattr(cli, "sample_gig", _must_not_run)
    for family in ("wishart", "gig"):
        assert run_cli("sample", family, "-n", "10", "--format", "csv", "-o", "/dev/null") == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: a csv sample also writes /dev/null.meta.json")
        assert "--format json" in captured.err
    assert not Path("/dev/null.meta.json").exists()
    monkeypatch.undo()
    assert run_cli("sample", "wishart", "-n", "10", "--format", "json", "-o", "/dev/null") == 0


def _usage_case(*extra, message="usage error"):
    return pytest.param(extra, message, id="".join(extra))


def _unknown_flag_case(*extra):
    # the Metropolis settings are constants of symcone.distributions, so the
    # parser rejects their former flags outright
    return _usage_case(*extra, message=f"unrecognized arguments: {' '.join(extra)}")


@pytest.mark.parametrize("extra, message", [
    _usage_case("--permutations", "0"),
    _usage_case("--permutations", "-3"),
    _usage_case("--subsample", "0"),
    _usage_case("--subsample", "1"),
    _usage_case("-n", "1"),
    _usage_case("--permutations", "699"),
    _unknown_flag_case("--thin", "0"),
    _unknown_flag_case("--burn-in", "-5"),
    _unknown_flag_case("--chains", "0"),
    _unknown_flag_case("--proposal-scale", "0"),
    _unknown_flag_case("--proposal-scale", "nan"),
])
def test_vacuous_or_invalid_my_property_settings_are_usage_errors(extra, message, capsys):
    # each makes the run vacuous or meaningless, so it must not reach the test;
    # with 699 permutations the smallest dCor p-value, 1/700, misses the
    # Bonferroni gate 0.01/7
    assert run_cli("test", "my-property", "--kind", "lorentz", "--dim", "3",
                   "-n", "200", "--permutations", "700", *extra) == 64
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    _unknown_flag_case("--thin", "0"),
    _unknown_flag_case("--burn-in", "-5"),
    _unknown_flag_case("--chains", "0"),
    _unknown_flag_case("--proposal-scale", "-1"),
])
def test_invalid_mcmc_settings_are_usage_errors_for_sample(extra, message, tmp_path, capsys):
    assert run_cli("sample", "wishart", "--kind", "lorentz", "--dim", "3",
                   "--p", "2", "-n", "10", *extra) == 64
    assert message in capsys.readouterr().err
    flag, value = extra
    field = flag[2:].replace("-", "_")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "lorentz", field: float(value)}))
    assert run_cli("sample", "wishart", "--config", str(config)) == 64
    assert f"unknown config fields: ['{field}']" in capsys.readouterr().err


def test_permutation_floor_applies_to_the_config_file_not_the_library(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"permutations": 500}))
    assert run_cli("test", "my-property", "--kind", "sym-real", "--rank", "1",
                   "-n", "200", "--config", str(config)) == 64
    assert "Bonferroni gate" in capsys.readouterr().err
    report = ver.my_property_test(ja.sym_real(1), 2.0, ja.identity(ja.sym_real(1)),
                                  ja.identity(ja.sym_real(1)), 200, n_permutations=500)
    assert report.n_permutations == 500


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_tolerance_must_be_finite_and_positive(tol, tmp_path, capsys):
    # inf passed every residual check, nan, 0 and -1 failed every one
    assert run_cli("check", "hua", "--kind", "sym-real", "--rank", "2", "--trials", "5",
                   "--tol", tol) == 64
    assert "tol must be finite and > 0" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text('{"tol": 1e999}')  # JSON reads it as inf
    assert run_cli("check", "hua", "--config", str(config)) == 64
    assert "tol must be finite and > 0, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ({"trials": "50"}, "'trials' must be an integer, got '50'"),
    ({"tol": "1e-8"}, "'tol' must be a number, got '1e-8'"),
    ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
    ({"trials": True}, "'trials' must be an integer, got True"),
    ({"trials": None}, "'trials' must be an integer, got None"),
    ({"a": 1}, "'a' must be a string, got 1"),
    ({"kind": "bogus"}, "'kind' must be one of ['herm-complex', 'lorentz', 'sym-real']"),
], ids=["trials-str", "tol-str", "seed-float", "trials-bool", "trials-null", "a-int",
        "kind-choice"])
def test_config_values_must_have_their_flags_type(fields, message, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(fields))
    assert run_cli("check", "hua", "--trials", "5", "--config", str(config)) == 64
    assert f"usage error: config field {message}" in capsys.readouterr().err


def test_config_null_and_integer_values_that_stay_valid(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": None, "tol": 1, "p": None, "output": None,
                                  "subsample": None, "step": 1}))
    assert run_cli("check", "hua", "--kind", "sym-real", "--rank", "2", "--trials", "5",
                   "--config", str(config)) == 0


@pytest.mark.parametrize("step", ["0", "-1", "inf", "nan"])
def test_invalid_jacobian_step_is_usage_error(step, capsys):
    assert run_cli("check", "jacobian", "--kind", "sym-real", "--rank", "2",
                   "--trials", "5", "--step", step) == 64
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["check", "hua", "--trials", "0"], "trials and n must be positive"),
    (["check", "fe-cone", "--sets", "0"], "sets must be >= 1"),
    (["check", "factorization", "--kind", "sym-real", "--rank", "2", "--a", "diag:-1,1"],
     "--a must lie in the open cone"),
    (["check", "hua", "--config", "{tmp}/missing.json"],
     "cannot read config file {tmp}/missing.json: "),
    (["check", "hua", "--config", "{tmp}/array.json"], "config file must hold a JSON object"),
], ids=["trials-0", "sets-0", "a-off-the-cone", "missing-config", "config-array"])
def test_usage_errors_say_what_is_wrong(argv, message, tmp_path, capsys):
    (tmp_path / "array.json").write_text('[{"trials": 5}]')
    assert run_cli(*[arg.format(tmp=tmp_path) for arg in argv]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {message.format(tmp=tmp_path)}")


def test_csv_my_property_report_is_a_usage_error_before_the_draw(tmp_path, monkeypatch,
                                                                  capsys):
    # a csv report row has no column for the test's p-values, so the file
    # held no n, no p-value and no significance
    monkeypatch.setattr(ver, "my_property_test", _must_not_run)
    out = tmp_path / "r.csv"
    assert run_cli("test", "my-property", "--kind", "sym-real", "--rank", "1",
                   "--format", "csv", "-o", str(out)) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: my-property reports its p-values only in JSON; "
                            "use --format json\n")
    assert not out.exists()


def _run_cli_subprocess(*argv, binary=False):
    # in a child with a timeout, so a regression that hangs fails instead
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop(cli.SEED_ENV_VAR, None)
    return subprocess.run([sys.executable, "-m", "symcone.cli", *argv], env=env,
                          capture_output=True, text=not binary, timeout=60)


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy.special and scipy.stats take a large share of a second to import;
    # scipy.special loads on the first rank-1 GIG normalizer instead, and
    # scipy.stats only in tests, for the KS test against a CDF
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import symcone, symcone.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_my_property_runs_its_ks_tests_without_scipy_stats():
    # importing scipy.stats takes about 70 MB and most of a second
    code = ("import sys; from symcone import cli; code = cli.run(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats'))); sys.exit(code)")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop(cli.SEED_ENV_VAR, None)
    done = subprocess.run([sys.executable, "-c", code, "test", "my-property", "--kind", "sym-real",
                           "--rank", "1", "-n", "400", "--permutations", "700"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("[PASS] my-property") and lines[-1] == "[]", done.stdout


@pytest.mark.parametrize("argv", [
    ("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "nan"),
    ("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "inf"),
    ("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "1", "--b", "diag:inf"),
    ("test", "my-property", "--kind", "sym-real", "--rank", "1", "--p", "nan",
     "--permutations", "700"),
], ids=["gig-rank1-p-nan", "gig-rank1-p-inf", "gig-rank1-b-inf", "my-property-rank1-p-nan"])
def test_non_finite_parameters_that_used_to_hang_are_usage_errors(argv, tmp_path):
    done = _run_cli_subprocess(*argv, "-n", "10", "-o", str(tmp_path / "out.json"))
    assert done.returncode == 64
    assert "must be finite" in done.stderr


@pytest.mark.parametrize("p, scale", [("0", "1e-200"), ("1e-9", "1e-170"), ("1e-3", "1e-200")])
def test_rank1_gig_at_a_tiny_omega_follows_its_law(p, scale, tmp_path):
    # omega = 2e-200 and 2e-170: at p = 0 the sampler divided by zero, and at
    # p = 1e-9 it never returned
    out = tmp_path / "g.json"
    done = _run_cli_subprocess("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", p,
                               "--a", f"diag:{scale}", "--b", f"diag:{scale}", "-n", "20000",
                               "-o", str(out))
    assert done.returncode == 0, done.stderr
    draws = np.array(json.loads(out.read_text())["samples"])[:, 0]
    law = dist.GigParams(float(p), ja.Element(ja.sym_real(1), np.array([float(scale)])),
                         ja.Element(ja.sym_real(1), np.array([float(scale)])))
    _, p_value = stats.ks_against_cdf(draws, dist.gig_cdf_rank1(law))
    assert p_value > 1e-6


@pytest.mark.parametrize("argv", [
    ("sample", "wishart", "--kind", "sym-real", "--rank", "2", "--p", "nan"),
    ("sample", "wishart", "--kind", "sym-real", "--rank", "2", "--p", "inf"),
    ("sample", "gig", "--kind", "sym-real", "--rank", "2", "--p", "nan"),
    ("sample", "wishart", "--kind", "lorentz", "--dim", "3", "--p", "nan"),
], ids=["wishart-sym2-p-nan", "wishart-sym2-p-inf", "gig-sym2-p-nan", "wishart-lorentz-p-nan"])
def test_non_finite_shape_is_usage_error(argv, capsys):
    assert run_cli(*argv, "-n", "10") == 64
    assert "p must be finite" in capsys.readouterr().err


def test_single_draw_sample_and_unsubsampled_dcor_stay_valid(tmp_path):
    assert run_cli("sample", "gig", "--kind", "sym-real", "--rank", "1",
                   "--p", "2", "-n", "1", "-o", str(tmp_path / "g.json")) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"subsample": None}))
    assert run_cli("test", "my-property", "--kind", "sym-real", "--rank", "1",
                   "-n", "300", "--permutations", "700", "--config", str(config)) == 0


def test_check_fe_cone_with_sets(tmp_path):
    out = tmp_path / "fe.json"
    code = run_cli("check", "fe-cone", "--kind", "herm-complex", "--rank", "2",
                   "--trials", "200", "--seed", "6", "--sets", "2", "-o", str(out))
    assert code == 0
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 6  # 3 checks per constant set
    assert all(r["passed"] for r in reports)


def test_suite_and_check_run_the_jacobian_at_the_trials_asked_for(tmp_path):
    for argv in (("check", "jacobian"), ("suite",)):
        out = tmp_path / "r.json"
        assert run_cli(*argv, "--kind", "sym-real", "--rank", "1", "--trials", "300",
                       "-o", str(out)) == 0
        reports = json.loads(out.read_text())["reports"]
        assert [r["trials"] for r in reports if r["check"] == "jacobian-closed-form"] == [300]
        assert all("p_values" not in r for r in reports)


def test_run_config_takes_its_check_settings_from_the_library():
    defaults = cli._DEFAULTS
    jacobian = inspect.signature(ver.check_jacobian).parameters
    independence = inspect.signature(ver.my_property_test).parameters
    assert defaults["step"] == jacobian["step"].default
    assert defaults["permutations"] == independence["n_permutations"].default == 1000
    assert defaults["subsample"] == independence["subsample"].default


def _range_message(p, alg):
    with pytest.raises(dist.ShapeOutOfRangeError) as exc:
        dist.require_density_range(p, alg)
    return str(exc.value)


def test_suite_reports_a_shape_below_the_density_range_as_a_failure(tmp_path, capsys):
    # the checks that ran before factorization keep their reports, and the
    # failure names the check and the algebra
    out = tmp_path / "s.json"
    assert run_cli("suite", "--kind", "sym-real", "--rank", "2", "--p", "0.4",
                   "--trials", "50", "-o", str(out)) == 1
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 12
    assert [r["check"] for r in reports[:11]] == list(CHECKS)[:11]
    assert all(r["passed"] for r in reports[:11])
    failure = reports[11]
    assert failure["check"] == "factorization" and failure["passed"] is False
    assert failure["algebra"] == {"kind": "sym-real", "rank": 2, "dim": 3}
    assert failure["error"] == _range_message(0.4, ja.sym_real(2))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and all(line.startswith("[PASS] ") for line in lines[:11])
    assert lines[11].startswith("[FAIL] factorization kind=sym-real dim=3 ")


def test_a_check_that_leaves_the_cone_fails_under_its_name(tmp_path, capsys):
    # a step of 0.5 takes the finite differences out of the cone
    out = tmp_path / "j.json"
    assert run_cli("check", "jacobian", "--kind", "sym-real", "--rank", "2", "--step", "0.5",
                   "--trials", "5", "-o", str(out)) == 1
    [report] = json.loads(out.read_text())["reports"]
    assert report["check"] == "jacobian" and report["passed"] is False
    assert report["algebra"] == {"kind": "sym-real", "rank": 2, "dim": 3}
    assert report["error"]
    assert capsys.readouterr().out.startswith("[FAIL] jacobian kind=sym-real dim=3 ")


def _leaves_the_cone(*args, **kwargs):
    raise ja.NotInConeError("stand-in for a check that leaves the cone")


@pytest.mark.parametrize("argv, raises, tol", [
    (("check", "jacobian", "--step", "0.5"), None, 1e-4),
    (("check", "jacobian", "--step", "0.5", "--tol", "1e-3"), None, 1e-3),
    (("suite", "--p", "0.4"), None, 1e-10),
    # algebra runs three checks and gives the first one's default
    (("check", "algebra"), "check_det_operator_power", 1e-10),
    (("check", "fe-1d"), "check_fe_univariate_g_alpha", 1e-8),
    # my-property takes no tolerance and gives its significance level
    (("test", "my-property", "-n", "10"), "my_property_test", ver.SIGNIFICANCE),
], ids=["jacobian", "jacobian-tol", "suite-factorization", "algebra", "fe-1d", "my-property"])
def test_a_failure_report_carries_the_tolerance_its_check_would_have_used(
        argv, raises, tol, tmp_path, monkeypatch):
    if raises:
        monkeypatch.setattr(ver, raises, _leaves_the_cone)
    out = tmp_path / "r.json"
    assert run_cli(*argv, "--kind", "sym-real", "--rank", "2", "--trials", "5",
                   "-o", str(out)) == 1
    failure = json.loads(out.read_text())["reports"][-1]
    assert failure["passed"] is False and failure["error"]
    assert failure["tolerance"] == tol


def test_a_jacobian_that_leaves_the_cone_prints_the_checks_tolerance(capsys):
    assert run_cli("check", "jacobian", "--kind", "sym-real", "--rank", "2", "--step", "0.5",
                   "--trials", "5") == 1
    assert capsys.readouterr().out == (
        "[FAIL] jacobian kind=sym-real dim=3 trials=0 max_residual=inf tol=0.0001\n")


@pytest.mark.parametrize("argv", [
    ("sample", "wishart", "-n", "10"),
    ("test", "my-property", "-n", "10"),
    ("check", "factorization", "--trials", "10"),
], ids=["sample-wishart", "test-my-property", "check-factorization"])
def test_shape_at_the_density_bound_is_a_usage_error_with_the_librarys_message(argv, capsys,
                                                                              tmp_path):
    # p = dim/rank - 1 on sym-real r=2 (dim 3)
    assert run_cli(*argv, "--kind", "sym-real", "--rank", "2", "--p", "0.5",
                   "-o", str(tmp_path / "out.json")) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {_range_message(0.5, ja.sym_real(2))}\n"


def test_lorentz_dimension_error_names_the_ambient_dimension(capsys):
    assert run_cli("check", "hua", "--kind", "lorentz", "--dim", "2") == 64
    err = capsys.readouterr().err
    assert "ambient dimension n + 1 >= 3" in err and "got dimension 2" in err


def test_check_factorization_with_params(tmp_path):
    out = tmp_path / "f.json"
    code = run_cli("check", "factorization", "--kind", "sym-real", "--rank", "2",
                   "--p", "2.5", "--a", "diag:2,1", "--b", "identity",
                   "--trials", "300", "--seed", "4", "-o", str(out))
    assert code == 0
    report = json.loads(out.read_text())["reports"][0]
    assert report["check"] == "density-factorization"
    assert report["passed"] is True
    # shape below the density range is a usage error
    assert run_cli("check", "factorization", "--kind", "sym-real", "--rank", "2",
                   "--p", "0.4") == 64


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def test_sample_csv_with_sidecar(tmp_path):
    out = tmp_path / "w.csv"
    code = run_cli("sample", "wishart", "--kind", "sym-real", "--rank", "2",
                   "--p", "2", "-n", "50", "--seed", "3", "--format", "csv",
                   "-o", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,rank,dim,d1,d2,s1_2"
    assert len(lines) == 51
    meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
    assert meta["method"] == "bartlett"
    assert meta["seed"] == 3
    # round trip: each row parses back to the same coordinates
    alg, coords = ser.batch_coords_from_csv(out.read_text())
    assert alg == ja.sym_real(2)
    row = ser.element_from_csv_row(lines[1])
    assert np.array_equal(row.coords, coords[0])


def test_sample_json_format(tmp_path):
    out = tmp_path / "g.json"
    code = run_cli("sample", "gig", "--kind", "sym-real", "--rank", "1",
                   "--p", "-1", "-n", "30", "--seed", "3", "-o", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "rejection"
    assert len(payload["samples"]) == 30


def test_reports_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli("check", "involution", "--kind", "lorentz", "--dim", "4",
                   "--trials", "100", "--seed", "1", "--format", "csv", "-o", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("check,kind,rank,dim")
    assert lines[1].startswith("involution,lorentz,2,4,100,")


def test_reports_csv_carries_the_failure_reason(tmp_path):
    out = tmp_path / "j.csv"
    assert run_cli("check", "jacobian", "--kind", "sym-real", "--rank", "2", "--step", "0.5",
                   "--trials", "5", "--format", "csv", "-o", str(out)) == 1
    [row] = csv.DictReader(out.read_text().splitlines())
    assert row["check"] == "jacobian" and row["passed"] == "false"
    assert row["error"] == "perturbed point left the open cone; reduce the step"


# ---------------------------------------------------------------------------
# Overwriting output files: in place, then cut to length if a regular file
# ---------------------------------------------------------------------------

MANIFEST = json.loads(Path(__file__).with_name("cli_manifest.json").read_text())


def _manifest_entry(name):
    """The manifest call that writes the file ``name``, and the recorded
    sha256 of every file it writes."""
    [entry] = [e for e in MANIFEST if name in e["files"]]
    return entry["argv"], entry["files"]


def _run_manifest_call(argv, out):
    return run_cli(*[a.replace("{out}", str(out)) for a in argv])


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# a sample CSV with its sidecar, a sample JSON, a check report
OVERWRITTEN = ["w.csv", "g.json", "jac.json"]


@pytest.mark.parametrize("stale", [b"9" * 100_000, b"#\n"], ids=["longer", "shorter"])
@pytest.mark.parametrize("name", OVERWRITTEN)
def test_overwriting_a_file_leaves_the_bytes_of_a_fresh_write(name, stale, tmp_path,
                                                              monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    argv, recorded = _manifest_entry(name)
    for file in recorded:
        (tmp_path / file).write_bytes(stale)
    _run_manifest_call(argv, tmp_path)
    assert {file: _sha256(tmp_path / file) for file in recorded} == recorded


def test_a_symlinked_output_stays_a_symlink_and_its_target_gets_the_bytes(tmp_path,
                                                                         monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    argv, recorded = _manifest_entry("jac.json")
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 50_000)
    (tmp_path / "jac.json").symlink_to(target)
    assert _run_manifest_call(argv, tmp_path) == 0
    assert (tmp_path / "jac.json").is_symlink()
    assert _sha256(target) == recorded["jac.json"]


def test_an_existing_file_keeps_its_mode_and_inode_and_a_new_one_gets_the_umask(tmp_path,
                                                                                monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    argv, recorded = _manifest_entry("w.csv")
    old = tmp_path / "w.csv"
    old.write_bytes(b"stale\n" * 1000)
    old.chmod(0o600)
    inode = old.stat().st_ino
    _run_manifest_call(argv, tmp_path)
    assert stat.S_IMODE(old.stat().st_mode) == 0o600 and old.stat().st_ino == inode
    assert _sha256(old) == recorded["w.csv"]
    umask = os.umask(0)
    os.umask(umask)
    sidecar = tmp_path / "w.csv.meta.json"  # created by the run
    assert stat.S_IMODE(sidecar.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("name", ["g.json", "jac.json"])
def test_output_to_dev_stdout_into_a_pipe_delivers_the_bytes(name):
    # a pipe is not a regular file, so it is written and never cut to length
    argv, recorded = _manifest_entry(name)
    done = _run_cli_subprocess(*argv[:-1], "/dev/stdout", binary=True)
    assert done.returncode == 0, done.stderr
    written, status = done.stdout.rsplit(b"\n[", 1)
    assert hashlib.sha256(written + b"\n").hexdigest() == recorded[name]
    assert status.startswith((b"OK] ", b"PASS] "))


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("check", "hua", "--trials", "10"), ("suite", "--trials", "10")],
                         ids=["check", "suite"])
def test_status_lines_into_a_closed_pipe_are_a_usage_error(argv, unbuffered):
    # the read end is closed before the child has imported numpy, so its
    # first status line meets a pipe with no reader; buffered, the failure
    # comes at the flush, unbuffered at the first print
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    env.pop(cli.SEED_ENV_VAR, None)
    child = subprocess.Popen([sys.executable, "-m", "symcone.cli", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 64
    assert err.decode() == "usage error: cannot write stdout: Broken pipe\n"


# each call, and the function that does its work
UNWRITABLE_CALLS = {
    "check-hua": (("check", "hua", "--kind", "sym-real", "--rank", "2", "--trials", "10"),
                  ver, "check_hua"),
    "sample-wishart-csv": (("sample", "wishart", "-n", "10", "--format", "csv"),
                           cli, "sample_wishart"),
}


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before -o was checked")


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
@pytest.mark.parametrize("call", UNWRITABLE_CALLS)
def test_an_output_path_that_cannot_be_written_is_a_usage_error_before_the_work(
        call, where, tmp_path, monkeypatch, capsys):
    argv, module, work = UNWRITABLE_CALLS[call]
    monkeypatch.setattr(module, work, _must_not_run)
    if where == "directory":
        (tmp_path / "out").mkdir()
        path, reason = tmp_path / "out", "it is a directory"
    else:
        path, reason = tmp_path / "missing" / "x.json", f"no directory {tmp_path / 'missing'}"
    assert run_cli(*argv, "-o", str(path)) == 64
    captured = capsys.readouterr()
    assert captured.err == f"usage error: cannot write {path}: {reason}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.rglob("*")] == (["out"] if where == "directory" else [])


@pytest.mark.parametrize("call", UNWRITABLE_CALLS)
def test_a_failing_write_is_a_usage_error_with_the_path_and_the_reason(
        call, tmp_path, monkeypatch, capsys):
    argv, _, _ = UNWRITABLE_CALLS[call]

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "open", no_space)
    path = tmp_path / "x.out"
    assert run_cli(*argv, "-o", str(path)) == 64
    assert capsys.readouterr().err == (
        f"usage error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_seeded_sample_written_twice_to_one_path_has_one_digest(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    argv, recorded = _manifest_entry("lw.csv")
    digests = []
    for _ in range(2):
        assert _run_manifest_call(argv, tmp_path) == 0
        digests.append({file: _sha256(tmp_path / file) for file in recorded})
    assert digests == [recorded, recorded]


# calls that write a file, apart from open() in a writing mode and os.open()
_FILE_WRITERS = {"write_text", "write_bytes", "tofile", "save", "savez", "savetxt"}


def _writes_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in _FILE_WRITERS:
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def test_the_package_writes_files_only_in_cli_write():
    writers = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # each call's innermost enclosing function
        for func in ast.walk(tree):  # outer functions come first
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        writers.update(f"{path.stem}.{owner.get(node, '<module>')}" for node in ast.walk(tree)
                       if isinstance(node, ast.Call) and _writes_a_file(node))
    assert writers == {"cli._write"}


# ---------------------------------------------------------------------------
# Config file and environment
# ---------------------------------------------------------------------------

def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "sym-real", "rank": 3, "trials": 123, "seed": 9}))
    out = tmp_path / "o.json"
    code = run_cli("check", "hua", "--config", str(config), "-o", str(out),
                   "--trials", "77")
    assert code == 0
    report = json.loads(out.read_text())["reports"][0]
    assert report["trials"] == 77          # flag wins
    assert report["seed"] == 9             # config wins over default
    assert report["algebra"]["rank"] == 3  # config value used


def test_config_unknown_field_rejected(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "sym-real", "bogus": 1}))
    assert run_cli("check", "hua", "--config", str(config)) == 64
    assert "unknown config fields" in capsys.readouterr().err


def test_threads_flag_and_config_field_are_gone(tmp_path, capsys):
    assert run_cli("check", "hua", "--kind", "sym-real", "--rank", "2", "--threads", "2") == 64
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "sym-real", "threads": 2}))
    assert run_cli("check", "hua", "--config", str(config)) == 64
    assert "unknown config fields: ['threads']" in capsys.readouterr().err


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "314")
    out = tmp_path / "o.json"
    assert run_cli("check", "involution", "--kind", "sym-real", "--rank", "2",
                   "--trials", "50", "-o", str(out)) == 0
    assert json.loads(out.read_text())["reports"][0]["seed"] == 314
    monkeypatch.setenv(cli.SEED_ENV_VAR, "notanint")
    assert run_cli("check", "involution", "--kind", "sym-real", "--rank", "2") == 64


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("check", "hua", "--kind", "herm-complex", "--rank", "2", "--trials", "200", "--seed", "11"),
        ("suite", "--kind", "sym-real", "--rank", "2", "--trials", "100", "--seed", "2"),
        ("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "-1",
         "-n", "100", "--seed", "8", "--format", "csv"),
        ("test", "my-property", "--kind", "sym-real", "--rank", "1", "--p", "2",
         "-n", "800", "--seed", "4", "--permutations", "700", "--subsample", "300"),
    ],
    ids=["check-hua", "suite", "sample-gig-csv", "my-property"],
)
def test_byte_identical_reruns(tmp_path, argv):
    out1 = tmp_path / "a.out"
    out2 = tmp_path / "b.out"
    assert run_cli(*argv, "-o", str(out1)) == run_cli(*argv, "-o", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    side1, side2 = tmp_path / "a.out.meta.json", tmp_path / "b.out.meta.json"
    if side1.exists():
        assert side1.read_bytes() == side2.read_bytes()
