"""Command-line front end: parsing, dispatch, exit codes, determinism."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symcone import algebra as ja
from symcone import cli
from symcone import serialization as ser
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
def test_diverged_sample_prints_inconclusive(capsys, mcmc_settings):
    mcmc_settings(CHAINS=1, BURN_IN=0)
    code = run_cli("sample", "gig", "--kind", "sym-real", "--rank", "2", "--p", "-2", "-n", "200",
                   "--seed", "16")
    assert code == 2
    assert capsys.readouterr().out.startswith("[INCONCLUSIVE] sample gig method=mcmc")


def test_sample_shape_guard_is_usage_error():
    assert run_cli("sample", "wishart", "--kind", "sym-real", "--rank", "2",
                   "--p", "0.5", "-n", "10") == 64


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


def _run_cli_subprocess(*argv):
    # in a child with a timeout, so a regression that hangs fails instead
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "symcone.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy.integrate and scipy.stats take most of a second each to import;
    # they load on the first KS test or rank-1 GIG normalizer instead
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import symcone, symcone.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "nan"),
    ("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "inf"),
    ("sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "1", "--b", "diag:inf"),
    ("test", "my-property", "--kind", "sym-real", "--rank", "1", "--p", "nan",
     "--permutations", "700"),
], ids=["gig-rank1-p-nan", "gig-rank1-p-inf", "gig-rank1-b-inf", "my-property-rank1-p-nan"])
def test_non_finite_parameters_that_used_to_hang_are_usage_errors(argv):
    done = _run_cli_subprocess(*argv, "-n", "10")
    assert done.returncode == 64
    assert "must be finite" in done.stderr


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
                   "--p", "2", "-n", "1") == 0
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


def test_suite_and_check_keep_their_jacobian_caps(tmp_path):
    for argv, cap in ((("check", "jacobian"), 200), (("suite",), 100)):
        out = tmp_path / "r.json"
        assert run_cli(*argv, "--kind", "sym-real", "--rank", "1", "--trials", "300",
                       "-o", str(out)) == 0
        reports = json.loads(out.read_text())["reports"]
        assert [r["trials"] for r in reports if r["check"] == "jacobian-closed-form"] == [cap]


def test_suite_reports_a_shape_below_the_density_range_as_a_failure(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli("suite", "--kind", "sym-real", "--rank", "2", "--p", "0.4",
                   "--trials", "50", "-o", str(out)) == 1
    report = json.loads(out.read_text())["reports"][0]
    assert report["check"] == "suite" and "requires p > 0.5" in report["error"]
    assert "[FAIL] suite" in capsys.readouterr().out


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
