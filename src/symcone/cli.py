"""Batch command-line front end.

Runs verification checks and samplers from flags or a JSON config file and
writes JSON/CSV reports.  Flag values override config-file values, which
override the built-in defaults (the field defaults of :class:`RunConfig`);
the default seed can also be set through the SYMCONE_SEED environment
variable.  A check receives ``tol`` only when ``--tol`` or the config file
sets it, and otherwise keeps its own default.  A config-file field must
hold the JSON type of its flag (an integer, a number or a string), or null
where the default is null.  The Metropolis settings are not options: they are the
constants of :mod:`symcone.distributions`.

Exit codes: 0 all checks passed, 1 a check failed, 2 results inconclusive
(an MCMC sampler left its acceptance band), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import serialization as ser
from . import verification as ver
from .algebra import (
    AlgebraDescriptor,
    Element,
    NotInConeError,
    SingularElementError,
    from_matrix,
    herm_complex,
    identity,
    in_cone,
    kernels,
    lorentz,
    sym_real,
)
from .distributions import (
    GigParams,
    ShapeOutOfRangeError,
    WishartParams,
    sample_gig,
    sample_wishart,
)

SEED_ENV_VAR = "SYMCONE_SEED"


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Merged, validated settings for one CLI invocation; the field defaults
    are the built-in defaults of the flags."""

    command: tuple
    kind: str = "sym-real"
    rank: int = 2
    dim: int = 3
    trials: int = 1000
    n: int = 1000
    seed: int | None = None  # resolved from the environment, then 0
    tol: float | None = None  # each check's own default when unset
    p: float | None = None
    a: str = "identity"
    b: str = "identity"
    output: str | None = None
    format: str = "json"
    sets: int = 1
    step: float = 1e-5
    permutations: int = 1000
    subsample: int | None = 1000


_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}


def parse_element(spec: str, alg: AlgebraDescriptor) -> Element:
    """Parse an element spec: "identity", "diag:v1,..", or "coords:c1,..".

    The diagonal form takes ``rank`` values and is only defined for the
    matrix families; the coordinate form takes ``dim`` values in canonical
    basis order.
    """
    spec = spec.strip()
    if spec == "identity":
        return identity(alg)
    if spec.startswith("diag:"):
        if kernels(alg).field is None:
            raise UsageError("diag: element specs are for the matrix families only")
        values = _parse_floats(spec[5:])
        if len(values) != alg.rank:
            raise UsageError(f"diag: needs {alg.rank} values, got {len(values)}")
        return from_matrix(alg, np.diag(values))
    if spec.startswith("coords:"):
        values = _parse_floats(spec[7:])
        if len(values) != alg.dim:
            raise UsageError(f"coords: needs {alg.dim} values, got {len(values)}")
        return Element(alg, np.array(values))
    raise UsageError(f"unrecognized element spec {spec!r}")


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"element values must be finite, got {text!r}")
    return values


def _common_parser() -> argparse.ArgumentParser:
    """The flags every subcommand takes."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kind", choices=["sym-real", "herm-complex", "lorentz"])
    common.add_argument("--rank", type=int, help="matrix-family rank")
    common.add_argument("--dim", type=int, help="Lorentz ambient dimension (n + 1)")
    common.add_argument("--trials", type=int, help="trials per residual check")
    common.add_argument("-n", "--n", type=int, dest="n", help="sample count")
    common.add_argument("--seed", type=int)
    common.add_argument("--tol", type=float, help="override per-check tolerances")
    common.add_argument("--p", type=float, help="distribution shape parameter")
    common.add_argument("--a", help="element spec for the first scale parameter")
    common.add_argument("--b", help="element spec for the second scale parameter")
    common.add_argument("-o", "--output", help="write the report or batch here")
    common.add_argument("--format", choices=["json", "csv"])
    common.add_argument("--config", help="JSON config file (flags override it)")
    common.add_argument("--sets", type=int, help="random constant sets for family checks")
    common.add_argument("--step", type=float, help="finite-difference step")
    common.add_argument("--permutations", type=int)
    common.add_argument("--subsample", type=int)
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcone",
        description="Verification checks and cone-distribution samplers.",
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run one verification check")
    check_sub = check.add_subparsers(dest="what", required=True)
    for name in ("algebra", "hua", "involution", "jacobian", "fe-cone", "fe-1d", "factorization"):
        check_sub.add_parser(name, parents=[common])
    sample = sub.add_parser("sample", help="draw from a cone distribution")
    sample_sub = sample.add_subparsers(dest="what", required=True)
    for name in ("wishart", "gig"):
        sample_sub.add_parser(name, parents=[common])
    test = sub.add_parser("test", help="statistical property tests")
    test_sub = test.add_subparsers(dest="what", required=True)
    test_sub.add_parser("my-property", parents=[common])
    sub.add_parser("suite", parents=[common], help="run every residual check")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise UsageError(f"unknown config fields: {sorted(unknown)}")
    for flag in _common_parser()._actions:
        if flag.dest in raw:
            _check_config_value(flag, raw[flag.dest])
    return raw


_JSON_TYPES = {int: "an integer", float: "a number", None: "a string"}


def _check_config_value(flag: argparse.Action, value) -> None:
    """Raise UsageError unless a config-file value could have come from ``flag``."""
    field = flag.dest
    if value is None:
        ok = _DEFAULTS[field] is None or field == "subsample"
    elif isinstance(value, bool):  # a JSON true/false is a Python int
        ok = False
    elif flag.type is int:
        ok = isinstance(value, int)
    elif flag.type is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, str) and (flag.choices is None or value in flag.choices)
    if not ok:
        expected = _JSON_TYPES[flag.type]
        if flag.choices is not None:
            expected = f"one of {sorted(flag.choices)}"
        raise UsageError(f"config field {field!r} must be {expected}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            merged["seed"] = int(env) if env else 0
        except ValueError as exc:
            raise UsageError(f"bad {SEED_ENV_VAR} value {env!r}") from exc
    command = (args.command,) if args.command == "suite" else (args.command, args.what)
    cfg = RunConfig(command=command, **merged)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.kind in ("sym-real", "herm-complex") and cfg.rank < 1:
        raise UsageError(f"rank must be >= 1, got {cfg.rank}")
    if cfg.kind == "lorentz" and cfg.dim < 3:
        raise UsageError(f"Lorentz ambient dimension must be >= 3, got {cfg.dim}")
    if cfg.trials < 1 or cfg.n < 1:
        raise UsageError("trials and n must be positive")
    if cfg.sets < 1:
        raise UsageError("sets must be >= 1")
    if cfg.p is not None and not math.isfinite(cfg.p):
        raise UsageError(f"p must be finite, got {cfg.p}")
    if not (math.isfinite(cfg.step) and cfg.step > 0):
        raise UsageError(f"step must be finite and > 0, got {cfg.step}")
    # an infinite tolerance passes every residual check, a NaN or non-positive one fails it
    if cfg.tol is not None and not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise UsageError(f"tol must be finite and > 0, got {cfg.tol}")
    # a dCor test on fewer than 2 pairs, or with no permutations, cannot reject
    if cfg.permutations < 1:
        raise UsageError(f"permutations must be >= 1, got {cfg.permutations}")
    if cfg.subsample is not None and cfg.subsample < 2:
        raise UsageError(f"subsample must be >= 2, got {cfg.subsample}")
    if cfg.command == ("test", "my-property"):
        if cfg.n < 2:
            raise UsageError(f"my-property needs n >= 2, got {cfg.n}")
        # the smallest permutation p-value, 1/(B+1), must clear the
        # Bonferroni gate, or the dCor tests cannot reject
        gate = ver.SIGNIFICANCE / (len(ver.DCOR_FUNCTIONALS) + len(ver.KS_LABELS))
        if 1.0 / (cfg.permutations + 1) >= gate:
            raise UsageError(
                f"my-property needs 1/(permutations + 1) below the Bonferroni gate "
                f"{gate:.4g}, got permutations={cfg.permutations}"
            )


def _algebra(cfg: RunConfig) -> AlgebraDescriptor:
    if cfg.kind == "sym-real":
        return sym_real(cfg.rank)
    if cfg.kind == "herm-complex":
        return herm_complex(cfg.rank)
    return lorentz(cfg.dim - 1)


def _shape_p(cfg: RunConfig, alg: AlgebraDescriptor) -> float:
    return cfg.p if cfg.p is not None else alg.dim_over_rank


def _cone_param(cfg, name, alg) -> Element:
    el = parse_element(getattr(cfg, name), alg)
    if not in_cone(el):
        raise UsageError(f"--{name} must lie in the open cone")
    return el


def _fe_cone_reports(cfg: RunConfig, alg: AlgebraDescriptor, tol: dict) -> list:
    rng = np.random.default_rng(cfg.seed)
    reports = []
    for i in range(cfg.sets):
        k = ver.random_fe_constants(alg, rng)
        kw = {"n": cfg.trials, "seed": cfg.seed + i, **tol}
        reports += [
            ver.check_cauchy_additive(alg, k.f, **kw),
            ver.check_pexider_log(alg, k.q, k.gamma1, k.gamma2, **kw),
            ver.check_fe_cone(alg, k, **kw),
        ]
    return reports


def _fe_1d_reports(cfg: RunConfig, tol: dict) -> list:
    rng = np.random.default_rng(cfg.seed)
    reports = []
    for i in range(cfg.sets):
        constants = ver.random_fe1d_constants(rng)
        univariate = {
            "A": rng.uniform(-3, 3),
            "B": rng.uniform(-3, 3),
            "C": rng.uniform(-5, 5),
            "D": rng.uniform(-5, 5),
        }
        kw = {"n": cfg.trials, "seed": cfg.seed + i, **tol}
        reports += [
            ver.check_fe_univariate_abcd(constants, **kw),
            ver.check_fe_univariate_g_alpha(univariate, **kw),
        ]
    return reports


# the check subcommands that ``suite`` runs, in its report order
_SUITE = ("algebra", "hua", "involution", "jacobian", "fe-cone", "fe-1d", "factorization")


def _check_reports(cfg: RunConfig, alg: AlgebraDescriptor, what: str,
                   jacobian_trials: int = 200) -> list:
    """Reports of ``check <what>``; the Jacobian runs at most
    ``jacobian_trials`` trials.  A check gets ``tol`` only when it was set,
    and otherwise keeps its own default.  Factorization raises
    ShapeOutOfRangeError for a shape p below the density range."""
    tol = {} if cfg.tol is None else {"tol": cfg.tol}
    kw = {"n": cfg.trials, "seed": cfg.seed, **tol}
    if what == "algebra":
        return [
            ver.check_jordan_axioms(alg, **kw),
            ver.check_det_product_rule(alg, **kw),
            ver.check_det_operator_power(alg, **kw),
        ]
    if what == "hua":
        return [ver.check_hua(alg, **kw)]
    if what == "involution":
        return [ver.check_involution(alg, **kw)]
    if what == "jacobian":
        return [ver.check_jacobian(alg, n=min(cfg.trials, jacobian_trials), seed=cfg.seed,
                                   step=cfg.step, **tol)]
    if what == "fe-cone":
        return _fe_cone_reports(cfg, alg, tol)
    if what == "fe-1d":
        return _fe_1d_reports(cfg, tol)
    if what == "factorization":
        p = _shape_p(cfg, alg)
        a = _cone_param(cfg, "a", alg)
        b = _cone_param(cfg, "b", alg)
        return [ver.density_factorization_check(alg, p, a, b, **kw)]


def _dispatch_reports(cfg: RunConfig) -> list:
    alg = _algebra(cfg)
    cmd = cfg.command
    if cmd == ("suite",):
        # a shape below the density range fails the suite (see run) rather
        # than making it a usage error
        return [r for what in _SUITE
                for r in _check_reports(cfg, alg, what, jacobian_trials=100)]
    if cmd[0] == "check":
        try:
            return _check_reports(cfg, alg, cmd[1])
        except ShapeOutOfRangeError as exc:
            raise UsageError(str(exc)) from exc
    if cmd == ("test", "my-property"):
        p = _shape_p(cfg, alg)
        a = _cone_param(cfg, "a", alg)
        b = _cone_param(cfg, "b", alg)
        if p <= alg.dim_over_rank - 1.0:
            raise UsageError(f"my-property requires p > {alg.dim_over_rank - 1.0}")
        return [ver.my_property_test(
            alg, p, a, b, cfg.n, seed=cfg.seed,
            n_permutations=cfg.permutations, subsample=cfg.subsample)]
    raise UsageError(f"unknown command {' '.join(cmd)}")


def _run_sample(cfg: RunConfig):
    alg = _algebra(cfg)
    p = _shape_p(cfg, alg)
    a = _cone_param(cfg, "a", alg)
    if cfg.command[1] == "wishart":
        if p <= alg.dim_over_rank - 1.0:
            raise UsageError(f"wishart sampling requires p > {alg.dim_over_rank - 1.0}")
        return sample_wishart(WishartParams(p, a), cfg.seed, cfg.n)
    b = _cone_param(cfg, "b", alg)
    return sample_gig(GigParams(p, a, b), cfg.seed, cfg.n)


def _write(path: str, text: str) -> None:
    Path(path).write_bytes(text.encode())


def _report_line(r) -> str:
    if isinstance(r, ver.IndependenceReport):
        status = "INCONCLUSIVE" if r.inconclusive else ("PASS" if r.passed else "FAIL")
        min_p = min(r.dcor_p_values + r.ks_p_values)
        return (f"[{status}] {r.check} kind={r.algebra['kind']} n={r.n} "
                f"seed={r.seed} min_p={min_p:.4g} significance={r.significance:g}")
    status = "PASS" if r.passed else "FAIL"
    alg = r.algebra or {}
    where = f"kind={alg['kind']} dim={alg['dim']}" if alg else "univariate"
    return (f"[{status}] {r.check} {where} trials={r.trials} "
            f"max_residual={r.max_residual:.4g} tol={r.tolerance:g}")


def _exit_code(reports: list) -> int:
    hard_fail = False
    inconclusive = False
    for r in reports:
        if isinstance(r, ver.IndependenceReport) and r.inconclusive:
            inconclusive = True
        elif not r.passed:
            hard_fail = True
    if hard_fail:
        return 1
    if inconclusive:
        return 2
    return 0


def run(argv) -> int:
    """Execute one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    try:
        cfg = _merge_config(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64

    try:
        if cfg.command[0] == "sample":
            batch = _run_sample(cfg)
            if cfg.output:
                if cfg.format == "csv":
                    _write(cfg.output, ser.batch_to_csv(batch))
                    _write(cfg.output + ".meta.json",
                           ser.dumps_canonical(ser.batch_metadata(batch)) + "\n")
                else:
                    _write(cfg.output, ser.batch_to_json(batch))
            rate = "" if batch.mcmc is None else f" accept={batch.mcmc['acceptance_rate']:.3f}"
            diverged = batch.mcmc is not None and batch.mcmc["diverged"]
            print(f"[{'INCONCLUSIVE' if diverged else 'OK'}] sample {cfg.command[1]} "
                  f"method={batch.method} n={batch.n} seed={batch.seed}{rate}")
            return 2 if diverged else 0
        reports = _dispatch_reports(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (NotInConeError, SingularElementError, ShapeOutOfRangeError) as exc:
        failure = ver.CheckReport(
            check=" ".join(cfg.command), algebra=None, trials=0,
            max_residual=math.inf, mean_residual=math.inf, passed=False,
            seed=cfg.seed, tolerance=cfg.tol or 0.0, error=str(exc),
        )
        if cfg.output:
            _write(cfg.output, ser.reports_to_json([failure]))
        print(_report_line(failure))
        return 1

    if cfg.output:
        if cfg.format == "csv":
            _write(cfg.output, ser.reports_to_csv(reports))
        else:
            _write(cfg.output, ser.reports_to_json(reports))
    for r in reports:
        print(_report_line(r))
    return _exit_code(reports)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
