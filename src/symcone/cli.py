"""Batch command-line front end, a thin layer over :mod:`symcone.verification`
and the samplers: a check runs the settings it is given and reports only
what it computes.

Runs verification checks and samplers from flags or a JSON config file and
writes JSON/CSV reports.  Flag values override config-file values, which
override the built-in defaults (the field defaults of :class:`RunConfig`);
the default seed can also be set through the SYMCONE_SEED environment
variable.  ``--trials`` reaches every residual check as given, and a check
receives ``tol`` only when ``--tol`` or the config file sets it, and
otherwise keeps its own default.  ``--step``, ``--permutations`` and
``--subsample`` default to the defaults in the signatures of
``check_jacobian`` and ``my_property_test``.  A config-file field must hold
the JSON type of its flag (an integer, a number or a string), or null where
the default is null.  The Metropolis settings are not options: they are the
constants of :mod:`symcone.distributions`.  The algebra comes from the
kernel table (``--kind`` takes the values of :class:`~symcone.algebra.Kind`).
The rules on shapes and algebras live in the library, and their errors are
usage errors here; the CLI adds only the rules against vacuous runs.

The check subcommands (``check <what>``, ``test my-property``) are the rows of
one table, :data:`_CHECKS`, which the parser, ``suite`` and the failure
reports read, so adding a check is one row.  A check that leaves the cone
fails under its own name, the run's algebra and the tolerance it would have
used, and ``suite`` goes on with its other checks.

Every output file (reports, sample batches, the ``.meta.json`` sidecar) is
written by :func:`_write`: an existing file is overwritten in place, without
``O_TRUNC``, and a regular file is then cut to the new length, so ``-o``
also takes a pipe or a device such as ``/dev/stdout``; a CSV sample, whose
sidecar goes beside ``-o``, is a usage error there before any draw.  A
write killed part way leaves the new bytes followed by the old file's tail.
``sample`` writes its draws only to ``-o``, so a ``sample`` without one is a
usage error before any draw; so is ``test my-property --format csv``, whose
report row would hold none of the test's p-values.  An ``-o`` that is a
directory or lies in a missing one is a usage error before any work, and
a write that fails is one too, naming the path and the reason.  So is a
status line that stdout cannot take, as when the reader of a pipe has gone
(``symcone suite | head -c 1``): ``cannot write stdout: Broken pipe``.

Exit codes (:func:`_status`): 0 all checks passed, 1 a check failed, 2
results inconclusive (an MCMC sampler left its acceptance band), 64 usage
error, which also covers a law no batch of doubles holds: a draw of a
Wishart, or of a GIG at any rank, past the largest double
(:class:`~symcone.distributions.MassPastDoublesError`).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import serialization as ser
from . import verification as ver
from .algebra import (
    AlgebraDescriptor,
    Element,
    Kind,
    NotInConeError,
    descriptor_of_kind,
    from_matrix,
    identity,
    in_cone,
    kernels,
)
from .distributions import (
    GigParams,
    MassPastDoublesError,
    SampleBatch,
    ShapeOutOfRangeError,
    WishartParams,
    sample_gig,
    sample_wishart,
)

SEED_ENV_VAR = "SYMCONE_SEED"


class UsageError(ValueError):
    pass


def _library_default(check, name: str):
    """The default of parameter ``name`` in the signature of ``check``."""
    return inspect.signature(check).parameters[name].default


@dataclass
class RunConfig:
    """Merged, validated settings for one CLI invocation; the field defaults
    are the flags' defaults, read from the library for the settings of one check."""

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
    step: float = _library_default(ver.check_jacobian, "step")
    permutations: int = _library_default(ver.my_property_test, "n_permutations")
    subsample: int | None = _library_default(ver.my_property_test, "subsample")


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
    common.add_argument("--kind", choices=[k.value for k in Kind])
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
    groups = {
        group: sub.add_parser(group, help=text).add_subparsers(dest="what", required=True)
        for group, text in (("check", "run one verification check"),
                            ("sample", "draw from a cone distribution"),
                            ("test", "statistical property tests"))
    }
    for group, name in (*_CHECKS, ("sample", "wishart"), ("sample", "gig")):
        groups[group].add_parser(name, parents=[common])
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
    # a sample's draws go only to -o, so without one the work would be lost
    if cfg.command[0] == "sample" and not cfg.output:
        raise UsageError("sample writes its draws only to -o; give -o FILE, "
                         "or -o /dev/stdout to print them")
    # an -o found unwritable only after the work would lose the work
    if cfg.output:
        out = Path(cfg.output)
        if out.is_dir():
            raise UsageError(f"cannot write {out}: it is a directory")
        if not out.parent.is_dir():
            raise UsageError(f"cannot write {out}: no directory {out.parent}")
        # a CSV sample also writes a sidecar file beside -o, which a pipe or a device lacks
        if (cfg.command[0] == "sample" and cfg.format == "csv"
                and out.exists() and not out.is_file()):
            raise UsageError(f"a csv sample also writes {out}.meta.json, so -o must be a "
                             f"regular file; use --format json to write to {out}")
    if cfg.command == ("test", "my-property"):
        if cfg.n < 2:
            raise UsageError(f"my-property needs n >= 2, got {cfg.n}")
        # a csv report row has no column for its dCor and KS p-values
        if cfg.format == "csv":
            raise UsageError("my-property reports its p-values only in JSON; "
                             "use --format json")
        # the smallest permutation p-value, 1/(B+1), must clear the
        # Bonferroni gate, or the dCor tests cannot reject
        if 1.0 / (cfg.permutations + 1) >= ver.BONFERRONI_GATE:
            raise UsageError(
                f"my-property needs 1/(permutations + 1) below the Bonferroni gate "
                f"{ver.BONFERRONI_GATE:.4g}, got permutations={cfg.permutations}"
            )


def _algebra(cfg: RunConfig) -> AlgebraDescriptor:
    """The run's algebra from the kernel table: the matrix kinds read
    ``rank``, lorentz reads ``dim``, and the other flag is not read; an
    invalid one is a usage error."""
    try:
        return descriptor_of_kind(cfg.kind, cfg.rank, cfg.dim)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _shape_and_scales(cfg: RunConfig, alg: AlgebraDescriptor, names: str = "ab") -> tuple:
    """The shape p (``--p``, else dim/rank), then the elements ``--a`` and
    ``--b`` that ``names`` lists, each of which must lie in the open cone."""
    scales = []
    for name in names:
        scales.append(parse_element(getattr(cfg, name), alg))
        if not in_cone(scales[-1]):
            raise UsageError(f"--{name} must lie in the open cone")
    return (cfg.p if cfg.p is not None else alg.dim_over_rank, *scales)


def _per_set(one_set):
    """The reports of ``one_set(alg, rng, kw)`` for each of the ``--sets``
    random constant sets; set i draws from one generator seeded with the
    run's seed and checks at seed + i."""
    def reports(cfg: RunConfig, alg: AlgebraDescriptor, kw: dict) -> list:
        rng = np.random.default_rng(cfg.seed)
        return [r for i in range(cfg.sets)
                for r in one_set(alg, rng, {**kw, "seed": cfg.seed + i})]
    return reports


@_per_set
def _fe_cone_reports(alg, rng, kw) -> list:
    k = ver.random_fe_constants(alg, rng)
    return [ver.check_cauchy_additive(alg, k.f, **kw),
            ver.check_pexider_log(alg, k.q, k.gamma1, k.gamma2, **kw),
            ver.check_fe_cone(alg, k, **kw)]


@_per_set
def _fe_1d_reports(alg, rng, kw) -> list:
    constants = ver.random_fe1d_constants(rng)
    univariate = {"A": rng.uniform(-3, 3), "B": rng.uniform(-3, 3),
                  "C": rng.uniform(-5, 5), "D": rng.uniform(-5, 5)}
    return [ver.check_fe_univariate_abcd(constants, **kw),
            ver.check_fe_univariate_g_alpha(univariate, **kw)]


# command -> (its reports from (cfg, alg, kw), the check whose ``tol`` default
# a failure report carries); kw holds n, seed and, only when set, tol.
# ``suite`` runs the ``check`` rows in this order.  ``algebra`` carries the
# 1e-10 of check_jordan_axioms, the strictest of its three checks; None
# (``my-property``) carries the significance level.
_CHECKS = {
    ("check", "algebra"): (lambda cfg, alg, kw: [
        ver.check_jordan_axioms(alg, **kw), ver.check_det_product_rule(alg, **kw),
        ver.check_det_operator_power(alg, **kw)], ver.check_jordan_axioms),
    ("check", "hua"): (lambda cfg, alg, kw: [ver.check_hua(alg, **kw)], ver.check_hua),
    ("check", "involution"): (lambda cfg, alg, kw: [ver.check_involution(alg, **kw)],
                              ver.check_involution),
    ("check", "jacobian"): (lambda cfg, alg, kw: [ver.check_jacobian(
        alg, **kw, step=cfg.step)], ver.check_jacobian),
    ("check", "fe-cone"): (_fe_cone_reports, ver.check_fe_cone),
    ("check", "fe-1d"): (_fe_1d_reports, ver.check_fe_univariate_abcd),
    ("check", "factorization"): (lambda cfg, alg, kw: [ver.density_factorization_check(
        alg, *_shape_and_scales(cfg, alg), **kw)], ver.density_factorization_check),
    ("test", "my-property"): (lambda cfg, alg, kw: [ver.my_property_test(
        alg, *_shape_and_scales(cfg, alg), cfg.n, seed=cfg.seed,
        n_permutations=cfg.permutations, subsample=cfg.subsample)], None),
}


def _failure_tolerance(cfg: RunConfig, tol_of) -> float:
    """The tolerance of a failure report: ``--tol`` when set, else the
    default of the check ``tol_of``; the significance level without one."""
    if tol_of is None:
        return ver.SIGNIFICANCE
    if cfg.tol is not None:
        return cfg.tol
    return _library_default(tol_of, "tol")


def _dispatch_reports(cfg: RunConfig, alg: AlgebraDescriptor) -> list:
    """Reports of the run's checks.  A check that leaves the cone (inside
    ``suite`` also one below the density range) gives one failure report,
    named after it and carrying the run's algebra and the tolerance the
    check would have used, and the other checks still run; alone, a shape
    below the range raises."""
    suite = cfg.command == ("suite",)
    errors = (NotInConeError,) + ((ShapeOutOfRangeError,) if suite else ())
    kw = {"n": cfg.trials, "seed": cfg.seed, **({} if cfg.tol is None else {"tol": cfg.tol})}
    reports = []
    for command in [c for c in _CHECKS if c[0] == "check"] if suite else [cfg.command]:
        check_reports, tol_of = _CHECKS[command]
        try:
            reports += check_reports(cfg, alg, kw)
        except errors as exc:
            reports.append(ver.CheckReport(
                check=command[1], algebra=alg.to_dict(), trials=0, max_residual=math.inf,
                mean_residual=math.inf, passed=False, seed=cfg.seed,
                tolerance=_failure_tolerance(cfg, tol_of), error=str(exc)))
    return reports


def _run_sample(cfg: RunConfig, alg: AlgebraDescriptor):
    if cfg.command[1] == "wishart":
        return sample_wishart(WishartParams(*_shape_and_scales(cfg, alg, "a")), cfg.seed, cfg.n)
    return sample_gig(GigParams(*_shape_and_scales(cfg, alg)), cfg.seed, cfg.n)


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``, the one file writer of the package.

    An existing file is overwritten in place and then cut to the new length,
    instead of being opened with ``O_TRUNC``: truncating a file the host has
    just written can block until its earlier writeback is done.  Only a
    regular file is cut, so a pipe or a device (``-o /dev/stdout``) takes
    the bytes as before.  A symlink is followed, and an existing file keeps
    its inode and mode.  A path that cannot be written is a usage error.
    """
    data = text.encode()
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            fh.flush()
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.ftruncate(fh.fileno(), len(data))
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _status(items: list) -> tuple[list[str], int]:
    """The status word of each report or sample batch, and the run's exit code.

    A batch is OK and a report PASS or FAIL, and either is INCONCLUSIVE when
    a Metropolis sampler left its acceptance band.  The exit code is 1 if
    any word is FAIL, else 2 if any is INCONCLUSIVE, else 0.
    """
    words = []
    for item in items:
        if isinstance(item, SampleBatch):
            word = "INCONCLUSIVE" if item.mcmc is not None and item.mcmc["diverged"] else "OK"
        elif isinstance(item, ver.IndependenceReport) and item.inconclusive:
            word = "INCONCLUSIVE"
        else:
            word = "PASS" if item.passed else "FAIL"
        words.append(word)
    return words, 1 if "FAIL" in words else 2 if "INCONCLUSIVE" in words else 0


def _report_line(r, status: str) -> str:
    if isinstance(r, ver.IndependenceReport):
        min_p = min(r.dcor_p_values + r.ks_p_values)
        return (f"[{status}] {r.check} kind={r.algebra['kind']} n={r.n} "
                f"seed={r.seed} min_p={min_p:.4g} significance={r.significance:g}")
    alg = r.algebra
    where = f"kind={alg['kind']} dim={alg['dim']}" if alg else "univariate"
    return (f"[{status}] {r.check} {where} trials={r.trials} "
            f"max_residual={r.max_residual:.4g} tol={r.tolerance:g}")


def _print_lines(lines: list) -> None:
    """Print the status lines; a stdout that cannot take them is a usage
    error, as a file that cannot be written is in :func:`_write`.

    When the reader of a pipe has gone, stdout is closed, which fails once
    more on the bytes still buffered but leaves Python's own flush at exit
    nothing to fail on.
    """
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        raise UsageError(f"cannot write stdout: {exc.strerror}") from exc


def run(argv) -> int:
    """Execute one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    try:
        cfg = _merge_config(args)
        alg = _algebra(cfg)
        if cfg.command[0] == "sample":
            batch = _run_sample(cfg, alg)  # _validate requires -o
            if cfg.format == "csv":
                _write(cfg.output, ser.batch_to_csv(batch))
                _write(cfg.output + ".meta.json",
                       ser.dumps_canonical(ser.batch_metadata(batch)) + "\n")
            else:
                _write(cfg.output, ser.batch_to_json(batch))
            [status], code = _status([batch])
            rate = "" if batch.mcmc is None else f" accept={batch.mcmc['acceptance_rate']:.3f}"
            _print_lines([f"[{status}] sample {cfg.command[1]} "
                          f"method={batch.method} n={batch.n} seed={batch.seed}{rate}"])
            return code
        reports = _dispatch_reports(cfg, alg)
        if cfg.output:
            if cfg.format == "csv":
                _write(cfg.output, ser.reports_to_csv(reports))
            else:
                _write(cfg.output, ser.reports_to_json(reports))
        statuses, code = _status(reports)
        _print_lines([_report_line(r, status) for r, status in zip(reports, statuses)])
    except (UsageError, ShapeOutOfRangeError, MassPastDoublesError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
