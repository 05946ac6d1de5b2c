"""Per-layer spans recorded from outside the program.

The tracer replaces selected public functions of the ``symcone`` layers
with wrappers, both in their home module and in every ``symcone`` module
that imported them by name, so a call is seen whichever reference the
caller used.  Each wrapper records one span (name, start, end, parent span,
job id) and adds counts taken from the call's arguments and return value.
Self time is a span's duration minus the time its child spans cover.

Spans stay in memory and are written to a gzip CSV sidecar when the run
ends.  Nothing under ``src/`` is modified; uninstalling restores every
patched reference.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("algebra", "my_transform", "distributions", "stats", "verification",
           "serialization", "cli")

ALGEBRA_FUNCS = ("batch_inverse", "batch_eigenvalues", "batch_det", "batch_quad_apply",
                 "batch_jordan", "batch_sqrt", "quad_rep", "lmap",
                 "random_cone_points_banded")
TRANSFORM_FUNCS = ("jacobian_det_numeric", "jacobian_fd_matrix", "jacobian_det_formula")
SAMPLER_METHODS = ("bartlett", "rejection", "mcmc")
CHECK_FUNCS = ("check_jordan_axioms", "check_det_product_rule", "check_det_operator_power",
               "check_hua", "check_involution", "check_jacobian", "check_cauchy_additive",
               "check_pexider_log", "check_fe_univariate_g_alpha", "check_fe_univariate_abcd",
               "check_fe_cone", "check_perturbed_fe_rejects", "density_factorization_check",
               "my_property_test")
SERIALIZATION_FUNCS = ("batch_to_csv", "batch_to_json", "batch_metadata",
                       "batch_coords_from_csv", "reports_to_json")


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 1:
        return 0
    return math.prod(shape[:-1])


def _nbytes(x) -> int:
    if isinstance(x, np.ndarray):
        return x.nbytes
    matrix = getattr(x, "matrix", None)  # LinearOperator
    return matrix.nbytes if isinstance(matrix, np.ndarray) else 0


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# Each counter maps (args, kwargs, result) to (span name, {count: increment}).

def _algebra_counter(fn):
    def count(args, kwargs, result):
        if fn == "random_cone_points_banded":
            rows = int(_arg(args, kwargs, 2, "n"))
        elif fn in ("quad_rep", "lmap"):
            rows = 1
        else:
            rows = max([_rows(a) for a in args[1:]] + [1])
        computed = sum(_nbytes(a) for a in args) + _nbytes(result)
        return f"algebra.{fn}", {"calls": 1, "rows": rows, "bytes_computed": computed}
    return count


def _transform_counter(fn):
    def count(args, kwargs, result):
        inc = {"calls": 1}
        if fn == "jacobian_det_numeric":
            inc["richardson_calls"] = int(bool(_arg(args, kwargs, 3, "richardson", False)))
        return f"my_transform.{fn}", inc
    return count


def _sampler_counter(args, kwargs, result):
    inc = {"calls": 1, "draws": result.n}
    meta = result.mcmc
    if meta is not None:
        steps = meta["burn_in"] + meta["per_chain"] * meta["thin"]
        proposals = steps * meta["chains"]
        inc["proposals"] = proposals
        inc["accepted"] = meta["acceptance_rate"] * (steps - meta["burn_in"]) * meta["chains"]
        inc["post_burn_in"] = (steps - meta["burn_in"]) * meta["chains"]
        inc["max:buffer_bytes"] = proposals * result.algebra.dim * 8
    return f"distributions.{result.method}", inc


def _dcor_counter(args, kwargs, result):
    size = len(args[0])
    subsample = _arg(args, kwargs, 4, "subsample", 1000)
    m = size if subsample is None else min(size, subsample)
    return "stats.permutation_dcor_test", {
        "calls": 1,
        "permutations": int(_arg(args, kwargs, 2, "n_permutations", 500)),
        "pairs_tested": m,
        "max:matrix_bytes": 2 * m * m * 8,
    }


def _ks_counter(args, kwargs, result):
    return "stats.ks_2sample", {"calls": 1}


def _check_counter(fn):
    def count(args, kwargs, result):
        trials = result.n if fn == "my_property_test" else result.trials
        return f"verification.{fn}", {"calls": 1, "trials": trials}
    return count


def _serialization_counter(fn):
    def count(args, kwargs, result):
        if fn == "batch_coords_from_csv":
            size = len(args[0])
        elif fn == "batch_metadata":
            size = len(json.dumps(result, default=str))
        else:
            size = len(result)
        return f"serialization.{fn}", {"calls": 1, "bytes": size}
    return count


def _cli_counter(args, kwargs, result):
    argv = list(args[0])
    written = 0
    for flag in ("-o", "--output"):
        if flag in argv:
            out = Path(argv[argv.index(flag) + 1])
            paths = [out]
            if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
                paths.append(Path(f"{out}.meta.json"))  # the CSV's metadata sidecar
            written += sum(path.stat().st_size for path in paths if path.exists())
    return "cli.run", {"calls": 1, "bytes_written": written}


def targets():
    """(module, function, counter) for every traced public function."""
    out = [("algebra", fn, _algebra_counter(fn)) for fn in ALGEBRA_FUNCS]
    out += [("my_transform", fn, _transform_counter(fn)) for fn in TRANSFORM_FUNCS]
    out += [("distributions", fn, _sampler_counter) for fn in ("sample_wishart", "sample_gig")]
    out += [("stats", "permutation_dcor_test", _dcor_counter),
            ("stats", "ks_2sample", _ks_counter)]
    out += [("verification", fn, _check_counter(fn)) for fn in CHECK_FUNCS]
    out += [("serialization", fn, _serialization_counter(fn)) for fn in SERIALIZATION_FUNCS]
    out.append(("cli", "run", _cli_counter))
    return out


class Tracer:
    """Records spans around the traced functions while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans = []          # (span id, parent id, job, name, start, end)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack = []         # [span id, child seconds]
        self._patches = []       # (module, attribute, original)

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "symcone" or name.startswith("symcone."))]
        for home, fn, counter in targets():
            original = getattr(sys.modules[f"symcone.{home}"], fn)
            wrapper = self._wrap(original, counter)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, counter):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
            name, inc = counter(args, kwargs, result)
            self.spans[sid] = (sid, parent, self.job, name, start, end)
            self.self_s[name] += duration - frame[1]
            bucket = self.counts[name]
            for key, value in inc.items():
                if key.startswith("max:"):
                    bucket[key[4:]] = max(bucket[key[4:]], value)
                else:
                    bucket[key] += value
            return result

        return traced

    def write_spans(self, path) -> None:
        """Write the spans as gzip CSV with times relative to the first span."""
        done = [s for s in self.spans if s is not None]
        t0 = done[0][4] if done else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,job,name,start_s,end_s\n")
            for sid, parent, job, name, start, end in done:
                fh.write(f"{sid},{parent},{job},{name},{start - t0:.9f},{end - t0:.9f}\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer metrics named as in BENCHMARK.json's ``per_layer``."""
    c, s = tracer.counts, tracer.self_s

    def per_pass(name, key):
        return c[name][key] / passes

    out = {}
    rows = calls = computed = 0.0
    for fn in ALGEBRA_FUNCS:
        name = f"algebra.{fn}"
        out[f"{name}.calls"] = per_pass(name, "calls")
        out[f"{name}.rows"] = per_pass(name, "rows")
        out[f"{name}.self_s"] = s[name] / passes
        rows += c[name]["rows"]
        calls += c[name]["calls"]
        computed += c[name]["bytes_computed"]
    out["algebra.rows_per_call"] = rows / calls if calls else 0.0
    out["algebra.bytes_computed"] = computed / passes
    for fn in TRANSFORM_FUNCS:
        name = f"my_transform.{fn}"
        out[f"{name}.calls"] = per_pass(name, "calls")
        out[f"{name}.self_s"] = s[name] / passes
    out["my_transform.jacobian_det_numeric.richardson_calls"] = per_pass(
        "my_transform.jacobian_det_numeric", "richardson_calls")
    for method in SAMPLER_METHODS:
        name = f"distributions.{method}"
        out[f"{name}.calls"] = per_pass(name, "calls")
        out[f"{name}.draws"] = per_pass(name, "draws")
        out[f"{name}.self_s"] = s[name] / passes
    mcmc = c["distributions.mcmc"]
    out["distributions.mcmc.proposals"] = mcmc["proposals"] / passes
    out["distributions.mcmc.kept_per_proposal"] = (
        mcmc["draws"] / mcmc["proposals"] if mcmc["proposals"] else 0.0)
    out["distributions.mcmc.acceptance_rate"] = (
        mcmc["accepted"] / mcmc["post_burn_in"] if mcmc["post_burn_in"] else 0.0)
    out["distributions.mcmc.buffer_bytes"] = mcmc["buffer_bytes"]
    name = "stats.permutation_dcor_test"
    for key in ("calls", "permutations", "pairs_tested"):
        out[f"{name}.{key}"] = per_pass(name, key)
    out[f"{name}.self_s"] = s[name] / passes
    out["stats.dcor.matrix_bytes"] = c[name]["matrix_bytes"]
    out["stats.ks_2sample.calls"] = per_pass("stats.ks_2sample", "calls")
    out["stats.ks_2sample.self_s"] = s["stats.ks_2sample"] / passes
    for fn in CHECK_FUNCS:
        name = f"verification.{fn}"
        out[f"{name}.calls"] = per_pass(name, "calls")
        out[f"{name}.trials"] = per_pass(name, "trials")
        out[f"{name}.self_s"] = s[name] / passes
    for fn in SERIALIZATION_FUNCS:
        name = f"serialization.{fn}"
        out[f"{name}.calls"] = per_pass(name, "calls")
        out[f"{name}.bytes"] = per_pass(name, "bytes")
        out[f"{name}.self_s"] = s[name] / passes
    out["cli.run.calls"] = per_pass("cli.run", "calls")
    out["cli.run.self_s"] = s["cli.run"] / passes
    out["cli.bytes_written"] = per_pass("cli.run", "bytes_written")
    return out


# Work column of the per-module table: which count stands for "rows or draws".
_WORK = {"algebra": "rows", "my_transform": "calls", "distributions": "draws",
         "stats": "pairs_tested", "verification": "trials", "serialization": "bytes",
         "cli": "bytes_written"}


def module_table(tracer: Tracer, passes: int, wall_s: float) -> list[dict]:
    """Per-module calls, work, self time and share of the traced wall time."""
    table = []
    for module in MODULES:
        names = [n for n in set(tracer.self_s) | set(tracer.counts)
                 if n.split(".")[0] == module]
        self_s = sum(tracer.self_s[n] for n in names) / passes
        table.append({
            "module": module,
            "calls": sum(tracer.counts[n]["calls"] for n in names) / passes,
            "work": sum(tracer.counts[n][_WORK[module]] for n in names) / passes,
            "work_unit": _WORK[module],
            "self_s": self_s,
            "share": self_s / wall_s if wall_s else 0.0,
        })
    return table
