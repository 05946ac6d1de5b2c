"""symcone benchmark: three seeded workloads timed end to end, plus a traced
run that attributes the time to the seven program layers.

Run from the root of a checkout that holds ``src/symcone``::

    python3 perfbench/run.py --workload identity-sweep --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``identity-sweep``, ``independence`` and
``sample-files``.  A run

1. times set-up in fresh interpreters (``setup_probe.py``), ``--trace 0`` only;
2. builds the job list from ``--seed`` and makes one warm-up pass that also
   checks every output against its expected verdict;
3. repeats the pass until ``--seconds`` are used and requires every rerun to
   reproduce the warm-up output exactly;
4. times a fixed reference kernel right after every job, so that each job's
   time is also known in units of that kernel (see ``Reference``);
5. with ``--trace 1`` times half the passes untraced and half with the
   per-layer tracer, writes the spans to a gzip CSV sidecar and prints a
   per-module table and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything
else, with the environment, goes to ``.bench_out/`` in the checkout.  The
exit code is 0 when every job gave its expected output, 1 when one did not
and 2 when the program's source is missing.
"""

import os

# one BLAS thread, set before numpy is first imported (here or in a probe)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
REF_SHARE = 0.1   # reference-kernel time after each job, as a share of the job's
OUT_DIR = ".bench_out"
ITEMS = {"identity-sweep": "trials", "independence": "pairs", "sample-files": "samples"}
UNITS = {"setup_s": "s", "pass_ref": "ref", "items_per_ref": "1/ref", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(src: Path) -> list:
    """Seconds to import symcone and make one tiny call per kind, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_lib = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_lib,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "seed": seed,
    }


class Reference:
    """A fixed kernel, timed right after every job, to express job times in.

    The CPU speed this benchmark gets on a shared host drifts by up to 1.6x
    over tens of seconds while the process is never descheduled (its CPU
    time equals its wall time).  The drift slows this kernel about as much
    as the job before it, so the ratio of the two cancels most of it
    (README.md, *Steadiness and bounds*, says how much).  The speed also
    flickers on a scale of 0.1 s, so after each job the kernel is called
    until it has run for ``REF_SHARE`` of the job's time, and the mean call
    is the unit.  The kernel mixes the kinds of work the program does:
    interpreted Python, small LAPACK calls and a memory-bound numpy sort.
    It is benchmark code, so no change to the program can change its time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.matrix = rng.standard_normal((64, 64)) + 64.0 * np.eye(64)
        self.vector = rng.standard_normal(200_000)
        self.block(0.1)

    def call(self) -> None:
        total = 0
        for i in range(25_000):
            total += i * i
        for _ in range(12):
            self.np.linalg.inv(self.matrix)
        self.np.sort(self.vector)

    def block(self, seconds: float) -> float:
        """Calls the kernel at least once and until ``seconds`` have passed;
        returns the mean seconds per call."""
        calls = 0
        start = time.perf_counter()
        while True:
            self.call()
            calls += 1
            used = time.perf_counter() - start
            if used >= seconds:
                return used / calls


class Runner:
    """Runs passes over the job list, timing only the program calls and the
    reference kernel after each."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.reference = Reference()
        self.tracer = None         # set for traced passes
        self.fingerprints = None   # from the warm-up pass
        self.failures = []         # (pass index, job name, problems)
        self.executions = 0
        self.job_seconds = []      # per pass, per job
        self.ref_seconds = []      # per pass, per job: the mean reference call after it

    def run(self, index: int) -> float:
        times = []
        refs = []
        fingerprints = []
        for j, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.job = f"{index}:{j}"
                self.tracer.enabled = True
            problems = []
            output = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    output = job.call()
            except Exception as exc:  # a failed job is counted, not fatal
                problems.append(f"raised {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.enabled = False
            refs.append(self.reference.block(REF_SHARE * times[-1]))
            self.executions += 1
            fingerprint = None
            if not problems:
                try:
                    if self.fingerprints is None:
                        problems += job.check(output)
                    fingerprint = job.fingerprint(output)
                except Exception as exc:  # malformed output is a failed job
                    problems.append(f"output check raised {type(exc).__name__}: {exc}")
                if self.fingerprints is not None and fingerprint != self.fingerprints[j]:
                    problems.append("rerun differs from the warm-up output")
            fingerprints.append(fingerprint)
            if problems:
                self.failures.append((index, job.name, problems))
        if self.fingerprints is None:
            self.fingerprints = fingerprints
        self.job_seconds.append(times)
        self.ref_seconds.append(refs)
        return sum(times)

    def pass_ref(self, passes) -> float:
        """One pass in reference-kernel units: per job, the median over
        ``passes`` of its time over the mean reference call after it, summed."""
        return sum(statistics.median(self.job_seconds[i][j] / self.ref_seconds[i][j]
                                     for i in passes)
                   for j in range(len(self.jobs)))


def print_table(table, wall_s, outside_s, overhead_s, plain_s) -> None:
    print(f"{'module':<14}{'calls':>12}{'work':>16} {'unit':<14}{'self_s':>10}{'share':>8}")
    for row in table:
        print(f"{row['module']:<14}{row['calls']:>12.0f}{row['work']:>16.0f} "
              f"{row['work_unit']:<14}{row['self_s']:>10.4f}{row['share']:>8.1%}")
    print(f"{'outside spans':<56}{outside_s:>10.4f}{outside_s / wall_s:>8.1%}")
    print(f"traced wall_s {wall_s:.4f} s, untraced wall_s {plain_s:.4f} s, "
          f"tracing overhead {overhead_s:.4f} s")


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if "bytes" in last:
        return "B"
    if last in ("kept_per_proposal", "acceptance_rate", "rows_per_call"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "symcone" / "__init__.py").is_file():
        print(f"error: no symcone package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    files_dir = out_dir / f"files-{tag}"

    setup = [] if args.trace else measure_setup(src)
    env = environment(root, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    jobs = workloads.build(args.workload, args.seed, files_dir)
    items = sum(job.items for job in jobs)
    runner = Runner(jobs)
    try:
        warm_s = runner.run(0)
        passes = max(1, round(args.seconds / ((1 + REF_SHARE) * warm_s)))
        plain = max(1, passes // 2) if args.trace else passes
        traced = max(1, passes - plain) if args.trace else 0
        plain_times = [runner.run(i) for i in range(1, plain + 1)]
        traced_times = []
        tracer = None
        if traced:
            tracer = spans.Tracer()
            runner.tracer = tracer
            tracer.install()
            try:
                traced_times = [runner.run(i) for i in range(plain + 1, plain + 1 + traced)]
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(files_dir, ignore_errors=True)

    attempted = runner.executions
    failed = len(runner.failures)
    for index, name, problems in runner.failures:
        print(f"FAILED pass {index} job {name}: {'; '.join(problems)}")
    for job in jobs:
        if job.notes:
            print(f"note {job.name}: " + json.dumps(job.notes, sort_keys=True))

    wall_s = statistics.median(plain_times)
    ref_s = statistics.median(r for refs in runner.ref_seconds[1:plain + 1] for r in refs)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "jobs": len(jobs), "items_per_pass": items,
              "item": ITEMS[args.workload], "warm_up_s": warm_s, "pass_s": plain_times,
              "failures": runner.failures, "job_names": [job.name for job in jobs],
              "job_s": runner.job_seconds, "ref_s": runner.ref_seconds,
              "notes": {j.name: j.notes for j in jobs if j.notes}}
    if args.trace:
        traced_wall = sum(traced_times) / len(traced_times)
        metrics = spans.layer_metrics(tracer, len(traced_times))
        table = spans.module_table(tracer, len(traced_times), traced_wall)
        outside = traced_wall - sum(row["self_s"] for row in table)
        overhead = traced_wall - wall_s
        metrics.update({"trace.wall_s": traced_wall, "trace.outside_s": outside,
                        "trace.overhead_s": overhead})
        spans_path = out_dir / f"spans-{tag}.csv.gz"
        tracer.write_spans(spans_path)
        print_table(table, traced_wall, outside, overhead, wall_s)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(root)}")
        record.update({"traced_pass_s": traced_times, "modules": table})
        units = {name: layer_unit(name) for name in metrics}
    else:
        pass_ref = runner.pass_ref(range(1, plain + 1))
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_ref": pass_ref,
            "items_per_ref": items / pass_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(UNITS)
        record["setup_probes_s"] = setup
        item_rate = f"{ITEMS[args.workload]}_per_s"
        print(f"wall_s {wall_s:.6g} s (median of {plain} passes, reference call "
              f"{ref_s * 1e3:.4g} ms)")
        print(f"{item_rate} {items / wall_s:.6g} 1/s ({items} {ITEMS[args.workload]} per pass)")
    print(f"failed_frac {failed / attempted:.6g} 1 ({failed} of {attempted} job runs)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    record["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    (out_dir / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
