"""Tests of the benchmark itself: a short run prints every metric that
BENCHMARK.json names, a wrong expectation makes the run fail, the
reference-kernel ratio cancels a uniform slowdown, and the tracer accounts
for the time of every layer.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def _run(args, cwd=ROOT, code=None):
    cmd = [sys.executable, *(["-c", code] if code else [str(BENCH / "run.py")]), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_every_metric_with_its_unit(trace, group):
    done = _run(["--workload", "identity-sweep", "--seed", "5", "--seconds", "1",
                 "--trace", str(trace)])
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    lines = set(done.stdout.splitlines())
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, float)
        assert f"{name} {value:.6g} {unit}" in lines
    if group == "end_to_end":
        assert all(result["metrics"][name]["value"] > 0 for name in expected)
        assert "failed_frac 0 1 (0 of" in done.stdout


FLIP_NEGATIVE_CONTROL = textwrap.dedent("""
    import sys
    sys.path[:0] = [{bench!r}, {src!r}]
    import run, workloads

    build = workloads.build

    def build_with_wrong_expectation(*args):
        jobs = build(*args)
        for job in jobs:
            if job.name.endswith("/fe-cone-perturbed"):
                job.check = workloads._expect_verdict(True, job.items)
        return jobs

    workloads.build = build_with_wrong_expectation
    sys.exit(run.main(sys.argv[1:]))
""")


def test_wrong_expectation_fails_the_run():
    code = FLIP_NEGATIVE_CONTROL.format(bench=str(BENCH), src=str(ROOT / "src"))
    done = _run(["--workload", "identity-sweep", "--seed", "5", "--seconds", "1",
                 "--trace", "0"], code=code)
    assert done.returncode == 1, done.stdout + done.stderr
    result = _result(done)
    assert result["correct"] is False
    assert result["failed"] == 6  # one perturbed control per algebra
    frac = next(line for line in done.stdout.splitlines() if line.startswith("failed_frac"))
    assert float(frac.split()[1]) > 0
    assert "FAILED pass 0 job sym-real-2/fe-cone-perturbed: passed=False, expected True" \
        in done.stdout


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "independence", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_tracer_attributes_time_to_every_layer_it_touches(tmp_path):
    import spans
    from symcone import algebra, cli, verification

    tracer = spans.Tracer()
    tracer.install()
    try:
        # patched in its home module and where verification imported it by name
        assert verification.batch_inverse is algebra.batch_inverse
        assert hasattr(algebra.batch_inverse, "__wrapped__")
        tracer.enabled = True
        e = algebra.identity(algebra.sym_real(1))
        verification.my_property_test(e.algebra, 2.0, e, e, 500, seed=1,
                                      n_permutations=20, subsample=100)
        out = tmp_path / "draws.csv"
        assert cli.run(["sample", "gig", "--kind", "sym-real", "--rank", "2", "-n", "100",
                        "--format", "csv", "-o", str(out)]) == 0
        verification.check_jacobian(algebra.lorentz(2), n=3, seed=1)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert not hasattr(verification.batch_inverse, "__wrapped__")

    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["verification.my_property_test.trials"] == 500
    assert metrics["stats.permutation_dcor_test.calls"] == 3
    assert metrics["stats.permutation_dcor_test.pairs_tested"] == 300
    assert metrics["stats.dcor.matrix_bytes"] == 2 * 100 * 100 * 8
    assert metrics["distributions.rejection.draws"] == 1000
    assert metrics["distributions.bartlett.draws"] == 1000
    assert metrics["distributions.mcmc.draws"] == 100
    assert metrics["distributions.mcmc.proposals"] == (5000 + 2 * 10) * 50
    assert metrics["serialization.batch_to_csv.calls"] == 1
    assert metrics["cli.bytes_written"] == (out.stat().st_size
                                            + Path(f"{out}.meta.json").stat().st_size)
    assert metrics["my_transform.jacobian_det_formula.calls"] == 3
    assert metrics["algebra.batch_inverse.rows"] > 0

    finished = [s for s in tracer.spans if s is not None]
    top = [s for s in finished if s[1] == -1]
    covered = sum(end - start for _, _, _, _, start, end in top)
    assert sum(tracer.self_s.values()) == pytest.approx(covered, rel=1e-9)
    table = spans.module_table(tracer, 1, covered)
    assert {row["module"] for row in table if row["calls"]} == {
        "algebra", "my_transform", "distributions", "stats", "verification",
        "serialization", "cli"}


def test_pass_ref_cancels_a_uniform_slowdown():
    import run

    runner = run.Runner([None, None])
    runner.job_seconds = [[1.0, 2.0], [3.0, 2.0], [2.0, 4.0]]
    runner.ref_seconds = [[0.5, 1.0], [1.0, 1.0], [1.0, 2.0]]
    # per-job ratios: (2, 3, 2) and (2, 2, 2); medians 2 and 2
    assert runner.pass_ref(range(3)) == 4.0
    assert runner.pass_ref([1]) == 5.0
    # a machine that runs both the jobs and the kernel 1.5x slower
    runner.job_seconds = [[1.5 * t for t in row] for row in runner.job_seconds]
    runner.ref_seconds = [[1.5 * t for t in row] for row in runner.ref_seconds]
    assert runner.pass_ref(range(3)) == pytest.approx(4.0)


def test_benchmark_json_names_every_workload_and_metric():
    import run
    import spans

    assert [w["name"] for w in SPEC["workloads"]] == sorted(run.ITEMS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    names = list(spans.layer_metrics(spans.Tracer(), 1)) + [
        "trace.wall_s", "trace.outside_s", "trace.overhead_s"]
    assert [m["name"] for m in SPEC["per_layer"]] == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])
    assert os.path.isfile(BENCH / "setup_probe.py")
