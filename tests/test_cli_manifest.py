"""Seeded CLI output pinned byte for byte.

``cli_manifest.json`` holds, for each call in ``CALLS``, the exit code, the
stdout and the sha256 of every file the call wrote.  The test replays the
calls and compares.  A change that alters seeded output on purpose
re-records the manifest and says so:

    PYTHONPATH=src python tests/test_cli_manifest.py --record

Recording prints each call whose entry changed, with the stdout lines that
differ (old -> new) and the files whose digest moved, and flags a change of
its exit code or of the ``[STATUS]`` words of its stdout, which a change
that moves only digits must not make.

The digests hold for one numpy and LAPACK build; another build may round
differently in the last bit, and a comparison across builds starts by
re-recording the manifest on the reference side.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from symcone import cli

MANIFEST = Path(__file__).with_name("cli_manifest.json")

# ``{out}`` stands for a fresh directory the call may write into
CALLS = [
    *[["suite", *kind, "--trials", "200", "--seed", str(seed), "--format", fmt,
       "-o", f"{{out}}/suite.{fmt}"]
      for seed, kind in enumerate(
          (["--kind", "sym-real", "--rank", "1"], ["--kind", "sym-real", "--rank", "2"],
           ["--kind", "sym-real", "--rank", "3"], ["--kind", "herm-complex", "--rank", "2"],
           ["--kind", "herm-complex", "--rank", "3"], ["--kind", "lorentz", "--dim", "3"],
           ["--kind", "lorentz", "--dim", "5"]))
      for fmt in ("json", "csv")],
    ["suite", "--kind", "lorentz", "--dim", "4", "--trials", "100", "--tol", "1e-3",
     "--seed", "8", "--format", "csv", "-o", "{out}/suite-tol.csv"],
    ["suite", "--kind", "sym-real", "--rank", "2", "--trials", "100", "--p", "0.5",
     "-o", "{out}/below.json"],
    ["check", "factorization", "--kind", "sym-real", "--rank", "2", "--p", "0.5"],
    ["check", "factorization", "--kind", "herm-complex", "--rank", "2", "--p", "3",
     "--a", "diag:2,1", "--b", "diag:0.5,1.5", "--trials", "300", "--seed", "4",
     "-o", "{out}/fact.json"],
    ["check", "jacobian", "--kind", "lorentz", "--dim", "4", "--tol", "1e-3", "--seed", "3",
     "-o", "{out}/jac.json"],
    ["check", "jacobian", "--kind", "sym-real", "--rank", "2", "--step", "0.5", "--trials", "5",
     "-o", "{out}/jf.json"],
    ["check", "algebra", "--kind", "herm-complex", "--rank", "2", "--tol", "1e-3",
     "--trials", "300", "--format", "csv", "-o", "{out}/alg.csv"],
    ["check", "involution", "--kind", "sym-real", "--rank", "3", "--trials", "300"],
    ["check", "hua", "--kind", "lorentz", "--dim", "6", "--trials", "300", "--format", "csv",
     "-o", "{out}/hua.csv"],
    ["check", "fe-1d", "--sets", "3", "--trials", "300", "--seed", "9",
     "-o", "{out}/fe1d.json"],
    ["check", "fe-cone", "--kind", "lorentz", "--dim", "4", "--sets", "2", "--trials", "300",
     "--format", "csv", "-o", "{out}/fecone.csv"],
    ["test", "my-property", "--kind", "sym-real", "--rank", "1", "-n", "400",
     "--permutations", "700", "--subsample", "200", "--seed", "5", "-o", "{out}/myp.json"],
    ["test", "my-property", "--kind", "sym-real", "--rank", "1", "-n", "400",
     "--permutations", "699"],
    ["test", "my-property", "--kind", "sym-real", "--rank", "2", "-n", "200",
     "--permutations", "700", "--subsample", "100", "--seed", "2", "-o", "{out}/myp2.json"],
    # the independence test's Metropolis laws drawn together: four on Lorentz
    # (GIG and Wishart), two on herm-complex r = 2, two on the pivot target of rank 3
    *[["test", "my-property", *law, "-n", "200", "--permutations", "700",
       "--subsample", "100", "--seed", str(seed), "-o", "{out}/myp.json"]
      for seed, law in enumerate((
          ["--kind", "lorentz", "--dim", "3", "--a", "coords:1.5,0.3,0.2",
           "--b", "coords:1,-0.2,0.1"],
          ["--kind", "herm-complex", "--rank", "2", "--p", "2.5",
           "--a", "diag:2,1", "--b", "diag:0.5,1.5"],
          ["--kind", "sym-real", "--rank", "3", "--b", "diag:2,1,0.5"]), start=31)],
    ["sample", "wishart", "--kind", "sym-real", "--rank", "2", "-n", "40", "--seed", "6",
     "--format", "csv", "-o", "{out}/w.csv"],
    ["sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "2", "--b", "diag:1.5",
     "-n", "40", "--seed", "7", "-o", "{out}/g.json"],
    ["sample", "wishart", "--kind", "lorentz", "--dim", "3", "-n", "40", "--seed", "8",
     "--format", "csv", "-o", "{out}/lw.csv"],
    # every Metropolis path: the closed-form rank-2 target on each kind (Lorentz
    # dim 9 is past the length at which numpy sums a short axis in another
    # order), a non-identity Wishart scale, and the pivot target at rank 3
    *[["sample", *law, "-n", str(n), "--seed", str(seed), "--format", fmt,
       "-o", f"{{out}}/mh.{fmt}"]
      for seed, (law, n) in enumerate((
          (["gig", "--kind", "herm-complex", "--rank", "2", "--p", "3",
            "--b", "diag:0.5,1.5"], 50),
          (["gig", "--kind", "lorentz", "--dim", "5", "--p", "-2",
            "--a", "coords:1.5,0.3,0,0.2,-0.4"], 40),
          (["wishart", "--kind", "lorentz", "--dim", "9"], 60),
          (["wishart", "--kind", "lorentz", "--dim", "4", "--p", "2.5",
            "--a", "coords:2,0.5,-0.3,0.2"], 45),
          (["gig", "--kind", "sym-real", "--rank", "3", "--p", "-1.5",
            "--b", "diag:2,1,0.5"], 40)), start=21)
      for fmt in ("json", "csv")],
    # a Wishart past the largest double on the Bartlett and Metropolis routes
    # (a usage error), and Bartlett at a scale of condition number 1e13
    ["sample", "wishart", "--kind", "sym-real", "--rank", "2", "--a", "diag:1e-307,1e-307",
     "--p", "3", "-n", "100000", "--seed", "1", "-o", "{out}/w.json"],
    ["sample", "wishart", "--kind", "lorentz", "--dim", "3", "--a", "coords:3e-308,0,0",
     "--p", "3", "-n", "100", "--seed", "3", "-o", "{out}/w.json"],
    ["sample", "wishart", "--kind", "sym-real", "--rank", "2", "--a", "diag:1e-13,1",
     "--p", "3", "-n", "100", "--seed", "3", "-o", "{out}/w.json"],
]


def replay(argv: list) -> dict:
    """Run one call in a fresh directory; its exit code, stdout and files."""
    with tempfile.TemporaryDirectory() as out:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.run([a.replace("{out}", out) for a in argv])
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(out).iterdir())}
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "files": files}


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_seeded_cli_output_matches_the_manifest(argv, manifest, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    recorded = [entry for entry in manifest if entry["argv"] == argv]
    assert len(recorded) == 1, "call missing from the manifest; re-record it"
    assert replay(argv) == recorded[0]


def test_a_re_recording_shows_the_stdout_lines_and_files_that_differ():
    was = {"stdout": "[PASS] a=1.0\n[PASS] b=2\n", "files": {"x.csv": "1", "y.csv": "2"}}
    now = {"stdout": "[PASS] a=1.5\n[PASS] b=2\n[FAIL] c\n", "files": {"x.csv": "1", "y.csv": "3"}}
    assert _differences(was, now) == ["    [PASS] a=1.0 -> [PASS] a=1.5",
                                      "    (none) -> [FAIL] c", "    file y.csv"]


def _outcome(entry: dict) -> tuple:
    """The exit code and the status words (``[PASS]``, ``[FAIL]`` ...) of an entry."""
    return entry["exit"], re.findall(r"^\[(\w+)\]", entry["stdout"], flags=re.MULTILINE)


def _differences(was: dict, entry: dict) -> list:
    """The stdout lines that differ between two recordings of a call, each as
    ``old -> new`` (a missing line reads ``(none)``), then the files whose
    digest differs."""
    lines = itertools.zip_longest(was["stdout"].splitlines(), entry["stdout"].splitlines(),
                                  fillvalue="(none)")
    shown = [f"    {old} -> {new}" for old, new in lines if old != new]
    names = sorted(set(was["files"]) | set(entry["files"]))
    return shown + [f"    file {name}" for name in names
                    if was["files"].get(name) != entry["files"].get(name)]


def record() -> None:
    """Replay every call, write the manifest, and print what changed."""
    os.environ.pop(cli.SEED_ENV_VAR, None)
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else []
    before = {json.dumps(entry["argv"]): entry for entry in old}
    entries = [replay(argv) for argv in CALLS]
    changed = 0
    for entry in entries:
        was = before.get(json.dumps(entry["argv"]))
        if was == entry:
            continue
        changed += 1
        call = " ".join(entry["argv"])
        if was is None:
            print(f"new: {call}")
            continue
        if _outcome(was) != _outcome(entry):
            print(f"changed, OUTCOME CHANGED {_outcome(was)} -> {_outcome(entry)}: {call}")
        else:
            print(f"changed: {call}")
        for line in _differences(was, entry):
            print(line)
    print(f"{changed} of {len(entries)} entries changed")
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
