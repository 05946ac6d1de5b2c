"""Seeded CLI output pinned byte for byte.

``cli_manifest.json`` holds, for each call in ``CALLS``, the exit code, the
stdout and the sha256 of every file the call wrote.  The test replays the
calls and compares.  A change that alters seeded output on purpose
re-records the manifest and says so:

    PYTHONPATH=src python tests/test_cli_manifest.py --record

The digests hold for one numpy and LAPACK build; another build may round
differently in the last bit, and a comparison across builds starts by
re-recording the manifest on the reference side.
"""

import contextlib
import hashlib
import io
import json
import os
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
    ["sample", "wishart", "--kind", "sym-real", "--rank", "2", "-n", "40", "--seed", "6",
     "--format", "csv", "-o", "{out}/w.csv"],
    ["sample", "gig", "--kind", "sym-real", "--rank", "1", "--p", "2", "--b", "diag:1.5",
     "-n", "40", "--seed", "7", "-o", "{out}/g.json"],
    ["sample", "wishart", "--kind", "lorentz", "--dim", "3", "-n", "40", "--seed", "8",
     "--format", "csv", "-o", "{out}/lw.csv"],
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


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    os.environ.pop(cli.SEED_ENV_VAR, None)
    MANIFEST.write_text(json.dumps([replay(argv) for argv in CALLS], indent=1) + "\n")
