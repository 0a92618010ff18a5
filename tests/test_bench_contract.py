"""The benchmark's contract with the library: each workload of
``perfbench/worker.py`` runs its fixed, traced rounds on seed 1 in a
fresh interpreter and reports no failed and no wrong operation.  The
worker imports library names (``harness.predicted_member``,
``descriptors.compile_descriptor``, ``Built.term``/``.settle``,
``Reduction.combinator`` and others), so a change that breaks one of
them shows here rather than only in a benchmark run."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _snapshot() -> dict:
    """Every file under perfbench/ with a digest of its bytes."""
    return {str(p.relative_to(PERFBENCH)): hashlib.sha256(p.read_bytes())
            .hexdigest() for p in sorted(PERFBENCH.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["sweep", "deep", "oracle"])
def test_a_traced_fixed_run_has_no_failed_or_wrong_operation(workload):
    before = _snapshot()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload",
         workload, "--seed", "1", "--mode", "fixed", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    ready, tally = proc.stdout.splitlines()[-2:]
    assert ready == "ready"
    out = json.loads(tally)
    assert out["attempted"] > 0
    assert (out["failed"], out["wrong"]) == (0, 0), out["issues"]
    assert _snapshot() == before
