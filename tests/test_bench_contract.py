"""The benchmark's own tests pass against the current `src/`.

`bench/tracer.py` patches names in `src/` (tensor primitives, supernet
functions, candidate classes, federation steps), so renaming one breaks the
benchmark without failing any other tier-1 test. The bench tests run in a
subprocess from the repo root because their `conftest.py` would shadow the
one in `tests/`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_bench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench/tests", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"bench/tests failed:\n{proc.stdout}{proc.stderr}"


def test_traced_run_names_grouped_convs_by_groups():
    # The tracer reads `groups` from a conv2d call to name its shape; a grouped
    # or depthwise call it could not read would be counted as k1g1 or k3g1.
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grouped-parallel", "--seed", "2",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"traced run failed:\n{proc.stdout}{proc.stderr}"
    result = json.loads([line for line in proc.stdout.splitlines() if line.startswith("{")][-1])
    assert result["correct"]
    for shape in ("k3g8", "k1g2"):
        assert result["metrics"][f"tensor.conv2d.{shape}.calls"]["value"] > 0, shape
