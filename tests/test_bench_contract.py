"""The benchmark's own tests pass against the current `src/`.

`bench/tracer.py` patches names in `src/` (tensor primitives, supernet
functions, candidate classes, federation steps), so renaming one breaks the
benchmark without failing any other tier-1 test. The bench tests run in a
subprocess from the repo root because their `conftest.py` would shadow the
one in `tests/`.
"""

from __future__ import annotations

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
