"""dfnas benchmark: end-to-end search metrics per workload, or a traced run
that reports per-layer metrics.

    python3 bench/run.py --workload c7-serial --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 1

Run from the repository root; the package is imported from `src/`. Each run
prints one line per metric (name, value, unit, sample count), an environment
line, and as its last line a JSON object with `correct`, `attempted`,
`failed` and `metrics`. It exits 1 when a correctness check fails and 2 when
the dfnas sources cannot be found. Runs write a result record, and traced
runs their spans, to `.bench_out/`. See bench/README.md for the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("c7-serial", "grouped-parallel", "fanout-vector", "rank-sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="measuring time; sets how many searches a run repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload for a smoke test")
    args = parser.parse_args(argv)

    # pinned for this process before numpy loads its BLAS
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dfnas
    except ImportError as err:
        print(f"cannot import dfnas from {src}: {err}", file=sys.stderr)
        return 2
    if src not in Path(dfnas.__file__).resolve().parents:
        print(f"dfnas was imported from {dfnas.__file__}, not from {src}", file=sys.stderr)
        return 2

    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
