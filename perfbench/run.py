"""Benchmark of asymsplit: split training, split inference, one-shot release.

    python3 perfbench/run.py --workload {train,infer,release} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` there, and nothing needs installing.  Every run is one fresh
process, so ``peak_rss_mb`` is that workload's own peak.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics of a traced run and writes its spans to
``.perfbench/spans-<workload>.csv``.  Informational lines (machine,
losses, accuracies, digests of the released bits) come first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 on a completed run, 2 when the sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("train", "infer", "release")
SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import asymsplit from this checkout's src/, never from elsewhere."""
    if not (SRC / "asymsplit" / "__init__.py").is_file():
        raise ImportError(f"no asymsplit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import asymsplit

    where = Path(asymsplit.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"asymsplit imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench

    spans_path = None
    if args.trace:
        out = Path(".perfbench")
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}.csv"
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       spans_path=spans_path)

    for key, value in result.info.items():
        print(f"info {key} = {json.dumps(value)}")
    for what in result.failures:
        print(f"FAILED {what}")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
