"""Benchmark of the initrack package; run it from the root of a checkout.

    python3 perfbench/run.py --workload eval-100k --seed 1 --seconds 20 --trace 0

It builds nothing: it imports `initrack` from the checkout's `src/` and runs
`python3 -m initrack.cli` for the command-line steps.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # work directories and trace files


def main(argv: list[str] | None = None) -> int:
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for about this long, in whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full", help="smoke: small corpora for tests")
    args = parser.parse_args(argv)

    if not (SRC / "initrack" / "__init__.py").is_file():
        print(f"perfbench: no initrack package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import initrack

    if Path(initrack.__file__).resolve().parent != (SRC / "initrack").resolve():
        print(f"perfbench: imported initrack from {initrack.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from harness import Bench, BenchError

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    bench = Bench(SRC, work, args.seed, bool(args.trace), args.size)
    try:
        WORKLOADS[args.workload](bench, args.seconds)
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except BenchError:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        bench.tracer.write(str(trace_path), {"workload": args.workload, "seed": args.seed, "round_s": bench.round_s})
        print(f"perfbench: trace written to {trace_path}", file=sys.stderr)
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
