"""Benchmark for fanocone.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all            # every workload, one after another

Run from the root of a checkout; the package is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ["pipeline", "queries", "character", "cli"]
DEFAULT_SEED = 1


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.all and not args.workload:
        p.error("give --workload NAME or --all")
    return args


def run_all(args) -> int:
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        report(name, rows[name])
    print(json.dumps(rows))
    return 0


def report(name: str, result: dict) -> None:
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, {status}")
    for key, m in result["metrics"].items():
        print(f"  {key:36s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "fanocone" / "__init__.py").is_file():
        print(f"no fanocone package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from fcbench import harness

    if args.setup_only:
        print(json.dumps({"setup_s": harness.setup_only(args.workload, args.seed, ROOT)}))
        return 0
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    report(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
