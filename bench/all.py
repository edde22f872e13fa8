"""Run every workload, untraced and traced, and print every metric.

    python3 bench/all.py --seed 1 [--seconds 25]

Each workload runs as its own ``run.py`` process; this prints one line
per metric (workload, name, value, unit) and, per run, the operations
attempted and failed and whether every output check passed.  Exits 1 if
any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    args = p.parse_args()
    all_correct = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            out = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True,
            )
            res = json.loads(out.stdout.strip().splitlines()[-1])
            all_correct &= res["correct"]
            print(f"# {workload} trace={trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"{workload:15s} {name:36s} {m['value']:14.6g} {m['unit']}")
            sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
