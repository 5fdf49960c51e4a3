"""Run every workload once and print all metrics with units, and failed_frac.

Usage (from the repository root):

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--trace 0|1]

Runs the workloads one after another in this process, as perfbench/run.py
would run each, and prints one table row per metric and workload.
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ts = run.import_package()
    failures = 0
    for name, workload in run.WORKLOADS.items():
        record = run.run(workload, args.seed, args.seconds, args.trace, ts=ts)
        run.write_record(name, record)
        failures += record["failed"]
        for metric, m in record["metrics"].items():
            print(f"{name:<12} {metric:<42} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<12} {'failed_frac':<42} {record['failed'] / record['attempted']:>14.6g} "
              f"fraction ({record['failed']}/{record['attempted']})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
