#!/usr/bin/env python3
"""Run bench_e2e over several seeds and keep every run's output.

    python3 bench/e2e/collect.py --out <dir> [--workloads a,b,...]
        [--seeds 1-10] [--seconds 15] [--trace]

Run from the root of a source checkout. Each run goes through
bench/e2e/run.py (which builds and prepares on first use) and its stdout is
saved as <dir>/<workload>.<seed>.out, or <workload>.<seed>.trace.out with
--trace -- the layout compare.py reads. Seeds loop outermost, so the
workloads of one seed run back to back. Exits 1 if any run failed.
"""

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["design", "cold_mix", "warm_churn", "fleet_slo", "daemon_session"]


def seed_list(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    failed = 0
    for seed in seed_list(args.seeds):
        for workload in args.workloads.split(","):
            suffix = ".trace.out" if args.trace else ".out"
            dest = args.out / f"{workload}.{seed}{suffix}"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "1" if args.trace else "0"]
            with open(dest, "w") as out:
                code = subprocess.run(cmd, stdout=out).returncode
            last = dest.read_text().splitlines()[-1:] or [""]
            print(f"{workload} seed {seed}: exit {code} {last[0][:160]}",
                  flush=True)
            failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
