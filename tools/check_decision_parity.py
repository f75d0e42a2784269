#!/usr/bin/env python3
"""Decision-parity check between two omniboost_cli binaries.

    python3 tools/check_decision_parity.py OLD_CLI NEW_CLI

Runs both binaries over the same fixed matrix and compares their parsed
`--json` reports:

  * one-shot decisions for every `--scheduler` kind on fixed mixes and
    seeds (omniboost under both kernels and with a parallel design-time
    pipeline; bnb only on a mix it proves optimal, which is asserted);
  * one-shot text reports with `--trace --gantt` (schedule table,
    utilization table and execution timeline) for greedy and ga on both
    mixes, compared line by line;
  * 36 `serve --json` runs: SLOs, migration cost, board faults and poisson
    arrivals on boards 1 and 3 (`--rebalance` on 3), seeds 1-3, omniboost
    (gemm and reference kernels) and greedy, each with `--slo-hard-prune`
    off and on;
  * one crowded 3-board greedy `serve` run whose faults and load drive
    every cross-board stream move: rescue, failover and rebalance, plus
    shedding.

Wall-clock fields (every key ending in `decision_seconds`, and the text
report's `decision:` line) are dropped before the comparison; everything
else must be equal. Estimator training
runs with small settings (`--samples 40 --epochs 2 --budget 50`) so the
whole matrix takes seconds. Exits 0 when every run matches, 1 on any
difference or failed run (each is printed), or when one of the move
counters (MOVE_COUNTERS) sums to 0 over the new binary's serve runs —
parity over a path nothing ran proves nothing. Exits 2 on bad usage.
"""

from __future__ import annotations

import json
import subprocess
import sys

SMALL_TRAINING = ["--samples", "40", "--epochs", "2", "--budget", "50"]
SCHEDULERS = ["omniboost", "baseline", "mosaic", "ga", "greedy", "random",
              "annealing"]
MIXES = ["VGG-19,MobileNet,AlexNet",
         "ResNet-50,SqueezeNet,Inception-v3,VGG-13"]
BNB_MIX = "AlexNet,SqueezeNet"  # small enough for a proved optimum
SERVE_SCENARIO = ["--arrival", "poisson:0.6", "--horizon", "60",
                  "--slo", "500", "--migration-cost", "1",
                  "--faults", "mtbf:60:mttr:15:throttle:0.5"]
# Crowds a 3-board fleet until arrivals saturate boards and failures leave
# streams nowhere to go.
MOVE_CELL = ["serve", "--json", "--boards", "3", "--seed", "2",
             "--scheduler", "greedy", "--arrival", "poisson:1",
             "--horizon", "60", "--lifetime", "60", "--max-concurrent", "11",
             "--faults", "mtbf:30:mttr:15:throttle:0.5", "--rebalance"]
MOVE_COUNTERS = ["migrations", "failovers", "rebalances", "shed_streams"]
TIMEOUT_S = 300


def oneshot_cases() -> list[list[str]]:
    cases = []
    for seed in ("1", "2"):
        for mix in MIXES:
            for scheduler in SCHEDULERS:
                cases.append(["--mix", mix, "--scheduler", scheduler,
                              "--seed", seed, "--trace", *SMALL_TRAINING])
            base = ["--mix", mix, "--scheduler", "omniboost", "--seed", seed,
                    *SMALL_TRAINING]
            cases.append([*base, "--kernel", "reference"])
            cases.append([*base, "--design-workers", "2"])
        cases.append(["--mix", BNB_MIX, "--scheduler", "bnb", "--seed", seed,
                      "--trace"])
    return [[*c, "--json"] for c in cases]


def text_cases() -> list[list[str]]:
    return [["--mix", mix, "--scheduler", scheduler, "--seed", "1",
             "--trace", "--gantt"]
            for scheduler in ("greedy", "ga") for mix in MIXES]


def serve_cases() -> list[list[str]]:
    schedulers = [["--scheduler", "omniboost", "--kernel", "gemm"],
                  ["--scheduler", "omniboost", "--kernel", "reference"],
                  ["--scheduler", "greedy"]]
    cases = []
    for boards in (["--boards", "1"], ["--boards", "3", "--rebalance"]):
        for seed in ("1", "2", "3"):
            for scheduler in schedulers:
                for prune in ([], ["--slo-hard-prune"]):
                    cases.append(["serve", "--json", *boards, "--seed", seed,
                                  *scheduler, *prune, *SERVE_SCENARIO,
                                  *SMALL_TRAINING])
    return [*cases, MOVE_CELL]


def strip_wall_clock(node):
    """Drops every `*decision_seconds` key, recursively."""
    if isinstance(node, dict):
        return {k: strip_wall_clock(v) for k, v in node.items()
                if not k.endswith("decision_seconds")}
    if isinstance(node, list):
        return [strip_wall_clock(v) for v in node]
    return node


def first_difference(a, b, path: str = "$") -> str | None:
    """Path and values of the first place where a and b differ."""
    if type(a) is not type(b):
        return f"{path}: {a!r} != {b!r}"
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return f"{path}: keys {sorted(a.keys() ^ b.keys())} differ"
        for k in a:
            diff = first_difference(a[k], b[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


def run(cli: str, args: list[str]):
    """Wall-clock-free report of one run, or an error string: the parsed
    JSON with `--json`, else the list of stdout lines."""
    try:
        proc = subprocess.run([cli, *args], capture_output=True, text=True,
                              timeout=TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"did not finish: {err}"
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    if "--json" not in args:
        return [line for line in proc.stdout.splitlines()
                if not line.startswith("decision:")]
    try:
        return strip_wall_clock(json.loads(proc.stdout))
    except json.JSONDecodeError as err:
        return f"unparsable JSON: {err}"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_cli, new_cli = sys.argv[1], sys.argv[2]
    cases = oneshot_cases() + text_cases() + serve_cases()
    failures = 0
    moves = dict.fromkeys(MOVE_COUNTERS, 0)
    for args in cases:
        label = " ".join(args)
        old, new = run(old_cli, args), run(new_cli, args)
        if args[0] == "serve" and not isinstance(new, str):
            for k in MOVE_COUNTERS:
                moves[k] += new[k]
        if isinstance(old, str) or isinstance(new, str):
            failures += 1
            print(f"FAILED RUN {label}")
            for side, result in (("old", old), ("new", new)):
                status = result if isinstance(result, str) else "ok"
                print(f"  {side}: {status}")
            continue
        if args[args.index("--scheduler") + 1] == "bnb":
            if not (old.get("proved_optimal") and new.get("proved_optimal")):
                failures += 1
                print(f"NOT OPTIMAL {label}: bnb must prove its optimum here")
                continue
        diff = first_difference(old, new)
        if diff:
            failures += 1
            print(f"DIFFERS {label}\n  {diff}")
    print(f"decision parity: {len(cases) - failures}/{len(cases)} runs equal")
    print("serve moves: " + " ".join(f"{k}={v}" for k, v in moves.items()))
    unexercised = [k for k, v in moves.items() if v == 0]
    if unexercised:
        failures += 1
        print(f"UNEXERCISED: {', '.join(unexercised)} sum to 0")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
