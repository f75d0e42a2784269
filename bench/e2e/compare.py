#!/usr/bin/env python3
"""Compare two directories of bench_e2e run outputs (standard library only).

    python3 bench/e2e/compare.py <parent_dir> <change_dir> [--json <out>]

Each directory holds one file per run, `<workload>.<seed>.out` (untraced)
or `<workload>.<seed>.trace.out` (traced), as bench/e2e/collect.py writes
them: the run's full stdout, whose last line is the result object and whose
`e2e-metrics {...}` line carries every metric the run measured.

For every workload and every end-to-end metric (the ones BENCHMARK.json
declares plus the quality metrics below) it prints one row:

  ok          the change's median is no worse than the parent's by more than
              the metric's bound
  REGRESSION  it is worse by more than the bound
  unresolved  the run-to-run spread (interquartile range) of either side is
              wider than the bound, so "no worse" cannot be shown -- unless
              every change run reads better than every parent run (setup_s
              is judged by its median alone)
  gain        the change wins at least 9 in 10 seed-matched pairs (ties count
              for neither) and the medians differ by more than the parent's
              interquartile range

The quality metrics are deterministic for a given seed, so they are compared
seed by seed (median of the per-seed worsening against the bound) and are
never unresolved; "identical per seed" marks bit-equal values.

Quartiles are statistics.quantiles(values, n=4). The exit code is 0 when no
row is a REGRESSION or unresolved, 1 otherwise, 2 on bad input. --json also
writes the per-metric medians, quartiles and spreads (the baseline format),
and, when traced runs are present, their per-layer metrics.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Quality metrics: deterministic for a host and commit, so their bounds only
# absorb decision flips from float-rounding changes. Absolute bounds are in
# the metric's own unit.
QUALITY = [
    {"name": "served_throughput_inf_s", "better": "higher", "bound": 0.02,
     "absolute": False},
    {"name": "throughput_gain_vs_gpu", "better": "higher", "bound": 0.02,
     "absolute": False},
    {"name": "slo_violation_rate", "better": "lower", "bound": 0.01,
     "absolute": True},
    {"name": "rejection_rate", "better": "lower", "bound": 0.01,
     "absolute": True},
    {"name": "error_rate", "better": "lower", "bound": 0.0, "absolute": True},
    {"name": "val_loss", "better": "lower", "bound": 0.05, "absolute": False},
]


def catalog() -> list[dict]:
    """BENCHMARK.json's end-to-end metrics (timings, relative bounds), then
    the quality metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    timings = [dict(m, absolute=False, deterministic=False)
               for m in bench["end_to_end"]]
    return timings + [dict(q, deterministic=True) for q in QUALITY]


def parse_run(path: Path) -> dict:
    """Returns {"result": <last line>, "metrics": {name: value}}."""
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith("e2e-metrics "):
            full = json.loads(line[len("e2e-metrics "):])
            metrics.update({k: v["value"] for k, v in full["metrics"].items()})
    return {"result": result, "metrics": metrics}


def load_dir(d: Path, traced: bool) -> dict:
    """{workload: {seed: run}} for the untraced (or traced) runs in d."""
    runs: dict = {}
    for path in sorted(d.glob("*.out")):
        parts = path.name.split(".")
        is_trace = len(parts) == 4 and parts[2] == "trace"
        if is_trace != traced or len(parts) not in (3, 4):
            continue
        runs.setdefault(parts[0], {})[int(parts[1])] = parse_run(path)
    return runs


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "spread": spread, "n": len(values), "values": values}


def worsening(metric: dict, p: float, c: float) -> float:
    """How much worse c is than p, in the bound's terms (negative = better)."""
    worse = (c - p) if metric["better"] == "lower" else (p - c)
    if metric["absolute"]:
        return worse
    return worse / abs(p) if p else 0.0


def judge(metric: dict, parent: dict, change: dict, pairs: list) -> str:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    if metric["deterministic"] and pairs:
        # Same seed, same input: the values carry no run-to-run noise, so
        # they are compared seed by seed and never "unresolved".
        paired = statistics.median(worsening(metric, a, b) for a, b in pairs)
        return "REGRESSION" if paired > bound else "ok"
    p, c = parent["median"], change["median"]
    worse = worsening(metric, p, c)
    spread = max(parent["iqr"], change["iqr"]) if metric["absolute"] else \
        max(parent["spread"], change["spread"])
    if metric["name"] == "setup_s":
        # Set-up takes milliseconds and is already a median of 30 within a
        # run; like the benchmark's acceptance, judge it by its median only.
        spread = 0.0
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(1 for a, b in pairs if better(b, a))
    if (pairs and wins >= 0.9 * len(pairs) and abs(c - p) > parent["iqr"]
            and worse < 0):
        return "gain"
    if worse > bound:
        return "REGRESSION"
    all_better = all(better(b, a) for a in parent["values"]
                     for b in change["values"])
    if spread > bound and not all_better:
        return "unresolved"
    return "ok"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--json", type=Path, help="write the comparison here")
    args = ap.parse_args()
    for d in (args.parent, args.change):
        if not d.is_dir():
            print(f"compare: no such directory: {d}", file=sys.stderr)
            return 2
    try:
        parent = load_dir(args.parent, traced=False)
        change = load_dir(args.change, traced=False)
        traced = load_dir(args.change, traced=True)
    except (OSError, ValueError, KeyError) as err:
        print(f"compare: unreadable run output: {err}", file=sys.stderr)
        return 2
    if not parent or not change:
        print("compare: no untraced runs to compare", file=sys.stderr)
        return 2

    metrics = catalog()
    failing = 0
    report: dict = {"workloads": {}}
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        rows = []
        entry = {}
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name] for r in p_runs.values()
                  if name in r["metrics"]]
            cv = [r["metrics"][name] for r in c_runs.values()
                  if name in r["metrics"]]
            if not pv or not cv:
                continue
            ps, cs = summary(pv), summary(cv)
            pairs = [(p_runs[s]["metrics"][name], c_runs[s]["metrics"][name])
                     for s in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[s]["metrics"]
                     and name in c_runs[s]["metrics"]]
            status = judge(m, ps, cs, pairs)
            failing += status in ("REGRESSION", "unresolved")
            identical = (len(pairs) > 0 and all(a == b for a, b in pairs))
            rows.append((name, ps["median"], cs["median"], ps["spread"],
                         cs["spread"], m["bound"], status, identical))
            entry[name] = {"parent": ps, "change": cs, "bound": m["bound"],
                           "absolute": m["absolute"], "status": status,
                           "identical_per_seed": identical}
        report["workloads"][workload] = {"end_to_end": entry}
        if workload in traced:
            report["workloads"][workload]["traced"] = {
                str(seed): run["metrics"]
                for seed, run in sorted(traced[workload].items())}
        correct = all(r["result"]["correct"]
                      for r in list(p_runs.values()) + list(c_runs.values()))
        print(f"== {workload}: {len(p_runs)} parent / {len(c_runs)} change "
              f"runs{'' if correct else ' (SOME RUNS INCORRECT)'}")
        failing += 0 if correct else 1
        print(f"  {'metric':26} {'parent':>12} {'change':>12} "
              f"{'spread p/c':>13} {'bound':>6}  status")
        for name, pm, cm, psp, csp, bound, status, same in rows:
            tag = " (identical per seed)" if same else ""
            print(f"  {name:26} {pm:12.5g} {cm:12.5g} {psp:6.3f}/{csp:<6.3f} "
                  f"{bound:6.3g}  {status}{tag}")

    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    print("compare: " + ("FAIL" if failing else "OK"))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
