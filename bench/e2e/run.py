#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (the command BENCHMARK.json names).

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout. It builds bench_e2e and
omniboost_cli from source into .bench_build/ (CMake, Release), trains the
default estimator campaign into .bench_build/estimator.bin the first time
(about two minutes; never timed), then runs one workload and passes its
output through. The last line of stdout is the run's result object. Traced
runs also leave their spans in .bench_build/traces/<workload>-<seed>.json.

Everything the build and the run write stays under .bench_build/. Exits
non-zero without a result line when the build or the estimator preparation
fails (for example in a directory that holds only the benchmark's files).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import fcntl
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["design", "cold_mix", "warm_churn", "fleet_slo", "daemon_session"]
# The first run of a checkout builds and prepares, and must end within 900 s
# in all; every later run within 180 s. The build and the preparation share
# what the first run's budget leaves after reserving one run's worth, so a
# slow host spends it where it is needed instead of failing one fixed step.
FIRST_RUN_BUDGET_S = 880
RUN_TIMEOUT_S = 170


def log(msg: str) -> None:
    print(f"[bench_e2e] {msg}", file=sys.stderr, flush=True)


LIBC = ctypes.CDLL(None, use_errno=True)
PR_SET_PDEATHSIG = 1


def die_with_parent(parent: int) -> None:
    """Runs in a child between fork and exec: the child gets SIGKILL when
    this script ends, even by a SIGKILL that runs no cleanup here (its own
    group is no longer ours). bench_e2e does the same for the daemon."""
    LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(127)


def run_group(cmd: list[str], env: dict, timeout: float,
              stdout=sys.stderr) -> tuple[int | None, str]:
    """Runs cmd in a process group of its own and returns its exit code
    (None when it could not start or overran its timeout in seconds) and,
    with stdout=subprocess.PIPE, its output. Whatever is left of the group --
    compilers under cmake, the daemon under bench_e2e -- is killed before
    this returns, on every path out."""
    parent = os.getpid()
    try:
        child = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                                 env=env, text=True, start_new_session=True,
                                 preexec_fn=lambda: die_with_parent(parent))
    except OSError as err:
        log(f"{cmd[0]} failed to start: {err}")
        return None, ""
    timeout = max(0.0, timeout)
    try:
        out, _ = child.communicate(timeout=timeout)
        code = child.returncode
    except subprocess.TimeoutExpired:
        log(f"{Path(cmd[0]).name} overran its {timeout:.0f} s")
        out, code = "", None
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    return code, out or ""


def step(cmd: list[str], env: dict, timeout: float) -> bool:
    """Runs a build/prepare step with its output on stderr."""
    return run_group(cmd, env, timeout)[0] == 0


def build(root: Path, out: Path, env: dict, deadline: float) -> Path | None:
    """Configures and builds the benchmark before deadline (a
    time.monotonic() value); returns the binary, or None."""
    started = time.monotonic()
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    binary = out / "bench_e2e"
    # Until a build has succeeded, configure again: a configure step that
    # failed or was cut short leaves a cache but no build system.
    if not binary.exists():
        if not step(["cmake", "-S", str(root / "bench" / "e2e"), "-B",
                     str(out), "-DCMAKE_BUILD_TYPE=Release"], env,
                    deadline - time.monotonic()):
            return None
    built = step(["cmake", "--build", str(out), "-j", str(jobs)], env,
                 deadline - time.monotonic())
    if not built and jobs > 1:
        # A parallel build can lose a compiler to memory pressure on a
        # shared host; one job at a time finishes what is left.
        log("parallel build failed; retrying with one job")
        built = step(["cmake", "--build", str(out), "-j", "1"], env,
                     deadline - time.monotonic())
    if not built:
        return None
    log(f"build ready after {time.monotonic() - started:.0f} s")
    return binary if binary.exists() else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parents[2]
    out = root / ".bench_build"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    (out / "run").mkdir(exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(out / "tmp")  # compiler and runtime temporaries stay here
    estimator = out / "estimator.bin"
    env["OMNIBOOST_ESTIMATOR_CACHE"] = str(estimator)

    # One build and one estimator per checkout, even if runs overlap.
    deadline = time.monotonic() + FIRST_RUN_BUDGET_S - RUN_TIMEOUT_S
    with open(out / "build.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
        except OSError as err:  # a file system without locks: runs serially
            log(f"no build lock ({err}); going on without it")
        binary = build(root, out, env, deadline)
        if binary is None:
            log("build failed")
            return 1
        if not estimator.exists():
            log("training the default estimator campaign (untimed, once)")
            started = time.monotonic()
            if not step([str(binary), "--prepare"], env,
                        deadline - time.monotonic()):
                log("estimator preparation failed")
                return 1
            log(f"estimator ready after {time.monotonic() - started:.0f} s")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(out / "run")]
    if args.trace:
        cmd += ["--trace-file",
                str(out / "traces" / f"{args.workload}-{args.seed}.json")]
    started = time.monotonic()
    code, stdout = run_group(cmd, env, RUN_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    log(f"{args.workload} seed {args.seed}: exit {code} after "
        f"{time.monotonic() - started:.1f} s")
    return code


if __name__ == "__main__":
    # A terminated run unwinds, so run_group still stops what it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
