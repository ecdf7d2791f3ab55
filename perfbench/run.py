#!/usr/bin/env python3
"""Build and run one secview benchmark run.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload read|mixed|table1 --seed N \
        --seconds S --trace 0|1

Builds perfbench/secbench.exe with dune (the first run in a fresh tree
compiles the program; later runs find it up to date), runs it with the
same arguments and prints its result as the last line of standard
output: one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (see BENCHMARK.json).  Exits non-zero,
without printing a result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "secbench.exe")
# a first run builds the program and must end within 900 s; later
# runs find the build up to date and must end within 180 s
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 160


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(cmd, timeout, **kw):
    """Run cmd in its own process group, and afterwards kill whatever of
    the group is left (a server child of a run that died)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    kill_group(proc.pid)
    return proc.returncode, out


def valid(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return False
    if result["attempted"] < 1:
        return False
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return set(result["metrics"]) == wanted and all(
        isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile("dune-project"):
        fail("run from the root of a secview source tree")
    started = time.monotonic()
    code, _ = run(
        dune() + ["build", "--root", ".", "--profile", "release", "./perfbench/secbench.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed")
    print("perfbench: build %.1f s" % (time.monotonic() - started), file=sys.stderr)

    # the served workloads put their Unix sockets here; a relative path
    # keeps them under the socket path length limit wherever the tree is
    os.makedirs(".secbench", exist_ok=True)
    code, out = run(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
    )
    if code != 0:
        fail("secbench exited with %d" % code)
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if not valid(result, args.trace):
        fail("malformed result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
