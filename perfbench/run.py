#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 10 --trace 0

Builds the benchmark with dune, pins the Montage
environment, runs perfbench/bench.exe once, echoes its report and prints
the result object as the last line.  Exits non-zero when the build fails,
a correctness gate fails, or the run does not finish in time.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench-out")
BUILD_TIMEOUT_S = 850
# Beyond the measured seconds a run sets up 7 times, recovers 5 times and
# checks every key; this allowance covers that on a 2-vCPU host.
RUN_ALLOWANCE_S = 130


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", default="", help="comma-separated VAR=value Montage settings")
    ap.add_argument("--net-read-rate", type=float, default=0.0)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail("not a source checkout (no dune-project / lib): nothing to build")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found")

    env = {k: v for k, v in os.environ.items() if not k.startswith("MONTAGE_")}
    # keep the build inside the checkout: no shared dune cache
    env["DUNE_CACHE"] = "disabled"
    for item in filter(None, a.pin.split(",")):
        k, _, v = item.partition("=")
        env[k] = v

    try:
        b = subprocess.run(
            [dune, "build", "--root", ROOT, "--display", "quiet", "./perfbench/bench.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S, env=env,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if b.returncode != 0:
        sys.stderr.write(b.stdout.decode(errors="replace"))
        fail("build failed")

    os.makedirs(OUT, exist_ok=True)
    result = os.path.join(OUT, "result-%s-%d.json" % (a.workload, a.seed))
    if os.path.exists(result):
        os.remove(result)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [
        exe, "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--out", OUT, "--result", result,
        "--net-read-rate", str(a.net_read_rate),
    ]
    # Collect the run's report and print the result object last.
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, preexec_fn=os.setpgrp)
    try:
        out, _ = p.communicate(timeout=a.seconds + RUN_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        reap_group(p.pid)
        p.communicate()
        fail("run timed out")
    reap_group(p.pid)
    lines = [l for l in out.decode(errors="replace").splitlines() if l.strip()]
    print("\n".join(l for l in lines if not l.startswith("{")), flush=True)
    if not os.path.exists(result):
        fail("run failed (exit %d) without a result" % p.returncode)
    with open(result) as f:
        print(f.read().strip(), flush=True)
    if p.returncode != 0:
        sys.exit(1)


def reap_group(pgid):
    """Kill whatever the run left in its process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
