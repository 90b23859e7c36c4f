#!/usr/bin/env python3
"""Build and run the repository benchmark.  From the repository root:

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 45 --trace 0

Builds posl-check and the benchmark program (perfbench/bench.ml) with dune,
then runs it with the same arguments.  The last line of standard
output is the JSON result; build output goes to standard error.  See
perfbench/README.md for the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def pin_to_one_cpu():
    """Pin the benchmark, and the server it starts, to one CPU.  The
    host lends its cores to other tenants; on one CPU every hand-off
    between client and server is a local switch rather than a wake-up
    of an idle CPU, whose delay depends on the host's load."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main():
    if not os.path.isfile(os.path.join("perfbench", "bench.ml")):
        return fail("run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/posl_check.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build did not complete: %s" % e)
    if build.returncode != 0:
        return fail("build failed")
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    posl_check = os.path.join("_build", "default", "bin", "posl_check.exe")
    # Its own process group, so a timeout also stops the server it starts.
    proc = subprocess.Popen(
        [exe, "--posl-check", posl_check] + sys.argv[1:],
        start_new_session=True,
        preexec_fn=pin_to_one_cpu,
    )
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)


if __name__ == "__main__":
    sys.exit(main())
