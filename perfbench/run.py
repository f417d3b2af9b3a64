#!/usr/bin/env python3
"""Build chimera and the benchmark driver from source, then run one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  Everything the run writes stays under the
root: dune's _build/ and the driver's .perfbench-work/.  The driver's last
line of standard output is the JSON result; its exit code is passed on.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("perfbench: run from the repository root (no dune-project here)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/chimera.exe", "./perfbench/driver.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    driver = os.path.join(root, "_build", "default", "perfbench", "driver.exe")
    # Its own process group, so a timeout also stops the servers it spawned.
    proc = subprocess.Popen([driver] + sys.argv[1:], cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: driver exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the driver left behind
    except ProcessLookupError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
