#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload paper|serve --seed N \
        --seconds S --trace 0|1

Builds perfbench/bench.exe from the source tree this script sits in (the
dune build directory stays inside the tree), runs it, and passes its
output through. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Exits non-zero, without
printing a result, when the tree cannot be built or the run fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
# Beyond --seconds a run pays for its set-ups and the oracle checks: about
# 35 s for the paper workload on a 2-vCPU Xeon guest.
RUN_ALLOWANCE_S = 140


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """Run cmd in ROOT, stdout captured, stderr passed through; the child
    is killed and reaped if it outlives timeout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def run_timeout(argv):
    """--seconds plus the set-up allowance; bench.exe rejects a bad value."""
    try:
        seconds = float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 0.0
    return max(seconds, 0.0) + RUN_ALLOWANCE_S


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a source tree" % ROOT)
    code, out = run(["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
                    BUILD_TIMEOUT_S)
    sys.stderr.write(out)
    if code != 0:
        fail("build failed (exit %d)" % code)
    code, out = run([EXE] + sys.argv[1:], run_timeout(sys.argv[1:]))
    lines = out.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if code != 0 or not lines:
        fail("benchmark exited with code %d" % code)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
