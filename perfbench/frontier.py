"""n-frontier probe: the largest n <= 8 whose full verification of one point
over gf(1000003) finishes within 60 seconds.

Run from the repository root:

    python3 perfbench/frontier.py --seed 0

Each n runs in a child process of its own, one at a time, and the child is
killed at the limit; the limit covers the child's import and point
generation as well as `run_checks`.  n counts up from 1 and stops at the
first n that misses the limit or fails a check, since the work grows with n.

This is not one of the gated workloads: it moves in integer steps and a
reading costs minutes.  `verify_s.p50` on the minors-n5 workload is its
continuous proxy.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from run import bootstrap

FIELD = "gf(1000003)"
LIMIT_S = 60
MAX_N = 8


def child(n, seed):
    """Generate one point at this n and verify it with every check."""
    bootstrap()
    from gsf import field, grassmann, verify
    from workloads import derive
    point = grassmann.random_point(n, field.field_create(FIELD),
                                   seed=derive("frontier", seed, n))
    start = time.perf_counter()
    reports = verify.run_checks(point)
    took = time.perf_counter() - start
    print(json.dumps({"verify_s": took,
                      "passed": all(r.status == "pass" for r in reports)}))


def probe(seed):
    frontier, verify_s = 0, {}
    for n in range(1, MAX_N + 1):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--seed",
                 str(seed), "--child", str(n)],
                capture_output=True, text=True, timeout=LIMIT_S)
        except subprocess.TimeoutExpired:
            print("n=%d: killed at %d s" % (n, LIMIT_S))
            break
        if proc.returncode != 0:
            print("n=%d: child exited %d\n%s" % (n, proc.returncode,
                                                proc.stderr))
            break
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        verify_s[n] = result["verify_s"]
        print("n=%d: verify %.3f s, %s" % (
            n, result["verify_s"], "pass" if result["passed"] else "FAIL"))
        if not result["passed"]:
            break
        frontier = n
    print(json.dumps({"field": FIELD, "limit_s": LIMIT_S, "seed": seed,
                      "frontier_n": frontier, "verify_s": verify_s}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", type=int, metavar="N",
                        help="verify one point at this n and print the time")
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.seed)
    else:
        probe(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
