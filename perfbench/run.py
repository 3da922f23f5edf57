"""gsf benchmark: one closed-loop client that drives the gsf library and
`gsf.cli.main` in this process, with no threads.

Run from the repository root:

    python3 perfbench/run.py --workload minors-n5 --seed 1 --seconds 30 --trace 0

Workloads: minors-n5, equations-q, batch-ext (see workloads.py and
README.md).  With `--trace 0` the run repeats operations for `--seconds`
seconds and prints the end-to-end metrics.  With `--trace 1` it runs a fixed
number of points per workload, once plain and once under the layer trace,
and prints the per-layer metrics; the fixed work makes every count repeat
exactly for a given seed.  Times are in reference seconds: each
operation's wall time is scaled by the speed probes (speed.py) run just
before and after it, so that the machine's own speed drift drops out.  The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

import argparse
import importlib.util
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# set-up runs once here and SETUP_REPEATS - 1 times in child processes
# after the timed loop
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# a speed probe after an operation lasts at least this share of it (and one
# chunk); set-up is probed for SETUP_PROBE_S on either side
SPEED_PROBE_SHARE = 0.05
SETUP_PROBE_S = 0.05

END_TO_END_UNITS = {
    "verify_s.p50": "s", "verify_s.p90": "s", "gen_s.p50": "s",
    "points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


def bootstrap():
    """Put the checkout's own gsf first on the path, or stop."""
    sys.path.insert(0, SRC)
    spec = importlib.util.find_spec("gsf")
    if spec is None or not spec.origin.startswith(SRC + os.sep):
        raise SystemExit("error: no gsf package under %s" % SRC)
    # the CLI lets this variable override --seed; inputs come from --seed only
    os.environ.pop("GSF_SEED", None)


def timed_setup(name, seed, workdir):
    """Import, field construction and the workload's fixed points; the time
    is in reference seconds."""
    before = speed.probe(SETUP_PROBE_S)
    start = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup()
    took = time.perf_counter() - start
    return workload, took * speed.factor(before, speed.probe(SETUP_PROBE_S))


def setup_in_child(name, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def scaled(step, indices):
    """Run `step(i)` for each index, with a speed probe before the first
    and after each, and yield each outcome, scaled to reference seconds by
    the probes on either side of it, with its wall time less `aside_s`."""
    before = speed.probe()
    for i in indices:
        began = time.perf_counter()
        outcome = step(i)
        took = time.perf_counter() - began - outcome.aside_s
        after = speed.probe(SPEED_PROBE_SHARE * took)
        outcome.to_reference(speed.factor(before, after))
        before = after
        yield outcome, took


def timed_loop(workload, seconds):
    """Operations back to back until `seconds` of them have passed (at
    least one).  Returns the outcomes and the loop's time in wall and in
    reference seconds, both without the probes and each `aside_s`."""
    outcomes = []
    wall = ref = 0.0
    for outcome, took in scaled(workload.step, itertools.count()):
        outcomes.append(outcome)
        wall += took
        ref += took * outcome.factor
        if wall >= seconds:
            break
    return outcomes, wall, ref


def traced_passes(workload, spans_path):
    """The workload's fixed points plain, then under the layer trace."""
    import layertrace
    count = workload.traced_points
    plain = [o for o, _ in scaled(workload.step, range(count))]
    tracer = layertrace.Tracer()
    with tracer:
        traced = [o for o, _ in scaled(
            lambda i: workload.traced_step(i, tracer.paused), range(count))]
    tracer.write_spans(spans_path)
    metrics = layertrace.layer_metrics(
        tracer, count, sum(o.emit_bytes for o in traced))
    plain_s = [o.verify_s for o in plain if o.verify_s is not None]
    traced_s = [o.verify_s for o in traced if o.verify_s is not None]
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s)
                                       / statistics.median(plain_s))
    return plain + traced, metrics


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def report(outcomes, metrics, samples):
    failed = sum(not o.ok for o in outcomes)
    for o in outcomes:
        if not o.ok:
            print("gate failure: %s" % o.detail)
    for name, value in metrics.items():
        note = " (%s)" % samples[name] if name in samples else ""
        print("%-34s %14.6g %s%s" % (name, value, unit_of(name), note))
    print("%-34s %14.6g ratio (%d of %d operations)" % (
        "failed_share", failed / len(outcomes), failed, len(outcomes)))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(outcomes), "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("minors-n5", "equations-q", "batch-ext"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print it as JSON, and exit")
    args = parser.parse_args(argv)
    bootstrap()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT)
    try:
        workload, setup_s = timed_setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            spans = os.path.join(OUT, "trace-%s-seed%d.jsonl"
                                 % (args.workload, args.seed))
            warm = workload.warm_up()
            outcomes, metrics = traced_passes(workload, spans)
            report(warm + outcomes, metrics, {})
            return 0

        warm = workload.warm_up()
        outcomes, wall, ref = timed_loop(workload, args.seconds)
        setups = [setup_s] + [setup_in_child(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        reached = [o for o in outcomes if o.verify_s is not None]
        if not reached:
            raise RuntimeError("no operation reached verification")
        verify_s = [o.verify_s for o in reached]
        gen_s = [o.gen_s for o in outcomes if o.gen_s is not None]
        # the same statistics of the raw wall times, for the report lines
        raw_verify = [o.verify_s / o.factor for o in reached]
        raw_gen = [o.gen_s / o.factor for o in outcomes
                   if o.gen_s is not None]
        passed = sum(o.ok for o in outcomes)
        metrics = {
            "verify_s.p50": statistics.median(verify_s),
            "verify_s.p90": p90(verify_s),
            "gen_s.p50": statistics.median(gen_s),
            "points_per_s": passed / ref,
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {
            "verify_s.p50": "%d verify calls; wall %.4g s"
                            % (len(verify_s), statistics.median(raw_verify)),
            "verify_s.p90": "%d verify calls; wall %.4g s"
                            % (len(verify_s), p90(raw_verify)),
            "gen_s.p50": "%d samples; wall %.4g s"
                         % (len(gen_s), statistics.median(raw_gen)),
            "points_per_s": "%d points in %.2f reference s, %.2f wall s"
                            % (passed, ref, wall),
            "setup_s": "median of %d set-ups" % len(setups)}
        report(warm + outcomes, metrics, samples)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
