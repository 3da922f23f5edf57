"""The benchmark's workloads and the correctness gate on each operation.

A workload has `setup()`; `warm_up()`, which runs a few untimed operations
so that first-call costs are paid before timing, and returns their
outcomes; `step(i)`, which runs operation i and returns an `Outcome`; and
`traced_step(i, pause)`, the same operation for the traced run, where
`pause()` is a context in which the trace records nothing, for the
benchmark's own work.  Every input is a pure function of the workload seed
and the operation index, so the plain and the traced passes over the same
indices repeat the same work.
"""

import contextlib
import io
import json
import os
import random
import time

from gsf import cli, field, grassmann, verify


def derive(*parts):
    """A 31-bit seed from the parts; str seeding hashes with SHA-512, so it
    does not depend on PYTHONHASHSEED."""
    return random.Random(":".join(str(p) for p in parts)).getrandbits(31)


class Outcome:
    """What one operation did: its timings, and whether its output passed
    the gate."""

    def __init__(self, verify_s, ok, gen_s=None, emit_bytes=0, detail="",
                 aside_s=0.0):
        self.verify_s = verify_s
        self.ok = ok
        self.gen_s = gen_s
        self.emit_bytes = emit_bytes
        self.detail = detail
        # benchmark work around the operation, left out of its wall time
        self.aside_s = aside_s
        # reference seconds per wall second while the operation ran
        self.factor = 1.0

    def to_reference(self, factor):
        """Scale the timings to reference seconds (see speed.py)."""
        self.factor = factor
        if self.verify_s is not None:
            self.verify_s *= factor
        if self.gen_s is not None:
            self.gen_s *= factor


def reports_pass(reports, checks):
    """Gate for an honest point: every requested check ran, none failed."""
    names = [r["check"] for r in reports]
    if names != list(checks):
        return "ran %s, asked for %s" % (names, list(checks))
    failed = [r["check"] for r in reports if r["status"] == "fail"]
    return "failed: %s" % failed if failed else ""


def reports_catch_corruption(reports, checks):
    """Gate for a point with one minor's sign flipped: all checks ran, the
    assumption still holds, gon or simplex fails, and every failing report
    carries a witness."""
    names = [r["check"] for r in reports]
    if names != list(checks):
        return "ran %s, asked for %s" % (names, list(checks))
    status = {r["check"]: r["status"] for r in reports}
    if status["assumption"] != "pass":
        return "assumption did not pass"
    if "fail" not in (status["gon"], status["simplex"]):
        return "neither gon nor simplex failed"
    bare = [r["check"] for r in reports
            if r["status"] == "fail" and r["witness"] is None]
    return "failing reports without witness: %s" % bare if bare else ""


# shortest stretch of generation that makes one gen sample
GEN_BURST_S = 0.2


class LibraryWorkload:
    """`verify.run_checks` on fixed points made in set-up."""

    name = field_name = None
    n = points = 0
    checks = verify.CHECK_NAMES
    lambdas = None
    depth = 1
    traced_points = 1
    gen_share = 0.1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.field = None
        self.fixed = []

    def setup(self):
        """Build the field and the fixed points."""
        self.field = field.field_create(self.field_name)
        self.fixed = [self.generate(i) for i in range(self.points)]

    def generate(self, i):
        return grassmann.random_point(self.n, self.field,
                                      seed=derive(self.name, self.seed, i))

    def _lambdas(self):
        if self.lambdas is None:
            return None
        return [self.field.from_int(v) for v in self.lambdas]

    def _verify(self, point):
        start = time.perf_counter()
        reports = verify.run_checks(point, checks=list(self.checks),
                                    lambdas=self._lambdas(), depth=self.depth)
        took = time.perf_counter() - start
        problem = reports_pass([r.to_json() for r in reports], self.checks)
        return Outcome(took, not problem, detail=problem)

    def warm_up(self):
        return [self.step(-1)]

    def step(self, i):
        outcome = self._verify(self.fixed[i % self.points])
        # fresh points for about a tenth of the verify time, so that gen
        # samples come from every part of the run and from a warm process.
        # The sample is their mean time per point: a shared VM's speed can
        # flip by up to 2x within a second, and the median of single 10 ms
        # calls then jumps between the two speeds
        burst = max(self.gen_share * outcome.verify_s, GEN_BURST_S)
        start = time.perf_counter()
        made = 0
        while not made or time.perf_counter() - start < burst:
            grassmann.random_point(self.n, self.field,
                                   seed=derive(self.name, self.seed, i, made))
            made += 1
        outcome.aside_s = time.perf_counter() - start
        outcome.gen_s = outcome.aside_s / made
        return outcome

    def traced_step(self, i, pause):
        """Generation and verification of point i, both traced."""
        start = time.perf_counter()
        point = self.generate(i % self.points)
        gen_s = time.perf_counter() - start
        outcome = self._verify(point)
        outcome.gen_s = gen_s
        return outcome


class MinorsN5(LibraryWorkload):
    """All nine checks at n = 5 over a large prime: the minor-level layers
    (signed lookup, plucker, exterior, rank) do about 95% of the work.  At
    n = 6 one verification takes about 15 s on a 2-vCPU VM, too long for a
    steady median over one run."""

    name = "minors-n5"
    field_name = "gf(1000003)"
    n = 5
    points = 8


class EquationsQ(LibraryWorkload):
    """The equation checks only, over Q at n = 5 with three parameters and
    depth 3: solutions, combinatorics and side products on growing
    Fractions; no minor-level check runs."""

    name = "equations-q"
    field_name = "q"
    n = 5
    points = 8
    checks = ("gon", "simplex", "colors", "green", "reduction")
    lambdas = (0, 1, 7)
    depth = 3
    traced_points = 2


BATCH_CONFIGS = (
    (2, "gf(7,2;1,0,1)"), (3, "gf(7,2;1,0,1)"),
    (2, "gf(5,3;1,1,0,1)"), (3, "gf(5,3;1,1,0,1)"),
    (2, "gf(3,2;1,0,1)"), (3, "gf(3,2;1,0,1)"),
    (2, "gf(2,2;1,1,1)"),
)


class BatchExt:
    """`gsf gen --out` then `gsf verify --checks all --lambda 0 --depth 2`
    through `gsf.cli.main` in-process, over small extension fields.

    Odd-characteristic points of every second round get one minor's sign
    flipped through a `pluecker` override; in characteristic 2 negation is
    the identity, so those points are never corrupted.  Only lambda = 0 is
    used: lambda = 1 can hit a singular reduction pivot, a correct "fail"
    that the gate could not tell from a wrong one without an oracle."""

    name = "batch-ext"
    traced_points = 2 * len(BATCH_CONFIGS)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.fields = {}

    def setup(self):
        self.fields = {f: field.field_create(f) for _, f in BATCH_CONFIGS}
        os.makedirs(self.workdir, exist_ok=True)

    def warm_up(self):
        """One round of corrupted points, then one of honest ones."""
        return [self.step(i) for i in range(-2 * len(BATCH_CONFIGS), 0)]

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def _corrupt(self, path, n, fld, rng):
        """Flip the sign of one randomly chosen minor in the point file."""
        with open(path) as fh:
            obj = json.load(fh)
        key = tuple(sorted(rng.sample(range(1, 2 * n + 2), n + 1)))
        value = grassmann.point_from_json(obj).table[key]
        obj["pluecker"] = [{"indices": list(key),
                            "value": fld.fmt(fld.neg(value))}]
        with open(path, "w") as fh:
            json.dump(obj, fh)

    def step(self, i, pause=contextlib.nullcontext):
        n, fname = BATCH_CONFIGS[i % len(BATCH_CONFIGS)]
        fld = self.fields[fname]
        rng = random.Random("%s:%s:%d" % (self.name, self.seed, i))
        corrupt = fld.characteristic != 2 and (i // len(BATCH_CONFIGS)) % 2 == 1
        path = os.path.join(self.workdir, "point.json")

        start = time.perf_counter()
        code, text = self._cli(["gen", "--n", str(n), "--field", fname,
                                "--seed", str(rng.getrandbits(31)),
                                "--out", path])
        gen_s = time.perf_counter() - start
        if code != 0:
            return Outcome(None, False, gen_s, detail="gen exit %d" % code)
        emitted = len(text) + os.path.getsize(path)
        start = time.perf_counter()
        if corrupt:
            with pause():
                self._corrupt(path, n, fld, rng)
        aside_s = time.perf_counter() - start

        start = time.perf_counter()
        code, text = self._cli(["verify", "--point", path, "--checks", "all",
                                "--lambda", "0", "--depth", "2"])
        verify_s = time.perf_counter() - start
        emitted += len(text)
        want = 1 if corrupt else 0
        if code != want:
            return Outcome(verify_s, False, gen_s, emitted,
                           "verify exit %d, expected %d" % (code, want),
                           aside_s)
        gate = reports_catch_corruption if corrupt else reports_pass
        problem = gate(json.loads(text)["reports"], verify.CHECK_NAMES)
        return Outcome(verify_s, not problem, gen_s, emitted, problem, aside_s)

    def traced_step(self, i, pause):
        return self.step(i, pause=pause)


WORKLOADS = {w.name: w for w in (MinorsN5, EquationsQ, BatchExt)}
