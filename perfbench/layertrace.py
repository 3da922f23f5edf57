"""Outside-in layer trace for the gsf benchmark.

While a `Tracer` is installed it replaces the public functions of each gsf
layer with timing wrappers.  A function is patched under every name a gsf
module binds it to (`gsf.verify.build_A` as well as `gsf.solutions.build_A`),
because `from ... import` copies the binding into the caller's namespace.
Methods are patched on their classes.  `uninstall` puts every original back.

Three kinds of wrapper:

* span: a record (id, parent id, name, start, end) kept in memory and
  written out by `write_spans`; also folded into per-name totals.
* hot span: only folded into per-name totals (calls, total, self time).
  `PlueckerTable.signed` runs millions of times per point at n = 6, so one
  record per call would not fit in memory.
* count: a call counter, used for the field operations and for multivector
  construction.

Self time is a span's duration minus the time its direct child spans cover.
Calls are sequential on one thread, so children never overlap.
"""

import contextlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

from gsf import (cli, combinatorics, exterior, field, grassmann, matrices,
                 solutions, verify)

FIELD_CLASSES = (field.RationalField, field.PrimeField, field.ExtensionField)
FIELD_OPS = ("add", "sub", "mul", "neg", "inv")

# span name -> the function it wraps
SPANS = {
    "matrices.maximal_minors": matrices.maximal_minors,
    "matrices.rank": matrices.rank,
    "matrices.mat_mul": matrices.mat_mul,
    "grassmann.load_point": grassmann.load_point,
    "grassmann.phi": grassmann.phi,
    "grassmann.psi": grassmann.psi,
    "exterior.contract": exterior.contract,
    "exterior.wedge": exterior.wedge,
    "exterior.span_rank": exterior.span_rank,
    "solutions.build_A": solutions.build_A,
    "solutions.build_B": solutions.build_B,
    "solutions.build_R": solutions.build_R,
    "solutions.build_Z": solutions.build_Z,
    "solutions.gon_slot": solutions.gon_slot,
    "solutions.gon_inverse_slot": solutions.gon_inverse_slot,
    "solutions.simplex_slot": solutions.simplex_slot,
    "solutions.reduced_slot": solutions.reduced_slot,
    "solutions.reduce_matrix": solutions.reduce_matrix,
    "combinatorics.gon_positions": combinatorics.gon_positions,
    "combinatorics.simplex_positions": combinatorics.simplex_positions,
    "verify.side_product": verify.side_product,
    "verify.assumption": grassmann.assumption_check,
    "verify.plucker": grassmann.verify_plucker_relations,
    "verify.gon": verify.verify_gon,
    "verify.simplex": verify.verify_simplex,
    "verify.colors": verify.verify_colors,
    "verify.green": verify.green_spectrum,
    "verify.intertwining": verify.verify_intertwining,
    "verify.ranks": verify.verify_ranks,
    "verify.reduction": verify.verify_reduction,
    "cli.main": cli.main,
}

CHECK_SPANS = ("assumption", "plucker", "gon", "simplex", "colors", "green",
               "intertwining", "ranks", "reduction")


def _gsf_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gsf" or name.startswith("gsf."))]


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.counts = Counter()
        # name -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans = []
        self.enabled = True
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, keep):
        stack, stats, spans, ids = self._stack, self.stats, self.spans, self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                entry = stats[name]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if keep:
                    spans.append((frame[1], parent, name, start, end))
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _sampler(self, fn):
        """random_point, counting accepted points and sampled matrices.

        A sampled matrix is (n+1)(2n+1) draws from `field.random`, so the
        draw count gives the number of matrices tried."""
        counts = self.counts

        def wrapper(n, *args, **kwargs):
            before = counts["field.random"]
            point = fn(n, *args, **kwargs)
            if self.enabled:
                counts["grassmann.sample.tries"] += (
                    counts["field.random"] - before) // ((n + 1) * (2 * n + 1))
                counts["grassmann.sample.accepted"] += 1
            return point
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, fn, wrapper):
        for module in _gsf_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def install(self):
        for cls in FIELD_CLASSES:
            for op in FIELD_OPS + ("random",):
                self._set(cls, op, self._counter("field." + op,
                                                 cls.__dict__[op]))
        self._set(exterior.Multivector, "__init__",
                  self._counter("exterior.multivector",
                                exterior.Multivector.__init__))
        self._set(grassmann.PlueckerTable, "signed",
                  self._span("grassmann.signed",
                             grassmann.PlueckerTable.signed, keep=False))
        for name, fn in SPANS.items():
            self._patch_function(fn, self._span(name, fn, keep=True))
        sample = grassmann.random_point
        self._patch_function(sample, self._span(
            "grassmann.sample", self._sampler(sample), keep=True))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def paused(self):
        """Work inside this block is not recorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def calls(self, *names):
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total_s(self, *names):
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_s(self, *names):
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def write_spans(self, path):
        """Write every kept span, one JSON array per line, plus the totals."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "name",
                                             "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"totals": {k: v for k, v in
                                            sorted(self.stats.items())},
                                 "counts": dict(sorted(self.counts.items()))})
                     + "\n")


def layer_metrics(tracer, points, emit_bytes):
    """Per-layer metrics, counts and times per point, by metric name."""
    c, per = tracer.counts, 1.0 / points
    field_ops = sum(c["field." + op] for op in FIELD_OPS)
    tries = c["grassmann.sample.tries"]
    build = ("solutions.build_A", "solutions.build_B", "solutions.build_R",
             "solutions.build_Z", "solutions.gon_slot",
             "solutions.gon_inverse_slot", "solutions.simplex_slot",
             "solutions.reduced_slot")
    positions = ("combinatorics.gon_positions",
                 "combinatorics.simplex_positions")
    out = {
        "field.add": c["field.add"] * per,
        "field.mul": c["field.mul"] * per,
        "field.inv": c["field.inv"] * per,
        "field.ops": field_ops * per,
        "matrices.maximal_minors.calls":
            tracer.calls("matrices.maximal_minors") * per,
        "matrices.maximal_minors.self_s":
            tracer.self_s("matrices.maximal_minors") * per,
        "grassmann.sample.tries": tries * per,
        "grassmann.sample.accept_ratio":
            c["grassmann.sample.accepted"] / tries if tries else 0.0,
        "grassmann.signed.calls": tracer.calls("grassmann.signed") * per,
        "grassmann.signed.self_s": tracer.self_s("grassmann.signed") * per,
        "grassmann.plucker.self_s": tracer.self_s("verify.plucker") * per,
        "grassmann.phi_psi.calls":
            tracer.calls("grassmann.phi", "grassmann.psi") * per,
        "grassmann.phi_psi.self_s":
            tracer.self_s("grassmann.phi", "grassmann.psi") * per,
        "exterior.multivector.count": c["exterior.multivector"] * per,
        "exterior.contract.self_s": tracer.self_s("exterior.contract") * per,
        "exterior.wedge.self_s": tracer.self_s("exterior.wedge") * per,
        "exterior.span_rank.self_s": tracer.self_s("exterior.span_rank") * per,
        "matrices.rank.self_s": tracer.self_s("matrices.rank") * per,
    }
    for kind in "ABRZ":
        out["solutions.build_%s.calls" % kind] = \
            tracer.calls("solutions.build_" + kind) * per
    out.update({
        "solutions.build.self_s": tracer.self_s(*build) * per,
        "solutions.reduce_matrix.self_s":
            tracer.self_s("solutions.reduce_matrix") * per,
        "combinatorics.positions.calls": tracer.calls(*positions) * per,
        "combinatorics.positions.self_s": tracer.self_s(*positions) * per,
        "verify.side_product.calls": tracer.calls("verify.side_product") * per,
        "verify.side_product.self_s":
            tracer.self_s("verify.side_product") * per,
        "matrices.mat_mul.self_s": tracer.self_s("matrices.mat_mul") * per,
    })
    for check in CHECK_SPANS:
        out["verify.%s.s" % check] = tracer.total_s("verify." + check) * per
    out.update({
        "grassmann.load_point.self_s":
            tracer.self_s("grassmann.load_point") * per,
        "cli.self_s": tracer.self_s("cli.main") * per,
        "cli.emit_bytes": emit_bytes * per,
    })
    return out
