"""Exact checks of the polygon and simplex equations and of the structure
theorems tying them together.

Every check returns a VerificationReport; nothing here is approximate, a
single wrong entry flips the status to "fail" and is recorded as a witness.
A broken input (say a corrupted minor table that spoils the inverse pair)
also comes back as a fail report rather than an exception.

The equation checks take a point, a table or a solutions.Construction;
run_checks hands one Construction to all of them, so that the operators
and the equation sides they share are built once per call.
"""

import itertools

from . import matrices
from .combinatorics import (complement, color_classes, gon_factor_labels,
                            gon_inverse_factor_labels, simplex_factor_labels)
from .errors import ConstructionError, InputError, ReductionError, StructuralError
from .grassmann import assumption_check, phi_row, verify_plucker_relations
from .report import Stopwatch, VerificationReport
from .solutions import (Construction, OperatorSlot, build_Z, construction,
                        gon_inverse_slot, gon_slot, reduce_matrix,
                        simplex_slot)


class _Mismatch(Exception):
    """Internal: carries the witness of a failed comparison."""

    def __init__(self, witness):
        super().__init__(str(witness))
        self.witness = witness


def _finish(report, watch, body):
    try:
        body()
    except _Mismatch as m:
        report.status = "fail"
        report.witness = m.witness
    except (ConstructionError, StructuralError) as e:
        report.status = "fail"
        report.witness = {"reason": str(e)}
    report.millis = watch.millis()
    return report


def embed(slot, dim):
    """The slot's matrix as a dim x dim matrix acting at its positions."""
    if slot.positions[-1] > dim:
        raise InputError("slot positions exceed the ambient dimension %d" % dim)
    return matrices.embed_block(slot.field, slot.matrix, slot.positions, dim)


def side_product(slots, dim):
    """Product of the embedded slots, leftmost factor applied first to rows
    (see matrices.embedded_product)."""
    slots = list(slots)
    if not slots:
        raise InputError("a side needs at least one factor")
    if any(slot.positions[-1] > dim for slot in slots):
        raise InputError("slot positions exceed the ambient dimension %d" % dim)
    return matrices.embedded_product(
        slots[0].field,
        [(slot.matrix, [p - 1 for p in slot.positions]) for slot in slots],
        dim)


def _require_equal(context, field, lhs, rhs):
    """Fail at the first differing entry; the witness is the context plus
    its 1-based row, column and both values."""
    for i, (ra, rb) in enumerate(zip(lhs, rhs), start=1):
        for j, (u, v) in enumerate(zip(ra, rb), start=1):
            if u != v:
                raise _Mismatch(dict(context, row=i, col=j, lhs=field.fmt(u),
                                     rhs=field.fmt(v)))


def _gon_side(con, kind, labels):
    """Product of the polygon factors A (kind "A") or B (kind "B") at the
    labels, in their order; built once per construction."""
    slot = gon_slot if kind == "A" else gon_inverse_slot
    dim = con.n * (con.n + 1) // 2
    return con.cached(
        ("gon side", kind, tuple(labels)),
        lambda: side_product([slot(con, q) for q in labels], dim))


def _simplex_sides(con):
    """Both sides of the simplex equation; built once per construction."""
    def make():
        n = con.n
        dim = n * (2 * n + 1)
        lhs_q, rhs_q = simplex_factor_labels(2 * n)
        slots = {q: simplex_slot(con, q) for q in lhs_q}
        return (side_product([slots[q] for q in lhs_q], dim),
                side_product([slots[q] for q in rhs_q], dim))
    return con.cached(("simplex sides",), make)


def verify_gon(x):
    """Both polygon equations: ascending odd A factors against descending
    even ones, and ascending even B factors against descending odd ones."""
    watch = Stopwatch()
    con = construction(x)
    n, field = con.n, con.field
    dim = n * (n + 1) // 2
    report = VerificationReport("gon", {"n": n, "dim": dim})

    def body():
        lhs_q, rhs_q = gon_factor_labels(n)
        _require_equal({"part": "direct"}, field, _gon_side(con, "A", lhs_q),
                       _gon_side(con, "A", rhs_q))
        inv_lhs_q, inv_rhs_q = gon_inverse_factor_labels(n)
        _require_equal({"part": "inverse"}, field,
                       _gon_side(con, "B", inv_lhs_q),
                       _gon_side(con, "B", inv_rhs_q))

    return _finish(report, watch, body)


def verify_simplex(x):
    """The simplex equation for the checkerboard matrices."""
    watch = Stopwatch()
    con = construction(x)
    report = VerificationReport(
        "simplex", {"n": con.n, "dim": con.n * (2 * con.n + 1)})

    def body():
        lhs, rhs = _simplex_sides(con)
        _require_equal({"part": "sides"}, con.field, lhs, rhs)

    return _finish(report, watch, body)


def _submatrix(rows, row_positions, col_positions):
    return [[rows[i - 1][j - 1] for j in col_positions] for i in row_positions]


def verify_colors(x):
    """Block structure of the simplex products under the three-coloring.

    Both sides must vanish between the mixed-parity slots and the green ones,
    the mixed block must be off-diagonal with mutually inverse corners, and
    those corners must reproduce the polygon products."""
    watch = Stopwatch()
    con = construction(x)
    n, field = con.n, con.field
    zero = field.zero
    report = VerificationReport("colors", {"n": n})

    def body():
        classes = color_classes(n)
        blue, red, green = classes["blue"], classes["red"], classes["green"]
        lhs, rhs = _simplex_sides(con)
        for part, side in (("lhs", lhs), ("rhs", rhs)):
            for i in blue + red:
                for j in green:
                    if side[i - 1][j - 1] != zero or side[j - 1][i - 1] != zero:
                        raise _Mismatch({"part": part + " mixed-green block",
                                         "row": i, "col": j})
            for group in (blue, red):
                for i in group:
                    for j in group:
                        if side[i - 1][j - 1] != zero:
                            raise _Mismatch({"part": part + " same-color block",
                                             "row": i, "col": j})
        blue_to_red = _submatrix(lhs, blue, red)
        red_to_blue = _submatrix(lhs, red, blue)
        prod = matrices.mat_mul(field, blue_to_red, red_to_blue)
        if not matrices.is_identity(field, prod):
            raise _Mismatch({"part": "mixed corners not inverse"})
        lhs_q, _ = gon_factor_labels(n)
        _require_equal({"part": "blue-to-red corner vs polygon product"},
                       field, blue_to_red, _gon_side(con, "A", lhs_q))
        inv_lhs_q, _ = gon_inverse_factor_labels(n)
        _require_equal(
            {"part": "red-to-blue corner vs inverse polygon product"},
            field, red_to_blue, _gon_side(con, "B", inv_lhs_q))

    return _finish(report, watch, body)


def green_spectrum(x):
    """The green block G of the simplex product squares to the identity, and
    away from characteristic 2 it has rank(G - I) = n(n-1)/2 and
    rank(G + I) = n(n+1)/2."""
    watch = Stopwatch()
    con = construction(x)
    n, field = con.n, con.field
    report = VerificationReport("green", {"n": n})

    def body():
        green = color_classes(n)["green"]
        lhs, _ = _simplex_sides(con)
        g = _submatrix(lhs, green, green)
        if not matrices.is_identity(field, matrices.mat_mul(field, g, g)):
            raise _Mismatch({"part": "green block is not an involution"})
        if field.characteristic == 2:
            report.params["ranks"] = "skipped in characteristic 2"
            return
        size = len(green)
        one, sub, add = field.one, field.sub, field.add
        minus = [[sub(g[i][j], one) if i == j else g[i][j]
                  for j in range(size)] for i in range(size)]
        plus = [[add(g[i][j], one) if i == j else g[i][j]
                 for j in range(size)] for i in range(size)]
        want = {"minus": n * (n - 1) // 2, "plus": n * (n + 1) // 2}
        got = {"minus": matrices.rank(field, minus),
               "plus": matrices.rank(field, plus)}
        report.params["ranks"] = got
        if got != want:
            raise _Mismatch({"expected": want, "actual": got})

    return _finish(report, watch, body)


def _relation(field, family, q, index, weights, rows):
    """Fail unless the weighted sum of the coefficient rows vanishes."""
    zero = field.zero
    if any(v != zero for v in matrices.combine(field, weights, rows)):
        raise _Mismatch({"family": family, "q": q, "index": index})


def verify_intertwining(x):
    """The multivector families transform under A and B exactly as the
    construction demands, in all four combinations.

    With a = the labels other than q, split into odd positions a_1, a_3, ...
    and even positions a_2, a_4, ..., the relations are
    sum_i A_ij phi(a_2i-1) = -phi(a_2j), sum_i B_ij phi(a_2i) = -phi(a_2j-1),
    sum_j A_ij psi(a_2j) = psi(a_2i-1) and sum_j B_ij psi(a_2j-1) = psi(a_2i),
    each phi and psi taken at (., q) and compared as coefficient rows.

    psi(c, q) is read as phi(c, q) of the dual table over the (n-2)-subsets
    without q (grassmann.dual_entries): a sign per column apart, which
    leaves every relation as it is."""
    watch = Stopwatch()
    con = construction(x)
    n, field = con.n, con.field
    report = VerificationReport("intertwining", {"n": n})
    labels = range(1, 2 * n + 2)
    one = field.one
    minus = field.neg(one)

    def body():
        dual, dual_ks = con.dual()
        for q in labels:
            a = complement(n, q)
            a_block = con.A(q)
            b_block = con.B(q)
            ks = [k for k in dual_ks if q not in k]
            phi_odd = [con.phi_row(c, q) for c in a[0::2]]
            phi_even = [con.phi_row(c, q) for c in a[1::2]]
            psi_odd = [phi_row(dual, field, c, q, ks) for c in a[0::2]]
            psi_even = [phi_row(dual, field, c, q, ks) for c in a[1::2]]
            for k in range(n):
                _relation(field, "phi-A", q, k + 1,
                          [row[k] for row in a_block] + [one],
                          phi_odd + [phi_even[k]])
                _relation(field, "phi-B", q, k + 1,
                          [row[k] for row in b_block] + [one],
                          phi_even + [phi_odd[k]])
            for k in range(n):
                _relation(field, "psi-A", q, k + 1, a_block[k] + [minus],
                          psi_even + [psi_odd[k]])
                _relation(field, "psi-B", q, k + 1, b_block[k] + [minus],
                          psi_odd + [psi_even[k]])

    return _finish(report, watch, body)


def verify_ranks(x):
    """Span dimensions of the multivector families, as ranks of their
    coefficient rows.  A family that mixes labels q is indexed by every
    subset of one size, since zero columns leave the rank alone; the psi
    rows are phi rows of the dual table, a sign per column apart."""
    watch = Stopwatch()
    con = construction(x)
    n, field = con.n, con.field
    report = VerificationReport("ranks", {"n": n})

    def body():
        labels = range(1, 2 * n + 2)
        ks_all = list(itertools.combinations(labels, n - 1))
        dual, dual_ks = con.dual()
        cases = [("fixed-%d" % j,
                  [con.phi_row(i, j) for i in labels if i != j], n)
                 for j in labels]
        odds = list(range(1, 2 * n + 2, 2))
        evens = list(range(2, 2 * n + 2, 2))
        cases.append(("odd-even",
                      [phi_row(con.table.entries, field, o, e, ks_all)
                       for o in odds for e in evens if o < e],
                      n * (n + 1) // 2))
        cases.append(("odd-odd",
                      [phi_row(con.table.entries, field, i, j, ks_all)
                       for i, j in itertools.combinations(odds, 2)],
                      n * (n + 1) // 2))
        cases.append(("even-even",
                      [phi_row(dual, field, i, j, dual_ks)
                       for i, j in itertools.combinations(evens, 2)],
                      n * (n - 1) // 2))
        for family, rows, expected in cases:
            actual = matrices.rank(field, rows)
            if actual != expected:
                raise _Mismatch({"family": family, "expected": expected,
                                 "actual": actual})

    return _finish(report, watch, body)


def verify_reduction(x, lambdas=None, depth=1):
    """Iterated reductions: at level k the operators shrink by one and must
    satisfy the simplex equation of size 2n-k, for every given parameter.
    A singular reduction pivot is reported as a failure with its level."""
    watch = Stopwatch()
    con = construction(x)
    n, field = con.n, con.field
    if depth < 1 or depth > 2 * n - 1:
        raise InputError("depth must lie in 1..%d" % (2 * n - 1))
    if lambdas is None:
        lambdas = [field.zero, field.one]
    report = VerificationReport(
        "reduction", {"n": n, "depth": depth,
                      "lambdas": [field.fmt(l) for l in lambdas],
                      "levels": [{"level": k, "size": 2 * n - k,
                                  "dim": (2 * n - k) * (2 * n - k + 1) // 2}
                                 for k in range(1, depth + 1)]})

    def body():
        for lam in lambdas:
            mats = None
            for level in range(1, depth + 1):
                size = 2 * n - level
                labels = range(1, 2 * n + 1) if level == 1 else range(1, size + 2)
                nxt = {}
                for q in labels:
                    try:
                        nxt[q] = (build_Z(con, q, lam) if level == 1
                                  else reduce_matrix(field, mats[q], lam))
                    except ReductionError:
                        raise _Mismatch({"q": q, "level": level,
                                         "lambda": field.fmt(lam),
                                         "reason": "singular reduction pivot"})
                mats = nxt
                dim = size * (size + 1) // 2
                slots = [OperatorSlot(q, "Z", matrices.freeze(mats[q]),
                                      con.simplex_positions(size, q),
                                      field, lam)
                         for q in range(1, size + 2)]
                lhs = side_product(slots, dim)
                rhs = side_product(list(reversed(slots)), dim)
                _require_equal({"level": level, "lambda": field.fmt(lam)},
                               field, lhs, rhs)

    return _finish(report, watch, body)


# Each entry looks its check up by name when called, so a rebinding of the
# module attribute (a tracer's wrapper, say) is honoured.
_CHECKS = {
    "assumption": lambda con, **_: assumption_check(con.table),
    "plucker": lambda con, **_: verify_plucker_relations(con),
    "gon": lambda con, **_: verify_gon(con),
    "simplex": lambda con, **_: verify_simplex(con),
    "colors": lambda con, **_: verify_colors(con),
    "green": lambda con, **_: green_spectrum(con),
    "intertwining": lambda con, **_: verify_intertwining(con),
    "ranks": lambda con, **_: verify_ranks(con),
    "reduction": lambda con, **kw: verify_reduction(con, **kw),
}

CHECK_NAMES = tuple(_CHECKS)

# the kinds of shared value a Construction keeps -> the checks that read them
_SHARED = {
    ("gon side", "simplex sides"): {"gon", "simplex", "colors", "green"},
    ("phi", "phi subsets", "dual"): {"plucker", "intertwining", "ranks"},
}


def run_checks(x, checks=None, lambdas=None, depth=1):
    """Run the named checks (all of them by default) and return the reports.

    The checks share one Construction, made for this call and dropped with
    it, so each operator, position list, phi row and equation side is built
    once; the sides, the phi rows and the dual table are dropped as soon
    as no later check reads them."""
    checks = CHECK_NAMES if checks is None else list(checks)
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise InputError("unknown checks: %s" % ", ".join(unknown))
    con = Construction(x)
    reports = []
    for t, name in enumerate(checks):
        reports.append(_CHECKS[name](con, lambdas=lambdas, depth=depth))
        for kinds, readers in _SHARED.items():
            if not readers.intersection(checks[t + 1:]):
                # no later check reads them; free them for the ones that remain
                con.forget(*kinds)
    return reports
