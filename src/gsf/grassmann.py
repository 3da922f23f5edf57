"""Points of the Grassmannian of (n+1)-planes in (2n+1)-space, their tables
of maximal minors, and the derived multivector families."""

import importlib.resources
import itertools
import json
import random
from bisect import bisect_left

from . import matrices
from .errors import InputError, SamplingError
from .exterior import Multivector, contract, wedge
from .field import field_from_json, json_integer
from .report import Stopwatch, VerificationReport
from .combinatorics import check_n, complement


def _perm_sign(seq):
    """Sign of the permutation sorting seq, plus the sorted tuple; sign 0 on
    repeated entries."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        return 0, ()
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return (-1 if inversions & 1 else 1), tuple(sorted(seq))


class PlueckerTable:
    """Maximal minors of an (n+1) x (2n+1) matrix, keyed by ascending
    (n+1)-tuples of 1-based column indices."""

    def __init__(self, field, n, entries):
        check_n(n)
        want = set(itertools.combinations(range(1, 2 * n + 2), n + 1))
        entries = {tuple(k): v for k, v in entries.items()}
        if set(entries) != want:
            raise InputError("minor table must cover every column choice")
        self.field = field
        self.n = n
        self.entries = entries

    def __getitem__(self, indices):
        return self.entries[tuple(indices)]

    def signed(self, indices):
        """Minor at the columns in the given order: the ascending entry times
        the permutation sign, zero on a repeated column."""
        sign, key = _perm_sign(indices)
        if sign == 0:
            return self.field.zero
        if len(key) != self.n + 1:
            raise InputError("expected %d column indices" % (self.n + 1))
        value = self.entries[key]
        return self.field.neg(value) if sign < 0 else value

    def vanishing(self):
        zero = self.field.zero
        return sorted(k for k, v in self.entries.items() if v == zero)

    def all_nonzero(self):
        return not self.vanishing()

    def multivector(self):
        """The table as a grade-(n+1) multivector in dimension 2n+1."""
        return Multivector(self.field, 2 * self.n + 1, self.n + 1,
                           dict(self.entries))

    def with_entry(self, indices, value):
        """Copy of the table with one ascending-key entry replaced."""
        key = tuple(indices)
        if key not in self.entries:
            raise InputError("no minor at columns %r" % (key,))
        entries = dict(self.entries)
        entries[key] = value
        return PlueckerTable(self.field, self.n, entries)


def pluecker_table(field, rows):
    n = len(rows) - 1
    check_n(n)
    if any(len(r) != 2 * n + 1 for r in rows):
        raise InputError("matrix must be (n+1) x (2n+1)")
    # maximal_minors lists its minors in lexicographic column order
    minors = matrices.maximal_minors(field, rows)
    keys = itertools.combinations(range(1, 2 * n + 2), n + 1)
    return PlueckerTable(field, n, dict(zip(keys, minors)))


class GrassmannPoint:
    """A full-rank (n+1) x (2n+1) matrix over an exact field, carrying its
    minor table.  Passing a table overrides the computed one, which is how
    deliberately corrupted fixtures are built."""

    def __init__(self, field, matrix, table=None):
        matrix = [list(r) for r in matrix]
        n = len(matrix) - 1
        check_n(n)
        if any(len(r) != 2 * n + 1 for r in matrix):
            raise InputError("matrix must be (n+1) x (2n+1)")
        self.field = field
        self.n = n
        self.matrix = matrix
        self.table_overridden = table is not None
        self.table = table if table is not None else pluecker_table(field, matrix)
        if not self.table_overridden:
            zero = field.zero
            if all(v == zero for v in self.table.entries.values()):
                raise InputError("matrix rows are not independent")


def as_table(x):
    if isinstance(x, PlueckerTable):
        return x
    if isinstance(x, GrassmannPoint):
        return x.table
    raise InputError("expected a point or a minor table")


def assumption_check(x):
    """All maximal minors nonzero; the construction needs every one of them."""
    watch = Stopwatch()
    table = as_table(x)
    bad = table.vanishing()
    report = VerificationReport("assumption", {"n": table.n})
    if bad:
        report.status = "fail"
        report.witness = {"vanishing": [list(k) for k in bad]}
    report.millis = watch.millis()
    return report


def random_point(n, field, seed=None, max_tries=10000):
    """Seeded rejection sampling until every maximal minor is nonzero; the
    accepted point keeps the table its test was made on."""
    check_n(n)
    rng = random.Random(seed)
    for _ in range(max_tries):
        matrix = [[field.random(rng) for _ in range(2 * n + 1)]
                  for _ in range(n + 1)]
        try:
            point = GrassmannPoint(field, matrix)
        except InputError:
            continue  # dependent rows: every minor vanishes
        if point.table.all_nonzero():
            return point
    raise SamplingError(
        "no matrix with all minors nonzero after %d tries; the field may be "
        "too small for n=%d" % (max_tries, n))


def phi(x, i, j):
    """Grade-(n-1) multivector: the table contracted with e_i then e_j; its
    coefficients are the signed minors at columns (i, j, rest)."""
    table = as_table(x)
    return contract([j, i], table.multivector())


def psi(x, i, j):
    """Grade-(n+3) multivector e_i ^ e_j ^ w for the table w."""
    table = as_table(x)
    field = table.field
    dim = 2 * table.n + 1
    ei = Multivector.basis(field, dim, (i,))
    ej = Multivector.basis(field, dim, (j,))
    return wedge(ei, wedge(ej, table.multivector()))


def phi_row(entries, field, c, q, subsets):
    """Coefficients of phi(c, q) = i_q i_c w, for the w whose coefficients
    are entries (a minor table's or its dual_entries), at the ascending
    tuples K: the entry at (c, q, K), zero where K meets {c, q}.  The sign
    of sorting (c, q, K) is the parity of #(K < c) + #(K < q) + [c > q]."""
    neg, zero = field.neg, field.zero
    flip = c > q
    out = []
    for k in subsets:
        if c in k or q in k:
            out.append(zero)
            continue
        value = entries[tuple(sorted(k + (c, q)))]
        odd = flip ^ ((bisect_left(k, c) + bisect_left(k, q)) & 1)
        out.append(neg(value) if odd else value)
    return out


def dual_entries(table):
    """The Hodge dual of the table w, keyed by ascending n-tuples S:
    (*w)_S = (-1)^inv(S^c, S) p_{S^c}, where inv(S^c, S) has the parity of
    sum_{s in S} (2n+1-s) - n(n-1)/2.  The coefficient of psi(c, q) =
    e_c ^ e_q ^ w at M is eps(M, M^c), the sign of sorting M then M^c,
    times that of phi_row(dual, field, c, q) at M^c."""
    n, neg = table.n, table.field.neg
    shift = n * (n - 1) // 2
    out = {}
    for key, value in table.entries.items():
        s = tuple(v for v in range(1, 2 * n + 2) if v not in key)
        odd = (sum(2 * n + 1 - v for v in s) - shift) & 1
        out[s] = neg(value) if odd else value
    return out


def verify_plucker_relations(x):
    """Quadratic relations among the minors, one family per label q, column
    j and (n-1)-subset b of the labels.

    For fixed (q, j) the second factor of every term is independent of b:
    the weights are B(q)'s denominator and the signed numerators of its
    column j, so each family is one linear combination of phi rows, and it
    runs where that denominator vanishes.  b containing q leave every term
    zero and are not visited.  Takes a point, a table or a
    solutions.Construction, whose phi rows it reads."""
    # solutions imports this module, so the import waits for the call
    from .solutions import construction, family_numerators
    watch = Stopwatch()
    con = construction(x)
    n, field = con.n, con.field
    zero = field.zero
    report = VerificationReport("plucker", {"n": n})
    for q in range(1, 2 * n + 2):
        a = complement(n, q)
        ks = con.phi_subsets(q)
        rows = [con.phi_row(c, q) for c in a]
        den, nums = family_numerators(con.table, q, use_evens=True)
        for j in range(1, n + 1):
            acc = matrices.combine(field, [den] + [row[j - 1] for row in nums],
                                   [rows[2 * j - 2]] + rows[1::2])
            t = next((t for t, v in enumerate(acc) if v != zero), None)
            if t is not None:
                report.status = "fail"
                report.witness = {"q": q, "j": j, "b": list(ks[t])}
                report.millis = watch.millis()
                return report
    report.millis = watch.millis()
    return report


def point_to_json(point):
    fmt = point.field.fmt
    out = {"field": point.field.to_json(), "n": point.n,
           "matrix": [[fmt(v) for v in row] for row in point.matrix]}
    if point.table_overridden:
        out["pluecker"] = [{"indices": list(k), "value": fmt(v)}
                           for k, v in sorted(point.table.entries.items())]
    return out


def _json_list(value, what):
    """The value if it is a JSON list; text or an object would iterate as
    characters or keys."""
    if not isinstance(value, list):
        raise InputError("%s must be a list" % what)
    return value


def point_from_json(obj):
    try:
        field = field_from_json(obj["field"])
        matrix = [[field.parse(v) for v in _json_list(row, "a matrix row")]
                  for row in _json_list(obj["matrix"], "the matrix")]
    except (KeyError, TypeError) as e:
        raise InputError("malformed point record") from e
    table = None
    if "pluecker" in obj:
        n = len(matrix) - 1
        check_n(n)
        entries = dict(pluecker_table(field, matrix).entries)
        try:
            for rec in _json_list(obj["pluecker"], "pluecker"):
                indices = tuple(json_integer(i, "a minor index") for i in
                                _json_list(rec["indices"], "indices"))
                value = field.parse(rec["value"])
                if indices not in entries:
                    raise InputError("no minor at columns %r" % (indices,))
                entries[indices] = value
        except (KeyError, TypeError) as e:
            raise InputError("malformed pluecker record") from e
        table = PlueckerTable(field, n, entries)
    point = GrassmannPoint(field, matrix, table)
    if "n" in obj and json_integer(obj["n"], "n") != point.n:
        raise InputError("declared n does not match the matrix shape")
    return point


def save_point(path, point):
    with open(path, "w") as fh:
        json.dump(point_to_json(point), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_point(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError("cannot read point file %s: %s" % (path, e)) from e
    return point_from_json(obj)


def gf4_point():
    """The bundled example over the four-element field."""
    text = importlib.resources.files("gsf").joinpath(
        "fixtures/gf4_point.json").read_text()
    return point_from_json(json.loads(text))
