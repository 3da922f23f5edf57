"""Operator families built from a table of maximal minors.

Every family is indexed by a label q in 1..2n+1.  The n x n blocks A and B
are mutual inverses, the 2n x 2n checkerboard matrix R interleaves them, and
Z is the one-parameter reduction of R that drops the last row and column.

A Construction holds the families of one table for the length of one call
and builds each of them at most once; every builder and slot helper takes a
point, a table or a Construction.
"""

import itertools
from dataclasses import dataclass

from . import matrices
from .combinatorics import complement, gon_positions, simplex_positions
from .errors import ConstructionError, InputError, ReductionError, StructuralError
from .grassmann import as_table, dual_entries, phi_row


@dataclass(frozen=True)
class OperatorSlot:
    """One factor of an equation: a matrix acting at 1-based positions."""
    q: int
    kind: str
    matrix: tuple
    positions: tuple
    field: object
    lam: object = None

    def __post_init__(self):
        if self.kind not in ("A", "B", "R", "Z"):
            raise InputError("unknown operator kind %r" % (self.kind,))
        m = len(self.matrix)
        if m == 0 or any(len(row) != m for row in self.matrix):
            raise InputError("operator matrix must be square")
        if len(self.positions) != m:
            raise InputError("need one position per matrix row")
        if any(p < 1 for p in self.positions) or \
                any(a >= b for a, b in zip(self.positions, self.positions[1:])):
            raise InputError("positions must be strictly increasing and 1-based")
        if self.lam is not None and self.kind != "Z":
            raise InputError("only reduced operators carry a parameter")


def family_numerators(table, q, use_evens):
    """The denominator of a family block, the minor at (picks, q), and its
    n x n signed numerators: at row i and column j (from 1), (-1)^i times
    the minor at (others_j, picks without picks_i, q).  The picks are the
    labels other than q at odd places (A, use_evens False) or even places
    (B), the others the rest.  Never raises: a vanishing denominator is
    returned as it is."""
    a = complement(table.n, q)
    picks, others = list(a[int(use_evens)::2]), a[1 - int(use_evens)::2]
    neg = table.field.neg
    out = []
    for i, pick in enumerate(picks):
        rest = [x for x in picks if x != pick]
        row = [table.signed([o] + rest + [q]) for o in others]
        out.append(row if i % 2 else [neg(v) for v in row])
    return table.signed(picks + [q]), out


def _family_matrix(table, q, use_evens):
    """The block of family_numerators: numerators over the denominator."""
    field = table.field
    den, nums = family_numerators(table, q, use_evens)
    if den == field.zero:
        picks = complement(table.n, q)[int(use_evens)::2]
        raise ConstructionError(
            "minor at columns %r vanishes; the construction needs it"
            % (tuple(sorted(picks + (q,))),))
    inv_den = field.inv(den)
    return [[field.mul(v, inv_den) for v in row] for row in nums]


# the errors a Construction keeps (as type and arguments) in place of a value
_KEPT_ERRORS = (ConstructionError, InputError, ReductionError, StructuralError)


class Construction:
    """The operator families of one minor table, each built on first use.

    It holds A(q) and B(q), with A.B = I checked once per q, R(q), the
    slot positions, the phi(c, q) coefficient rows and the dual table, plus
    whatever a caller files under `cached`.  A build that raises is kept as
    that raise, so asking again fails the same way.  Z is not kept: no
    caller asks for the same (q, lam) twice.  Meant to live for one call:
    nothing is stored on the point or table.  The values handed out are
    shared and must not be mutated.
    """

    def __init__(self, x):
        self.table = as_table(x)
        self.n = self.table.n
        self.field = self.table.field
        self._memo = {}

    def cached(self, key, make):
        """make(), called on the first request for key only.

        A raise is kept as its type and arguments, not as the exception:
        the traceback would tie this object into a reference cycle, and
        every failed build would then hold its frames until the cyclic
        garbage collector runs."""
        try:
            ok, value = self._memo[key]
        except KeyError:
            try:
                value = make()
            except _KEPT_ERRORS as e:
                self._memo[key] = False, (type(e), e.args)
                raise
            self._memo[key] = True, value
            return value
        if not ok:
            kind, args = value
            raise kind(*args)
        return value

    def forget(self, *kinds):
        """Drop the kept values whose key starts with one of the kinds."""
        for key in [k for k in self._memo if k[0] in kinds]:
            del self._memo[key]

    def A(self, q):
        return self.cached(("A", q), lambda: build_A(self, q))

    def B(self, q):
        return self.cached(("B", q), lambda: build_B(self, q))

    def R(self, q):
        return self.cached(("R", q), lambda: build_R(self, q))

    def phi_subsets(self, q):
        """The ascending (n-1)-tuples of labels without q: the columns of
        every phi(c, q) row."""
        return self.cached(("phi subsets", q), lambda: [
            k for k in itertools.combinations(range(1, 2 * self.n + 2),
                                              self.n - 1) if q not in k])

    def phi_row(self, c, q):
        """The coefficients of phi(c, q) at phi_subsets(q), read by the
        plucker, intertwining and ranks checks."""
        return self.cached(("phi", c, q), lambda: phi_row(
            self.table.entries, self.field, c, q, self.phi_subsets(q)))

    def dual(self):
        """The dual_entries of the table and the columns of its phi rows:
        all ascending (n-2)-tuples of labels, none at n = 1."""
        return self.cached(("dual",), lambda: (
            dual_entries(self.table),
            list(itertools.combinations(range(1, 2 * self.n + 2), self.n - 2))
            if self.n > 1 else []))

    def gon_positions(self, q):
        return self.cached(("gon positions", q),
                           lambda: tuple(gon_positions(self.n, q)))

    def simplex_positions(self, size, q):
        return self.cached(("simplex positions", size, q),
                           lambda: tuple(simplex_positions(size, q)))


def construction(x):
    """x itself if it is a Construction, else a new one for x."""
    return x if isinstance(x, Construction) else Construction(x)


def build_A(x, q):
    return _family_matrix(construction(x).table, q, use_evens=False)


def build_B(x, q):
    """Inverse of the A block, built from the complementary minors."""
    con = construction(x)
    out = _family_matrix(con.table, q, use_evens=True)
    prod = matrices.mat_mul(con.field, con.A(q), out)
    if not matrices.is_identity(con.field, prod):
        raise StructuralError("A and B blocks at q=%d are not inverse" % q)
    return out


def build_R(x, q):
    """2n x 2n matrix with A on the odd-row/even-column checkerboard and B on
    the even-row/odd-column one."""
    con = construction(x)
    n = con.n
    a_block = con.A(q)
    b_block = con.B(q)
    out = [[con.field.zero] * (2 * n) for _ in range(2 * n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out[2 * i - 2][2 * j - 1] = a_block[i - 1][j - 1]
            out[2 * i - 1][2 * j - 2] = b_block[i - 1][j - 1]
    return out


def _swaps(field, count):
    """count embedded_product blocks swapping positions 0 and 1, 2 and 3..."""
    swap = ((field.zero, field.one), (field.one, field.zero))
    return [(swap, (k, k + 1)) for k in range(0, 2 * count, 2)]


def factored_r_matrix(x, q):
    """R as a product: A embedded at the odd positions, B at the even ones,
    then the pairwise swap."""
    con = construction(x)
    dim = 2 * con.n
    return matrices.embedded_product(
        con.field, [(con.A(q), range(0, dim, 2)), (con.B(q), range(1, dim, 2))]
        + _swaps(con.field, con.n), dim)


def reduce_matrix(field, rows, lam):
    """Drop the last row and column, folding them back in with weight lam.

    Fails with ReductionError when 1 - lam * S[m][m] vanishes, which is the
    only obstruction.
    """
    m = len(rows)
    if m < 2:
        raise InputError("nothing left to reduce")
    den = field.sub(field.one, field.mul(lam, rows[m - 1][m - 1]))
    if den == field.zero:
        raise ReductionError("reduction pivot 1 - lam*S[m][m] vanishes")
    inv_den = field.inv(den)
    out = []
    for i in range(m - 1):
        row = []
        for j in range(m - 1):
            corr = field.mul(field.mul(lam, rows[i][m - 1]),
                             field.mul(rows[m - 1][j], inv_den))
            row.append(field.add(rows[i][j], corr))
        out.append(row)
    return out


def build_Z(x, q, lam):
    """Level-one reduced operator, of size 2n-1, defined for q in 1..2n.

    Built two ways and compared: as one embedded product of A, the n-1
    pairwise swaps, lam and B, and by eliminating the last row and column
    of R.
    """
    con = construction(x)
    n, field = con.n, con.field
    if not 1 <= q <= 2 * n:
        raise InputError("reduced operators exist for q in 1..%d" % (2 * n))
    dim = 2 * n - 1
    odds = range(0, dim, 2)
    closed = matrices.embedded_product(
        field, [(con.A(q), odds)] + _swaps(field, n - 1)
        + [(((lam,),), (dim - 1,)), (con.B(q), odds)], dim)
    eliminated = reduce_matrix(field, con.R(q), lam)
    if not matrices.mat_eq(closed, eliminated):
        raise StructuralError(
            "factored and eliminated reductions disagree at q=%d" % q)
    return closed


def gon_slot(x, q):
    con = construction(x)
    return OperatorSlot(q, "A", matrices.freeze(con.A(q)),
                        con.gon_positions(q), con.field)


def gon_inverse_slot(x, q):
    con = construction(x)
    return OperatorSlot(q, "B", matrices.freeze(con.B(q)),
                        con.gon_positions(q), con.field)


def simplex_slot(x, q):
    con = construction(x)
    return OperatorSlot(q, "R", matrices.freeze(con.R(q)),
                        con.simplex_positions(2 * con.n, q), con.field)


def reduced_slot(x, q, lam):
    con = construction(x)
    return OperatorSlot(q, "Z", matrices.freeze(build_Z(con, q, lam)),
                        con.simplex_positions(2 * con.n - 1, q), con.field,
                        lam)
