"""Small dense exact-matrix helpers, parameterized by a field object.

Matrices are lists or tuples of rows holding raw field values.  Nothing here
mutates its inputs.

Over Q and over GF(p) the products, combinations, ranks and maximal minors
run on plain Python integers: over Q on numerators over a common
denominator, over GF(p) on residues reduced once per output entry.  GF(p^k)
goes through the field's own methods; the maximal minors take one Laplace
body for all three, given the ring's operations.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction


def identity(field, size):
    zero, one = field.zero, field.one
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_eq(a, b):
    return [list(r) for r in a] == [list(r) for r in b]


def is_identity(field, rows):
    return mat_eq(rows, identity(field, len(rows)))


def sparse_columns(field, rows):
    """Each column of the matrix as the list of its nonzero entries, given
    as (row index, value) pairs in ascending row order."""
    zero = field.zero
    return [[(i, v) for i, v in enumerate(col) if v != zero]
            for col in zip(*rows)]


def row_product(field, row, cols):
    """The row vector times the matrix whose sparse_columns are cols, or
    None when the row is all zero.

    Each entry of the row is tested against zero once and only nonzero
    pairs are multiplied, summed in ascending order."""
    zero = field.zero
    live = [v != zero for v in row]
    if not any(live):
        return None
    add, mul = field.add, field.mul
    out = []
    for col in cols:
        acc = None
        for i, v in col:
            if live[i]:
                term = mul(row[i], v)
                acc = term if acc is None else add(acc, term)
        out.append(zero if acc is None else acc)
    return out


def cleared(values, den=None):
    """Rationals as integer numerators over one common denominator, by
    default the lcm of their denominators: (numerators, denominator)."""
    if den is None:
        den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def cleared_columns(rows):
    """A matrix over Q as integers over one common denominator: each
    column's nonzero numerators as (row index, value) pairs in ascending row
    order, and the denominator."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    ints = [cleared(row, den)[0] for row in rows]
    return [[(i, v) for i, v in enumerate(col) if v] for col in zip(*ints)], den


def integer_row_product(nums, cols):
    """The integer row times the matrix whose integer columns are cols (as
    cleared_columns or, over GF(p), sparse_columns gives them), one integer
    dot product per column, or None when the row is all zero."""
    if not any(nums):
        return None
    return [sum(nums[i] * v for i, v in col) for col in cols]


_ZERO = Fraction(0)


def _fractions(nums, den):
    """The row of Fractions nums[j] / den, the one normalisation per entry."""
    return [Fraction(v, den) if v else _ZERO for v in nums]


def mat_mul(field, a, b):
    if field.kind == "rationals":
        return _mat_mul_rational(a, b)
    if field.kind == "prime":
        return _mat_mul_prime(field, a, b)
    cols = sparse_columns(field, b)
    out = []
    for row in a:
        prod = row_product(field, row, cols)
        out.append([field.zero] * len(cols) if prod is None else prod)
    return out


def _mat_mul_rational(a, b):
    """mat_mul over Q: b cleared once, each row of a cleared, and one
    Fraction made per output entry."""
    cols, den_b = cleared_columns(b)
    out = []
    for row in a:
        nums, den = cleared(row)
        prod = integer_row_product(nums, cols)
        out.append([_ZERO] * len(cols) if prod is None
                   else _fractions(prod, den * den_b))
    return out


def _mat_mul_prime(field, a, b):
    """mat_mul over GF(p): one integer dot product per output entry,
    reduced once."""
    p, cols = field.p, sparse_columns(field, b)
    out = []
    for row in a:
        prod = integer_row_product(row, cols)
        out.append([0] * len(cols) if prod is None
                   else [v % p for v in prod])
    return out


def embedded_product(field, blocks, dim):
    """The product of identity matrices of the given dimension, each with a
    block written at its 0-based positions, leftmost factor applied first to
    rows; blocks is a list of (matrix, positions) pairs.

    Only the touched columns of a row change, and a row whose touched
    entries all vanish does not change at all."""
    if field.kind == "rationals":
        return _embedded_product_rational(blocks, dim)
    if field.kind == "prime":
        return _embedded_product_prime(field, blocks, dim)
    out = identity(field, dim)
    for block, at in blocks:
        cols = sparse_columns(field, block)
        for row in out:
            prod = row_product(field, [row[p] for p in at], cols)
            if prod is not None:
                for p, v in zip(at, prod):
                    row[p] = v
    return out


def _embedded_product_prime(field, blocks, dim):
    """embedded_product over GF(p): each touched entry one integer dot
    product, reduced once."""
    p, rows = field.p, identity(field, dim)
    for block, at in blocks:
        cols = sparse_columns(field, block)
        for row in rows:
            prod = integer_row_product([row[k] for k in at], cols)
            if prod is not None:
                for k, v in zip(at, prod):
                    row[k] = v % p
    return rows


def _embedded_product_rational(blocks, dim):
    """embedded_product over Q on integer rows, each over one row
    denominator.  A changed row is multiplied through by the block's
    denominator, untouched columns included, so a row denominator is the
    product of the block denominators that touched the row: its length in
    bits grows by one block denominator's per factor.  Nothing is reduced
    until the end, where each entry becomes a Fraction, one row at a time."""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    dens = [1] * dim
    for block, at in blocks:
        cols, den_b = cleared_columns(block)
        for r, row in enumerate(rows):
            prod = integer_row_product([row[p] for p in at], cols)
            if prod is None:
                continue
            if den_b != 1:
                row = rows[r] = [v * den_b for v in row]
            for p, v in zip(at, prod):
                row[p] = v
            dens[r] *= den_b
    for r, den in enumerate(dens):
        rows[r] = _fractions(rows[r], den)
    return rows


def embed_block(field, block, positions, dim):
    """Identity of the given dimension with block written at the 1-based
    positions, rows and columns alike."""
    out = identity(field, dim)
    for i, pi in enumerate(positions):
        for j, pj in enumerate(positions):
            out[pi - 1][pj - 1] = block[i][j]
    return out


def maximal_minors(field, rows):
    """All maximal minors of a wide matrix, as a list in lexicographic order
    of their column choices.

    One row-at-a-time Laplace expansion, division free, serves every field:
    over GF(p) it runs on residues, each minor reduced once; over Q on each
    row's integer numerators over its own denominator, with one Fraction
    made per minor; over GF(p^k) through the field's own operations.
    """
    if field.kind == "prime":
        p = field.p
        return _laplace(rows, operator.mul, operator.add, operator.sub,
                        operator.neg, lambda values: [v % p for v in values])
    if field.kind == "rationals":
        nums, dens = zip(*map(cleared, rows))
        return _fractions(_laplace(nums, operator.mul, operator.add,
                                   operator.sub, operator.neg, list),
                          math.prod(dens))
    return _laplace(rows, field.mul, field.add, field.sub, field.neg, list)


# the terms depend on the shape only, so repeated draws and loads at one n
# share them; 16 shapes hold every r of one n up to n = 15
@functools.lru_cache(maxsize=16)
def _laplace_terms(ncols, r):
    """The expansion of the r-column minors of the first r rows along row r,
    for every r-subset T of the columns in lexicographic order: one pair per
    position t in T, of the column T[t] and the index of the (r-1)-subset T
    without T[t] in lexicographic order, each a tuple over all T.  The
    term at position t carries the sign (-1)^(r-1+t)."""
    subsets = list(itertools.combinations(range(ncols), r))
    index = {k: i for i, k in
             enumerate(itertools.combinations(range(ncols), r - 1))}
    # combinations(T, r - 1) drops T's last column first and its first last
    drops = list(map(index.__getitem__, itertools.chain.from_iterable(
        map(itertools.combinations, subsets, itertools.repeat(r - 1)))))
    return tuple((col, tuple(drops[r - 1 - t::r]))
                 for t, col in enumerate(zip(*subsets)))


def _laplace(rows, mul, add, sub, neg, reduce):
    """The maximal minors of a matrix over a ring given by its operations,
    in lexicographic column order; reduce maps each row's list of minors,
    the first row's entries included, to the values kept."""
    ncols = len(rows[0])
    if len(rows) > ncols:
        return []
    prev = reduce(rows[0])
    for r, row in enumerate(rows[1:], start=2):
        acc = None
        for t, (col, drop) in enumerate(_laplace_terms(ncols, r)):
            terms = map(mul, map(row.__getitem__, col),
                        map(prev.__getitem__, drop))
            odd = (r - 1 + t) % 2
            if acc is None:
                acc = list(map(neg, terms)) if odd else list(terms)
            else:
                acc = list(map(sub if odd else add, acc, terms))
        prev = reduce(acc)
    return prev


def combine(field, weights, rows):
    """The linear combination sum of weights[i] * rows[i], entry by entry."""
    if field.kind == "prime":
        return _combine_prime(field.p, weights, rows)
    add, mul, zero = field.add, field.mul, field.zero
    out = [zero] * len(rows[0])
    for w, row in zip(weights, rows):
        if w != zero:
            out = [add(o, mul(w, v)) if v != zero else o
                   for o, v in zip(out, row)]
    return out


def _combine_prime(p, weights, rows):
    """combine over GF(p): one integer dot product per entry, reduced once."""
    return [sum(map(operator.mul, weights, col)) % p for col in zip(*rows)]


def rank(field, rows):
    """Exact rank: fraction-free (Bareiss) over the rationals to bound entry
    growth, plain Gaussian elimination over finite fields."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if field.kind == "rationals":
        return _rank_bareiss([cleared(r)[0] for r in rows])
    if field.kind == "prime":
        return _rank_prime(field.p, rows)
    return _rank_gauss(field, rows)


def _rank_bareiss(m):
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def _rank_gauss(field, m):
    zero = field.zero
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        for i in range(r + 1, nrows):
            if m[i][c] != zero:
                f = field.mul(m[i][c], inv)
                for j in range(c, ncols):
                    m[i][j] = field.sub(m[i][j], field.mul(f, m[r][j]))
        r += 1
        if r == nrows:
            break
    return r


def _rank_prime(p, m):
    """Gaussian elimination on residues: each entry of a row operation is
    reduced once, and the pivot inverse is taken by pow."""
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        inv = pow(top[c], -1, p)
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(v - f * t) % p for v, t in zip(m[i], top)]
        r += 1
        if r == nrows:
            break
    return r
