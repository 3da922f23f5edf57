"""The one Laplace body behind `matrices.maximal_minors`, for every field.

Over GF(p) the minors run on plain residues, each reduced once; over Q on
each row's integer numerators over its own denominator, with one Fraction
per minor; over GF(p^k) through the field's own mul, add, sub and neg.
Every field kind's minors are held to determinants that share no code with
the kernel: over Q sympy's, over GF(p) sympy's integer determinant reduced
mod p, over GF(p^k) a Leibniz expansion through the field's own operations
(at most 4 rows).  GF(p) and Q are also held to the field-method path,
which checks integer arithmetic against field arithmetic.  The cases hold
zero rows, rank-deficient matrices, entries equal to -1, and over Q mixed
denominators given with either sign.  Mutants of the body (a residue left
unreduced, a lost or shifted Laplace sign, a skipped nonzero term, the
field's neg dropped), of its term lists (a drop index shifted, two term
columns swapped) and of the Q clearing (a row denominator not divided out)
must each make some case differ from the independent determinants.
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from gsf import matrices
from gsf.field import field_create
from gsf.grassmann import pluecker_table
from test_prime_kernel import FieldMethods

PRIMES = ["gf(2)", "gf(11)", "gf(1000003)", "gf(2305843009213693951)"]
EXTENSIONS = ["gf(2,2;1,1,1)", "gf(3,2;1,0,1)", "gf(7,2;1,0,1)",
              "gf(5,3;1,1,0,1)"]


def deficient(rng, rows, cols, entry, mul):
    """A rows x cols product through an inner size below rows: every
    maximal minor vanishes."""
    inner = rng.randint(1, rows - 1)
    return mul([[entry() for _ in range(inner)] for _ in range(rows)],
               [[entry() for _ in range(cols)] for _ in range(inner)])


def wide_matrices(rng, field, entry, count):
    """Random rows x cols matrices with rows <= cols: of entry() draws, of
    uniform draws as the sampler makes them, with a zero row, or
    rank-deficient; then one 3 x 2 matrix, which has no maximal minor."""
    mul = functools.partial(matrices.mat_mul, FieldMethods(field))
    for _ in range(count):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 7)
        shape = rng.choice(["dense", "uniform", "zero row", "deficient"])
        if shape == "deficient" and rows > 1:
            yield deficient(rng, rows, cols, entry, mul)
            continue
        draw = functools.partial(field.random, rng) if shape == "uniform" \
            else entry
        m = [[draw() for _ in range(cols)] for _ in range(rows)]
        if shape == "zero row":
            m[rng.randrange(rows)] = [field.zero] * cols
        yield m
    yield [[entry() for _ in range(2)] for _ in range(3)]


def finite_cases(descriptor, count=30):
    """Entries zero, one, -1 or uniform."""
    field = field_create(descriptor)
    rng = random.Random("minors:" + descriptor)
    minus_one = field.neg(field.one)

    def entry():
        return rng.choice([field.zero, field.one, minus_one,
                           field.random(rng), field.random(rng)])

    for m in wide_matrices(rng, field, entry, count):
        yield field, m


def rational_cases(count=30):
    """Entries over denominators 1, 2, 3, 4, 6, 7 and 12, given with either
    sign, so that rows clear to different denominators."""
    field = field_create("q")
    rng = random.Random("minors:q")

    def entry():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9),
                        rng.choice([1, 2, 3, 4, 6, 7, 12]) * rng.choice([1, -1]))

    for m in wide_matrices(rng, field, entry, count):
        yield field, m


def columns(m):
    """Each maximal column choice of m, in lexicographic order."""
    return itertools.combinations(range(len(m[0])), len(m))


def submatrix(m, cols):
    return [[row[c] for c in cols] for row in m]


def sympy_determinants(field, m):
    """The maximal minors by sympy: over Q exactly, over GF(p) as integer
    determinants reduced mod p."""
    if field.kind == "rationals":
        domain, scalar = QQ, lambda v: QQ(v.numerator, v.denominator)
    else:
        domain, scalar = ZZ, ZZ
    out = []
    for cols in columns(m):
        sub = [[scalar(v) for v in row] for row in submatrix(m, cols)]
        d = DomainMatrix(sub, (len(m), len(m)), domain).det()
        out.append(Fraction(int(d.numerator), int(d.denominator))
                   if field.kind == "rationals" else int(d) % field.p)
    return out


def inversions(perm):
    return sum(a > b for a, b in itertools.combinations(perm, 2))


def leibniz_determinants(field, m):
    """The maximal minors as sums over permutations of signed products,
    through the field's own mul, add and neg; at most 4 rows."""
    assert len(m) <= 4
    out = []
    for cols in columns(m):
        sub = submatrix(m, cols)
        acc = field.zero
        for perm in itertools.permutations(range(len(m))):
            term = functools.reduce(field.mul,
                                    (sub[i][j] for i, j in enumerate(perm)))
            if inversions(perm) % 2:
                term = field.neg(term)
            acc = field.add(acc, term)
        out.append(acc)
    return out


@functools.cache
def expected(descriptor):
    """Each case with its independent determinants, made once: no mutant
    of the kernel reaches sympy or the field's own operations."""
    if descriptor == "q":
        return [(f, m, sympy_determinants(f, m)) for f, m in rational_cases()]
    oracle = sympy_determinants if descriptor in PRIMES \
        else leibniz_determinants
    return [(f, m, oracle(f, m)) for f, m in finite_cases(descriptor)]


def determinants_differ(descriptor):
    """For each case: do the kernel's minors differ from the independent
    determinants?"""
    return [matrices.maximal_minors(f, m) != want
            for f, m, want in expected(descriptor)]


def kernel_differs(cases):
    """For each case: do the kernel's minors differ from the field-method
    path's?"""
    return [matrices.maximal_minors(field, m)
            != matrices.maximal_minors(FieldMethods(field), m)
            for field, m in cases]


@pytest.mark.parametrize("descriptor", PRIMES)
def test_prime_minors_equal_the_field_method_path(descriptor):
    assert not any(kernel_differs(finite_cases(descriptor)))


def test_rational_minors_equal_the_field_method_path():
    assert not any(kernel_differs(rational_cases()))


def test_rational_minors_equal_sympy_determinants():
    assert not any(determinants_differ("q"))


@pytest.mark.parametrize("descriptor", PRIMES)
def test_prime_minors_equal_sympy_determinants_mod_p(descriptor):
    assert not any(determinants_differ(descriptor))


@pytest.mark.parametrize("descriptor", EXTENSIONS)
def test_extension_minors_equal_leibniz_determinants(descriptor):
    assert not any(determinants_differ(descriptor))


def test_minors_come_in_lexicographic_column_order():
    # pluecker_table pairs the values with its 1-based keys in this order
    for descriptor in ["q", "gf(11)", "gf(7,2;1,0,1)"]:
        field = field_create(descriptor)
        rng = random.Random(descriptor)
        m = [[field.random(rng) for _ in range(7)] for _ in range(4)]
        minors = matrices.maximal_minors(field, m)
        assert len(minors) == math.comb(7, 4)
        entries = pluecker_table(field, m).entries
        want = sympy_determinants(field, m) if field.kind != "extension" \
            else leibniz_determinants(field, m)
        assert list(entries) == [tuple(c + 1 for c in cols)
                                 for cols in columns(m)]
        assert list(entries.values()) == want


def test_the_cases_reach_every_shape():
    for descriptor in PRIMES + EXTENSIONS:
        cases = expected(descriptor)
        field = cases[0][0]
        minus_one = field.neg(field.one)
        assert any(minus_one in row for _, m, _ in cases for row in m)
        assert any(all(v == field.zero for v in row)
                   for _, m, _ in cases for row in m)
        assert any(want and all(v == field.zero for v in want)
                   for _, _, want in cases)
        # over GF(2) and GF(4) few random wide matrices have every minor
        # nonzero
        assert descriptor in ("gf(2)", "gf(2,2;1,1,1)") \
            or sum(len(want) > 1 and field.zero not in want
                   for _, _, want in cases) >= 3
        assert any(not want for _, _, want in cases)
    cases = expected("q")
    dens = {v.denominator for _, m, _ in cases for row in m for v in row}
    assert {1, 4, 7, 12} <= dens
    assert any(len({math.lcm(*(v.denominator for v in row)) for row in m})
               > 2 for _, m, _ in cases)
    assert any(v < 0 for _, m, _ in cases for row in m for v in row)
    assert any(want and not any(want) for _, _, want in cases)


# Mutants of the kernel.
CLEARED = matrices.cleared
LAPLACE = matrices._laplace
LAPLACE_TERMS = matrices._laplace_terms
ONES = {1, (1, 0), (1, 0, 0)}


def _laplace_sign(r, t):
    return (r - 1 + t) % 2


def _never_skip(value, t, r):
    return False


def _laplace_copy(rows, mul, add, sub, neg, reduce, odd=_laplace_sign,
                  skip=_never_skip):
    """_laplace one term at a time, with the sign and the terms taken
    given."""
    ncols = len(rows[0])
    if len(rows) > ncols:
        return []
    zero = sub(rows[0][0], rows[0][0])
    prev = reduce(rows[0])
    for r, row in enumerate(rows[1:], start=2):
        acc = [zero] * math.comb(ncols, r)
        for t, (col, drop) in enumerate(matrices._laplace_terms(ncols, r)):
            for i, (c, d) in enumerate(zip(col, drop)):
                if skip(row[c], t, r):
                    continue
                term = mul(row[c], prev[d])
                acc[i] = add(acc[i], neg(term) if odd(r, t) else term)
        prev = reduce(acc)
    return prev


def _unreduced(rows, mul, add, sub, neg, reduce):
    return _laplace_copy(rows, mul, add, sub, neg, list)


def _field_neg_dropped(rows, mul, add, sub, neg, reduce):
    return LAPLACE(rows, mul, add, sub,
                   neg if neg is operator.neg else (lambda v: v), reduce)


def _drop_index_shifted(ncols, r):
    """The terms with the middle drop index of the first term moved to the
    next (r-1)-subset."""
    terms = list(LAPLACE_TERMS(ncols, r))
    col, drop = terms[0]
    i = len(drop) // 2
    shifted = (drop[i] + 1) % math.comb(ncols, r - 1)
    terms[0] = (col, drop[:i] + (shifted,) + drop[i + 1:])
    return tuple(terms)


def _term_columns_swapped(ncols, r):
    """The terms with the columns of the first two swapped."""
    (col0, drop0), (col1, drop1), *rest = LAPLACE_TERMS(ncols, r)
    return ((col1, drop0), (col0, drop1), *rest)


MUTANTS = {
    "unreduced": ("_laplace", _unreduced),
    "sign lost": ("_laplace", functools.partial(
        _laplace_copy, odd=lambda r, t: 0)),
    "sign of t only": ("_laplace", functools.partial(
        _laplace_copy, odd=lambda r, t: t % 2)),
    "unit terms skipped": ("_laplace", functools.partial(
        _laplace_copy, skip=lambda v, t, r: v in ONES)),
    "last term skipped": ("_laplace", functools.partial(
        _laplace_copy, skip=lambda v, t, r: t == r - 1)),
    "row denominator kept": (
        "cleared", lambda values, den=None: (CLEARED(values, den)[0], 1)),
    "drop index shifted": ("_laplace_terms", _drop_index_shifted),
    "term columns swapped": ("_laplace_terms", _term_columns_swapped),
    "field neg dropped": ("_laplace", _field_neg_dropped),
}

# mutant -> the fields whose independent determinants must catch it; a sign
# is invisible in characteristic 2, Q has no residues, GF(p) no
# denominators, and only GF(p^k) passes the field's own neg
EVERY = PRIMES + ["q"] + EXTENSIONS
ODD = PRIMES[1:] + ["q"] + EXTENSIONS[1:]
CATCHES = {
    "unreduced": PRIMES,
    "sign lost": ODD,
    "sign of t only": ODD,
    "unit terms skipped": EVERY,
    "last term skipped": EVERY,
    "row denominator kept": ["q"],
    "drop index shifted": EVERY,
    "term columns swapped": EVERY,
    "field neg dropped": EXTENSIONS[1:],
}


def test_the_copy_is_the_kernel():
    # the mutants are built on this copy; unmutated, it must agree
    for descriptor in PRIMES + EXTENSIONS:
        for field, m in finite_cases(descriptor):
            if field.kind == "prime":
                ops = (operator.mul, operator.add, operator.sub,
                       operator.neg,
                       lambda values, p=field.p: [v % p for v in values])
            else:
                ops = (field.mul, field.add, field.sub, field.neg, list)
            assert _laplace_copy(m, *ops) == matrices._laplace(m, *ops)
    ops = (operator.mul, operator.add, operator.sub, operator.neg, list)
    for _, m in rational_cases():
        nums = [CLEARED(row)[0] for row in m]
        assert _laplace_copy(nums, *ops) == matrices._laplace(nums, *ops)


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_oracle_cases_catch_a_broken_laplace(monkeypatch, mutant):
    name, replacement = MUTANTS[mutant]
    for descriptor in EVERY:
        expected(descriptor)  # made before the kernel is broken
    monkeypatch.setattr(matrices, name, replacement)
    for descriptor in CATCHES[mutant]:
        assert any(determinants_differ(descriptor)), descriptor
