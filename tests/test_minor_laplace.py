"""The integer Laplace behind `matrices.maximal_minors` over GF(p) and Q.

Over GF(p) the minors run on plain residues, each reduced once; over Q on
each row's integer numerators over its own denominator, with one Fraction
per minor.  Both are held to the path any other field takes, through the
field's own add, mul and neg, and the rational minors also to sympy's
determinant of each column choice.  The cases hold zero rows,
rank-deficient matrices, entries equal to p - 1, and over Q mixed
denominators given with either sign.  Mutants of the kernel (a residue left
unreduced, a lost or shifted Laplace sign, a skipped nonzero term, a row
denominator not divided out) must each make some case differ.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from gsf import matrices
from gsf.field import field_create
from test_prime_kernel import FieldMethods

PRIMES = ["gf(2)", "gf(11)", "gf(1000003)", "gf(2305843009213693951)"]


def deficient(rng, rows, cols, entry, mul):
    """A rows x cols product through an inner size below rows: every
    maximal minor vanishes."""
    inner = rng.randint(1, rows - 1)
    return mul([[entry() for _ in range(inner)] for _ in range(rows)],
               [[entry() for _ in range(cols)] for _ in range(inner)])


def wide_matrices(rng, entry, uniform, mul, count):
    """Random rows x cols matrices with rows <= cols: of entry() draws, of
    uniform() draws as the sampler makes them, with a zero row, or
    rank-deficient; then one 3 x 2 matrix, which has no maximal minor."""
    for _ in range(count):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 7)
        shape = rng.choice(["dense", "uniform", "zero row", "deficient"])
        if shape == "deficient" and rows > 1:
            yield deficient(rng, rows, cols, entry, mul)
            continue
        draw = uniform if shape == "uniform" else entry
        m = [[draw() for _ in range(cols)] for _ in range(rows)]
        if shape == "zero row":
            m[rng.randrange(rows)] = [entry() * 0 for _ in range(cols)]
        yield m
    yield [[entry() for _ in range(2)] for _ in range(3)]


def prime_cases(descriptor, count=30):
    field = field_create(descriptor)
    rng = random.Random("minors:" + descriptor)
    generic = FieldMethods(field)

    def entry():
        return rng.choice([0, 1, field.p - 1, field.random(rng),
                           field.random(rng)])

    for m in wide_matrices(rng, entry, functools.partial(field.random, rng),
                           functools.partial(matrices.mat_mul, generic),
                           count):
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

    for m in wide_matrices(rng, entry, functools.partial(field.random, rng),
                           functools.partial(matrices.mat_mul,
                                             FieldMethods(field)), count):
        yield field, m


def kernel_differs(cases):
    """For each case: do the kernel's minors, in their order, differ from
    the field-method path's?"""
    return [list(matrices.maximal_minors(field, m).items())
            != list(matrices.maximal_minors(FieldMethods(field), m).items())
            for field, m in cases]


def sympy_differs(cases):
    out = []
    for field, m in cases:
        minors = matrices.maximal_minors(field, m)
        sym = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                             for v in row] for row in m])
        want = {cols: Fraction(int(d.p), int(d.q)) for cols, d in
                ((cols, sym[:, list(cols)].det()) for cols in
                 itertools.combinations(range(len(m[0])), len(m)))}
        out.append(minors != want)
    return out


def prime_differs(descriptor):
    return kernel_differs(prime_cases(descriptor))


def rational_differs():
    return kernel_differs(rational_cases())


def rational_sympy_differs():
    return sympy_differs(rational_cases(count=12))


@pytest.mark.parametrize("descriptor", PRIMES)
def test_prime_minors_equal_the_field_method_path(descriptor):
    assert not any(prime_differs(descriptor))


def test_rational_minors_equal_the_field_method_path():
    assert not any(rational_differs())


def test_rational_minors_equal_sympy_determinants():
    assert not any(rational_sympy_differs())


def test_minors_come_in_lexicographic_column_order():
    # pluecker_table pairs the values with its keys in this order
    for descriptor in ["q", "gf(11)"]:
        field = field_create(descriptor)
        rng = random.Random(descriptor)
        m = [[field.random(rng) for _ in range(7)] for _ in range(3)]
        assert list(matrices.maximal_minors(field, m)) \
            == list(itertools.combinations(range(7), 3))


def test_the_cases_reach_every_shape():
    for descriptor in PRIMES:
        cases = list(prime_cases(descriptor))
        p = cases[0][0].p
        assert any(p - 1 in row for _, m in cases for row in m)
        assert any(not any(row) for _, m in cases for row in m)
        minors = [matrices.maximal_minors(f, m) for f, m in cases]
        assert any(mm and not any(mm.values()) for mm in minors)
        # over GF(2) hardly any random wide matrix has every minor nonzero
        assert descriptor == "gf(2)" \
            or sum(len(mm) > 1 and all(mm.values()) for mm in minors) >= 3
    cases = list(rational_cases())
    dens = {v.denominator for _, m in cases for row in m for v in row}
    assert {1, 4, 7, 12} <= dens
    assert any(len({math.lcm(*(v.denominator for v in row)) for row in m})
               > 2 for _, m in cases)
    assert any(v < 0 for _, m in cases for row in m for v in row)
    minors = [matrices.maximal_minors(f, m) for f, m in cases]
    assert any(mm and not any(mm.values()) for mm in minors)


# Mutants of the kernel.
CLEARED = matrices.cleared


def _laplace_sign(r, t):
    return (r - 1 + t) % 2


def _never_skip(value, t, r):
    return False


def _integer_minors_copy(rows, p=None, odd=_laplace_sign, skip=_never_skip,
                         reduce=True):
    """_integer_minors one term at a time, with the sign, the terms taken
    and the reduction given."""
    ncols = len(rows[0])
    if len(rows) > ncols:
        return []
    mod = p if reduce else None
    prev = [v % mod for v in rows[0]] if mod else list(rows[0])
    for r, row in enumerate(rows[1:], start=2):
        acc = [0] * math.comb(ncols, r)
        for t, (col, drop) in enumerate(matrices._laplace_terms(ncols, r)):
            for i, (c, d) in enumerate(zip(col, drop)):
                if skip(row[c], t, r):
                    continue
                term = row[c] * prev[d]
                acc[i] += -term if odd(r, t) else term
        prev = [v % mod for v in acc] if mod else acc
    return prev


MUTANTS = {
    "unreduced": ("_integer_minors",
                  functools.partial(_integer_minors_copy, reduce=False)),
    "sign lost": ("_integer_minors", functools.partial(
        _integer_minors_copy, odd=lambda r, t: 0)),
    "sign of t only": ("_integer_minors", functools.partial(
        _integer_minors_copy, odd=lambda r, t: t % 2)),
    "unit terms skipped": ("_integer_minors", functools.partial(
        _integer_minors_copy, skip=lambda v, t, r: v == 1)),
    "last term skipped": ("_integer_minors", functools.partial(
        _integer_minors_copy, skip=lambda v, t, r: t == r - 1)),
    "row denominator kept": (
        "cleared", lambda values, den=None: (CLEARED(values, den)[0], 1)),
}

# mutant -> the oracles that must catch it; a sign is invisible over GF(2),
# and Q has no residues and GF(p) no denominators
CATCHES = {
    "unreduced": [functools.partial(prime_differs, d) for d in PRIMES],
    "sign lost": [functools.partial(prime_differs, d) for d in PRIMES[1:]]
    + [rational_differs, rational_sympy_differs],
    "sign of t only": [functools.partial(prime_differs, d)
                       for d in PRIMES[1:]] + [rational_differs,
                                               rational_sympy_differs],
    "unit terms skipped": [functools.partial(prime_differs, d)
                           for d in PRIMES] + [rational_differs,
                                               rational_sympy_differs],
    "last term skipped": [functools.partial(prime_differs, d)
                          for d in PRIMES] + [rational_differs,
                                              rational_sympy_differs],
    "row denominator kept": [rational_differs, rational_sympy_differs],
}


def test_the_copy_is_the_kernel():
    # the mutants are built on this copy; unmutated, it must agree
    for descriptor in PRIMES:
        for field, m in prime_cases(descriptor):
            assert _integer_minors_copy(m, field.p) \
                == matrices._integer_minors(m, field.p)
    for _, m in rational_cases():
        nums = [CLEARED(row)[0] for row in m]
        assert _integer_minors_copy(nums) == matrices._integer_minors(nums)


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_oracle_cases_catch_a_broken_laplace(monkeypatch, mutant):
    name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(matrices, name, replacement)
    for differs in CATCHES[mutant]:
        assert any(differs()), differs
