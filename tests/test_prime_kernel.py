"""The integer kernel over GF(p): `combine`, `rank`, `mat_mul` and
`embedded_product` work on plain residues and reduce once per output entry.

Each is held to the path the helpers take for any other field, through the
field's own add, mul, sub and inv, on zero rows and columns, dense blocks
and entries equal to p - 1.  Mutants of the kernel (an entry left
unreduced, a wrong pivot inverse, a lost term) must each make some case
differ.
"""

import random

import pytest

from gsf import matrices
from gsf.field import field_create

PRIMES = ["gf(2)", "gf(11)", "gf(1000003)"]


class FieldMethods:
    """The field as the matrix helpers see a field that is neither Q nor
    GF(p), such as GF(p^k): every helper then takes its field-method path.
    For maximal_minors that is the one Laplace body given the field's own
    operations, so comparing with it checks integer arithmetic against
    field arithmetic, not the expansion itself."""

    kind = "generic"

    def __init__(self, field):
        self.field = field

    def __getattr__(self, name):
        return getattr(self.field, name)


def entry(field, rng):
    """Zero, one, p - 1 or a uniform residue."""
    return rng.choice([0, 1, field.p - 1, field.random(rng)])


def block(field, rng, rows, cols):
    """A random matrix: all p - 1 now and then, else of random density with
    some rows and columns all zero."""
    if rng.random() < 0.1:
        return [[field.p - 1] * cols for _ in range(rows)]
    density = rng.choice([0.0, 0.3, 0.6, 1.0])
    out = [[entry(field, rng) if rng.random() < density else 0
            for _ in range(cols)] for _ in range(rows)]
    for i in rng.sample(range(rows), rng.randrange(rows)):
        out[i] = [0] * cols
    for j in rng.sample(range(cols), rng.randrange(cols)):
        for row in out:
            row[j] = 0
    return out


def product_cases(descriptor, count=40):
    field = field_create(descriptor)
    rng = random.Random("product:" + descriptor)
    for _ in range(count):
        r, k, c = (rng.randint(1, 6) for _ in range(3))
        yield field, block(field, rng, r, k), block(field, rng, k, c)


def embedded_cases(descriptor, count=25):
    """Blocks at scattered 0-based positions of a small identity."""
    field = field_create(descriptor)
    rng = random.Random("embedded:" + descriptor)
    for _ in range(count):
        dim = rng.randint(1, 9)
        blocks = []
        for _ in range(rng.randint(1, 5)):
            m = rng.randint(1, dim)
            blocks.append((block(field, rng, m, m),
                           sorted(rng.sample(range(dim), m))))
        yield field, blocks, dim


def combine_cases(descriptor, count=40):
    field = field_create(descriptor)
    rng = random.Random("combine:" + descriptor)
    for _ in range(count):
        r, c = rng.randint(1, 6), rng.randint(1, 12)
        weights = [entry(field, rng) for _ in range(r)]
        yield field, weights, block(field, rng, r, c)


def rank_cases(descriptor, count=40):
    """Random blocks, and products of a tall and a wide block through an
    inner size below both sides, so that most ranks are deficient."""
    field = field_create(descriptor)
    rng = random.Random("rank:" + descriptor)
    generic = FieldMethods(field)
    for _ in range(count):
        r, c = rng.randint(1, 7), rng.randint(1, 9)
        yield field, block(field, rng, r, c)
        inner = rng.randint(1, min(r, c))
        yield field, matrices.mat_mul(generic, block(field, rng, r, inner),
                                      block(field, rng, inner, c))


def mat_mul_differs(descriptor):
    return [matrices.mat_mul(field, a, b)
            != matrices.mat_mul(FieldMethods(field), a, b)
            for field, a, b in product_cases(descriptor)]


def embedded_product_differs(descriptor):
    return [matrices.embedded_product(field, blocks, dim)
            != matrices.embedded_product(FieldMethods(field), blocks, dim)
            for field, blocks, dim in embedded_cases(descriptor)]


def combine_differs(descriptor):
    return [matrices.combine(field, weights, rows)
            != matrices.combine(FieldMethods(field), weights, rows)
            for field, weights, rows in combine_cases(descriptor)]


def rank_differs(descriptor):
    return [matrices.rank(field, rows)
            != matrices.rank(FieldMethods(field), rows)
            for field, rows in rank_cases(descriptor)]


ORACLES = [mat_mul_differs, embedded_product_differs, combine_differs,
           rank_differs]


@pytest.mark.parametrize("descriptor", PRIMES)
@pytest.mark.parametrize("differs", ORACLES, ids=lambda f: f.__name__)
def test_the_prime_kernel_equals_the_field_method_path(descriptor, differs):
    assert not any(differs(descriptor))


@pytest.mark.parametrize("descriptor", PRIMES)
def test_the_rank_cases_include_deficient_and_full_ranks(descriptor):
    full = [matrices.rank(field, rows) == min(len(rows), len(rows[0]))
            for field, rows in rank_cases(descriptor)]
    assert any(full) and not all(full)


def test_the_cases_reach_p_minus_one_in_every_kernel():
    p = 1000003
    assert any(p - 1 in row for _, a, b in product_cases("gf(1000003)")
               for row in a + b)
    assert any(p - 1 in row for _, blocks, _ in embedded_cases("gf(1000003)")
               for m, _ in blocks for row in m)
    assert any(p - 1 in weights for _, weights, _ in
               combine_cases("gf(1000003)"))
    assert any(p - 1 in row for _, rows in rank_cases("gf(1000003)")
               for row in rows)


# Mutants of the GF(p) kernel.
INTEGER_ROW_PRODUCT = matrices.integer_row_product
COMBINE_PRIME = matrices._combine_prime


def _mat_mul_unreduced(field, a, b):
    cols = matrices.sparse_columns(field, b)
    return [INTEGER_ROW_PRODUCT(row, cols) or [0] * len(cols) for row in a]


def _embedded_product_unreduced(field, blocks, dim):
    rows = matrices.identity(field, dim)
    for m, at in blocks:
        cols = matrices.sparse_columns(field, m)
        for row in rows:
            prod = INTEGER_ROW_PRODUCT([row[k] for k in at], cols)
            if prod is not None:
                for k, v in zip(at, prod):
                    row[k] = v
    return rows


def _combine_unreduced(p, weights, rows):
    return [sum(w * v for w, v in zip(weights, col)) for col in zip(*rows)]


def _drops_the_last_integer_term(nums, cols):
    return INTEGER_ROW_PRODUCT(nums, [col[:-1] for col in cols])


def _combine_drops_the_last_term(p, weights, rows):
    return COMBINE_PRIME(p, weights[:-1], rows[:-1])


def _eliminate(p, m, inverse, stop=None):
    """_rank_prime with the pivot inverse given, and with each row operation
    updating the columns before stop only."""
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        inv = inverse(top[c], p)
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i][:stop] = [(v - f * t) % p
                               for v, t in zip(m[i][:stop], top)]
        r += 1
        if r == nrows:
            break
    return r


def _inverse(v, p):
    return pow(v, -1, p)


def _rank_with_the_pivot_as_its_inverse(p, m):
    return _eliminate(p, m, lambda v, p: v)


def _rank_leaving_the_last_column(p, m):
    return _eliminate(p, m, _inverse, stop=-1)


# mutant -> (the kernel it replaces, the oracles that must catch it, the
# fields it can be caught over: every inverse is right over GF(2))
MUTANTS = {
    _mat_mul_unreduced: ("_mat_mul_prime", [mat_mul_differs], PRIMES),
    _embedded_product_unreduced:
        ("_embedded_product_prime", [embedded_product_differs], PRIMES),
    _combine_unreduced: ("_combine_prime", [combine_differs], PRIMES),
    _drops_the_last_integer_term:
        ("integer_row_product", [mat_mul_differs, embedded_product_differs],
         PRIMES),
    _combine_drops_the_last_term:
        ("_combine_prime", [combine_differs], PRIMES),
    _rank_with_the_pivot_as_its_inverse:
        ("_rank_prime", [rank_differs], PRIMES[1:]),
    _rank_leaving_the_last_column: ("_rank_prime", [rank_differs], PRIMES),
}


def test_the_eliminator_copy_is_the_kernel():
    # the rank mutants are built on this copy; unmutated, it must agree
    for descriptor in PRIMES:
        for field, rows in rank_cases(descriptor):
            copy = [list(r) for r in rows]
            assert _eliminate(field.p, copy, _inverse) \
                == matrices.rank(field, rows)


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda m: m.__name__)
def test_prime_oracle_cases_catch_a_broken_kernel(monkeypatch, mutant):
    kernel, oracles, descriptors = MUTANTS[mutant]
    monkeypatch.setattr(matrices, kernel, mutant)
    for descriptor in descriptors:
        for differs in oracles:
            assert any(differs(descriptor)), (descriptor, differs.__name__)
