"""The per-call Construction and the product kernels.

`side_product` and `mat_mul` are held to a plain embedded triple-loop
product on zero-heavy blocks, and over Q also on blocks with mixed and large
denominators.  `run_checks`, which shares one Construction across all
checks, is held to each check called alone, on honest tables and on
corrupted ones, and in any order and subset of the checks that share the
phi rows.
"""

import copy
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gsf import cli, grassmann, matrices, solutions, verify
from gsf.errors import ConstructionError, SamplingError, StructuralError
from gsf.field import field_create
from gsf.grassmann import GrassmannPoint, random_point, save_point
from gsf.solutions import Construction, OperatorSlot

FIELDS = ["q", "gf(11)", "gf(7,2;1,0,1)", "gf(2,2;1,1,1)"]

SINGLE_CHECKS = {
    "plucker": grassmann.verify_plucker_relations,
    "gon": verify.verify_gon,
    "simplex": verify.verify_simplex,
    "colors": verify.verify_colors,
    "green": verify.green_spectrum,
    "intertwining": verify.verify_intertwining,
    "ranks": verify.verify_ranks,
    "reduction": verify.verify_reduction,
}


def plain_product(field, a, b):
    """Every term of every entry, no zero test."""
    return [[field.sum(field.mul(a[i][k], b[k][j]) for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def plain_side(slots, dim):
    """The embedded slots multiplied out in full, left to right."""
    field = slots[0].field
    out = matrices.identity(field, dim)
    for slot in slots:
        out = plain_product(field, out, matrices.embed_block(
            field, slot.matrix, slot.positions, dim))
    return out


def rational(rng):
    """A rational of either sign: a small integer, a small fraction, or one
    whose numerator and denominator pass 64 bits."""
    kind = rng.random()
    if kind < 0.3:
        return Fraction(rng.randint(-9, 9))
    if kind < 0.7:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    return Fraction(rng.randint(-2 ** 90, 2 ** 90), rng.randint(1, 2 ** 80))


def zero_heavy(field, rng, rows, cols, value=None):
    """A random matrix, mostly zero, with some rows and columns all zero;
    now and then all zero or dense.  Entries come from value(rng), by
    default the field's own sampler."""
    value = value or field.random
    density = rng.choice([0.0, 0.2, 0.4, 1.0])
    out = [[value(rng) if rng.random() < density else field.zero
            for _ in range(cols)] for _ in range(rows)]
    for i in rng.sample(range(rows), rng.randrange(rows)):
        out[i] = [field.zero] * cols
    for j in rng.sample(range(cols), rng.randrange(cols)):
        for row in out:
            row[j] = field.zero
    return out


def _samplers(field):
    """The entry samplers of a field's cases: its own, and over Q also
    rationals with mixed and large denominators."""
    return [None, rational] if field.kind == "rationals" else [None]


def product_cases(descriptor, count=40):
    field = field_create(descriptor)
    rng = random.Random(descriptor)
    for value in _samplers(field):
        for _ in range(count):
            r, k, c = (rng.randint(1, 6) for _ in range(3))
            yield (field, zero_heavy(field, rng, r, k, value),
                   zero_heavy(field, rng, k, c, value))


def side_cases(descriptor, count=25):
    """Slots of random sizes at scattered positions, with invertible-looking
    and zero-heavy blocks alike (the product need not be invertible)."""
    field = field_create(descriptor)
    rng = random.Random("side:" + descriptor)
    for value in _samplers(field):
        for _ in range(count):
            dim = rng.randint(1, 9)
            slots = []
            for t in range(rng.randint(1, 5)):
                m = rng.randint(1, dim)
                positions = tuple(sorted(rng.sample(range(1, dim + 1), m)))
                block = matrices.freeze(zero_heavy(field, rng, m, m, value))
                slots.append(OperatorSlot(t + 1, "A", block, positions, field))
            yield slots, dim


@pytest.mark.parametrize("descriptor", FIELDS)
def test_mat_mul_equals_the_plain_product(descriptor):
    for field, a, b in product_cases(descriptor):
        assert matrices.mat_mul(field, a, b) == plain_product(field, a, b)


@pytest.mark.parametrize("descriptor", FIELDS)
def test_side_product_equals_the_plain_embedded_product(descriptor):
    for slots, dim in side_cases(descriptor):
        assert verify.side_product(slots, dim) == plain_side(slots, dim)


def _big(sign, bits):
    """A fraction whose numerator and denominator both pass the given bits."""
    return Fraction(sign * (2 ** bits + 3), 2 ** bits - 1)


def test_rational_edge_cases_equal_the_plain_products():
    field = field_create("q")
    zero = field.zero
    half, third, big = Fraction(1, 2), Fraction(-1, 3), _big(-1, 70)
    mixed = [[half, zero, big], [zero, zero, zero], [third, zero, Fraction(5)]]
    dense = [[big, third], [Fraction(-7, 2 ** 65), half], [Fraction(4), zero]]
    for a, b in [(mixed, dense),
                 ([[zero] * 3] * 2, dense),    # an all-zero left factor
                 (mixed, [[zero] * 2] * 3),    # an all-zero right factor
                 ([[big]], [[_big(1, 90)]])]:
        assert matrices.mat_mul(field, a, b) == plain_product(field, a, b)

    def slot(t, block, positions):
        return OperatorSlot(t, "A", matrices.freeze(block), positions, field)

    block = [[half, big, zero], [zero, zero, zero], [third, Fraction(3), big]]
    for slots, dim in [
            # every row is zero at positions 1, 2 before the second slot
            ([slot(1, [[zero, zero], [zero, zero]], (1, 2)),
              slot(2, [[big, half], [third, zero]], (1, 2))], 3),
            # untouched columns of changed rows must take the denominators
            ([slot(1, block, (1, 3, 4)), slot(2, block, (2, 3, 5)),
              slot(3, [[third, half], [big, zero]], (1, 5))], 5),
            ([slot(1, [[zero]], (2,))], 2)]:
        assert verify.side_product(slots, dim) == plain_side(slots, dim)


def _scalar(field, text):
    """The field element text names: an integer, or an integer over one."""
    num, _, den = text.partition("/")
    value = field.parse(num)
    return field.mul(value, field.inv(field.parse(den))) if den else value


@pytest.mark.parametrize("lam", ["0", "1", "7", "1/3"])
def test_rational_Z_equals_its_elimination_and_its_plain_factored_form(
        rational_points, mod11_points, lam):
    # over Q, and over gf(11) and gf(7,2;1,0,1) as well; R likewise
    ext = field_create("gf(7,2;1,0,1)")
    ext_points = {n: random_point(n, ext, seed=3000 + n) for n in (1, 2, 3)}
    for points in (rational_points, mod11_points, ext_points):
        field = points[1].field
        value = _scalar(field, lam)
        for n, point in points.items():
            dim = 2 * n - 1
            odds = list(range(1, 2 * n, 2))
            for q in range(1, 2 * n + 2):
                assert solutions.factored_r_matrix(point, q) == \
                    solutions.build_R(point, q)
            for q in range(1, 2 * n + 1):
                z = solutions.build_Z(point, q, value)
                assert z == solutions.reduce_matrix(
                    field, solutions.build_R(point, q), value)
                ae = matrices.embed_block(field, solutions.build_A(point, q),
                                          odds, dim)
                be = matrices.embed_block(field, solutions.build_B(point, q),
                                          odds, dim)
                swap = matrices.identity(field, dim)
                for k in range(0, 2 * n - 2, 2):
                    swap[k][k] = swap[k + 1][k + 1] = field.zero
                    swap[k][k + 1] = swap[k + 1][k] = field.one
                scale = matrices.identity(field, dim)
                scale[dim - 1][dim - 1] = value
                factored = ae
                for factor in (swap, scale, be):
                    factored = plain_product(field, factored, factor)
                assert z == factored, (field.descriptor(), n, q)


# Mutants of the kernel that extension fields run (row_product) and of the
# one that Q runs (integer_row_product, and the row denominators of the side
# product).
ROW_PRODUCT = matrices.row_product
INTEGER_ROW_PRODUCT = matrices.integer_row_product


def _skips_rows_led_by_zero(field, row, cols):
    if row[0] == field.zero:
        return None
    return ROW_PRODUCT(field, row, cols)


def _drops_the_last_term(field, row, cols):
    return ROW_PRODUCT(field, row, [col[:-1] for col in cols])


def _skips_integer_rows_led_by_zero(nums, cols):
    if nums[0] == 0:
        return None
    return INTEGER_ROW_PRODUCT(nums, cols)


def _drops_the_last_integer_term(nums, cols):
    return INTEGER_ROW_PRODUCT(nums, [col[:-1] for col in cols])


def _leaves_untouched_columns_unscaled(blocks, dim):
    """The rational side product with a changed row's denominator applied
    to its touched columns only."""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    dens = [1] * dim
    for block, at in blocks:
        cols, den = matrices.cleared_columns(block)
        for r, row in enumerate(rows):
            prod = matrices.integer_row_product([row[p] for p in at], cols)
            if prod is not None:
                for p, v in zip(at, prod):
                    row[p] = v
                dens[r] *= den
    return [[Fraction(v, d) for v in row] for row, d in zip(rows, dens)]


# mutant -> (the kernel it replaces, the fields that run that kernel, whether
# mat_mul runs it too); GF(p) runs the integer kernel of
# tests/test_prime_kernel.py, not row_product
MUTANTS = {
    _skips_rows_led_by_zero: ("row_product", FIELDS[2:], True),
    _drops_the_last_term: ("row_product", FIELDS[2:], True),
    _skips_integer_rows_led_by_zero: ("integer_row_product", ["q"], True),
    _drops_the_last_integer_term: ("integer_row_product", ["q"], True),
    _leaves_untouched_columns_unscaled:
        ("_embedded_product_rational", ["q"], False),
}


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda m: m.__name__)
def test_oracle_cases_catch_a_broken_kernel(monkeypatch, mutant):
    # the oracle tests above are only as strong as their cases: with a
    # wrong zero skip, a lost term or a lost row denominator in the kernel
    # a field runs, some case of that field must differ
    kernel, descriptors, in_mat_mul = MUTANTS[mutant]
    monkeypatch.setattr(matrices, kernel, mutant)
    for descriptor in descriptors:
        if in_mat_mul:
            assert any(
                matrices.mat_mul(field, a, b) != plain_product(field, a, b)
                for field, a, b in product_cases(descriptor))
        assert any(verify.side_product(slots, dim) != plain_side(slots, dim)
                   for slots, dim in side_cases(descriptor))


def sample_point(field, n, seed):
    """A point with every minor nonzero where rejection sampling finds one
    quickly, else any full-rank matrix (small fields, larger n)."""
    try:
        return random_point(n, field, seed=seed, max_tries=200)
    except SamplingError:
        rng = random.Random(seed)
        while True:
            matrix = [[field.random(rng) for _ in range(2 * n + 1)]
                      for _ in range(n + 1)]
            point = GrassmannPoint(field, matrix)
            if len(point.table.vanishing()) < len(point.table.entries):
                return point


def _corrupted(point, key, value):
    return GrassmannPoint(point.field, point.matrix,
                          point.table.with_entry(key, value))


def _breaks_inverse_pair(point):
    """A copy with one minor doubled so that some B block is not the
    inverse of its A block, or None if no single minor does that."""
    field = point.field
    two = field.add(field.one, field.one)
    for key, value in sorted(point.table.entries.items()):
        bad = _corrupted(point, key, field.mul(two, value))
        for q in range(1, 2 * point.n + 2):
            try:
                solutions.build_B(bad, q)
            except StructuralError:
                return bad
            except ConstructionError:
                pass
    return None


def variants(point):
    """The point, then copies with one minor negated, one shifted by one,
    and one whose A.B = I check fails."""
    field, table = point.field, point.table
    key = sorted(table.entries)[len(table.entries) // 2]
    yield "honest", point
    yield "negated", _corrupted(point, key, field.neg(table[key]))
    yield "shifted", _corrupted(point, key, field.add(table[key], field.one))
    broken = _breaks_inverse_pair(point)
    if broken is not None:
        yield "not inverse", broken


def _state(point):
    """The point's attributes by value, with its table by identity, and the
    table's attributes by value."""
    attrs = dict(vars(point), table=id(point.table))
    return copy.deepcopy((attrs, vars(point.table)))


@pytest.mark.parametrize("descriptor", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_construction_matches_each_check_alone(descriptor, n):
    field = field_create(descriptor)
    lambdas = [field.zero, field.one]
    depth = min(2, 2 * n - 1)
    for name, x in variants(sample_point(field, n, seed=7 * n)):
        before = _state(x)
        shared = verify.run_checks(x, lambdas=lambdas, depth=depth)
        assert _state(x) == before, (descriptor, n, name)
        for report in shared:
            check = SINGLE_CHECKS.get(report.check)
            if check is None:
                continue
            kw = ({"lambdas": lambdas, "depth": depth}
                  if report.check == "reduction" else {})
            alone = check(x, **kw)
            assert ((report.status, report.witness, report.params)
                    == (alone.status, alone.witness, alone.params)), \
                (descriptor, n, name, report.check)


PHI_READER_ORDERS = [
    ["ranks", "plucker"], ["intertwining"], ["plucker"], ["ranks"],
    ["intertwining", "plucker", "ranks"], ["ranks", "intertwining"],
    ["plucker", "gon", "intertwining", "assumption", "ranks"],
]


@pytest.mark.parametrize("descriptor", ["gf(11)", "gf(1000003)"])
@pytest.mark.parametrize("n", [2, 3])
def test_the_phi_readers_in_any_order_match_each_check_alone(descriptor, n):
    field = field_create(descriptor)
    failed = set()
    for name, x in variants(sample_point(field, n, seed=5 * n)):
        alone = {check: SINGLE_CHECKS[check](x)
                 for check in ("plucker", "intertwining", "ranks")}
        failed.update(c for c, r in alone.items() if r.status == "fail")
        for checks in PHI_READER_ORDERS:
            for report in verify.run_checks(x, checks=checks):
                if report.check in alone:
                    want = alone[report.check]
                    assert ((report.status, report.witness, report.params)
                            == (want.status, want.witness, want.params)), \
                        (descriptor, n, name, checks, report.check)
    # the corrupted tables fail every one of the three
    assert failed == {"plucker", "intertwining", "ranks"}


def _count_phi_rows(monkeypatch):
    """Count grassmann.phi_row calls by (key size of the entries, c, q,
    subsets), under every module name bound to it, and the dual tables
    built, under the key "dual"."""
    built = Counter()
    fn, dual_fn = grassmann.phi_row, grassmann.dual_entries

    def counting(entries, field, c, q, subsets):
        built[len(next(iter(entries))), c, q, tuple(subsets)] += 1
        return fn(entries, field, c, q, subsets)

    def counting_dual(table):
        built["dual"] += 1
        return dual_fn(table)
    for module in (grassmann, solutions, verify):
        if getattr(module, "phi_row", None) is fn:
            monkeypatch.setattr(module, "phi_row", counting)
        if getattr(module, "dual_entries", None) is dual_fn:
            monkeypatch.setattr(module, "dual_entries", counting_dual)
    return built


@pytest.mark.parametrize("descriptor", ["q", "gf(1000003)"])
def test_each_phi_row_is_built_once_per_call(monkeypatch, descriptor):
    point = sample_point(field_create(descriptor), 3, seed=4)
    n = point.n
    built = _count_phi_rows(monkeypatch)
    verify.run_checks(point)
    assert set(built.values()) == {1}
    labels = range(1, 2 * n + 2)
    pairs = {(c, q) for c in labels for q in labels if c != q}
    table_rows = [key[1:] for key in built if key[0] == n + 1]
    dual_rows = [key[1:] for key in built if key[0] == n]
    without = {(c, q) for c, q, subsets in table_rows
               if len(subsets) == math.comb(2 * n, n - 1)}
    assert without == pairs
    # plus the odd-even and odd-odd families of ranks, over all subsets
    assert len(table_rows) == len(without) + n * (n + 1)
    # the psi rows of intertwining, over the dual's (n-2)-subsets without
    # q, and the even-even family of ranks, over all of them
    dual_without = {(c, q) for c, q, subsets in dual_rows
                    if len(subsets) == math.comb(2 * n, n - 2)}
    assert dual_without == pairs
    assert len(dual_rows) == len(dual_without) + math.comb(n, 2)
    # and one dual table
    assert len(built) == len(table_rows) + len(dual_rows) + 1
    assert built["dual"] == 1
    # nothing outlives the call: a second call builds every row again
    first = dict(built)
    built.clear()
    verify.run_checks(point)
    assert dict(built) == first


def test_no_phi_row_is_kept_once_ranks_has_run(monkeypatch, mod11_points):
    point = mod11_points[3]
    kept = {}
    for check in ("verify_intertwining", "verify_ranks", "verify_reduction"):
        fn = getattr(verify, check)

        def spying(con, *args, _check=check, _fn=fn, **kw):
            kept[_check] = [k for k in con._memo if k[0] in (
                "phi", "phi subsets", "dual")]
            return _fn(con, *args, **kw)
        monkeypatch.setattr(verify, check, spying)
    verify.run_checks(point)
    # plucker's rows are there for intertwining, the dual table too once
    # intertwining has run, and all gone after ranks
    labels = 2 * point.n + 1
    assert len(kept["verify_intertwining"]) == labels * (labels - 1) + labels
    assert ("dual",) in kept["verify_ranks"]
    assert len(kept["verify_ranks"]) == labels * (labels - 1) + labels + 1
    assert kept["verify_reduction"] == []


def test_the_comparison_meets_every_kind_of_failure():
    # the comparison above is only as strong as the failures it meets:
    # every kind of corruption fails some check, and the A.B = I failure
    # reaches a witness
    witnesses = set()
    for descriptor in FIELDS:
        field = field_create(descriptor)
        for n in (1, 2, 3):
            for name, x in variants(sample_point(field, n, seed=7 * n)):
                for r in verify.run_checks(x, depth=min(2, 2 * n - 1)):
                    if r.status == "fail":
                        witnesses.add((name, str(r.witness)))
    names = {name for name, _ in witnesses}
    assert {"negated", "shifted", "not inverse"} <= names
    assert any("not inverse" in w for _, w in witnesses)


class _CountingBuilds:
    """Counts the build_* calls, under every module name bound to them."""

    def __init__(self, monkeypatch):
        self.calls = {}
        for kind in "ABRZ":
            name = "build_" + kind
            fn = getattr(solutions, name)
            wrapper = self._wrap(name, fn)
            for module in (solutions, verify, cli):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, wrapper)

    def _wrap(self, name, fn):
        def wrapper(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    def take(self):
        calls, self.calls = self.calls, {}
        return calls


def test_each_block_is_built_once_per_call(monkeypatch, rational_points):
    point = rational_points[3]
    builds = _CountingBuilds(monkeypatch)
    lambdas = [point.field.zero, point.field.one]
    verify.run_checks(point, lambdas=lambdas, depth=3)
    first = builds.take()
    labels = 2 * point.n + 1
    assert first["build_A"] == first["build_B"] == first["build_R"] == labels
    assert first["build_Z"] == (labels - 1) * len(lambdas)
    # nothing outlives the call: a second call builds everything again
    verify.run_checks(point, lambdas=lambdas, depth=3)
    assert builds.take() == first


def test_a_failed_build_is_kept_as_its_raise(monkeypatch):
    field = field_create("gf(11)")
    table = sample_point(field, 2, seed=3).table
    # the denominator of A at q = 1 is the minor at columns (1, 2, 4)
    con = Construction(table.with_entry((1, 2, 4), field.zero))
    builds = _CountingBuilds(monkeypatch)
    with pytest.raises(ConstructionError) as first:
        con.A(1)
    with pytest.raises(ConstructionError) as again:
        con.B(1)
    assert str(again.value) == str(first.value)
    assert builds.take() == {"build_A": 1, "build_B": 1}


def test_cli_build_all_labels_shares_one_construction(monkeypatch, capsys,
                                                      tmp_path):
    point = random_point(2, field_create("q"), seed=5)
    path = tmp_path / "point.json"
    save_point(str(path), point)
    builds = _CountingBuilds(monkeypatch)
    assert cli.main(["build", "--point", str(path), "--what", "Z",
                     "--lambda", "3"]) == 0
    everything = capsys.readouterr().out
    assert builds.take() == {"build_A": 4, "build_B": 4, "build_R": 4,
                             "build_Z": 4}
    # each entry is what a single-label build prints
    entries = json.loads(everything)["entries"]
    for q in range(1, 5):
        assert cli.main(["build", "--point", str(path), "--what", "Z",
                         "--lambda", "3", "--q", str(q)]) == 0
        one = json.loads(capsys.readouterr().out)
        assert {"matrix": one["matrix"], "positions": one["positions"]} \
            == entries[str(q)]
