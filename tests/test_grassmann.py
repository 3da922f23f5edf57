import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsf.errors import InputError, SamplingError
from gsf.exterior import contract, wedge
from gsf.field import RationalField, field_create, field_from_json
from gsf.grassmann import (GrassmannPoint, as_table, assumption_check,
                           gf4_point, load_point, phi, pluecker_table,
                           point_from_json, point_to_json, psi, random_point,
                           save_point, verify_plucker_relations)

F = RationalField()


def point_n1():
    return GrassmannPoint(F, [[Fraction(1), Fraction(-2), Fraction(0)],
                              [Fraction(0), Fraction(-3), Fraction(1)]])


def test_minor_table_of_the_small_example():
    table = point_n1().table
    assert table[(1, 2)] == -3
    assert table[(1, 3)] == 1
    assert table[(2, 3)] == -2
    assert table.all_nonzero()


def test_minors_match_an_independent_computation():
    rng = random.Random(31)
    for n in (1, 2, 3):
        matrix = [[Fraction(rng.randint(-9, 9)) for _ in range(2 * n + 1)]
                  for _ in range(n + 1)]
        table = pluecker_table(F, matrix)
        sym = sympy.Matrix([[sympy.Rational(v) for v in row]
                            for row in matrix])
        for cols in itertools.combinations(range(2 * n + 1), n + 1):
            want = sym[:, list(cols)].det()
            assert table[tuple(c + 1 for c in cols)] == Fraction(want)


def test_signed_accessor():
    table = point_n1().table
    assert table.signed((2, 1)) == 3
    assert table.signed((1, 2)) == -3
    assert table.signed((1, 1)) == 0
    assert table.signed((3, 2)) == 2
    with pytest.raises(InputError):
        table.signed((1, 2, 3))


def test_row_operations_leave_minors_alone():
    point = random_point(2, F, seed=5)
    shear = [row[:] for row in point.matrix]
    for j in range(5):
        shear[0][j] += 7 * shear[2][j]
    assert pluecker_table(F, shear).entries == point.table.entries
    scaled = [row[:] for row in point.matrix]
    scaled[1] = [3 * v for v in scaled[1]]
    expect = {k: 3 * v for k, v in point.table.entries.items()}
    assert pluecker_table(F, scaled).entries == expect


def test_random_point_is_seeded_and_clean():
    a = random_point(2, F, seed=9)
    b = random_point(2, F, seed=9)
    c = random_point(2, F, seed=10)
    assert a.matrix == b.matrix
    assert a.matrix != c.matrix
    assert a.table.all_nonzero()
    assert not a.table_overridden


def test_no_binary_point_exists_for_n2():
    """Exhaustively: no 3 x 5 matrix over gf(2) has all ten minors nonzero,
    so sampling must give up."""
    field = field_create("gf(2)")
    found = False
    for bits in range(2 ** 15):
        rows = [[(bits >> (5 * r + c)) & 1 for c in range(5)]
                for r in range(3)]
        if pluecker_table(field, rows).all_nonzero():
            found = True
            break
    assert not found
    with pytest.raises(SamplingError):
        random_point(2, field, seed=0, max_tries=200)


def test_gf4_fixture_values():
    point = gf4_point()
    field = point.field
    assert point.n == 2
    assert field.descriptor() == "gf(2,2;1,1,1)"
    assert point.table[(1, 2, 3)] == field.one
    zeta = (0, 1)
    assert point.table[(3, 4, 5)] == field.mul(zeta, zeta)
    assert point.table.all_nonzero()
    assert assumption_check(point).status == "pass"


def test_phi_values_against_direct_minors():
    for n, seed in ((1, 300), (2, 301), (3, 302)):
        point = random_point(n, F, seed=seed)
        table = point.table
        labels = range(1, 2 * n + 2)
        for i, j in itertools.permutations(labels, 2):
            out = phi(point, i, j)
            assert out.grade == n - 1
            rest = [x for x in labels if x not in (i, j)]
            for key in itertools.combinations(rest, n - 1):
                assert out.coefficient(key) == table.signed((i, j) + key)
        assert phi(point, 1, 2) == -phi(point, 2, 1)


def test_phi_scalar_case():
    point = point_n1()
    out = phi(point, 1, 2)
    assert out.grade == 0
    assert out.coefficient(()) == -3


def test_phi_shape_for_n3():
    point = random_point(3, F, seed=700)
    out = phi(point, 1, 2)
    assert set(out.terms) == set(itertools.combinations(range(3, 8), 2))
    for (k, l), value in out.terms.items():
        assert value == point.table.signed((1, 2, k, l))


def test_psi_matches_a_wedge_and_its_n3_shape():
    point = random_point(3, F, seed=700)
    out = psi(point, 2, 3)
    assert out.grade == 6
    want_keys = {(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 7), (1, 2, 3, 4, 6, 7),
                 (1, 2, 3, 5, 6, 7), (2, 3, 4, 5, 6, 7)}
    assert set(out.terms) == want_keys
    table = point.table
    assert out.coefficient((1, 2, 3, 4, 5, 6)) == table[(1, 4, 5, 6)]
    assert out.coefficient((1, 2, 3, 4, 5, 7)) == table[(1, 4, 5, 7)]
    assert out.coefficient((2, 3, 4, 5, 6, 7)) == table[(4, 5, 6, 7)]
    assert psi(point, 2, 3) == -psi(point, 3, 2)


def test_psi_is_zero_when_the_wedge_overflows():
    point = point_n1()
    assert psi(point, 1, 2).is_zero()          # grade 4 > dim 3


def test_phi_psi_pair_through_contraction():
    point = random_point(2, F, seed=8)
    w = point.table.multivector()
    assert phi(point, 4, 5) == contract([5, 4], w)


def test_assumption_check_reports_vanishing_minors():
    point = random_point(2, F, seed=11)
    table = point.table.with_entry((1, 2, 3), Fraction(0))
    report = assumption_check(table)
    assert report.status == "fail"
    assert report.witness == {"vanishing": [[1, 2, 3]]}
    assert as_table(table) is table


def test_plucker_relations_hold_and_catch_corruption():
    for n, seed in ((2, 600), (3, 601)):
        point = random_point(n, F, seed=seed)
        assert verify_plucker_relations(point).status == "pass"
    point = random_point(2, F, seed=602)
    key = (1, 2, 3)
    bad = point.table.with_entry(key, -point.table[key])
    report = verify_plucker_relations(bad)
    assert report.status == "fail"
    assert set(report.witness) == {"q", "j", "b"}


def test_plucker_relations_are_vacuous_for_n1():
    point = point_n1()
    bad = point.table.with_entry((1, 2), Fraction(5))
    assert verify_plucker_relations(bad).status == "pass"


def test_point_json_round_trip(tmp_path):
    for descriptor, n in (("q", 2), ("gf(11)", 2), ("gf(2,2;1,1,1)", 1)):
        field = field_create(descriptor)
        point = random_point(n, field, seed=4)
        back = point_from_json(point_to_json(point))
        assert back.matrix == point.matrix
        assert back.field == point.field
        assert back.table.entries == point.table.entries
        path = tmp_path / ("pt-%s.json" % n)
        save_point(path, point)
        again = load_point(path)
        assert again.matrix == point.matrix


def test_point_json_with_minor_override(tmp_path):
    point = random_point(2, F, seed=13)
    key = (1, 3, 5)
    table = point.table.with_entry(key, -point.table[key])
    tricked = GrassmannPoint(F, point.matrix, table)
    assert tricked.table_overridden
    obj = point_to_json(tricked)
    assert "pluecker" in obj
    back = point_from_json(json.loads(json.dumps(obj)))
    assert back.table_overridden
    assert back.table[key] == -point.table[key]
    assert back.table[(1, 2, 3)] == point.table[(1, 2, 3)]
    path = tmp_path / "corrupt.json"
    save_point(path, tricked)
    assert load_point(path).table[key] == -point.table[key]


def _with_entry_chain(obj):
    """The table a pluecker list makes when applied one record at a time."""
    field = field_from_json(obj["field"])
    table = pluecker_table(field, [[field.parse(v) for v in row]
                                   for row in obj["matrix"]])
    for rec in obj["pluecker"]:
        table = table.with_entry(tuple(int(i) for i in rec["indices"]),
                                 field.parse(rec["value"]))
    return table


@pytest.mark.parametrize("descriptor", ["q", "gf(11)"])
def test_pluecker_records_load_like_a_with_entry_chain(descriptor):
    field = field_create(descriptor)
    point = random_point(2, field, seed=8)
    rng = random.Random(descriptor)
    keys = sorted(point.table.entries)
    records = []
    for _ in range(12):
        # repeated keys included: the last record for a key wins
        key = rng.choice(keys[:4])
        records.append({"indices": [str(i) for i in key],
                        "value": field.fmt(field.random(rng))})
    obj = dict(point_to_json(point), pluecker=records)
    loaded = point_from_json(json.loads(json.dumps(obj)))
    assert loaded.table.entries == _with_entry_chain(obj).entries
    assert loaded.table_overridden
    assert point_from_json(dict(obj, pluecker=[])).table.entries \
        == point.table.entries


def test_pluecker_records_are_checked_in_order():
    obj = point_to_json(random_point(1, F, seed=3))
    good = {"indices": [1, 2], "value": "5"}
    for bad in ({"indices": [1, 4], "value": "1"},      # no such minor
                {"indices": [2, 1], "value": "1"},      # not ascending
                {"indices": [1, 2]},                    # no value
                {"indices": [1, 2], "value": "x"},      # not a rational
                ["indices", "value"]):                  # not a record
        with pytest.raises(InputError):
            point_from_json(dict(obj, pluecker=[good, bad, good]))


def test_point_validation():
    with pytest.raises(InputError):
        GrassmannPoint(F, [[Fraction(1)] * 4, [Fraction(0)] * 4])
    with pytest.raises(InputError):
        GrassmannPoint(F, [[Fraction(0)] * 3, [Fraction(0)] * 3])
    with pytest.raises(InputError):
        point_from_json({"field": "q", "matrix": [["1", "0", "0"],
                                                  ["0", "1", "0"]], "n": 2})
    with pytest.raises(InputError):
        point_from_json({"matrix": []})
    with pytest.raises(InputError):
        as_table("not a point")
    with pytest.raises(InputError):
        load_point("/nonexistent/path.json")


def test_table_validation():
    point = random_point(1, F, seed=2)
    with pytest.raises(InputError):
        point.table.with_entry((1, 4), Fraction(1))
    entries = dict(point.table.entries)
    entries.pop((1, 2))
    from gsf.grassmann import PlueckerTable
    with pytest.raises(InputError):
        PlueckerTable(F, 1, entries)


# any JSON value: what json.load can return, infinities and NaN included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)

# a record of each key with the right type more often than chance, so that
# records get past the first key and some of them load
ENTRIES = st.integers(-3, 3) | st.sampled_from(
    ["1/2", "-7", "1:1", "x", "1/0", [1, 0], [1, 2, 3], None, 2.5, True,
     "+2", "1_0", " 1", "0.5", "1:1_0"])
FIELDS_JSON = JSON_VALUES | st.sampled_from(
    ["q", "gf(11)", "gf(3,2;1,0,1)", "gf(4)", "gf(3,2;1,1,1)",
     {"kind": "rationals"}, {"kind": "prime", "p": 7},
     {"kind": "extension", "p": 3, "k": 2, "modulus": [1, 0, 1]}]) \
    | st.fixed_dictionaries(
        {"kind": st.sampled_from(["rationals", "prime", "extension", "z"])
         | JSON_VALUES},
        optional={"p": st.sampled_from([2, 3, 7, 8, -5, "7", math.inf,
                                        "+7", " 7", "1_1"])
                  | JSON_VALUES,
                  "k": st.sampled_from([1, 2, 3, 5, math.inf]) | JSON_VALUES,
                  "modulus": st.lists(st.integers(0, 3), max_size=4)
                  | JSON_VALUES})
SHAPED = st.integers(1, 3).flatmap(
    lambda rows: st.lists(st.lists(st.integers(-3, 3), min_size=2 * rows - 1,
                                   max_size=2 * rows - 1),
                          min_size=rows, max_size=rows))
MATRICES = SHAPED | SHAPED | JSON_VALUES \
    | st.lists(st.lists(ENTRIES, max_size=5), max_size=4)
RECORDS = JSON_VALUES | st.fixed_dictionaries(
    {"indices": st.lists(st.integers(1, 5), min_size=2, max_size=3,
                         unique=True).map(sorted)
     | st.lists(st.integers(0, 6) | JSON_VALUES, max_size=4) | JSON_VALUES,
     "value": ENTRIES}) | st.fixed_dictionaries(
    {}, optional={"indices": JSON_VALUES, "value": JSON_VALUES})
POINTS_JSON = JSON_VALUES | st.fixed_dictionaries(
    {"field": FIELDS_JSON, "matrix": MATRICES},
    optional={"n": st.integers(-1, 4) | JSON_VALUES,
              "pluecker": st.lists(RECORDS, max_size=3) | JSON_VALUES}) \
    | st.fixed_dictionaries(
        {}, optional={"field": FIELDS_JSON, "matrix": MATRICES,
                      "n": JSON_VALUES, "pluecker": JSON_VALUES})


def _inexact_parameter(record):
    """Whether a prime or extension field record gives p, k or a modulus
    coefficient as a float or a bool, which must be refused rather than
    truncated."""
    if not isinstance(record, dict):
        return False
    if record.get("kind") == "prime":
        values = [record.get("p")]
    elif record.get("kind") == "extension":
        modulus = record.get("modulus")
        values = [record.get("p"), record.get("k")] + \
            (modulus if isinstance(modulus, list) else [])
    else:
        return False
    return any(isinstance(v, (float, bool)) for v in values)


# the text forms a point record may use: a decimal integer, a fraction of
# one over digits, or colon-joined integers
STRICT_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|(?::[+-]?[0-9]+)*)")


def _loose_texts(record):
    """The texts of a point record, other than its field's kind or
    descriptor, in none of the strict forms (holding whitespace, an
    underscore, a decimal point or a non-ASCII digit); a record that loads
    has none."""
    def texts(value):
        if isinstance(value, str):
            yield value
        elif isinstance(value, dict):
            yield from texts(list(value.values()))
        elif isinstance(value, list):
            for v in value:
                yield from texts(v)

    field = record.get("field")
    parts = [v for k, v in record.items() if k != "field"]
    if isinstance(field, dict):
        parts += [v for k, v in field.items() if k != "kind"]
    return [t for t in texts(parts) if not STRICT_TEXT.fullmatch(t)]


def _list_shaped(record):
    """Whether the matrix, each of its rows, the pluecker records and each
    record's indices are JSON lists; text or an object would iterate as
    characters or keys."""
    matrix, recs = record["matrix"], record.get("pluecker", [])
    return isinstance(matrix, list) and isinstance(recs, list) \
        and all(isinstance(row, list) for row in matrix) \
        and all(isinstance(rec["indices"], list) for rec in recs)


MATRIX_N1 = [[1, 0, 1], [0, 1, 1]]


@settings(max_examples=300)
@given(POINTS_JSON)
@example({"field": {"kind": "prime", "p": " 1_1 "}, "n": "0_1",
          "matrix": MATRIX_N1})
@example({"field": {"kind": "extension", "p": "3 ", "k": "2",
                    "modulus": [1, 0, 1]}, "matrix": MATRIX_N1})
@example({"field": "q", "matrix": [["1_0", "0", "1"], ["0", "1", "1"]]})
@example({"field": "q", "matrix": [["0.5", "0", "1"], ["0", "1", "1"]]})
@example({"field": "gf(7)", "matrix": [["1", "0", "1"], ["0", "1", "\t1"]]})
@example({"field": "gf(3,2;1,0,1)",
          "matrix": [["1_0:2", "0", "1"], ["0", "1", "1"]]})
@example({"field": "q", "matrix": MATRIX_N1,
          "pluecker": [{"indices": ["1", "+2 "], "value": "1"}]})
@example({"field": {"kind": "prime", "p": math.inf},
          "matrix": [[1, 0, 1], [0, 1, 1]]})
@example({"field": {"kind": "extension", "p": 3, "k": math.inf,
                    "modulus": [1, 0, 1]}, "matrix": [[1, 0, 1], [0, 1, 1]]})
@example({"field": {"kind": "prime", "p": 7.5},
          "matrix": [[1, 0, 1], [0, 1, 1]]})
@example({"field": {"kind": "extension", "p": 3, "k": 2.0,
                    "modulus": [1, 0, 1]}, "matrix": [[1, 0, 1], [0, 1, 1]]})
@example({"field": {"kind": "extension", "p": 3, "k": 2,
                    "modulus": [True, False, True]},
          "matrix": [[1, 0, 1], [0, 1, 1]]})
@example({"field": "gf(11)", "matrix": ["102", "013"]})
@example({"field": "gf(11)", "matrix": {"102": 0, "013": 1}})
@example({"field": "q", "matrix": MATRIX_N1,
          "pluecker": [{"indices": "12", "value": "1"}]})
@example({"field": "q", "matrix": MATRIX_N1,
          "pluecker": [{"indices": {"1": 0, "2": 0}, "value": "1"}]})
@example({"field": "q", "matrix": MATRIX_N1, "pluecker": {}})
def test_point_from_json_raises_input_error_or_returns_a_point(obj):
    try:
        point = point_from_json(obj)
    except InputError:
        return
    assert isinstance(point, GrassmannPoint)
    assert not _inexact_parameter(obj.get("field"))
    assert not _loose_texts(obj)
    assert _list_shaped(obj)
    assert len(point.table.entries) == math.comb(2 * point.n + 1, point.n + 1)
