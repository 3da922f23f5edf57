import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsf.errors import InputError
from gsf.field import (ExtensionField, PrimeField, RationalField,
                       _is_prime, field_create, field_from_json)

GF4 = "gf(2,2;1,1,1)"
GF9 = "gf(3,2;1,0,1)"
GF16 = "gf(2,4;1,1,0,0,1)"
GF125 = "gf(5,3;1,1,0,1)"


def elements(field):
    if field.kind == "prime":
        return list(range(field.p))
    return [tuple(c) for c in itertools.product(range(field.p), repeat=field.k)]


def test_descriptor_round_trip():
    for field in (RationalField(), PrimeField(7), PrimeField(97),
                  field_create(GF4), field_create(GF125)):
        assert field_create(field.descriptor()) == field
        assert field_from_json(field.to_json()) == field


def test_descriptor_is_forgiving_about_case_and_spaces():
    assert field_create(" GF( 11 ) ") == PrimeField(11)
    assert field_create("Q") == RationalField()
    assert field_create("gf(2, 2; 1, 1, 1)") == field_create(GF4)


def test_gf4_multiplication_table():
    field = field_create(GF4)
    zeta = (0, 1)
    zeta2 = field.mul(zeta, zeta)
    assert zeta2 == (1, 1)
    assert field.mul(zeta, zeta2) == field.one
    assert field.add(zeta, field.one) == zeta2
    assert field.inv(zeta) == zeta2
    assert field.characteristic == 2
    assert field.add(field.one, field.one) == field.zero


@pytest.mark.parametrize("descriptor", [GF4, GF9, "gf(7)"])
def test_small_field_axioms_exhaustively(descriptor):
    field = field_create(descriptor)
    elems = elements(field)
    for a in elems:
        assert field.add(a, field.zero) == a
        assert field.mul(a, field.one) == a
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one
        else:
            with pytest.raises(ZeroDivisionError):
                field.inv(a)
    for a in elems:
        for b in elems:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.sub(a, b) == field.add(a, field.neg(b))
    for a, b, c in itertools.product(elems, repeat=3):
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))


@pytest.mark.parametrize("descriptor",
                         ["q", "gf(11)", "gf(97)", GF4, GF16, GF125])
def test_axioms_on_random_values(descriptor):
    field = field_create(descriptor)
    rng = random.Random(42)
    for _ in range(1000):
        a, b, c = (field.random(rng) for _ in range(3))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))
        assert field.sub(field.add(a, b), b) == a
        if b != field.zero:
            assert field.mul(field.div(a, b), b) == a
    assert field.sum([]) == field.zero


def test_parse_and_fmt_rationals():
    field = RationalField()
    assert field.parse("4/6") == Fraction(2, 3)
    assert field.parse("-3") == Fraction(-3)
    assert field.parse(7) == Fraction(7)
    assert field.fmt(Fraction(-2, 3)) == "-2/3"
    assert field.fmt(field.parse(field.fmt(Fraction(5, 4)))) == "5/4"
    with pytest.raises(InputError):
        field.parse("1/0")
    with pytest.raises(InputError):
        field.parse("seven")


def test_parse_and_fmt_prime():
    field = PrimeField(11)
    assert field.parse("-3") == 8
    assert field.parse("14") == 3
    assert field.fmt(8) == "8"
    with pytest.raises(InputError):
        field.parse("x")
    assert field.from_int(-1) == 10


def test_parse_and_fmt_extension():
    field = field_create(GF4)
    assert field.parse("1:1") == (1, 1)
    assert field.parse([1, 0]) == (1, 0)
    assert field.parse(["1", "1"]) == (1, 1)
    assert field.parse("1") == (1, 0)
    assert field.parse("3:5") == (1, 1)
    assert field.fmt((1, 0)) == ["1", "0"]
    with pytest.raises(InputError):
        field.parse("1:1:1")
    with pytest.raises(InputError):
        field.parse("a:b")


def test_zero_has_no_inverse():
    for descriptor in ("q", "gf(5)", GF4):
        field = field_create(descriptor)
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)
        with pytest.raises(ZeroDivisionError):
            field.div(field.one, field.zero)


def test_rejects_bad_constructions():
    with pytest.raises(InputError):
        PrimeField(6)
    with pytest.raises(InputError):
        PrimeField(1)
    with pytest.raises(InputError):
        field_create("gf(4)")
    with pytest.raises(InputError):
        ExtensionField(2, 2, [1, 0, 1])      # (x+1)^2
    with pytest.raises(InputError):
        ExtensionField(3, 2, [1, 0, 2])      # not monic
    with pytest.raises(InputError):
        ExtensionField(2, 5, [1, 1, 0, 0, 0, 1])
    with pytest.raises(InputError):
        ExtensionField(101, 2, [1, 1, 1])
    with pytest.raises(InputError):
        ExtensionField(2, 2, [1, 1])         # wrong length
    with pytest.raises(InputError):
        field_create("gf(2,2)")
    with pytest.raises(InputError):
        field_create("nonsense")
    with pytest.raises(InputError):
        field_from_json({"kind": "martian"})
    with pytest.raises(InputError):
        field_from_json({"kind": "extension", "p": 2})


def test_is_prime_agrees_with_trial_division_below_5000():
    def by_division(m):
        return m >= 2 and all(m % f for f in range(2, int(m ** 0.5) + 1))

    for m in range(-3, 5000):
        assert _is_prime(m) == by_division(m), m


def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    # strong pseudoprimes to every prime base up to 7, 23 and 37
    strong = [3215031751, 3825123056546413051, 318665857834031151167461]
    for m in carmichael + strong:
        assert not _is_prime(m), m


def test_is_prime_on_large_primes():
    for p in (2 ** 31 - 1, 1000003, 2 ** 61 - 1, 2 ** 64 - 59,
              2 ** 79 - 67):
        assert _is_prime(p), p
    assert not _is_prime((2 ** 31 - 1) * 1000003)


def test_is_prime_refuses_numbers_past_the_proven_bound():
    assert _is_prime(3317044064679887385961813)       # largest below it
    assert not _is_prime(3317044064679887385961979)   # 17 x 1709 x ...
    for m in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(InputError):
            _is_prime(m)
    with pytest.raises(InputError):
        field_create("gf(%d)" % (2 ** 89 - 1))


def test_extension_values_stay_reduced():
    field = field_create(GF9)
    rng = random.Random(0)
    for _ in range(200):
        a, b = field.random(rng), field.random(rng)
        for v in (field.add(a, b), field.mul(a, b), field.neg(a)):
            assert len(v) == field.k
            assert all(0 <= c < field.p for c in v)


def test_frobenius_fixes_exactly_the_prime_subfield():
    field = field_create(GF9)
    fixed = [a for a in elements(field)
             if field.mul(field.mul(a, a), a) == a]
    assert sorted(fixed) == sorted((c, 0) for c in range(3))


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_ring_laws(a, b, c):
    field = RationalField()
    assert field.mul(a, field.add(b, c)) == \
        field.add(field.mul(a, b), field.mul(a, c))
    assert field.sub(a, b) == field.neg(field.sub(b, a))


def test_field_json_survives_serialization():
    for descriptor in ("q", "gf(13)", GF4):
        field = field_create(descriptor)
        text = json.dumps(field.to_json())
        assert field_from_json(json.loads(text)) == field
    assert field_from_json("gf(7)") == PrimeField(7)
