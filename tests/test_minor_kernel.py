"""The minor-level checks run on coefficient rows read from the minor table;
`exterior.py` with `phi`, `psi` and `span_rank` is the reference they are
held to here.

The reference checks below are the multivector formulations the row kernel
replaced, kept verbatim in their loop order so that statuses and witnesses
can be compared one for one.
"""

import itertools
import random

import pytest

from gsf.combinatorics import complement
from gsf.errors import ConstructionError, SamplingError, StructuralError
from gsf.exterior import span_rank
from gsf.field import field_create
from gsf import grassmann, solutions, verify
from gsf.grassmann import (GrassmannPoint, as_table, dual_entries, phi,
                           phi_row, psi, random_point,
                           verify_plucker_relations)
from gsf.matrices import combine
from gsf.solutions import Construction, build_A, build_B
from gsf.verify import verify_intertwining, verify_ranks

FIELDS = ["q", "gf(11)", "gf(7,2;1,0,1)", "gf(2,2;1,1,1)"]


def reference_plucker(x):
    table = as_table(x)
    n, field = table.n, table.field
    for q in range(1, 2 * n + 2):
        a = complement(n, q)
        evens = [a[2 * i + 1] for i in range(n)]
        for j in range(1, n + 1):
            head = a[2 * j - 2]
            for b in itertools.combinations(range(1, 2 * n + 2), n - 1):
                acc = field.mul(table.signed((head, q) + b),
                                table.signed(evens + [q]))
                for i in range(1, n + 1):
                    rest = [x2 for x2 in evens if x2 != a[2 * i - 1]]
                    term = field.mul(table.signed((a[2 * i - 1], q) + b),
                                     table.signed([head] + rest + [q]))
                    if i % 2:
                        term = field.neg(term)
                    acc = field.add(acc, term)
                if acc != field.zero:
                    return "fail", {"q": q, "j": j, "b": list(b)}
    return "pass", None


def _reference_intertwining_body(x, n):
    for q in range(1, 2 * n + 2):
        a = complement(n, q)
        a_block = build_A(x, q)
        b_block = build_B(x, q)
        phis = {c: phi(x, c, q) for c in a}
        psis = {c: psi(x, c, q) for c in a}
        for j in range(1, n + 1):
            acc = None
            for i in range(1, n + 1):
                term = phis[a[2 * i - 2]].scaled(a_block[i - 1][j - 1])
                acc = term if acc is None else acc + term
            if acc != -phis[a[2 * j - 1]]:
                return {"family": "phi-A", "q": q, "index": j}
            acc = None
            for i in range(1, n + 1):
                term = phis[a[2 * i - 1]].scaled(b_block[i - 1][j - 1])
                acc = term if acc is None else acc + term
            if acc != -phis[a[2 * j - 2]]:
                return {"family": "phi-B", "q": q, "index": j}
        for i in range(1, n + 1):
            acc = None
            for j in range(1, n + 1):
                term = psis[a[2 * j - 1]].scaled(a_block[i - 1][j - 1])
                acc = term if acc is None else acc + term
            if acc != psis[a[2 * i - 2]]:
                return {"family": "psi-A", "q": q, "index": i}
            acc = None
            for j in range(1, n + 1):
                term = psis[a[2 * j - 2]].scaled(b_block[i - 1][j - 1])
                acc = term if acc is None else acc + term
            if acc != psis[a[2 * i - 1]]:
                return {"family": "psi-B", "q": q, "index": i}
    return None


def reference_intertwining(x):
    try:
        witness = _reference_intertwining_body(x, as_table(x).n)
    except (ConstructionError, StructuralError) as e:
        return "fail", {"reason": str(e)}
    return ("fail" if witness else "pass"), witness


def reference_ranks(x):
    n = as_table(x).n
    labels = range(1, 2 * n + 2)
    cases = []
    for j in labels:
        cases.append(("fixed-%d" % j,
                      [phi(x, i, j) for i in labels if i != j], n))
    odds = list(range(1, 2 * n + 2, 2))
    evens = list(range(2, 2 * n + 2, 2))
    cases.append(("odd-even",
                  [phi(x, o, e) for o in odds for e in evens if o < e],
                  n * (n + 1) // 2))
    cases.append(("odd-odd",
                  [phi(x, i, j) for i, j in itertools.combinations(odds, 2)],
                  n * (n + 1) // 2))
    cases.append(("even-even",
                  [psi(x, i, j) for i, j in itertools.combinations(evens, 2)],
                  n * (n - 1) // 2))
    for family, vectors, expected in cases:
        actual = span_rank(vectors)
        if actual != expected:
            return "fail", {"family": family, "expected": expected,
                            "actual": actual}
    return "pass", None


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


def variants(point):
    """The point itself, then copies with one minor negated or shifted by
    one, at the first, a middle and the last column choice."""
    field, table = point.field, point.table
    keys = sorted(table.entries)
    yield "honest", point
    for t in (0, len(keys) // 2, len(keys) - 1):
        key = keys[t]
        value = table[key]
        for name, new in (("negated", field.neg(value)),
                          ("shifted", field.add(value, field.one))):
            yield ("%s@%s" % (name, key), GrassmannPoint(
                field, point.matrix, table.with_entry(key, new)))


def _inversions(seq):
    return sum(1 for i, u in enumerate(seq) for v in seq[i + 1:] if u > v)


@pytest.mark.parametrize("descriptor", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rows_equal_the_multivector_coefficients(descriptor, n):
    field = field_create(descriptor)
    point = sample_point(field, n, seed=31 * n)
    table = point.table
    dual = dual_entries(table)
    labels = range(1, 2 * n + 2)
    ks = list(itertools.combinations(labels, n - 1))
    ms = list(itertools.combinations(labels, n + 3))
    # psi at M is read as phi of the dual at M^c, times eps(M, M^c)
    comps = [tuple(v for v in labels if v not in m) for m in ms]
    odd = [_inversions(m + k) % 2 for m, k in zip(ms, comps)]
    assert sorted(comps) == Construction(point).dual()[1]
    for q in labels:
        for c in labels:
            if c == q:
                continue
            want_phi = phi(point, c, q)
            want_psi = psi(point, c, q)
            assert phi_row(table.entries, field, c, q, ks) == [
                want_phi.coefficient(k) for k in ks]
            dual_row = phi_row(dual, field, c, q, comps)
            assert [field.neg(v) if o else v
                    for v, o in zip(dual_row, odd)] == [
                want_psi.coefficient(m) for m in ms]
            # the checks index phi(., q) only by sets avoiding q and
            # psi(., q) only by sets holding q, whose complements avoid q;
            # the rest is zero
            assert all(want_phi.coefficient(k) == field.zero
                       for k in ks if q in k)
            assert all(want_psi.coefficient(m) == field.zero
                       for m in ms if q not in m)


def test_combine_is_the_weighted_sum():
    field = field_create("gf(11)")
    rows = [[1, 0, 5], [2, 3, 0], [0, 0, 7]]
    assert combine(field, [3, 0, 2], rows) == [3, 0, (15 + 14) % 11]
    assert combine(field, [0, 0, 0], rows) == [0, 0, 0]
    assert combine(field, [1], [[]]) == []


@pytest.mark.parametrize("descriptor", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_checks_agree_with_the_multivector_reference(descriptor, n):
    field = field_create(descriptor)
    pairs = [(verify_plucker_relations, reference_plucker),
             (verify_intertwining, reference_intertwining),
             (verify_ranks, reference_ranks)]
    for seed in (0, 1):
        for name, x in variants(sample_point(field, n, seed)):
            for check, reference in pairs:
                report = check(x)
                assert (report.status, report.witness) == reference(x), \
                    (descriptor, n, seed, name, report.check)


def test_reference_comparison_covers_failures():
    # the comparison above is only as strong as the failures it meets
    field = field_create("gf(11)")
    point = sample_point(field, 3, 0)
    statuses = {(check.__name__, check(x).status)
                for _, x in variants(point)
                for check in (verify_plucker_relations, verify_intertwining,
                              verify_ranks)}
    assert ("verify_plucker_relations", "fail") in statuses
    assert ("verify_intertwining", "fail") in statuses
    assert ("verify_plucker_relations", "pass") in statuses


PHI_ROW = grassmann.phi_row
FAMILY_NUMERATORS = solutions.family_numerators


def _dual_without_its_sign(table):
    """The dual table with every entry p_{S^c}, its sign dropped."""
    labels = range(1, 2 * table.n + 2)
    return {tuple(v for v in labels if v not in key): value
            for key, value in table.entries.items()}


def _dual_rows_at_sets_holding_q(entries, field, c, q, subsets):
    """phi_row with the dual's rows read at the (n-2)-subsets that hold q,
    where every dual row vanishes, in place of those without q."""
    size, top = len(next(iter(entries))), max(max(k) for k in entries)
    if 2 * size + 1 == top and size >= 2:
        # keyed by n-tuples of 2n+1 labels: the dual
        subsets = [k for k in itertools.combinations(range(1, top + 1),
                                                     size - 2) if q in k]
    return PHI_ROW(entries, field, c, q, subsets)


def _a_numerators(table, q, use_evens):
    return FAMILY_NUMERATORS(table, q, use_evens=False)


# mutant -> (the binding it replaces, the check whose comparison with its
# reference must fail)
ROW_MUTANTS = {
    _dual_without_its_sign: (solutions, "dual_entries", verify_intertwining),
    _dual_rows_at_sets_holding_q:
        (verify, "phi_row", verify_intertwining),
    _a_numerators:
        (solutions, "family_numerators", verify_plucker_relations),
}
REFERENCES = {verify_intertwining: reference_intertwining,
              verify_plucker_relations: reference_plucker}


@pytest.mark.parametrize("mutant", list(ROW_MUTANTS),
                         ids=lambda m: m.__name__)
def test_reference_comparison_catches_a_broken_row_reader(monkeypatch,
                                                          mutant):
    # with the dual's sign dropped, the psi rows read where they vanish, or
    # plucker weighted by A's numerators in place of B's, some variant's
    # report must differ from the multivector reference
    module, name, check = ROW_MUTANTS[mutant]
    reference = REFERENCES[check]
    field = field_create("gf(11)")
    xs = [x for n in (2, 3) for seed in (0, 1)
          for _, x in variants(sample_point(field, n, seed))]
    monkeypatch.setattr(module, name, mutant)
    for x in xs:
        report = check(x)
        if (report.status, report.witness) != reference(x):
            return
    pytest.fail("every report equals the reference")
