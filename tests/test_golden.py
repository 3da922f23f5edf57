"""`gsf verify --checks all` output held to a committed fixture.

The fixture, golden_verify.json, holds the exit code and the JSON printed
for each point of a small grid (q, gf(11), gf(1000003), gf(7,2;1,0,1);
n = 1..4; each point honest and with one minor negated), with every
`millis` set to zero.  A kernel change must leave that output unchanged.

Regenerate the fixture, only when the output is meant to change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import random

import pytest

from gsf import cli
from gsf.errors import SamplingError
from gsf.field import field_create
from gsf.grassmann import GrassmannPoint, random_point, save_point

FIXTURE = pathlib.Path(__file__).with_name("golden_verify.json")
FIELDS = ["q", "gf(11)", "gf(1000003)", "gf(7,2;1,0,1)"]
CASES = [(d, n, v) for d in FIELDS for n in (1, 2, 3, 4)
         for v in ("honest", "negated")]


def case_id(descriptor, n, variant):
    return "%s n=%d %s" % (descriptor, n, variant)


def golden_point(descriptor, n, variant):
    """A point with every minor nonzero where rejection sampling finds one
    within 200 tries, else a seeded random matrix (gf(11) at n = 4); the
    negated variant flips the sign of its middle minor."""
    field = field_create(descriptor)
    try:
        point = random_point(n, field, seed=n, max_tries=200)
    except SamplingError:
        rng = random.Random(n)
        point = GrassmannPoint(field, [[field.random(rng)
                                        for _ in range(2 * n + 1)]
                                       for _ in range(n + 1)])
    if variant == "honest":
        return point
    table = point.table
    key = sorted(table.entries)[len(table.entries) // 2]
    return GrassmannPoint(field, point.matrix,
                          table.with_entry(key, field.neg(table[key])))


def zero_millis(obj):
    if isinstance(obj, dict):
        return {k: 0 if k == "millis" else zero_millis(v)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [zero_millis(v) for v in obj]
    return obj


def verify_output(path):
    """Exit code and printed JSON, millis zeroed, of `gsf verify --checks
    all` on the point file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--point", str(path), "--checks", "all"])
    return {"exit": code, "output": zero_millis(json.loads(out.getvalue()))}


def run_case(tmp_dir, descriptor, n, variant):
    path = pathlib.Path(tmp_dir) / "point.json"
    save_point(str(path), golden_point(descriptor, n, variant))
    return verify_output(path)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_the_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_id(*c) for c in CASES)
    # both outcomes are pinned: some points pass, and every negated one
    # fails from n = 2 on (at n = 1 a sign flip leaves a valid point)
    assert {golden[case_id(*c)]["exit"] for c in CASES} == {0, 1}
    assert all(golden[case_id(*c)]["exit"] == 1
               for c in CASES if c[2] == "negated" and c[1] > 1)


@pytest.mark.parametrize("descriptor,n,variant", CASES,
                         ids=[case_id(*c) for c in CASES])
def test_verify_output_equals_the_fixture(tmp_path, golden, descriptor, n,
                                          variant):
    assert run_case(tmp_path, descriptor, n, variant) \
        == golden[case_id(descriptor, n, variant)]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cases = {case_id(*c): run_case(tmp, *c) for c in CASES}
    FIXTURE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
