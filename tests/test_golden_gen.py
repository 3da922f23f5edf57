"""`gsf gen --out` output held to a committed fixture.

The fixture, golden_gen.json, holds the exit code, standard output,
standard error and written point file of `gsf gen --n N --field F --seed S
--out point.json` for q, gf(11), gf(1000003), gf(7,2;1,0,1) and
gf(3,2;1,0,1) at n = 1..4, gf(5,3;1,1,0,1) at n = 1..3 and gf(2,2;1,1,1) at
n = 1, 2, each at seeds 0 and 1, plus the sampling failure of gf(2) at
n = 2.  A change to the sampler or to the minor kernel must leave
every byte of it unchanged: the same draws, the same order of tries, the
same accepted matrix.

gf(11) and gf(3,2;1,0,1) at n = 4 find no point with every minor nonzero:
the command gives up after 10,000 tries, which takes 15 to 75 s.  Those
four cases run with the sampler capped at 100 tries, so they pin the first
100 rejected matrices and the failure path, and their message says 100.

Regenerate the fixture, only when the output is meant to change, with

    PYTHONPATH=src python tests/test_golden_gen.py
"""

import contextlib
import functools
import io
import json
import os
import pathlib

import pytest

from gsf import cli, grassmann

FIXTURE = pathlib.Path(__file__).with_name("golden_gen.json")
# each field with the n it is run at
GRID = {"q": (1, 2, 3, 4), "gf(11)": (1, 2, 3, 4),
        "gf(1000003)": (1, 2, 3, 4), "gf(7,2;1,0,1)": (1, 2, 3, 4),
        "gf(3,2;1,0,1)": (1, 2, 3, 4), "gf(5,3;1,1,0,1)": (1, 2, 3),
        "gf(2,2;1,1,1)": (1, 2)}
CAPPED = {("gf(11)", 4), ("gf(3,2;1,0,1)", 4)}
CAP = 100
CASES = [(d, n, s) for d, ns in GRID.items() for n in ns for s in (0, 1)]
CASES.append(("gf(2)", 2, 0))


def case_id(descriptor, n, seed):
    capped = " capped" if (descriptor, n) in CAPPED else ""
    return "%s n=%d seed=%d%s" % (descriptor, n, seed, capped)


def gen_output(descriptor, n, seed):
    """Exit code, stdout, stderr and the written file of `gsf gen --out`,
    run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["gen", "--n", str(n), "--field", descriptor, "--seed", str(seed),
            "--out", "point.json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    path = pathlib.Path("point.json")
    written = path.read_text() if path.exists() else None
    if written is not None:
        path.unlink()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "file": written}


@contextlib.contextmanager
def capped(descriptor, n):
    """The CLI's sampler, capped at CAP tries for the costly failures."""
    original = cli.random_point
    if (descriptor, n) in CAPPED:
        cli.random_point = functools.partial(grassmann.random_point,
                                             max_tries=CAP)
    try:
        yield
    finally:
        cli.random_point = original


def run_case(descriptor, n, seed):
    with capped(descriptor, n):
        return gen_output(descriptor, n, seed)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_the_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_id(*c) for c in CASES)
    failed = sorted(k for k, v in golden.items() if v["exit"] != 0)
    assert failed == sorted(case_id(*c) for c in CASES
                            if (c[0], c[1]) in CAPPED or c[0] == "gf(2)")
    assert all(golden[k]["exit"] == 2 and golden[k]["file"] is None
               for k in failed)


@pytest.mark.parametrize("descriptor,n,seed", CASES,
                         ids=[case_id(*c) for c in CASES])
def test_gen_output_equals_the_fixture(tmp_path, monkeypatch, golden,
                                       descriptor, n, seed):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GSF_SEED", raising=False)
    assert run_case(descriptor, n, seed) == golden[case_id(descriptor, n,
                                                           seed)]


if __name__ == "__main__":
    import tempfile
    os.environ.pop("GSF_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        cases = {case_id(*c): run_case(*c) for c in CASES}
    FIXTURE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
