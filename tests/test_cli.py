import json
from fractions import Fraction

import pytest

from gsf import solutions
from gsf.cli import main
from gsf.errors import ReductionError, StructuralError
from gsf.field import RationalField, field_create
from gsf.grassmann import GrassmannPoint, random_point, save_point


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def trigon_point(tmp_path):
    """Point with minors p12 = -3, p13 = 1, p23 = -2, saved to disk."""
    matrix = [[Fraction(1), Fraction(-2), Fraction(0)],
              [Fraction(0), Fraction(-3), Fraction(1)]]
    path = tmp_path / "trigon.json"
    save_point(str(path), GrassmannPoint(RationalField(), matrix))
    return str(path)


def test_gen_is_deterministic(capsys, monkeypatch):
    monkeypatch.delenv("GSF_SEED", raising=False)
    argv = ["gen", "--n", "2", "--field", "gf(11)", "--seed", "5"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["n"] == 2
    assert obj["field"] == {"kind": "prime", "p": 11}
    assert len(obj["matrix"]) == 3 and len(obj["matrix"][0]) == 5


def test_gen_seed_env_overrides_flag(capsys, monkeypatch):
    monkeypatch.delenv("GSF_SEED", raising=False)
    _, base, _ = run(capsys, ["gen", "--n", "1", "--seed", "3"])
    monkeypatch.setenv("GSF_SEED", "3")
    code, out, _ = run(capsys, ["gen", "--n", "1", "--seed", "999"])
    assert code == 0
    assert out == base


def test_gen_rejects_a_malformed_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("GSF_SEED", "many")
    code, _, err = run(capsys, ["gen", "--n", "1"])
    assert code == 2
    assert "GSF_SEED" in err


@pytest.mark.parametrize("seed, argv", [
    (" 1_1 ", ["gen", "--n", "1"]),
    ("11 ", ["gen", "--n", "1"]),
    (None, ["gen", "--n", " 0_2"]),
    (None, ["gen", "--n", "2", "--seed", "1_1"]),
    (None, ["positions", "--n", "\u0662"]),
    (None, ["verify", "--point", "TRIGON", "--depth", " 1"]),
    (None, ["build", "--point", "TRIGON", "--what", "A", "--q", "0_1"]),
    (None, ["build", "--point", "TRIGON", "--what", "A", "--q", " 1"]),
], ids=["seed-env-underscored", "seed-env-spaced", "n-underscored",
        "seed-underscored", "n-arabic-indic-digit", "depth-spaced",
        "q-underscored", "q-spaced"])
def test_loose_integer_text_exits_2(capsys, monkeypatch, trigon_point, seed,
                                    argv):
    # GSF_SEED and the integer flags read decimal text as strictly as a
    # point file does: int() would take the spaces, underscores and
    # non-ASCII digits
    if seed is None:
        monkeypatch.delenv("GSF_SEED", raising=False)
    else:
        monkeypatch.setenv("GSF_SEED", seed)
    argv = [trigon_point if a == "TRIGON" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse refuses a flag's value itself
        code = e.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "error:" in captured.err


def test_gen_to_file_prints_a_summary(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("GSF_SEED", raising=False)
    path = tmp_path / "point.json"
    code, out, _ = run(capsys, ["gen", "--n", "2", "--seed", "1",
                                "--out", str(path)])
    assert code == 0
    summary = json.loads(out)
    assert summary["minors"] == 10
    assert summary["vanishing"] == 0
    assert summary["field"] == "q"
    assert summary["out"] == str(path)
    assert json.loads(path.read_text())["n"] == 2


def test_gen_fails_cleanly_when_no_point_exists(capsys, monkeypatch):
    # over the two-element field some maximal minor always vanishes at n=2
    monkeypatch.delenv("GSF_SEED", raising=False)
    code, _, err = run(capsys, ["gen", "--n", "2", "--field", "gf(2)"])
    assert code == 2
    assert err.startswith("error:")


def test_build_all_a_blocks(capsys, trigon_point):
    code, out, _ = run(capsys, ["build", "--point", trigon_point,
                                "--what", "A"])
    assert code == 0
    obj = json.loads(out)
    assert obj["what"] == "A"
    assert obj["entries"]["1"]["matrix"] == [["1/3"]]
    assert obj["entries"]["2"]["matrix"] == [["2/3"]]
    assert obj["entries"]["3"]["matrix"] == [["2"]]
    assert obj["entries"]["1"]["positions"] == [1]


def test_build_single_r_block_with_positions(capsys, trigon_point):
    code, out, _ = run(capsys, ["build", "--point", trigon_point,
                                "--what", "R", "--q", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 2
    assert obj["matrix"] == [["0", "2/3"], ["3/2", "0"]]
    assert obj["positions"] == [1, 3]


def test_build_reduced_block(capsys, trigon_point):
    code, out, _ = run(capsys, ["build", "--point", trigon_point,
                                "--what", "Z", "--q", "1", "--lambda", "4/5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"] == [["4/5"]]
    assert obj["lam"] == "4/5"


@pytest.fixture
def not_inverse_point(tmp_path):
    """A gf(11) point at n = 2 with one minor shifted by one so that some B
    block is not the inverse of its A block, saved with its override."""
    field = field_create("gf(11)")
    point = random_point(2, field, seed=1)
    for key in sorted(point.table.entries):
        bad = GrassmannPoint(field, point.matrix, point.table.with_entry(
            key, field.add(point.table[key], field.one)))
        try:
            for q in range(1, 6):
                solutions.build_B(bad, q)
        except StructuralError:
            path = tmp_path / "not_inverse.json"
            save_point(str(path), bad)
            return str(path)
    raise AssertionError("no single shifted minor breaks A.B = I")


@pytest.mark.parametrize("what", ["B", "R", "Z"])
def test_build_on_a_point_that_breaks_a_b_exits_2(capsys, not_inverse_point,
                                                  what):
    code, out, err = run(capsys, ["build", "--point", not_inverse_point,
                                  "--what", what])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not inverse" in err
    # A needs no B, so it still builds
    code, _, _ = run(capsys, ["build", "--point", not_inverse_point,
                              "--what", "A"])
    assert code == 0


def test_build_with_a_singular_reduction_exits_2(capsys, monkeypatch,
                                                 trigon_point):
    # at level one the pivot 1 - lam * R[m][m] is 1, because R[m][m] sits on
    # the zero checkerboard; the eliminator is made to fail instead
    def singular(field, rows, lam):
        raise ReductionError("reduction pivot 1 - lam*S[m][m] vanishes")
    monkeypatch.setattr(solutions, "reduce_matrix", singular)
    code, out, err = run(capsys, ["build", "--point", trigon_point,
                                  "--what", "Z", "--q", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "pivot" in err


def test_build_rejects_bad_labels(capsys, trigon_point):
    for q in ("0", "4", "seven"):
        code, _, err = run(capsys, ["build", "--point", trigon_point,
                                    "--what", "A", "--q", q])
        assert code == 2, q
        assert err.startswith("error:")
    # Z blocks stop one label earlier
    code, _, _ = run(capsys, ["build", "--point", trigon_point,
                              "--what", "Z", "--q", "3"])
    assert code == 2


def test_verify_passes_on_a_sound_point(capsys, trigon_point):
    code, out, _ = run(capsys, ["verify", "--point", trigon_point])
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert [r["check"] for r in obj["reports"]] == [
        "assumption", "plucker", "gon", "simplex", "colors", "green",
        "intertwining", "ranks", "reduction"]
    for r in obj["reports"]:
        assert set(r) == {"check", "params", "status", "witness", "millis"}
        assert r["witness"] is None


def test_verify_checks_subset_and_all(capsys, trigon_point):
    code, out, _ = run(capsys, ["verify", "--point", trigon_point,
                                "--checks", "simplex,gon"])
    assert code == 0
    obj = json.loads(out)
    assert [r["check"] for r in obj["reports"]] == ["simplex", "gon"]
    # an empty --checks means all, as when the flag is left out
    for checks in ["all", ""]:
        code, out, _ = run(capsys, ["verify", "--point", trigon_point,
                                    "--checks", checks])
        assert code == 0
        assert len(json.loads(out)["reports"]) == 9


def test_verify_rejects_unknown_checks(capsys, trigon_point):
    code, _, err = run(capsys, ["verify", "--point", trigon_point,
                                "--checks", "gon,frobnication"])
    assert code == 2
    assert "frobnication" in err


@pytest.mark.parametrize("checks", [",", " ", " , ,"])
def test_verify_refuses_checks_that_name_no_check(capsys, trigon_point,
                                                  checks):
    code, out, err = run(capsys, ["verify", "--point", trigon_point,
                                  "--checks", checks])
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("lam", ["1_0", " 1", "1.5", "7/-3", "1e2"])
def test_verify_and_build_refuse_a_loose_reduction_parameter(
        capsys, trigon_point, lam):
    code, out, err = run(capsys, ["verify", "--point", trigon_point,
                                  "--checks", "reduction", "--lambda", lam])
    assert (code, out) == (2, "") and err.startswith("error:")
    code, out, err = run(capsys, ["build", "--point", trigon_point,
                                  "--what", "Z", "--q", "1", "--lambda", lam])
    assert (code, out) == (2, "") and err.startswith("error:")


def test_verify_accepts_reduction_parameters(capsys, trigon_point):
    code, out, _ = run(capsys, ["verify", "--point", trigon_point,
                                "--checks", "reduction",
                                "--lambda", "0,1,7/3", "--depth", "1"])
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["params"]["lambdas"] == ["0", "1", "7/3"]


def test_verify_flags_a_corrupted_table(capsys, tmp_path, trigon_point):
    with open(trigon_point) as fh:
        obj = json.load(fh)
    obj["pluecker"] = [{"indices": [1, 2, 4], "value": "0"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    # indices must fit the point
    code, _, _ = run(capsys, ["verify", "--point", str(bad)])
    assert code == 2

    point2 = tmp_path / "p2.json"
    code, _, _ = run(capsys, ["gen", "--n", "2", "--seed", "9",
                              "--out", str(point2)])
    assert code == 0
    obj = json.loads(point2.read_text())
    obj["pluecker"] = [{"indices": [1, 2, 3], "value": "81"}]
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(obj))
    code, out, _ = run(capsys, ["verify", "--point", str(bad2)])
    assert code == 1
    parsed = json.loads(out)
    assert parsed["status"] == "fail"
    failed = [r for r in parsed["reports"] if r["status"] == "fail"]
    assert failed and all(r["witness"] is not None for r in failed)


@pytest.mark.parametrize("edit", [
    {"pluecker": [{"value": "1"}]},
    {"pluecker": [{"indices": [1, 2]}]},
    {"pluecker": [{"indices": ["a", 2], "value": "1"}]},
    {"pluecker": [{"indices": [1.5, 2], "value": "1"}]},
    {"pluecker": [[1, 2]]},
    {"pluecker": 7},
    {"n": "x"},
    {"n": 1.0},
    {"field": {"kind": "prime", "p": 7.5}},
    {"field": {"kind": "prime", "p": 7.0}},
    {"field": {"kind": "prime", "p": True}},
    {"field": {"kind": "extension", "p": 3.0, "k": 2, "modulus": [1, 0, 1]}},
    {"field": {"kind": "extension", "p": 3, "k": 2.0, "modulus": [1, 0, 1]}},
    {"field": {"kind": "extension", "p": 3, "k": 2,
               "modulus": [1, 0.5, 1]}},
    {"field": {"kind": "extension", "p": 3, "k": 2,
               "modulus": [True, False, True]}},
    {"field": {"kind": "extension", "p": 3, "k": 2, "modulus": "101"}},
    {"field": {"kind": "prime", "p": " 1_1 "}},
    {"field": {"kind": "extension", "p": "3", "k": "2",
               "modulus": ["1", "0", "1_0"]}},
    {"n": "0_1"},
    {"n": " 1"},
    {"pluecker": [{"indices": [" 1", "2"], "value": "-3"}]},
    {"matrix": [["1_0", "-2", "0"], ["0", "-3", "1"]]},
    {"matrix": [[" 1", "-2", "0"], ["0", "-3", "1"]]},
    {"matrix": [["1.0", "-2", "0"], ["0", "-3", "1"]]},
    {"matrix": [["1", "-2", "0"], ["0", "-3/1_0", "1"]]},
    {"matrix": [["1", "-2", "0"], ["0", "\u0663", "1"]]},
    {"field": {"kind": "prime", "p": 7},
     "matrix": [["1 ", "5", "0"], ["0", "4", "1"]]},
    {"field": {"kind": "prime", "p": 7},
     "matrix": [["1", "5", "0"], ["0", "+_4", "1"]]},
    {"field": {"kind": "extension", "p": 3, "k": 2, "modulus": [1, 0, 1]},
     "matrix": [["1_0:0", "1", "0"], ["0", "1", "1"]]},
    {"field": {"kind": "extension", "p": 3, "k": 2, "modulus": [1, 0, 1]},
     "matrix": [[["1", " 0"], "1", "0"], ["0", "1", "1"]]},
    {"field": {"kind": "prime", "p": 7}, "matrix": ["150", "041"]},
    {"field": {"kind": "prime", "p": 7}, "matrix": {"150": 0, "041": 1}},
    {"pluecker": [{"indices": "12", "value": "1"}]},
    {"pluecker": [{"indices": {"1": 0, "2": 0}, "value": "1"}]},
], ids=["no-indices", "no-value", "text-index", "float-index",
        "record-not-object", "list-not-array", "n-text", "n-float",
        "p-float", "p-integral-float", "p-bool", "extension-p-float",
        "k-float", "modulus-float", "modulus-bool", "modulus-text",
        "p-spaced-underscored", "modulus-underscored", "n-underscored",
        "n-spaced", "index-spaced", "q-underscored", "q-spaced",
        "q-decimal", "q-denominator-underscored", "q-arabic-indic-digit",
        "prime-spaced", "prime-sign-underscore", "extension-underscored",
        "extension-coefficient-spaced", "rows-text", "matrix-object",
        "indices-text", "indices-object"])
def test_verify_malformed_point_exits_2(capsys, tmp_path, trigon_point, edit):
    with open(trigon_point) as fh:
        obj = json.load(fh)
    obj.update(edit)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["verify", "--point", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_gen_over_a_61_bit_prime_field(capsys, monkeypatch):
    monkeypatch.delenv("GSF_SEED", raising=False)
    code, out, _ = run(capsys, ["gen", "--n", "1", "--field",
                                "gf(2305843009213693951)"])
    assert code == 0
    assert json.loads(out)["field"] == {"kind": "prime",
                                        "p": 2305843009213693951}


def test_verify_output_is_stable_up_to_timing(capsys, monkeypatch, trigon_point):
    monkeypatch.delenv("GSF_SEED", raising=False)

    def scrub(text):
        obj = json.loads(text)
        for r in obj["reports"]:
            r["millis"] = 0
        return obj

    _, out1, _ = run(capsys, ["verify", "--point", trigon_point])
    _, out2, _ = run(capsys, ["verify", "--point", trigon_point])
    assert scrub(out1) == scrub(out2)


def test_positions_gon_table(capsys):
    code, out, _ = run(capsys, ["positions", "--n", "2",
                                "--equation", "gon"])
    assert code == 0
    assert json.loads(out) == {"1": [1, 2], "2": [1, 2], "3": [1, 3],
                               "4": [2, 3], "5": [2, 3]}


def test_positions_simplex_table(capsys):
    code, out, _ = run(capsys, ["positions", "--n", "2",
                                "--equation", "simplex"])
    assert code == 0
    assert json.loads(out) == {"1": [1, 2, 3, 4], "2": [1, 5, 6, 7],
                               "3": [2, 5, 8, 9], "4": [3, 6, 8, 10],
                               "5": [4, 7, 9, 10]}


def test_positions_coloring(capsys):
    code, out, _ = run(capsys, ["positions", "--n", "2", "--coloring"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][0] == "bgbgrgrbgr"
    assert len(obj["rows"]) == 6
    assert obj["pairs"][0] == [1, 2]
    assert all(set(h) <= set("bgr") for h in obj["histories"])


def test_positions_rejects_bad_n(capsys):
    code, _, err = run(capsys, ["positions", "--n", "0"])
    assert code == 2
    assert err.startswith("error:")


def test_positions_combined_and_file_output(capsys, tmp_path):
    path = tmp_path / "layout.json"
    code, out, _ = run(capsys, ["positions", "--n", "1", "--out", str(path)])
    assert code == 0
    assert out == ""
    obj = json.loads(path.read_text())
    assert set(obj) == {"n", "gon", "simplex", "colors"}
    assert obj["gon"] == {"1": [1], "2": [1], "3": [1]}


def test_build_output_to_file_is_byte_identical(capsys, tmp_path, trigon_point):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, ["build", "--point", trigon_point, "--what", "B",
                 "--out", str(a)])
    run(capsys, ["build", "--point", trigon_point, "--what", "B",
                 "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["entries"]["1"]["matrix"] == [["3"]]
