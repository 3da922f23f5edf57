"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

import json
import os
import subprocess
import sys

import pytest

import run

COUNT_SUFFIXES = (".calls", ".count", ".tries")


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _run_child(*args, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           *args], cwd=run.ROOT, env=env, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return _result(proc.stdout)


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["batch-ext", "equations-q"])
def test_traced_counts_repeat_exactly(workload):
    runs = [_run_child("--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", "1", hash_seed=h) for h in ("1", "2")]
    first, second = (r["metrics"] for r in runs)
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == declared
    counts = [k for k in first
              if k.startswith("field.") or k.endswith(COUNT_SUFFIXES)]
    assert "grassmann.sample.tries" in counts
    assert {k: first[k]["value"] for k in counts} == \
        {k: second[k]["value"] for k in counts}
    assert all(r["correct"] and r["failed"] == 0 for r in runs)


def test_timed_run_reports_every_end_to_end_metric():
    result = _run_child("--workload", "batch-ext", "--seed", "3",
                        "--seconds", "1", "--trace", "0")
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_gate_catches_a_verify_that_passes_corrupted_points(
        monkeypatch, capsys):
    run.bootstrap()
    from gsf import cli, report, verify

    def always_pass(point, checks=None, lambdas=None, depth=1):
        return [report.VerificationReport(name) for name in verify.CHECK_NAMES]

    monkeypatch.setattr(cli, "run_checks", always_pass)
    # the warm-up round corrupts its odd-characteristic points
    assert run.main(["--workload", "batch-ext", "--seed", "5",
                     "--seconds", "1.5", "--trace", "0"]) == 0
    result = _result(capsys.readouterr().out)
    assert result["attempted"] > 14
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_reference_scaling():
    import speed
    run.bootstrap()
    from workloads import Outcome

    ref = speed.REFERENCE_CHUNK_S
    assert speed.factor(ref, ref) == 1.0
    # a machine at half the reference speed: times halve when scaled
    outcome = Outcome(2.0, True, 0.5)
    outcome.to_reference(speed.factor(2 * ref, 2 * ref))
    assert (outcome.verify_s, outcome.gen_s, outcome.factor) == (1.0, 0.25, 0.5)
