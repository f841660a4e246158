"""The benchmark's output checks count wrong CLI output as failed.

    PYTHONPATH=src python3 -m pytest -q clibench/test_checks.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from checks import Checker
from run import Call, Runner

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def runner(tmp_path):
    return Runner(ROOT, tmp_path, Checker(seed=1))


def run_cli(runner, *argv):
    _, code, stdout, _ = runner.spawn(["-m", "fermatlab", *argv])
    return code, stdout


def test_right_outputs_pass(runner, tmp_path):
    calls = [
        ["pepin", "5"],
        ["pepin", "12", "--base", "5", "--checkpoint-dir", str(tmp_path),
         "--stop-after", "100"],
        ["classify", "8", "--base", "7"],
        ["order", "9", "--base", "2"],
        ["order", "8", "--base", "11"],
        ["audit", "--n-range", "5..7"],
        ["factor", "12", "--k-max", "4000", "--prime-filter"],
    ]
    for argv in calls:
        runner.call(Call(argv, work=1))
    assert (runner.attempted, runner.failed) == (len(calls), 0)


def test_planted_checkpoint_residue_counts_as_failed(runner, tmp_path):
    code, _ = run_cli(runner, "pepin", "5", "--checkpoint-dir",
                      str(tmp_path), "--stop-after", "10")
    assert code == 0
    (path,) = tmp_path.glob("pepin_*.ckpt.json")
    doc = json.loads(path.read_text("utf-8"))
    doc["residue"] = format(12345, "x")
    blob = f"{doc['n']}|{doc['base']}|{doc['squaring_index']}|{doc['residue']}"
    doc["digest"] = hashlib.sha256(blob.encode("ascii")).digest()[:8].hex()
    path.write_text(json.dumps(doc), encoding="utf-8")

    resumed = ["pepin", "5", "--checkpoint-dir", str(tmp_path)]
    code, stdout = run_cli(runner, *resumed)
    assert not runner.record(resumed, code, stdout)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_factor_list_with_a_divisor_removed_counts_as_failed(runner):
    argv = ["factor", "6", "--k-max", "1100"]
    code, stdout = run_cli(runner, *argv)
    assert runner.record(argv, code, stdout)

    doc = json.loads(stdout)
    assert [d["k"] for d in doc["found"]] == [1071]
    doc["found"] = []
    assert not runner.record(argv, code, json.dumps(doc))
    assert (runner.attempted, runner.failed) == (2, 1)


def test_wrong_classify_residue_and_order_count_as_failed(runner):
    argv = ["classify", "9", "--base", "7"]
    code, stdout = run_cli(runner, *argv)
    doc = json.loads(stdout)
    doc["half_residue"] = format(int(doc["half_residue"], 16) ^ 1, "x")
    assert not runner.record(argv, code, json.dumps(doc))

    argv = ["order", "9", "--base", "2"]
    code, stdout = run_cli(runner, *argv)
    doc = json.loads(stdout)
    doc["alpha"] += 1
    assert not runner.record(argv, code, json.dumps(doc))
    assert (runner.attempted, runner.failed) == (2, 2)
