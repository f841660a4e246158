"""End-to-end CLI behavior: records, exit codes, checkpoint flows."""

import json
import multiprocessing
import os
import subprocess
import sys

import jsonschema
import pytest

from conftest import SELFTEST_CHECKS, pseudoprime_base, run_cli, \
    run_cli_subprocess, spy_on_squarings

from fermatlab import arith, factors, primality, records
from fermatlab.arith import FermatResidue, fermat_value
from fermatlab.checkpoint import (
    Checkpoint,
    checkpoint_filename,
    load_matching,
    save_checkpoint,
)
from fermatlab.factors import CandidateDivisor
from fermatlab.primality import classify_report, default_audit_bases
from fermatlab.records import strip_timing


pytestmark = pytest.mark.usefixtures("fresh_prime_cache")


def flip_bit_at(monkeypatch, step):
    """Flip bit 0 of the step-th integer squaring of each process."""
    real = arith._mulmod
    calls = []

    def faulty(x, y, width, top, mask):
        out = real(x, y, width, top, mask)
        calls.append(1)
        return out ^ 1 if len(calls) == step else out

    monkeypatch.setattr(arith, "_mulmod", faulty)


def assert_refused(res):
    """Exit 3, no record, and one stderr line naming the factor."""
    assert (res.code, res.stdout) == (3, "")
    assert "known factor" in res.stderr
    assert res.stderr.count("\n") == 1


class TestPepinCommand:
    def test_composite_f5(self, schema_validator):
        res = run_cli("pepin", "5")
        assert res.code == 0
        doc = res.json()
        schema_validator.validate(doc)
        assert doc["record"] == "pepin"
        assert doc["n"] == 5
        assert doc["base"] == "3"
        assert doc["admissible_base"] is True
        assert doc["pepin_prime"] is False
        assert doc["squarings"] == 31
        m = fermat_value(5)
        assert int(doc["half_residue"], 16) == pow(3, (m - 1) // 2, m)

    def test_prime_f2(self):
        doc = run_cli("pepin", "2").json()
        assert doc["pepin_prime"] is True
        assert int(doc["half_residue"], 16) == fermat_value(2) - 1

    def test_alternate_admissible_base(self):
        doc = run_cli("pepin", "4", "--base", "5").json()
        assert doc["pepin_prime"] is True and doc["base"] == "5"

    def test_below_two_rejected(self):
        res = run_cli("pepin", "1")
        assert res.code == 2
        assert res.stdout == ""

    def test_non_admissible_base_rejected(self):
        res = run_cli("pepin", "5", "--base", "2")
        assert res.code == 2
        assert "admissible" in res.stderr

    @pytest.mark.parametrize("override", [(), ("--allow-any-base",)],
                             ids=["admissible-only", "any-base"])
    def test_negative_base_rejected(self, override):
        res = run_cli("pepin", "5", "--base", "-3", *override)
        assert (res.code, res.stdout) == (2, "")
        assert res.stderr == "fermatlab: base must be >= 0, got -3\n"

    def test_any_base_override(self, schema_validator):
        res = run_cli("pepin", "5", "--base", "2", "--allow-any-base")
        assert res.code == 0
        doc = res.json()
        schema_validator.validate(doc)
        assert doc["admissible_base"] is False
        assert doc["pepin_prime"] is False
        assert doc["half_residue"] == "1"

    def test_non_coprime_base_rejected(self):
        res = run_cli("pepin", "5", "--base", "641", "--allow-any-base")
        assert res.code == 2

    def test_repeat_runs_agree_modulo_timing(self):
        a = strip_timing(run_cli("pepin", "6").json())
        b = strip_timing(run_cli("pepin", "6").json())
        assert a == b


class TestPepinCheckpointFlow:
    def test_stop_after_requires_directory(self):
        res = run_cli("pepin", "10", "--stop-after", "100")
        assert res.code == 2
        assert "--checkpoint-dir" in res.stderr

    @pytest.mark.parametrize("flag", ["--checkpoint-every=4",
                                      "--checkpoint-seconds=30",
                                      "--checkpoint-seconds=0"])
    def test_cadence_requires_directory(self, monkeypatch, flag):
        # refused, not ignored, before the first squaring
        counts = spy_on_squarings(monkeypatch)
        res = run_cli("pepin", "5", flag)
        assert (res.code, res.stdout) == (2, "")
        assert "--checkpoint-dir" in res.stderr
        assert counts == []

    @pytest.mark.parametrize("stop", ["0", "-5"])
    def test_stop_after_below_one_rejected(self, tmp_path, stop):
        target = tmp_path / "ck"
        res = run_cli("pepin", "6", "--checkpoint-dir", str(target),
                      "--stop-after", stop)
        assert (res.code, res.stdout) == (2, "")
        assert "stop index" in res.stderr
        assert not target.exists()

    def test_pause_then_resume_matches_clean_run(self, tmp_path,
                                                 schema_validator):
        clean = run_cli("pepin", "10")
        paused = run_cli("pepin", "10", "--checkpoint-dir", str(tmp_path),
                         "--stop-after", "123")
        assert paused.code == 0
        pdoc = paused.json()
        schema_validator.validate(pdoc)
        assert pdoc["record"] == "pepin-paused"
        assert pdoc["stopped_after"] == 123
        assert pdoc["total_squarings"] == 1023
        assert (tmp_path / checkpoint_filename(10, 3)).exists()

        resumed = run_cli("pepin", "10", "--checkpoint-dir", str(tmp_path))
        assert resumed.code == 0
        assert "resuming" in resumed.stderr
        assert strip_timing(resumed.json()) == strip_timing(clean.json())
        # success must clear the file or it would shadow the next run
        assert not (tmp_path / checkpoint_filename(10, 3)).exists()

    def test_second_pause_counts_from_the_checkpoint(self, tmp_path):
        # a resumed run's stop index and checkpoint are global
        ck = ("--checkpoint-dir", str(tmp_path))
        run_cli("pepin", "10", *ck, "--stop-after", "123")
        second = run_cli("pepin", "10", *ck, "--stop-after", "400")
        assert second.json()["stopped_after"] == 400
        resumed = run_cli("pepin", "10", *ck)
        assert strip_timing(resumed.json()) \
            == strip_timing(run_cli("pepin", "10").json())

    def test_stop_at_final_squaring(self, tmp_path):
        paused = run_cli("pepin", "10", "--checkpoint-dir", str(tmp_path),
                         "--stop-after", "1023")
        assert paused.code == 0 and paused.json()["stopped_after"] == 1023
        resumed = run_cli("pepin", "10", "--checkpoint-dir", str(tmp_path))
        assert resumed.code == 0
        assert strip_timing(resumed.json()) \
            == strip_timing(run_cli("pepin", "10").json())

    def test_stop_after_beyond_chain_completes(self, tmp_path):
        res = run_cli("pepin", "6", "--checkpoint-dir", str(tmp_path),
                      "--stop-after", "5000")
        assert res.code == 0
        assert res.json()["record"] == "pepin"
        assert not (tmp_path / checkpoint_filename(6, 3)).exists()

    def test_corrupt_checkpoint_refused(self, tmp_path):
        target = tmp_path / checkpoint_filename(10, 3)
        target.write_text("{not json", encoding="utf-8")
        res = run_cli("pepin", "10", "--checkpoint-dir", str(tmp_path))
        assert res.code == 3
        assert "checkpoint" in res.stderr
        assert res.stdout == ""

    def test_tampered_residue_refused(self, tmp_path):
        run_cli("pepin", "10", "--checkpoint-dir", str(tmp_path),
                "--stop-after", "123")
        target = tmp_path / checkpoint_filename(10, 3)
        doc = json.loads(target.read_text(encoding="utf-8"))
        doc["residue"] = "1234"
        target.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("pepin", "10",
                       "--checkpoint-dir", str(tmp_path)).code == 3

    @pytest.mark.parametrize("n", [5, 12, 18])
    def test_planted_residue_refused(self, tmp_path, monkeypatch, n):
        # the file's digest is valid, so only the known-factor check can
        # tell; before it, pepin 5 resumed and exited 0 with a wrong residue
        save_checkpoint(Checkpoint.capture(n, 3, 10, 12345), tmp_path)
        chains = spy_on_squarings(monkeypatch)
        # the stop keeps a resumed run short should the check miss it
        res = run_cli("pepin", str(n), "--checkpoint-dir", str(tmp_path),
                      "--stop-after", "11")
        assert (res.code, res.stdout, chains) == (3, "", [])
        assert "known factor" in res.stderr

    def refused_then_resumed(self, tmp_path, monkeypatch, n):
        """Run pepin n, checkpointed every 64 squarings, with a fault
        patched in between squarings 64 and 128: the write at 128 is
        refused, and a rerun without the fault resumes from 64."""
        args = ("pepin", str(n), "--checkpoint-dir", str(tmp_path),
                "--checkpoint-every", "64")
        res = run_cli(*args)
        assert (res.code, res.stdout) == (3, "")
        assert "chain residue of base 0x3 is not base^(2^128)" in res.stderr
        assert load_matching(tmp_path, n, 3).squaring_index == 64
        monkeypatch.undo()
        res = run_cli(*args)
        assert res.code == 0
        assert "resuming" in res.stderr
        assert strip_timing(res.json()) \
            == strip_timing(run_cli("pepin", str(n)).json())

    def test_chain_fault_refused_before_the_write(self, tmp_path,
                                                  monkeypatch):
        real = arith.mod_square_chain
        blocks = []

        def faulty(a, count):
            out = real(a, count)
            blocks.append(count)
            if len(blocks) == 2:  # the block that ends at squaring 128
                return FermatResidue(out.n, out.value ^ 1)
            return out

        monkeypatch.setattr(arith, "mod_square_chain", faulty)
        self.refused_then_resumed(tmp_path, monkeypatch, 12)

    def test_fft_fault_refused_before_the_write(self, tmp_path,
                                                monkeypatch):
        # an off-by-one digit passes the roundoff guard; only the
        # known-factor check sees it
        fft = pytest.importorskip("fermatlab._fft")
        real = fft._carry
        steps = []

        def faulty(values, work):
            out = real(values, work)
            steps.append(1)
            if len(steps) == 100:
                out[..., 0] += 1
            return out

        monkeypatch.setattr(fft, "_carry", faulty)
        self.refused_then_resumed(tmp_path, monkeypatch, 14)

    def test_fault_between_writes_refused(self, tmp_path, monkeypatch):
        # squaring 70's residue is off in bit 0; the error passes the
        # smallest factor of F_12 at 128, but not all six of them
        flip_bit_at(monkeypatch, 70)
        self.refused_then_resumed(tmp_path, monkeypatch, 12)

    def test_fft_fault_in_a_plain_run_refused(self, monkeypatch):
        # with no checkpoint written, the end of the block that holds the
        # fault is checked; before any check this exited 0 with a wrong
        # residue
        fft = pytest.importorskip("fermatlab._fft")
        real = fft._carry
        steps = []

        def faulty(values, work):
            out = real(values, work)
            steps.append(1)
            if len(steps) == 100:
                out[..., 0] += 1
            return out

        monkeypatch.setattr(fft, "_carry", faulty)
        res = run_cli("pepin", "14")
        assert_refused(res)
        assert "chain residue of base 0x3 is not base^(2^128)" in res.stderr

    def test_chain_fault_in_a_plain_run_refused(self, monkeypatch):
        # refused at the end of the block that holds squaring 1000, not
        # at the chain's end, 4095
        flip_bit_at(monkeypatch, 1000)
        res = run_cli("pepin", "12")
        assert_refused(res)
        assert "chain residue of base 0x3 is not base^(2^1024)" in res.stderr

    def test_fault_refused_before_a_timed_write(self, tmp_path, monkeypatch):
        # every block end is due by time alone, so the file is at 64
        # when the fault at squaring 70 is refused at 128
        flip_bit_at(monkeypatch, 70)
        res = run_cli("pepin", "12", "--checkpoint-dir", str(tmp_path),
                      "--checkpoint-every", str(10 ** 9),
                      "--checkpoint-seconds", "1e-9")
        assert_refused(res)
        assert "base^(2^128)" in res.stderr
        assert load_matching(tmp_path, 12, 3).squaring_index == 64

    @pytest.mark.parametrize("seconds", ["nan", "-1"])
    def test_invalid_checkpoint_seconds_rejected(self, tmp_path, seconds):
        target = tmp_path / "ck"
        res = run_cli("pepin", "6", "--checkpoint-dir", str(target),
                      f"--checkpoint-seconds={seconds}")
        assert (res.code, res.stdout) == (2, "")
        assert "seconds" in res.stderr
        assert not target.exists()

    @pytest.mark.parametrize("flag", ["--checkpoint-every=0",
                                      "--checkpoint-seconds=-1",
                                      "--checkpoint-seconds=nan"])
    def test_invalid_cadence_rejected_without_a_dir(self, flag):
        # refused by the parser, whether or not a directory is given
        res = run_cli("pepin", "5", flag)
        assert (res.code, res.stdout) == (2, "")
        assert flag.split("=")[0] in res.stderr

    @pytest.mark.parametrize("args", [
        ("30",), ("1",), ("5", "--base", "7"), ("5", "--base=-3"),
        ("5", "--base", "641", "--allow-any-base")],
        ids=["n-past-max", "n-below-2", "non-admissible", "negative",
             "not-coprime"])
    def test_refused_chain_makes_no_directory(self, tmp_path, args):
        target = tmp_path / "ck"
        res = run_cli("pepin", *args, "--checkpoint-dir", str(target))
        assert (res.code, res.stdout) == (2, "")
        assert not target.exists()

    def test_refused_base_beside_a_broken_file_is_a_usage_error(
            self, tmp_path):
        # the base is refused before the file is read
        target = tmp_path / checkpoint_filename(5, 7)
        target.write_text("{not json", encoding="utf-8")
        res = run_cli("pepin", "5", "--base", "7",
                      "--checkpoint-dir", str(tmp_path))
        assert (res.code, res.stdout) == (2, "")
        assert "admissible" in res.stderr
        assert list(tmp_path.iterdir()) == [target]

    def test_index_past_half_chain_refused(self, tmp_path):
        # the n=5 half chain is 31 squarings, so index 32 cannot be real
        save_checkpoint(Checkpoint.capture(5, 3, 32, 5), tmp_path)
        res = run_cli("pepin", "5", "--checkpoint-dir", str(tmp_path))
        assert res.code == 3
        assert "out of range" in res.stderr
        assert res.stdout == ""


class TestClassifyCommand:
    def test_f5_base3(self, schema_validator):
        res = run_cli("classify", "5")
        assert res.code == 0
        doc = res.json()
        schema_validator.validate(doc)
        assert doc["record"] == "classify"
        assert doc["pepin_prime"] is False
        assert doc["fermat_congruence_holds"] is False
        assert doc["classification"] == "composite-non-pseudoprime"
        assert doc["quarter"]["tag"] == "other"
        assert len(doc["audit_rules"]) == 4
        assert all(r["passed"] for r in doc["audit_rules"])

    def test_f5_base2(self, schema_validator):
        doc = run_cli("classify", "5", "--base", "2").json()
        schema_validator.validate(doc)
        assert doc["classification"] == "pseudoprime-to-base"
        assert doc["quarter"] == {"tag": "plus-one", "residue": "1"}
        assert doc["pepin_base"] == "3"
        assert len(doc["audit_rules"]) == 2

    def test_prime_case(self, schema_validator):
        doc = run_cli("classify", "4").json()
        schema_validator.validate(doc)
        assert doc["classification"] == "prime"
        assert doc["pepin_prime"] is True

    def test_synthetic_violation_exits_4(self, monkeypatch,
                                         schema_validator):
        real = primality._audit_rules

        def first_fails(*args):
            first, *rest = real(*args)
            return (first._replace(passed=False, detail="synthetic"),
                    *rest)

        monkeypatch.setattr(primality, "_audit_rules", first_fails)
        res = run_cli("classify", "5")
        assert res.code == 4
        doc = res.json()
        schema_validator.validate(doc)
        assert len(doc["audit_rules"]) == 4
        flagged = [r for r in doc["audit_rules"] if not r["passed"]]
        assert [r["rule"] for r in flagged] == ["pseudoprime-quarter-one"]
        assert flagged[0]["detail"] == "synthetic"
        assert "FAILED" in res.stderr

    def test_chain_fault_refused(self, monkeypatch):
        flip_bit_at(monkeypatch, 1000)
        res = run_cli("classify", "12", "--base", "7")
        assert_refused(res)
        assert "chain residue of base 0x7 is not base^(2^1024)" in res.stderr

    def test_usage_errors(self):
        assert run_cli("classify", "1").code == 2
        assert run_cli("classify", "5", "--base", "641").code == 2


class TestAuditCommand:
    def test_small_grid(self, schema_validator):
        res = run_cli("audit", "--n-range", "5..6", "--bases", "2,3")
        assert res.code == 0
        doc = res.json()
        schema_validator.validate(doc)
        assert doc["record"] == "audit"
        assert doc["n_range"] == [5, 6]
        assert doc["bases"] == ["2", "3"]
        assert len(doc["rows"]) == 4
        assert doc["all_passed"] is True
        assert doc["violation_count"] == 0

    def test_single_index_range(self):
        doc = run_cli("audit", "--n-range", "7", "--bases", "2").json()
        assert doc["n_range"] == [7, 7] and len(doc["rows"]) == 1

    def test_non_coprime_row(self, schema_validator):
        doc = run_cli("audit", "--n-range", "5", "--bases", "641").json()
        schema_validator.validate(doc)
        row = doc["rows"][0]
        assert row["coprime"] is False
        assert int(row["gcd"], 16) == 641
        assert doc["all_passed"] is True

    def test_report_file_matches_stdout(self, tmp_path, schema_validator):
        target = tmp_path / "audit.json"
        res = run_cli("audit", "--n-range", "5", "--bases", "3",
                      "--report", str(target))
        assert res.code == 0
        assert target.read_text(encoding="utf-8") == res.stdout
        schema_validator.validate(json.loads(res.stdout))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the workers see the patched multiply only when forked")
    def test_chain_fault_in_a_worker_refused(self, monkeypatch):
        # each forked worker flips a bit in the first chain it runs
        flip_bit_at(monkeypatch, 1000)
        monkeypatch.setattr(primality, "_usable_cpus", lambda: 2)
        assert_refused(run_cli("audit", "--n-range", "12..13",
                               "--bases", "2,7"))
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the workers see the patched carry only when forked")
    def test_fft_fault_in_a_batched_worker_refused(self, tmp_path,
                                                   monkeypatch):
        # each forked worker squares one batch of the n = 12 chains on
        # the FFT, and adds 1 to digit 0 of every row at its 100th carry
        fft = pytest.importorskip("fermatlab._fft")
        real = fft._carry
        steps = []

        def faulty(values, work):
            out = real(values, work)
            steps.append(1)
            if len(steps) == 100:
                out[..., 0] += 1
            return out

        monkeypatch.setattr(fft, "_carry", faulty)
        monkeypatch.setattr(primality, "_usable_cpus", lambda: 2)
        bases = default_audit_bases()[:2 * arith.FFT_MIN_BATCH[12]]
        report = tmp_path / "r.json"
        assert_refused(run_cli("audit", "--n-range", "12", "--bases",
                               ",".join(map(str, bases)),
                               "--report", str(report)))
        assert not report.exists()
        assert multiprocessing.active_children() == []

    def test_fft_fault_in_one_row_refused_at_the_quarter_tap(self,
                                                             monkeypatch):
        # one CPU: the 8 chains at n = 12 square here as one FFT batch,
        # checked only at its taps; row 3, base 7, is off from step 100
        fft = pytest.importorskip("fermatlab._fft")
        real = fft._carry
        rows = []

        def faulty(values, work):
            out = real(values, work)
            rows.append(len(out))
            if len(rows) == 100:
                out[3, 0] += 1
            return out

        monkeypatch.setattr(fft, "_carry", faulty)
        monkeypatch.setattr(primality, "_usable_cpus", lambda: 1)
        bases = default_audit_bases()[:arith.FFT_MIN_BATCH[12]]
        res = run_cli("audit", "--n-range", "12", "--bases",
                      ",".join(map(str, bases)))
        assert_refused(res)
        assert "chain residue of base 0x7 is not base^(2^4094)" in res.stderr
        assert set(rows) == {len(bases)}

    def test_bad_arguments(self):
        assert run_cli("audit", "--n-range", "8..5").code == 2
        assert run_cli("audit", "--n-range", "x").code == 2
        assert run_cli("audit", "--bases", "2,x").code == 2
        assert run_cli("audit", "--bases", ",").code == 2


class TestFactorCommand:
    def test_f5_divisor(self, schema_validator):
        res = run_cli("factor", "5", "--k-max", "10")
        assert res.code == 0
        doc = res.json()
        schema_validator.validate(doc)
        assert doc["record"] == "factor"
        assert len(doc["found"]) == 1
        entry = doc["found"][0]
        assert entry["k"] == 5
        assert int(entry["p"], 16) == 641
        assert entry["prime"] is True
        assert entry["divisor_form_valid"] is True
        assert int(entry["cofactor"], 16) * 641 == fermat_value(5)
        assert doc["violations"] == []

    def test_prime_index_finds_nothing(self, schema_validator):
        doc = run_cli("factor", "3").json()
        schema_validator.validate(doc)
        assert doc["found"] == [] and doc["k_max"] == 1000

    def test_prime_filter_flag_recorded(self):
        doc = run_cli("factor", "5", "--k-max", "10",
                      "--prime-filter").json()
        assert doc["prime_filter"] is True and len(doc["found"]) == 1

    def test_synthetic_violation_exits_4(self, monkeypatch,
                                         schema_validator):
        # 257 = F_3 divides itself; forcing it through the search result
        # path fabricates a "prime divisor with power-of-two k"
        fake = CandidateDivisor(3, 8, prime=True)
        monkeypatch.setattr("fermatlab.factors.lucas_search",
                            lambda *a, **k: [fake])
        res = run_cli("factor", "3")
        assert res.code == 4
        doc = res.json()
        schema_validator.validate(doc)
        assert doc["found"][0]["divisor_form_valid"] is False
        assert len(doc["violations"]) == 1
        assert doc["violations"][0]["k"] == 8

    def test_usage_errors(self):
        assert run_cli("factor", "1").code == 2
        assert run_cli("factor", "5", "--k-max", "0").code == 2


class TestOrderCommand:
    def test_base2_on_f5(self, schema_validator):
        res = run_cli("order", "5", "--base", "2")
        assert res.code == 0
        doc = res.json()
        schema_validator.validate(doc)
        assert doc["record"] == "order"
        assert doc["alpha"] == 6
        assert doc["not_totally_even"] is False
        assert doc["bound_satisfied"] is True

    def test_base3_on_f5_has_no_power_of_two_order(self, schema_validator):
        doc = run_cli("order", "5").json()
        schema_validator.validate(doc)
        assert doc["alpha"] is None
        assert doc["not_totally_even"] is True
        assert doc["bound_satisfied"] is None

    def test_prime_modulus_reports_no_bound(self):
        doc = run_cli("order", "2", "--base", "3").json()
        assert doc["alpha"] == 4 and doc["bound_satisfied"] is None

    def test_non_coprime_rejected(self):
        assert run_cli("order", "5", "--base", "641").code == 2

    @pytest.mark.parametrize("step, what", [
        # 2^16 + 1 in place of 2^16: the chain never reaches 1
        (4, "chain residue of base 0x2 is not base^(2^4)"),
        # 0 in place of the 1 at index 11, the third squaring of the
        # pass over the block (8, 16] that ends on 1
        (19, "chain residue of base 0x2 is not base^(2^11)"),
    ], ids=["no-1", "late-1"])
    def test_chain_fault_refused(self, monkeypatch, step, what):
        # unfaulted, base 2 has alpha 11 on F_10
        flip_bit_at(monkeypatch, step)
        res = run_cli("order", "10", "--base", "2")
        assert_refused(res)
        assert what in res.stderr


class TestSelftestCommand:
    def test_passes(self, schema_validator):
        res = run_cli("selftest")
        assert res.code == 0
        doc = res.json()
        schema_validator.validate(doc)
        assert doc["passed"] is True
        assert doc["checks_run"] == SELFTEST_CHECKS
        assert doc["failures"] == []

    def test_deterministic_output(self):
        assert run_cli("selftest").stdout == run_cli("selftest").stdout

    def test_broken_fold_is_caught(self, monkeypatch):
        real = arith._fold

        def skewed(x, width, top, mask):
            value = real(x, width, top, mask)
            return value ^ 1 if value > 10 else value

        monkeypatch.setattr(arith, "_fold", skewed)
        res = run_cli("selftest")
        assert res.code == 1
        doc = res.json()
        assert doc["passed"] is False
        assert doc["failures"]
        assert "FAILED" in res.stderr

    def test_broken_mulmod_is_caught(self, monkeypatch):
        real = arith._mulmod

        def off_by_one(x, y, width, top, mask):
            return (real(x, y, width, top, mask) + 1) % (top + 1)

        monkeypatch.setattr(arith, "_mulmod", off_by_one)
        assert run_cli("selftest").code == 1

    def test_broken_fft_to_int_is_caught(self, monkeypatch):
        fft = pytest.importorskip("fermatlab._fft")
        real = fft.to_int

        def off_by_one(digits, plan):
            return [(value + 1) % (plan.top + 1)
                    for value in real(digits, plan)]

        monkeypatch.setattr(fft, "to_int", off_by_one)
        assert run_cli("selftest").code == 1

    def test_healthy_again_after_mutation_tests(self):
        assert run_cli("selftest").code == 0


class TestTextFormat:
    def test_selftest(self):
        res = run_cli("selftest", "--format", "text")
        assert res.code == 0
        assert res.stdout.startswith("selftest passed=True")

    def test_pepin(self):
        out = run_cli("pepin", "5", "--format", "text").stdout
        assert out.splitlines()[0] == "pepin"
        assert "half_residue" in out

    def test_audit(self):
        out = run_cli("audit", "--n-range", "5", "--bases", "2,641",
                      "--format", "text").stdout
        assert out.startswith("audit n_range=5..5")
        assert "NOT COPRIME" in out

    def test_factor(self):
        out = run_cli("factor", "5", "--k-max", "10",
                      "--format", "text").stdout
        assert out.splitlines()[1] == \
            "  k=5 p=641 prime=True form_valid=True"


class TestHexBases:
    """--base and each --bases entry also take 0x or 0X and hex digits,
    the form in which the records print bases.  int() refuses decimal
    strings past 4300 digits, so hex is the only way in for the base of
    F_14's constructed pseudoprime (conftest.pseudoprime_base)."""

    @pytest.mark.parametrize("command, hexed, decimal", [
        ("pepin 5 --base", "0x3", "3"),
        ("classify 5 --base", "0X3", "3"),
        ("order 5 --base", "0xa", "10"),
        ("audit --n-range 5 --bases", "0x2,3", "2,3"),
        ("audit --n-range 5 --bases", "2, 0XA", "2,10")],
        ids=["pepin", "classify", "order", "audit", "audit-upper"])
    def test_hex_gives_the_decimal_record(self, command, hexed, decimal):
        got = run_cli(*command.split(), hexed)
        want = run_cli(*command.split(), decimal)
        assert got.code == want.code == 0
        assert strip_timing(got.json()) == strip_timing(want.json())

    @pytest.mark.parametrize("text", ["0x", "0xg", "0x-3", "0x 3", "0x3_0",
                                      "x3"])
    def test_malformed_hex_is_a_usage_error(self, text):
        assert run_cli("classify", "5", "--base", text).code == 2
        assert run_cli("audit", "--n-range", "5", "--bases",
                       f"2,{text}").code == 2

    def test_pseudoprime_base_past_the_decimal_cap(self):
        n = 14
        base = pseudoprime_base(n, factors.KNOWN_FACTORS[n][0])
        res = run_cli("classify", str(n), "--base", f"0x{base:x}")
        assert res.code == 0
        doc = res.json()
        assert strip_timing(doc) == strip_timing(
            records.classify_record(classify_report(n, base), 0.0))
        assert doc["classification"] == "pseudoprime-to-base"
        assert doc["audit_rules"] \
            and all(r["passed"] for r in doc["audit_rules"])

    def test_resume_is_logged_in_hex(self, tmp_path):
        n = 14
        base = pseudoprime_base(n, factors.KNOWN_FACTORS[n][0])
        args = ("pepin", str(n), "--base", f"0x{base:x}", "--allow-any-base",
                "--checkpoint-dir", str(tmp_path), "--stop-after", "64")
        assert run_cli(*args).code == 0
        again = run_cli(*args)
        assert again.code == 0
        assert f"resuming n={n} base=0x{base:x} from squaring 64" \
            in again.stderr

    def test_text_audit_rows_name_bases_in_hex(self):
        # a base past the decimal cap that shares F_5's factor 641 gets
        # a row with no chain
        big = 641 << 16000
        out = run_cli("audit", "--n-range", "5", "--bases",
                      f"2,0x{big:x}", "--format", "text")
        assert out.code == 0
        rows = out.stdout.splitlines()[1:]
        assert rows[0].startswith("  n=5 base=0x2 quarter=plus-one ")
        assert rows[1] == f"  n=5 base=0x{big:x} NOT COPRIME gcd=0x281"


class TestUsageSurface:
    def test_no_command(self):
        assert run_cli().code == 2

    def test_unknown_command(self):
        assert run_cli("conjecture").code == 2

    def test_missing_argument(self):
        assert run_cli("pepin").code == 2

    def test_index_above_default_ceiling(self):
        assert run_cli("factor", "25", "--k-max", "1").code == 2

    def test_env_override_lowers_ceiling(self, monkeypatch):
        monkeypatch.setenv("FERMAT_LAB_MAX_N", "4")
        assert run_cli("pepin", "5").code == 2
        assert run_cli("pepin", "4").code == 0

    def test_env_override_raises_ceiling(self, monkeypatch):
        monkeypatch.setenv("FERMAT_LAB_MAX_N", "26")
        # k_max=1 keeps this instant: one candidate, 25 tiny squarings
        assert run_cli("factor", "25", "--k-max", "1").code == 0

    @pytest.mark.parametrize("args", [("pepin", "1"), ("classify", "1"),
                                      ("factor", "1"),
                                      ("audit", "--n-range", "1..3")],
                             ids=["pepin", "classify", "factor", "audit"])
    def test_index_below_two_has_one_message(self, args):
        res = run_cli(*args)
        assert (res.code, res.stdout, res.stderr) \
            == (2, "", "fermatlab: Fermat index must be >= 2, got 1\n")

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("FERMAT_LAB_MAX_N", "soon")
        assert run_cli("pepin", "5").code == 2


class TestBlasThreads:
    """Each command runs with OPENBLAS_NUM_THREADS=1 unless the caller
    set it, and os.environ is left as it was found."""

    VAR = "OPENBLAS_NUM_THREADS"

    def seen_by_the_command(self, monkeypatch, *args):
        seen = []
        real = primality.pepin_test

        def spy(*a, **kw):
            seen.append(os.environ.get(self.VAR))
            return real(*a, **kw)

        monkeypatch.setattr(primality, "pepin_test", spy)
        before = dict(os.environ)
        res = run_cli(*args)
        assert dict(os.environ) == before
        return res.code, seen

    @pytest.mark.parametrize("args, code",
                             [(("pepin", "14"), 0),
                              (("pepin", "5", "--base", "7"), 2)],
                             ids=["pepin-14", "refused-base"])
    def test_set_for_the_command_only(self, monkeypatch, args, code):
        monkeypatch.delenv(self.VAR, raising=False)
        assert self.seen_by_the_command(monkeypatch, *args) == (code, ["1"])

    def test_caller_value_kept(self, monkeypatch):
        monkeypatch.setenv(self.VAR, "2")
        assert self.seen_by_the_command(monkeypatch, "pepin", "5") \
            == (0, ["2"])


class TestFileSystemErrors:
    """An unusable output path exits 2 with one line, not a traceback."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("", encoding="utf-8")
        return path

    def test_unwritable_report(self, blocker):
        proc = run_cli_subprocess("audit", "--n-range", "5", "--bases", "2",
                                  "--report", str(blocker / "r.json"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("fermatlab: ")
        assert proc.stderr.count("\n") == 1

    def test_unwritable_report_fails_before_the_chains(self, blocker,
                                                       monkeypatch):
        jobs = []
        monkeypatch.setattr(primality, "_run_chains", jobs.append)
        res = run_cli("audit", "--n-range", "5..12",
                      "--report", str(blocker / "r.json"))
        assert (res.code, res.stdout, jobs) == (2, "", [])
        assert res.stderr.startswith("fermatlab: ")

    def test_directory_report_fails_before_the_chains(self, tmp_path,
                                                      monkeypatch):
        target = tmp_path / "reports"
        target.mkdir()
        jobs = []
        monkeypatch.setattr(primality, "_run_chains", jobs.append)
        res = run_cli("audit", "--n-range", "12..13",
                      "--report", str(target))
        assert (res.code, res.stdout, jobs) == (2, "", [])
        assert res.stderr.startswith("fermatlab: ")
        assert res.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_refused_audit_leaves_no_report(self, tmp_path):
        target = tmp_path / "r.json"
        for bad in (["--n-range", "1..5"], ["--bases=2,-3"]):
            res = run_cli("audit", *bad, "--report", str(target))
            assert res.code == 2
            assert not target.exists()

    def test_refused_chain_leaves_no_report(self, tmp_path, monkeypatch):
        flip_bit_at(monkeypatch, 300)
        assert_refused(run_cli("audit", "--n-range", "9", "--bases", "2",
                               "--report", str(tmp_path / "r.json")))
        assert list(tmp_path.iterdir()) == []

    def test_refused_chain_keeps_an_earlier_report(self, tmp_path,
                                                   monkeypatch):
        target = tmp_path / "r.json"
        args = ("audit", "--n-range", "9", "--bases", "2",
                "--report", str(target))
        assert run_cli(*args).code == 0
        before = target.read_bytes()
        flip_bit_at(monkeypatch, 300)
        assert_refused(run_cli(*args))
        assert target.read_bytes() == before
        assert list(tmp_path.iterdir()) == [target]

    def test_unusable_checkpoint_dir_fails_before_the_chain(
            self, blocker, monkeypatch):
        chains = spy_on_squarings(monkeypatch)
        res = run_cli("pepin", "11", "--checkpoint-dir", str(blocker))
        assert (res.code, res.stdout, chains) == (2, "", [])
        assert res.stderr.startswith("fermatlab: ")
        assert res.stderr.count("\n") == 1


class TestSchemaStrictness:
    def test_extra_key_rejected(self, schema_validator):
        doc = run_cli("pepin", "2").json()
        doc["surprise"] = 1
        with pytest.raises(jsonschema.exceptions.ValidationError):
            schema_validator.validate(doc)

    def test_uppercase_hex_rejected(self, schema_validator):
        doc = run_cli("pepin", "5").json()
        doc["half_residue"] = doc["half_residue"].upper()
        with pytest.raises(jsonschema.exceptions.ValidationError):
            schema_validator.validate(doc)


class TestSubprocessEntryPoint:
    def test_selftest(self):
        proc = run_cli_subprocess("selftest")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_pepin_prime(self):
        proc = run_cli_subprocess("pepin", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pepin_prime"] is True

    def test_env_ceiling(self):
        env = dict(os.environ, FERMAT_LAB_MAX_N="12")
        proc = run_cli_subprocess("pepin", "13", env=env)
        assert proc.returncode == 2


# Put on the path of a fresh interpreter as sitecustomize.py, it writes
# the number of objects gc.freeze() has frozen as the last line of
# stderr, when the interpreter begins to exit.
_FREEZE_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
"""

# `python -m fermatlab`, and what the `fermatlab` console script runs
ENTRIES = {"module": ["-m", "fermatlab"],
           "console-script": ["-c", "from fermatlab.cli import entry; "
                                    "entry()"]}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
class TestProcessEntry:
    """cli.entry runs main() and freezes the collector before the exit."""

    @staticmethod
    def run(tmp_path, entry, *args):
        (tmp_path / "sitecustomize.py").write_text(_FREEZE_PROBE,
                                                   encoding="utf-8")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(tmp_path) if not path
                   else f"{tmp_path}{os.pathsep}{path}")
        proc = subprocess.run([sys.executable, *ENTRIES[entry], *args],
                              capture_output=True, text=True, env=env,
                              timeout=600)
        return proc, int(proc.stderr.splitlines()[-1])

    def test_freezes_and_prints_the_record(self, tmp_path, entry):
        proc, frozen = self.run(tmp_path, entry, "classify", "5", "--base",
                                "7")
        assert proc.returncode == 0, proc.stderr
        assert frozen > 0
        in_process = run_cli("classify", "5", "--base", "7")
        assert strip_timing(json.loads(proc.stdout)) \
            == strip_timing(in_process.json())

    def test_precondition_error_exits_2(self, tmp_path, entry):
        proc, _ = self.run(tmp_path, entry, "pepin", "5",
                           "--checkpoint-every", "4")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "need --checkpoint-dir" in proc.stderr

    def test_usage_error_exits_2(self, tmp_path, entry):
        proc, _ = self.run(tmp_path, entry, "pepin", "five")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "invalid int value" in proc.stderr
