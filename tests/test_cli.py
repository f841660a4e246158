"""End-to-end CLI behavior: records, exit codes, checkpoint flows."""

import dataclasses
import json
import os

import jsonschema
import pytest

from conftest import SELFTEST_CHECKS, run_cli, run_cli_subprocess

from fermatlab import arith, primality
from fermatlab.arith import fermat_value
from fermatlab.checkpoint import (
    Checkpoint,
    checkpoint_filename,
    save_checkpoint,
)
from fermatlab.factors import CandidateDivisor
from fermatlab.records import strip_timing


@pytest.fixture(autouse=True)
def fresh_prime_cache():
    primality.reset_prime_cache()
    yield
    primality.reset_prime_cache()


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
            return (dataclasses.replace(first, passed=False,
                                        detail="synthetic"), *rest)

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
        monkeypatch.setattr("fermatlab.cli.lucas_search",
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
            return (real(digits, plan) + 1) % (plan.top + 1)

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

    def test_refused_audit_leaves_no_report(self, tmp_path):
        target = tmp_path / "r.json"
        for bad in (["--n-range", "1..5"], ["--bases=2,-3"]):
            res = run_cli("audit", *bad, "--report", str(target))
            assert res.code == 2
            assert not target.exists()

    def test_unusable_checkpoint_dir_fails_before_the_chain(
            self, blocker, monkeypatch):
        chains = []
        monkeypatch.setattr(primality, "mod_square_chain",
                            lambda *args, **kwargs: chains.append(args))
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
