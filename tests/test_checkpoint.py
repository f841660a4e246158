"""Checkpoint persistence: atomic writes, strict loads, pause/resume."""

import json
import re

import pytest

from fermatlab import checkpoint
from fermatlab.arith import fermat_value, to_hex
from fermatlab.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    ChainPaused,
    Checkpoint,
    CheckpointWriter,
    checkpoint_filename,
    load_checkpoint,
    load_matching,
    payload_digest,
    save_checkpoint,
)
from fermatlab.errors import CheckpointError
from fermatlab.primality import pepin_test


def make_checkpoint(index=100, residue=12345):
    return Checkpoint.capture(10, 3, index, residue)


def write_doc(tmp_path, doc, name="pepin_n10_bdeadbeef.ckpt.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def valid_doc(**overrides):
    n, index, base, residue = 10, 100, 3, 12345
    base_hex, residue_hex = to_hex(base), to_hex(residue)
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "chain_kind": "pepin",
        "n": n,
        "base": base_hex,
        "squaring_index": index,
        "residue": residue_hex,
        "digest": payload_digest(n, base_hex, index, residue_hex),
        "created_at": "2026-01-01T00:00:00Z",
    }
    doc.update(overrides)
    return doc


class TestDigestAndFilename:
    def test_digest_shape(self):
        d = payload_digest(10, "3", 100, "3039")
        assert re.fullmatch(r"[0-9a-f]{16}", d)

    def test_digest_sensitivity(self):
        ref = payload_digest(10, "3", 100, "3039")
        assert payload_digest(11, "3", 100, "3039") != ref
        assert payload_digest(10, "5", 100, "3039") != ref
        assert payload_digest(10, "3", 101, "3039") != ref
        assert payload_digest(10, "3", 100, "303a") != ref

    def test_filename_shape(self):
        name = checkpoint_filename(10, 3)
        assert re.fullmatch(r"pepin_n10_b[0-9a-f]{8}\.ckpt\.json", name)

    def test_filename_separates_chains(self):
        names = {
            checkpoint_filename(10, 3),
            checkpoint_filename(11, 3),
            checkpoint_filename(10, 5),
        }
        assert len(names) == 3


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        cp = make_checkpoint()
        path = save_checkpoint(cp, tmp_path)
        assert path.name == checkpoint_filename(10, 3)
        loaded = load_checkpoint(path)
        assert loaded == cp

    def test_no_temp_leftovers(self, tmp_path):
        save_checkpoint(make_checkpoint(), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] \
            == [checkpoint_filename(10, 3)]

    def test_overwrite_same_chain(self, tmp_path):
        save_checkpoint(make_checkpoint(index=100), tmp_path)
        path = save_checkpoint(make_checkpoint(index=200), tmp_path)
        assert load_checkpoint(path).squaring_index == 200
        assert len(list(tmp_path.iterdir())) == 1

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "deep" / "nested"
        save_checkpoint(make_checkpoint(), target)
        assert (target / checkpoint_filename(10, 3)).exists()

    def test_file_matches_schema(self, tmp_path, checkpoint_validator):
        path = save_checkpoint(make_checkpoint(), tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        checkpoint_validator.validate(doc)


class TestLoadRejections:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.ckpt.json"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "bad.ckpt.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("missing", [
        "format_version", "chain_kind", "n", "base",
        "squaring_index", "residue", "digest", "created_at",
    ])
    def test_missing_field(self, tmp_path, missing):
        doc = valid_doc()
        del doc[missing]
        with pytest.raises(CheckpointError, match="lacks field"):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_wrong_types(self, tmp_path):
        for key, bad in [("n", "10"), ("squaring_index", 1.5),
                         ("base", 3), ("residue", 12345),
                         ("chain_kind", 7), ("format_version", True)]:
            with pytest.raises(CheckpointError, match="wrong type"):
                load_checkpoint(write_doc(tmp_path, valid_doc(**{key: bad})))

    def test_unsupported_version(self, tmp_path):
        doc = valid_doc(format_version=2)
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_unknown_kind(self, tmp_path):
        # only the pepin chain is ever checkpointed
        for kind in ("mystery", "classify", "order"):
            doc = valid_doc(chain_kind=kind)
            with pytest.raises(CheckpointError, match="chain_kind"):
                load_checkpoint(write_doc(tmp_path, doc))

    def test_index_out_of_range(self, tmp_path):
        # the n=10 half chain ends at squaring 2^10 - 1
        for index in (-1, 1 << 10):
            doc = valid_doc(squaring_index=index)
            doc["digest"] = payload_digest(10, "3", index, doc["residue"])
            with pytest.raises(CheckpointError, match="out of range"):
                load_checkpoint(write_doc(tmp_path, doc))

    def test_bad_hex(self, tmp_path):
        for key, bad in [("base", "0x3"), ("base", "G"), ("residue", "3A"),
                         ("residue", "")]:
            with pytest.raises(CheckpointError):
                load_checkpoint(write_doc(tmp_path, valid_doc(**{key: bad})))

    def test_residue_above_modulus(self, tmp_path):
        residue_hex = to_hex(fermat_value(10) + 1)
        doc = valid_doc(residue=residue_hex)
        doc["digest"] = payload_digest(10, "3", 100, residue_hex)
        with pytest.raises(CheckpointError, match="modulus range"):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_digest_mismatch(self, tmp_path):
        # flip the stored residue without recomputing the digest
        doc = valid_doc(residue="3038")
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(write_doc(tmp_path, doc))

    def test_truncated_real_file(self, tmp_path):
        path = save_checkpoint(make_checkpoint(), tmp_path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestLoadMatching:
    def test_absent_is_none(self, tmp_path):
        assert load_matching(tmp_path, 10, 3) is None

    def test_present_loads(self, tmp_path):
        cp = make_checkpoint()
        save_checkpoint(cp, tmp_path)
        assert load_matching(tmp_path, 10, 3) == cp

    def test_swapped_file_rejected(self, tmp_path):
        # a file renamed onto another chain's slot must not be trusted
        path = save_checkpoint(make_checkpoint(), tmp_path)
        target = tmp_path / checkpoint_filename(10, 5)
        path.rename(target)
        with pytest.raises(CheckpointError, match="describes chain"):
            load_matching(tmp_path, 10, 5)


class TestCheckpointWriter:
    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointWriter(10, 3, tmp_path, every_squarings=0)

    @pytest.mark.parametrize("stop_after", [0, -5])
    def test_stop_index_below_one_rejected(self, tmp_path, stop_after):
        target = tmp_path / "ck"
        with pytest.raises(ValueError, match="stop index"):
            CheckpointWriter(10, 3, target, stop_after=stop_after)
        assert not target.exists()

    def test_directory_created_on_construction(self, tmp_path):
        target = tmp_path / "deep" / "ck"
        CheckpointWriter(10, 3, target)
        assert target.is_dir()
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        with pytest.raises(OSError):
            CheckpointWriter(10, 3, blocker)

    def test_squaring_cadence(self, tmp_path):
        # the n=6 half chain is 63 squarings, so the last write lands at 48
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=16, every_seconds=0)
        pepin_test(6, observer=writer)
        cp = load_matching(tmp_path, 6, 3)
        assert cp.squaring_index == 48

    def test_no_write_before_cadence(self, tmp_path):
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=1000, every_seconds=0)
        pepin_test(6, observer=writer)
        assert load_matching(tmp_path, 6, 3) is None
        assert list(tmp_path.iterdir()) == []

    def test_time_cadence(self, tmp_path):
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=10 ** 9,
                                  every_seconds=1e-9)
        pepin_test(6, observer=writer)
        assert load_matching(tmp_path, 6, 3) is not None

    def test_resume_observer_uses_global_indices(self, tmp_path,
                                                 monkeypatch):
        captured = {}
        pepin_test(6, 3, observer=lambda i, v: captured.setdefault(i, v()))
        saved = []
        monkeypatch.setattr(checkpoint, "save_checkpoint",
                            lambda cp, directory: saved.append(cp))
        writer = CheckpointWriter(6, 3, tmp_path, start_index=20,
                                  every_squarings=1, every_seconds=0)
        pepin_test(6, 3, resume_index=20, resume_value=captured[20],
                   observer=writer)
        seen = [cp.squaring_index for cp in saved]
        total = (1 << 6) - 1
        assert seen == list(range(21, total + 1))
        assert [cp.residue for cp in saved] == [captured[i] for i in seen]

    def test_stop_after_pauses_and_persists(self, tmp_path):
        writer = CheckpointWriter(8, 3, tmp_path,
                                  every_squarings=10 ** 9, every_seconds=0,
                                  stop_after=100)
        with pytest.raises(ChainPaused) as exc:
            pepin_test(8, observer=writer)
        assert exc.value.index == 100
        cp = load_matching(tmp_path, 8, 3)
        assert cp.squaring_index == 100

    def test_resume_from_pause_matches_clean_run(self, tmp_path):
        clean_prime, clean_half = pepin_test(8)
        writer = CheckpointWriter(8, 3, tmp_path, stop_after=77)
        with pytest.raises(ChainPaused):
            pepin_test(8, observer=writer)
        cp = load_matching(tmp_path, 8, 3)
        resumed_prime, resumed_half = pepin_test(
            8, resume_index=cp.squaring_index, resume_value=cp.residue)
        assert resumed_half == clean_half
        assert resumed_prime == clean_prime

    def test_finished_removes_file(self, tmp_path):
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=16, every_seconds=0)
        pepin_test(6, observer=writer)
        path = tmp_path / checkpoint_filename(6, 3)
        assert path.exists()
        writer.finished()
        assert not path.exists()

    def test_finished_tolerates_absence(self, tmp_path):
        CheckpointWriter(6, 3, tmp_path).finished()
