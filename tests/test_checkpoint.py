"""Checkpoint persistence: atomic writes, strict loads, pause/resume."""

import json
import os
import re

import pytest

from conftest import spy_on_squarings

from fermatlab import arith, checkpoint
from fermatlab.arith import CHAIN_BLOCK, fermat_value, mod_square_chain, \
    reduce_fold, to_hex
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


def true_residue(n, base, index):
    """base^(2^index) mod F_n, the residue a real chain has at index."""
    return pow(base, 1 << index, fermat_value(n))


def make_checkpoint(index=100):
    return Checkpoint.capture(10, 3, index, true_residue(10, 3, index))


def write_doc(tmp_path, doc, name="pepin_n10_bdeadbeef.ckpt.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def valid_doc(**overrides):
    n, index, base = 10, 100, 3
    residue = true_residue(n, base, index)
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

    def test_save_load_where_no_factor_is_known(self, tmp_path):
        # F_20 has no known factor, so only the digest vouches for it
        cp = Checkpoint.capture(20, 3, 3, 3 ** 8)
        assert load_checkpoint(save_checkpoint(cp, tmp_path)) == cp

    def test_no_temp_leftovers(self, tmp_path):
        save_checkpoint(make_checkpoint(), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] \
            == [checkpoint_filename(10, 3)]

    def test_failed_write_leaves_only_the_earlier_file(self, tmp_path,
                                                        monkeypatch):
        path = save_checkpoint(make_checkpoint(index=100), tmp_path)
        before = path.read_bytes()

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(make_checkpoint(index=200), tmp_path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

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

    def test_mismatch_names_bases_in_hex(self, tmp_path):
        # a base past int()'s 4300-digit cap on decimal strings
        big = 7 ** 5300
        path = save_checkpoint(make_checkpoint(), tmp_path)
        path.rename(tmp_path / checkpoint_filename(10, big))
        with pytest.raises(CheckpointError) as err:
            load_matching(tmp_path, 10, big)
        assert str(err.value).endswith(
            f"describes chain (n=10, base=0x3), expected "
            f"(n=10, base=0x{big:x})")


def old_rule(start, total, every, stop_after):
    """Writes and pause index of the per-squaring writer that the block
    loop replaced: after each squaring i past start, it wrote when i was
    a multiple of every or i >= stop_after, and paused at the first i
    >= stop_after."""
    writes = []
    for i in range(start + 1, total + 1):
        pause = stop_after is not None and i >= stop_after
        if i % every == 0 or pause:
            writes.append(i)
        if pause:
            return writes, i
    return writes, None


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

    @pytest.mark.parametrize("base", [0, 641 * 3, -3])
    def test_refused_base_makes_no_directory(self, tmp_path, base):
        # the start of the chain comes first, from require_coprime
        target = tmp_path / "ck"
        with pytest.raises(ValueError):
            CheckpointWriter(5, base, target)
        assert not target.exists()

    def test_directory_created_on_construction(self, tmp_path):
        target = tmp_path / "deep" / "ck"
        CheckpointWriter(10, 3, target)
        assert target.is_dir()
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        with pytest.raises(OSError):
            CheckpointWriter(10, 3, blocker)

    def test_squaring_cadence(self, tmp_path, monkeypatch):
        # the n=6 half chain is 63 squarings, so the last write lands at 48
        saved = []
        monkeypatch.setattr(checkpoint, "save_checkpoint",
                            lambda cp, directory: saved.append(cp))
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=16, every_seconds=0)
        writer.run()
        cp = saved[-1]
        assert cp.squaring_index == 48

    def test_no_write_before_cadence(self, tmp_path):
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=1000, every_seconds=0)
        writer.run()
        assert load_matching(tmp_path, 6, 3) is None
        assert list(tmp_path.iterdir()) == []

    def test_time_cadence(self, tmp_path, monkeypatch):
        saved = []
        monkeypatch.setattr(checkpoint, "save_checkpoint",
                            lambda cp, directory: saved.append(cp))
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=10 ** 9,
                                  every_seconds=1e-9)
        writer.run()
        assert saved

    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("every", [1, 3, 16, 64, 10 ** 9])
    def test_blocks_follow_the_per_squaring_rule(self, tmp_path,
                                                 monkeypatch, n, every):
        total = (1 << n) - 1
        chain = [reduce_fold(3, n)]
        for _ in range(total):
            chain.append(mod_square_chain(chain[-1], 1))
        saved = []
        for start in [s for s in (0, 5, 64, 130) if s <= total]:
            for stop_after in (None, 1, 63, 64, 65, 200):
                directory = tmp_path / f"{start}_{stop_after}"
                if start:
                    save_checkpoint(Checkpoint.capture(
                        n, 3, start, chain[start].value), directory)
                writer = CheckpointWriter(n, 3, directory,
                                          every_squarings=every,
                                          every_seconds=0,
                                          stop_after=stop_after)
                saved.clear()
                monkeypatch.setattr(checkpoint, "save_checkpoint",
                                    lambda cp, d: saved.append(cp) or d)
                counts = spy_on_squarings(monkeypatch)
                try:
                    half = writer.run()
                    paused = None
                except ChainPaused as pause:
                    paused = pause.index
                monkeypatch.undo()
                writes, pause = old_rule(start, total, every, stop_after)
                case = (n, every, start, stop_after)
                assert [cp.squaring_index for cp in saved] == writes, case
                assert paused == pause, case
                assert all(cp.residue == chain[cp.squaring_index].value
                           for cp in saved), case
                if paused is None:
                    assert half == chain[total], case
                assert sum(counts) == (paused or total) - start, case
                assert max(counts, default=0) <= CHAIN_BLOCK, case

    def test_resumed_writer_writes_global_indices(self, tmp_path,
                                                  monkeypatch):
        save_checkpoint(Checkpoint.capture(6, 3, 20, true_residue(6, 3, 20)),
                        tmp_path)
        saved = []
        monkeypatch.setattr(checkpoint, "save_checkpoint",
                            lambda cp, directory: saved.append(cp))
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=1, every_seconds=0)
        assert writer.resumed.squaring_index == 20
        writer.run()
        seen = [cp.squaring_index for cp in saved]
        assert seen == list(range(21, (1 << 6)))
        assert [cp.residue for cp in saved] \
            == [true_residue(6, 3, i) for i in seen]

    def test_stop_after_pauses_and_persists(self, tmp_path):
        writer = CheckpointWriter(8, 3, tmp_path,
                                  every_squarings=10 ** 9, every_seconds=0,
                                  stop_after=100)
        with pytest.raises(ChainPaused) as exc:
            writer.run()
        assert exc.value.index == 100
        cp = load_matching(tmp_path, 8, 3)
        assert cp.squaring_index == 100

    def test_resume_from_pause_matches_clean_run(self, tmp_path):
        clean_prime, clean_half = pepin_test(8)
        writer = CheckpointWriter(8, 3, tmp_path, stop_after=77)
        with pytest.raises(ChainPaused):
            writer.run()
        writer = CheckpointWriter(8, 3, tmp_path)
        assert writer.resumed.squaring_index == 77
        resumed_half = writer.run()
        assert resumed_half == clean_half
        assert resumed_half.is_minus_one == clean_prime

    @pytest.mark.parametrize("n", [6, 8])
    def test_resume_at_the_last_index_squares_nothing(self, tmp_path,
                                                      monkeypatch, n):
        # a pause at the chain's last index is a pause, not the result
        total = (1 << n) - 1
        clean_half = pepin_test(n)[1]
        with pytest.raises(ChainPaused) as paused:
            CheckpointWriter(n, 3, tmp_path, stop_after=total).run()
        assert paused.value.index == total
        writer = CheckpointWriter(n, 3, tmp_path)
        assert writer.resumed.squaring_index == total
        counts = spy_on_squarings(monkeypatch)
        assert writer.run() == clean_half
        assert counts == []
        assert list(tmp_path.iterdir()) == []

    def test_completed_run_leaves_no_file(self, tmp_path):
        # written at 16, 32 and 48, then deleted at the chain's end
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=16, every_seconds=0)
        writer.run()
        assert list(tmp_path.iterdir()) == []

    def test_run_refused_at_its_last_block_keeps_the_last_file(
            self, tmp_path, monkeypatch):
        # squaring 50 goes wrong, in the block from 48 to the end at 63
        real = arith._mulmod
        calls = []

        def faulty(x, y, width, top, mask):
            calls.append(1)
            out = real(x, y, width, top, mask)
            return out ^ 1 if len(calls) == 50 else out

        monkeypatch.setattr(arith, "_mulmod", faulty)
        writer = CheckpointWriter(6, 3, tmp_path,
                                  every_squarings=16, every_seconds=0)
        with pytest.raises(CheckpointError, match=r"base\^\(2\^63\)"):
            writer.run()
        assert load_matching(tmp_path, 6, 3).squaring_index == 48
