"""Resumable squaring-chain state, persisted as small JSON files.

A checkpoint captures (n, base, squaring index, residue) of a chain
plus a truncated-sha256 digest of exactly those payload fields, so a
torn or hand-edited file is rejected on load rather than silently
resuming from garbage.  Writes go to a temp file in the same directory
followed by an atomic rename; there is never a moment where the real
filename holds a partial file.

Only the half-residue chain of the pepin command is checkpointed, so
every file's chain_kind is CHAIN_KIND.  One file per (n, base): the filename
bakes in the kind and index directly and an 8-hex-digit hash of the
base, so concurrent runs on different chains never collide.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

from .arith import check_index, from_hex, to_hex
from .errors import CheckpointError

CHECKPOINT_FORMAT_VERSION = 1
CHAIN_KIND = "pepin"
DEFAULT_EVERY_SQUARINGS = 1 << 10
DEFAULT_EVERY_SECONDS = 30.0


def payload_digest(n: int, base_hex: str, index: int, residue_hex: str) -> str:
    """64-bit digest (16 hex chars) binding the resumable payload."""
    blob = f"{n}|{base_hex}|{index}|{residue_hex}".encode("ascii")
    return hashlib.sha256(blob).digest()[:8].hex()


def checkpoint_filename(n: int, base: int) -> str:
    tag = hashlib.sha256(to_hex(base).encode("ascii")).hexdigest()[:8]
    return f"{CHAIN_KIND}_n{n}_b{tag}.ckpt.json"


@dataclass(frozen=True, slots=True)
class Checkpoint:
    n: int
    base: int
    squaring_index: int
    residue: int
    created_at: str
    format_version: int = CHECKPOINT_FORMAT_VERSION

    @classmethod
    def capture(cls, n: int, base: int, index: int,
                residue: int) -> "Checkpoint":
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        return cls(n=n, base=base, squaring_index=index, residue=residue,
                   created_at=stamp)

    def to_json(self) -> str:
        base_hex = to_hex(self.base)
        residue_hex = to_hex(self.residue)
        doc = {
            "format_version": self.format_version,
            "chain_kind": CHAIN_KIND,
            "n": self.n,
            "base": base_hex,
            "squaring_index": self.squaring_index,
            "residue": residue_hex,
            "digest": payload_digest(self.n, base_hex, self.squaring_index,
                                     residue_hex),
            "created_at": self.created_at,
        }
        return json.dumps(doc, sort_keys=True) + "\n"


def save_checkpoint(cp: Checkpoint, directory: Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / checkpoint_filename(cp.n, cp.base)
    tmp = directory / f".{path.name}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(cp.to_json())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(path: Path) -> Checkpoint:
    """Parse and verify one checkpoint file.

    Every failure mode (unreadable, bad JSON, wrong version, malformed
    fields, out-of-range values, digest mismatch) raises CheckpointError;
    a caller must never fall back to a fresh start on its own, since a
    corrupt checkpoint usually means something external went wrong.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    try:
        doc = json.loads(text)
    except ValueError as err:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")

    def field(name, kind):
        if name not in doc:
            raise CheckpointError(f"checkpoint {path} lacks field {name!r}")
        value = doc[name]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CheckpointError(
                f"checkpoint {path} field {name!r} has wrong type")
        return value

    version = field("format_version", int)
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported format_version {version}")
    kind = field("chain_kind", str)
    if kind != CHAIN_KIND:
        raise CheckpointError(
            f"checkpoint {path} has unknown chain_kind {kind!r}")
    n = field("n", int)
    try:
        check_index(n)
    except ValueError as err:
        raise CheckpointError(f"checkpoint {path}: {err}") from err
    index = field("squaring_index", int)
    # the half-residue chain is 2^n - 1 squarings long
    if not 0 <= index <= (1 << n) - 1:
        raise CheckpointError(
            f"checkpoint {path} squaring_index {index} out of range")
    base_hex = field("base", str)
    residue_hex = field("residue", str)
    try:
        base = from_hex(base_hex)
        residue = from_hex(residue_hex)
    except ValueError as err:
        raise CheckpointError(f"checkpoint {path}: {err}") from err
    if residue > (1 << (1 << n)):
        raise CheckpointError(
            f"checkpoint {path} residue exceeds the modulus range")
    digest = field("digest", str)
    expected = payload_digest(n, base_hex, index, residue_hex)
    if digest != expected:
        raise CheckpointError(
            f"checkpoint {path} digest mismatch: file says {digest}, "
            f"payload hashes to {expected}")
    created = field("created_at", str)
    return Checkpoint(n=n, base=base, squaring_index=index, residue=residue,
                      created_at=created, format_version=version)


def find_checkpoint(directory: Path, n: int, base: int) -> Optional[Path]:
    path = Path(directory) / checkpoint_filename(n, base)
    return path if path.exists() else None


def load_matching(directory: Path, n: int, base: int) -> Optional[Checkpoint]:
    """Load the checkpoint for (n, base) if one exists.

    The loaded payload must agree with what the caller is about to run;
    a file that parses but describes a different chain is treated as
    corrupt (someone renamed or swapped files).
    """
    path = find_checkpoint(directory, n, base)
    if path is None:
        return None
    cp = load_checkpoint(path)
    if (cp.n, cp.base) != (n, base):
        raise CheckpointError(
            f"checkpoint {path} describes chain "
            f"(n={cp.n}, base={cp.base}), expected (n={n}, base={base})")
    return cp


class ChainPaused(Exception):
    """Raised out of a chain observer to stop after a planned index.

    Control flow, not an error: the checkpoint at .path holds the state
    at .index and a later invocation resumes from it.
    """

    def __init__(self, index: int, path: Path):
        super().__init__(f"chain paused after squaring {index}")
        self.index = index
        self.path = path


class CheckpointWriter:
    """Chain observer that persists state on a squarings/seconds cadence.

    Pass as the observer of a squaring chain that starts at squaring
    `start_index` of the half-residue chain (the index of the checkpoint
    it resumes from, else 0); the indices it writes and compares are
    global.  Writes happen every `every_squarings` steps or
    `every_seconds` seconds, whichever comes first, and always at
    `stop_after` (followed by a ChainPaused raise).
    Call finished() after a completed chain to remove the file; a stale
    checkpoint of a finished run would otherwise shadow future runs.
    """

    def __init__(self, n: int, base: int, directory: Path,
                 start_index: int = 0,
                 every_squarings: int = DEFAULT_EVERY_SQUARINGS,
                 every_seconds: float = DEFAULT_EVERY_SECONDS,
                 stop_after: Optional[int] = None):
        if every_squarings < 1:
            raise ValueError("checkpoint cadence must be >= 1 squaring")
        self.n = n
        self.base = base
        self.directory = Path(directory)
        self.start_index = start_index
        self.every_squarings = every_squarings
        self.every_seconds = every_seconds
        self.stop_after = stop_after
        self.path: Optional[Path] = None
        self.last_index: Optional[int] = None
        self._last_time = time.monotonic()

    def __call__(self, index: int, value: Callable[[], int]) -> None:
        index += self.start_index
        pause = self.stop_after is not None and index >= self.stop_after
        due = (index % self.every_squarings == 0) or pause
        if not due and self.every_seconds > 0:
            due = time.monotonic() - self._last_time >= self.every_seconds
        if not due:
            return
        cp = Checkpoint.capture(self.n, self.base, index, value())
        self.path = save_checkpoint(cp, self.directory)
        self.last_index = index
        self._last_time = time.monotonic()
        if pause:
            raise ChainPaused(index, self.path)

    def finished(self) -> None:
        path = self.directory / checkpoint_filename(self.n, self.base)
        try:
            path.unlink()
        except FileNotFoundError:
            pass
