"""Resumable squaring-chain state, persisted as small JSON files.

A checkpoint captures (n, base, squaring index, residue) of a chain
plus a truncated-sha256 digest of exactly those payload fields, so a
torn or hand-edited file is rejected on load rather than silently
resuming from garbage.  Writes go through records.replacing: a temp
file in the same directory, fsynced, then an atomic rename; there is
never a moment where the real filename holds a partial file.

Where F_n has known factors, a residue that is not base^(2^index)
modulo each of them is refused (factors.check_known_factor): on load,
though it passes its digest (planted, or wrong before it was written),
and, by arith.square_blocks, at every block end of the chain, so that
a chain that goes wrong never overwrites the last good file.

Only the half-residue chain of the pepin command is checkpointed, so
every file's chain_kind is CHAIN_KIND.  One file per (n, base): the filename
bakes in the kind and index directly and an 8-hex-digit hash of the
base, so concurrent runs on different chains never collide.
"""

from __future__ import annotations

import hashlib
import json
import time
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Optional

from .arith import FermatResidue, check_chain_index, check_index, \
    from_hex, require_coprime, square_blocks, to_hex
from .errors import CheckpointError
from .factors import check_known_factor
from .records import replacing

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


class Checkpoint(NamedTuple):
    n: int
    base: int
    squaring_index: int
    residue: int
    created_at: str

    @classmethod
    def capture(cls, n: int, base: int, index: int,
                residue: int) -> "Checkpoint":
        return cls(n=n, base=base, squaring_index=index, residue=residue,
                   created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                            time.gmtime()))

    def to_json(self) -> str:
        base_hex = to_hex(self.base)
        residue_hex = to_hex(self.residue)
        doc = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
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
    with replacing(path) as out:
        out.write(cp.to_json())
    return path


def load_checkpoint(path: Path) -> Checkpoint:
    """Parse and verify one checkpoint file.

    Every failure mode (unreadable, bad JSON, wrong version, malformed
    fields, out-of-range values, digest mismatch, a residue that fails
    the known-factor check) raises CheckpointError;
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
    check_known_factor(n, base, index, residue,
                       f"checkpoint {path} residue")
    created = field("created_at", str)
    return Checkpoint(n=n, base=base, squaring_index=index, residue=residue,
                      created_at=created)


def load_matching(directory: Path, n: int, base: int) -> Optional[Checkpoint]:
    """Load the checkpoint for (n, base) if one exists.

    The loaded payload must agree with what the caller is about to run;
    a file that parses but describes a different chain is treated as
    corrupt (someone renamed or swapped files).
    """
    path = Path(directory) / checkpoint_filename(n, base)
    if not path.exists():
        return None
    cp = load_checkpoint(path)
    if (cp.n, cp.base) != (n, base):
        raise CheckpointError(
            f"checkpoint {path} describes chain (n={cp.n}, "
            f"base=0x{cp.base:x}), expected (n={n}, base=0x{base:x})")
    return cp


class ChainPaused(Exception):
    """Raised by CheckpointWriter.run to stop after a planned index.

    Control flow, not an error: the checkpoint at .path holds the state
    at .index and a later invocation resumes from it.
    """

    def __init__(self, index: int, path: Path):
        super().__init__(f"chain paused after squaring {index}")
        self.index = index
        self.path = path


class CheckpointWriter:
    """The half-residue chain of (n, base), run with its state persisted.

    The chain starts from base modulo F_n.  Before the directory is
    touched, arith.check_chain_index refuses an n outside 2..max_index(),
    and arith.require_coprime a negative base or one that shares a factor
    with F_n.  The directory is created, and a checkpoint of this chain
    loaded into .resumed (None when there is none), when the writer is
    built: an unusable directory or a corrupt file fails before the
    first squaring.
    run() squares from .resumed, or from the start, on
    arith.square_blocks, with stops at the multiples of
    `every_squarings`, at the pause index and at the chain's end; it
    acts only between blocks.  It writes a checkpoint at each such
    multiple, and where a block ends `every_seconds` (0 turns that off)
    after the last write, so such a write can come up to one block late.
    It always writes at the pause index, max(stop_after, resumed index
    + 1), and then raises ChainPaused.  Indices are those of the whole
    chain.
    The chain is a lone chain of square_blocks, which checks every
    block's end against the known factors of F_n before run() sees it:
    a wrong residue raises CheckpointError there and is never written,
    so the last good file stays.  A run that reaches the chain's end
    deletes the file; a stale checkpoint of a finished run would
    otherwise shadow future runs.  A paused run keeps it.
    """

    def __init__(self, n: int, base: int, directory: Path,
                 every_squarings: int = DEFAULT_EVERY_SQUARINGS,
                 every_seconds: float = DEFAULT_EVERY_SECONDS,
                 stop_after: Optional[int] = None):
        check_chain_index(n)
        if every_squarings < 1:
            raise ValueError("checkpoint cadence must be >= 1 squaring")
        if not every_seconds >= 0:  # NaN included
            raise ValueError(
                f"checkpoint seconds must be >= 0, got {every_seconds}")
        if stop_after is not None and stop_after < 1:
            raise ValueError(
                f"stop index must be >= 1 squaring, got {stop_after}")
        self.n = n
        self.base = base
        self.start = require_coprime(n, base)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every_squarings = every_squarings
        self.every_seconds = every_seconds
        self.stop_after = stop_after
        self.resumed = load_matching(self.directory, n, base)

    def run(self) -> FermatResidue:
        """The half residue base^((F_n-1)/2) mod F_n, the entry at index
        2^n - 1 of the chain; F_n is prime iff it is -1, for an
        admissible base (primality.PEPIN_ADMISSIBLE_BASES).

        It starts from the loaded checkpoint, when there is one, and
        deletes the checkpoint file when it returns.  A pause at the
        last index raises ChainPaused, as any pause does, and a later
        run resumed from there squares nothing.
        """
        total = (1 << self.n) - 1
        index, x = 0, self.start
        if self.resumed is not None:
            index = self.resumed.squaring_index
            x = FermatResidue(self.n, self.resumed.residue)
        # past the chain's end when there is no stop or it lies beyond
        pause = max(self.stop_after or total + 1, index + 1)
        every = self.every_squarings
        last_write = time.monotonic()
        end = min(pause, total)
        for index, (x,) in square_blocks(
                [self.base], [x], index,
                chain(range(every, end, every), [end])):
            if index % every == 0 or index == pause or (
                    self.every_seconds > 0
                    and time.monotonic() - last_write >= self.every_seconds):
                path = save_checkpoint(
                    Checkpoint.capture(self.n, self.base, index, x.value),
                    self.directory)
                last_write = time.monotonic()
                if index == pause:
                    raise ChainPaused(index, path)
        (self.directory / checkpoint_filename(self.n, self.base)).unlink(
            missing_ok=True)
        return x
