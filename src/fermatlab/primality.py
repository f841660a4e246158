"""Primality and pseudoprimality tests for Fermat numbers.

Three congruences drive everything, all realised as taps on one squaring
chain of base^(2^k) values:

  * quarter residue   base^((F_n-1)/4), after 2^n - 2 squarings
  * half residue      base^((F_n-1)/2), after 2^n - 1 squarings
  * full residue      base^(F_n-1),     after 2^n squarings

F_n is prime exactly when the half residue for an admissible base (3, 5
or 10) is -1; F_n is a Fermat pseudoprime to a coprime base when it is
composite and the full residue is 1.  For n >= 5 the quarter residue is
constrained: on a composite F_n the full residue can be 1 only if the
quarter residue already is, a quarter residue of -1 forces primality,
and for base 3 the quarter residue decides pseudoprimality outright and
is never -1.  classify_report() checks all of that on every call and
returns each rule's outcome with the verdict; a failed rule is a
counterexample, which the CLI reports loudly (exit 4), never swallows.
audit_range() runs no chain for a row whose congruence a known factor
of F_n refutes (factors.refuted_bases): that alone fixes its
quarter tag, congruence, verdict and rules.
"""

from __future__ import annotations

import enum
import os
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .arith import FermatResidue, _check_base, chain_backend, \
    check_chain_index, check_index, fermat_value, require_coprime, \
    square_blocks
from .errors import NonAdmissibleBaseError
from .factors import _odd_primes, proven_factors, refuted_bases

# Bases for which the half-residue test decides primality.  Known good
# bases; there is no general criterion here, hence an allowlist with an
# explicit override for experiments.
PEPIN_ADMISSIBLE_BASES = frozenset({3, 5, 10})

# The base whose half residue decides primality in every verdict.
PEPIN_BASE = 3

AUDIT_MIN_INDEX = 5

# Least estimated cost of an audit whose chains run on a process pool, in
# squarings times bits of F_n: 4^n per chain at index n, and (n + 1) *
# 2^n in a batch of power-of-two bases, whose chains are 1 from index
# n + 1 on (_run_chains).  One squaring cost 1.1-1.8 ns per bit at n =
# 9..12 (best of 5, 2 cores), and the pool 7-11 ms to import
# multiprocessing plus 14-20 ms to fork 2 workers, map and close.
# Whole `audit` processes over 50 bases, each index's chains in two
# round-robin batches on the pool vs one batch in one process (medians
# of 21 alternating runs, 2 cores, shared host): n = 10
# (2^25.6) 197 vs 207 ms, n = 5..10 (2^26.1) 252 vs 263 ms, n = 10..11
# (2^28.0) 474 vs 622 ms.  So the pool breaks even near here; n = 5..8
# is 2^22.  The model prices integer chains; batches on the FFT cost
# less (arith.FFT_MIN_BATCH) but only start at 2^28 (n = 12 over 16
# chains, n = 13 over 4).  There, two batches on the pool against one
# batch alone (medians of 7, numpy loaded) took 0.56 vs 0.58 s and 0.84
# vs 0.84 s, and n = 12 over 50 bases 0.85 vs 1.22 s: even at the
# smallest batched audit, then ahead.
_POOL_MIN_COST = 1 << 26


class QuarterTag(enum.Enum):
    PLUS_ONE = "plus-one"
    MINUS_ONE = "minus-one"
    OTHER = "other"


class QuarterClass(NamedTuple):
    """The quarter residue, classified by its tag."""

    residue: FermatResidue

    @property
    def tag(self) -> QuarterTag:
        if self.residue.is_one:
            return QuarterTag.PLUS_ONE
        if self.residue.is_minus_one:
            return QuarterTag.MINUS_ONE
        return QuarterTag.OTHER


class Classification(enum.Enum):
    PRIME = "prime"
    PSEUDOPRIME_TO_BASE = "pseudoprime-to-base"
    COMPOSITE_NON_PSEUDOPRIME = "composite-non-pseudoprime"


class RuleOutcome(NamedTuple):
    """One quarter-residue rule checked on a verdict, named by its key.

    detail says what went wrong, and is set only when the rule failed.
    """

    rule: str
    passed: bool
    detail: Optional[str] = None


class Verdict(NamedTuple):
    """Everything one classify run learned about (F_n, base).

    It holds the taps of base's chain and reads the rest from them.
    pepin_prime is False where a known factor divides F_n
    (factors.proven_factors), and otherwise comes from a base-3 half
    residue; base 2 in particular proves nothing about primality
    (2^((F_n-1)/2) never lands on -1 for n >= 2), so the requested base
    only ever supplies the pseudoprimality side.  rules holds the
    outcome of every rule that applies to (n, base), in check order.

    taps is None on an audit row whose congruence a known factor
    refutes: no chain ran, so it has no residues, only the quarter tag
    other and a congruence that fails.
    """

    n: int
    base: int
    pepin_prime: bool
    taps: Optional[ChainTaps]

    @property
    def quarter(self) -> QuarterClass:
        return QuarterClass(self.taps.quarter)

    @property
    def half_residue(self) -> FermatResidue:
        return self.taps.half

    @property
    def fermat_residue(self) -> FermatResidue:
        return self.taps.full

    @property
    def quarter_tag(self) -> QuarterTag:
        if self.taps is None:
            return QuarterTag.OTHER
        return self.quarter.tag

    @property
    def fermat_congruence_holds(self) -> bool:
        return self.taps is not None and self.taps.full.is_one

    @property
    def classification(self) -> Classification:
        if self.pepin_prime:
            return Classification.PRIME
        if self.fermat_congruence_holds:
            return Classification.PSEUDOPRIME_TO_BASE
        return Classification.COMPOSITE_NON_PSEUDOPRIME

    @property
    def squarings(self) -> int:
        """The chain's 2^n squarings, plus a Pepin chain (2^n - 1
        squarings) for primality unless the base is 3.

        It is the nominal count, a record contract, not the squarings
        done.  That Pepin chain is counted whether or not it runs: a
        known factor of F_n decides primality with no chain, and where
        none is known audit_range runs a base-3 chain of all 2^n
        squarings.  Nor does the count drop where chains reach 1
        early, after which arith.square_blocks squares them no further
        (a lone base-2 chain from index n + 1 on).  The formula stays
        as it is so that records do not change."""
        if self.base == PEPIN_BASE:
            return 1 << self.n
        return (1 << (self.n + 1)) - 1

    @property
    def rules(self) -> Tuple[RuleOutcome, ...]:
        return _audit_rules(self)

    @property
    def violations(self) -> Tuple[RuleOutcome, ...]:
        return tuple(r for r in self.rules if not r.passed)


class ChainTaps(NamedTuple):
    """Quarter, half and full residues taken from a single chain."""

    quarter: FermatResidue
    half: FermatResidue
    full: FermatResidue


def chain_taps(n: int, base: int) -> ChainTaps:
    """Run one chain of 2^n squarings, read at its three tap points.

    arith.square_blocks checks its residues against the known factors
    of F_n, and raises CheckpointError for a wrong one.
    """
    return _batch_taps(n, [base])[0]


def _batch_taps(n: int, bases: Sequence[int]) -> List[ChainTaps]:
    """chain_taps of each base, the chains squared together
    (arith.square_blocks), keeping only the three tapped states.

    The three taps are the stops, so square_blocks has checked each of
    them, in every chain, before it is read."""
    check_chain_index(n)
    last = 1 << n
    quarters, halves, fulls = [
        residues for index, residues in square_blocks(
            bases, [require_coprime(n, base) for base in bases], 0,
            (last - 2, last - 1, last))
        if index >= last - 2]
    return [ChainTaps(quarter=quarter, half=half, full=full)
            for quarter, half, full in zip(quarters, halves, fulls)]


def check_pepin(n: int, base: int, allow_any_base: bool) -> FermatResidue:
    """Raise for the index or base that pepin_test would refuse, in its
    order: the index, the base's sign, admissibility, coprimality.
    Else the start of the chain, base modulo F_n (require_coprime)."""
    check_chain_index(n)
    _check_base(base)
    if base not in PEPIN_ADMISSIBLE_BASES and not allow_any_base:
        raise NonAdmissibleBaseError(
            f"base 0x{base:x} is not in the admissible set "
            f"{sorted(PEPIN_ADMISSIBLE_BASES)}; the any-base override "
            f"runs it anyway but the result carries no primality claim")
    return require_coprime(n, base)


def pepin_test(n: int, base: int = 3,
               allow_any_base: bool = False) -> Tuple[bool, FermatResidue]:
    """Half-residue primality test: F_n prime iff base^((F_n-1)/2) = -1.

    Valid for n >= 2 with base in PEPIN_ADMISSIBLE_BASES; other bases
    are rejected unless allow_any_base is set, because for them the
    equivalence with primality is not established (and for base 2 it is
    plainly false).  The chain is one lone chain of arith.square_blocks,
    which checks every block's end against the known factors of F_n and
    raises CheckpointError for a wrong residue.  A resumable run of the
    same chain is checkpoint.CheckpointWriter's run().
    """
    start = check_pepin(n, base, allow_any_base)
    for _, (half,) in square_blocks([base], [start], 0, [(1 << n) - 1]):
        pass
    return half.is_minus_one, half


# Primality of F_n by index, filled in by whoever computes it first.
# F_0 = 3 and F_1 = 5 are prime (below the n >= 2 reach of the half
# -residue test; the brute-force suite re-certifies them).
_PRIME_CACHE: Dict[int, bool] = {0: True, 1: True}


def fermat_is_prime(n: int) -> bool:
    """Primality of F_n, cached per index.

    False where a known factor divides F_n (factors.proven_factors),
    with no chain; otherwise the base-3 half residue decides.
    """
    check_index(n)
    cached = _PRIME_CACHE.get(n)
    if cached is None:
        cached = not proven_factors(n) and pepin_test(n, PEPIN_BASE)[0]
        _PRIME_CACHE[n] = cached
    return cached


def quarter_residue(n: int, base: int) -> QuarterClass:
    """base^((F_n-1)/4) mod F_n, read from chain_taps, classified."""
    return QuarterClass(chain_taps(n, base).quarter)


def fermat_congruence(n: int, base: int) -> bool:
    """Whether base^(F_n - 1) = 1 mod F_n (two squarings past quarter)."""
    return chain_taps(n, base).full.is_one


def _audit_rules(verdict: Verdict) -> Tuple[RuleOutcome, ...]:
    """Check the n >= 5 quarter-residue rules that apply to a verdict.

    Rule keys, in check order:
      pseudoprime-quarter-one         congruence on composite F_n forces
                                      quarter residue 1
      quarter-minus-one-implies-prime quarter residue -1 forces primality
      base3-quarter-not-minus-one     base 3 never has quarter residue -1
      base3-pseudoprime-iff-quarter-one
                                      base 3: quarter residue 1 holds
                                      exactly on pseudoprime F_n
    Below n = 5 no rule applies.  A failed outcome would be a genuine
    counterexample to the theory this library implements.  Details name
    the base in hex, as the records do, so that any base can be written.
    """
    n, base, pepin_prime = verdict.n, verdict.base, verdict.pepin_prime
    if n < AUDIT_MIN_INDEX:
        return ()
    pseudo = verdict.classification is Classification.PSEUDOPRIME_TO_BASE
    tag = verdict.quarter_tag
    one = tag is QuarterTag.PLUS_ONE
    minus_one = tag is QuarterTag.MINUS_ONE
    # (rule key, whether it holds, what a failure means), the meaning
    # formatted only for a failed rule
    checks = [
        ("pseudoprime-quarter-one", one or not pseudo,
         lambda: f"F_{n} pseudoprime to base 0x{base:x} but quarter "
                 f"residue is {tag.value} (expected 1)"),
        ("quarter-minus-one-implies-prime", pepin_prime or not minus_one,
         lambda: f"quarter residue of base 0x{base:x} is -1 yet F_{n} "
                 "is composite"),
    ]
    if base == 3:
        checks += [
            ("base3-quarter-not-minus-one", not minus_one,
             lambda: f"3^((F_{n}-1)/4) = -1 should never happen for "
                     "n >= 5"),
            ("base3-pseudoprime-iff-quarter-one", one == pseudo,
             lambda: f"base-3 quarter residue tag {tag.value} "
                     f"disagrees with pseudoprime={pseudo} at n={n}"),
        ]
    return tuple(RuleOutcome(rule, passed, None if passed else detail())
                 for rule, passed, detail in checks)


def classify_report(n: int, base: int) -> Verdict:
    """Full verdict for (F_n, base), with the outcome of every rule.

    It is the one row of audit_range([n], [base]); a base sharing a
    factor with F_n raises first.  Where a known factor decided that row
    with no chain, the chain runs here, for the residues the verdict
    holds.  A failed rule is returned, not raised: the CLI turns it into
    exit 4 with the whole record printed.
    """
    check_chain_index(n)
    require_coprime(n, base)
    verdict = audit_range([n], [base]).rows[0].verdict
    return verdict._replace(taps=verdict.taps or chain_taps(n, base))


def default_audit_bases() -> List[int]:
    """Default audit base set: the first 50 primes, 2 to 229."""
    return [2, *_odd_primes()[:49]]


class AuditRow(NamedTuple):
    """One (n, base) line of an audit sweep: the gcd of a base that shares
    a factor with F_n, or the verdict of a coprime one."""

    n: int
    base: int
    gcd: Optional[int] = None
    verdict: Optional[Verdict] = None

    @property
    def coprime(self) -> bool:
        return self.gcd is None


class AuditReport(NamedTuple):
    rows: Tuple[AuditRow, ...]


def audit_range(n_values, bases) -> AuditReport:
    """Classify every (n, base) of a grid, one chain per distinct pair
    that no known factor refutes.

    Every n and base is checked (check_audit_grid) before the first
    chain runs.  Each n's primality is False where a known factor
    divides F_n (factors.proven_factors); for any other n it comes from
    its base-3 chain, which then runs even when 3 is not among the
    bases (and gives no row).  A pair whose congruence a known factor
    refutes (factors.refuted_bases) is decided with no chain, and
    its verdict holds no taps.  The chains are the only other work, and
    they run on a process pool (see _run_chains); the verdicts and rows
    are built here, in n_values then bases order.

    Non-coprime bases do not abort the sweep and run no chain: the row
    records the gcd (a factor of F_n!).  A failed rule stays in its
    row's verdict; the caller decides how loud to be about it
    (records.audit_record counts them).
    """
    n_values, bases = list(n_values), list(bases)
    check_audit_grid(n_values, bases)
    values = {n: fermat_value(n) for n in set(n_values)}
    gcds = {(n, base): gcd(base, value)
            for n, value in values.items() for base in bases}
    primes = {n: proven_factors(n) for n in values}
    refuted = {n: refuted_bases(n, bases, primes[n]) for n in values}
    chain_bases = list(dict.fromkeys([*bases, PEPIN_BASE]))
    # largest n first, so that the last chains to start are short ones
    chains = _run_chains({
        n: [base for base in chain_bases
            if gcds.get((n, base)) == 1 and base not in refuted[n]
            or base == PEPIN_BASE and not primes[n]]
        for n in sorted(primes, reverse=True)})
    rows: List[AuditRow] = []
    for n in n_values:
        pepin_prime = not primes[n] \
            and chains[n, PEPIN_BASE].half.is_minus_one
        _PRIME_CACHE.setdefault(n, pepin_prime)
        for base in bases:
            if gcds[n, base] != 1:
                rows.append(AuditRow(n, base, gcd=gcds[n, base]))
            else:
                # no chain, and so no taps, where a factor refuted it
                rows.append(AuditRow(n, base, verdict=Verdict(
                    n, base, pepin_prime, chains.get((n, base)))))
    return AuditReport(tuple(rows))


def check_audit_grid(n_values, bases) -> None:
    """Raise for the first index or base that audit_range would refuse."""
    for n in n_values:
        check_chain_index(n)
    for base in bases:
        _check_base(base)


def _chain_task(task: Tuple[int, Tuple[int, ...]]) -> List[ChainTaps]:
    """_batch_taps of one (n, bases) task.  At module level, so that a
    pool pickles it by name and forked workers see a patched
    _batch_taps."""
    return _batch_taps(*task)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _run_chains(bases_by_n: Dict[int, List[int]]
                ) -> Dict[Tuple[int, int], ChainTaps]:
    """The taps of each chain, keyed by (n, base), from the chain bases
    of each n, largest n first.

    The chains at one n are independent and, but for any that reach 1
    early (arith.square_blocks), equally long, so they are split
    round-robin into min(usable CPUs, chains) batches, and
    _chain_task runs each batch as one task, on min(usable CPUs, tasks)
    processes.  A single CPU, or chains that cost less than starting the
    pool (_POOL_MIN_COST), run here instead.  multiprocessing is
    imported only when the pool is used: the import alone costs 7-11
    ms.  arith.mod_square_chains picks each batch's backend.
    """
    cpus = _usable_cpus()
    tasks = [(n, tuple(bases[i::cpus])) for n, bases in bases_by_n.items()
             for i in range(min(cpus, len(bases)))]
    workers = min(cpus, len(tasks))
    # a power of two has an order that divides 2^(n+1), the order of 2,
    # and a batch squares no further once all its chains are at 1: the
    # rule lives in arith.square_blocks
    cost = sum(len(bases) * (n + 1 if all(b & (b - 1) == 0 for b in bases)
                             else 1 << n) << n
               for n, bases in tasks)
    if workers < 2 or cost < _POOL_MIN_COST:
        done = [_chain_task(task) for task in tasks]
    else:
        import multiprocessing
        import signal
        import threading
        # numpy, for a batch that will run on the FFT, is imported here,
        # before the fork, so that the workers inherit it.
        for n, bases in tasks:
            chain_backend(n, len(bases))
        # Pinned, not the platform default: fork starts 2 workers in
        # 14-20 ms, against about 80 ms for spawn or forkserver, and they
        # begin with this process's modules loaded.  A fork copies no
        # other thread, and a lock one of them held stays held in the
        # child, so a process with threads (or without fork) spawns its
        # workers.
        fork = threading.active_count() == 1 \
            and "fork" in multiprocessing.get_all_start_methods()
        # Workers ignore Ctrl-C; the parent gets it, and leaving the with
        # block terminates them, as it does when a task raises.
        with multiprocessing.get_context("fork" if fork else "spawn").Pool(
                workers, initializer=signal.signal,
                initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            # one task per message, so that no worker idles while
            # another holds a queue of long chains
            done = pool.map(_chain_task, tasks, chunksize=1)
    return {(n, base): chain for (n, bases), chains in zip(tasks, done)
            for base, chain in zip(bases, chains)}
