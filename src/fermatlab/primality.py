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
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

from .arith import FermatResidue, Observer, check_chain_index, \
    check_index, fermat_value, mod_square_chain, reduce_fold
from .errors import BaseNotCoprimeError, NonAdmissibleBaseError
from .factors import _odd_primes

# Bases for which the half-residue test decides primality.  Known good
# bases; there is no general criterion here, hence an allowlist with an
# explicit override for experiments.
PEPIN_ADMISSIBLE_BASES = frozenset({3, 5, 10})

# The base whose half residue decides primality in every verdict.
PEPIN_BASE = 3

AUDIT_MIN_INDEX = 5

# Least estimated cost of an audit whose chains run on a process pool, in
# squarings times bits of F_n (4^n per chain at index n).  One squaring
# cost 1.1-1.8 ns per bit at n = 9..12 (best of 5, 2 cores), and the pool
# 7-11 ms to import multiprocessing plus 14-20 ms to fork 2 workers, map
# and close.  Whole `audit` processes over 50 bases, pooled vs not
# (medians of 15 alternating runs, 2 cores): n = 10 (2^25.7) 183 vs
# 201 ms, n = 5..10 (2^26.1) 242 vs 223 ms, n = 10..11 (2^27.7) 409 vs
# 623 ms.  So the pool breaks even near here; n = 5..8 is 2^22.
_POOL_MIN_COST = 1 << 26


class QuarterTag(enum.Enum):
    PLUS_ONE = "plus-one"
    MINUS_ONE = "minus-one"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class QuarterClass:
    """The quarter residue together with its classification tag."""

    tag: QuarterTag
    residue: FermatResidue

    @classmethod
    def from_residue(cls, residue: FermatResidue) -> "QuarterClass":
        if residue.is_one:
            tag = QuarterTag.PLUS_ONE
        elif residue.is_minus_one:
            tag = QuarterTag.MINUS_ONE
        else:
            tag = QuarterTag.OTHER
        return cls(tag, residue)


class Classification(enum.Enum):
    PRIME = "prime"
    PSEUDOPRIME_TO_BASE = "pseudoprime-to-base"
    COMPOSITE_NON_PSEUDOPRIME = "composite-non-pseudoprime"


@dataclass(frozen=True, slots=True)
class RuleOutcome:
    """One quarter-residue rule checked on a verdict, named by its key.

    detail says what went wrong, and is set only when the rule failed.
    """

    rule: str
    passed: bool
    detail: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Verdict:
    """Everything one classify run learned about (F_n, base).

    pepin_prime always comes from a base-3 half residue; base 2 in
    particular proves nothing about primality (2^((F_n-1)/2) never
    lands on -1 for n >= 2), so the requested base only ever supplies
    the pseudoprimality side.  rules holds the outcome of every rule
    that applies to (n, base), in check order.
    """

    n: int
    base: int
    pepin_prime: bool
    fermat_congruence_holds: bool
    quarter: QuarterClass
    half_residue: FermatResidue
    fermat_residue: FermatResidue
    classification: Classification
    squarings: int
    rules: Tuple[RuleOutcome, ...]

    @property
    def violations(self) -> Tuple[RuleOutcome, ...]:
        return tuple(r for r in self.rules if not r.passed)


def require_coprime(n: int, base: int) -> FermatResidue:
    """Reduce base mod F_n, rejecting non-coprime bases.

    The reported gcd is itself a nontrivial factor of F_n, which is why
    the error carries it instead of hiding it.  The message writes the
    base and the gcd in hex: from n = 14 on they can pass the cap on
    int-to-decimal conversion (4300 digits).
    """
    check_index(n)
    _check_base(base)
    g = gcd(base, fermat_value(n))
    if g != 1:
        raise BaseNotCoprimeError(
            f"base 0x{base:x} shares factor 0x{g:x} with F_{n}", g)
    return reduce_fold(base, n)


def _check_base(base: int) -> None:
    if base < 0:
        raise ValueError(f"base must be >= 0, got {base}")


@dataclass(frozen=True, slots=True)
class ChainTaps:
    """Quarter, half and full residues taken from a single chain."""

    quarter: FermatResidue
    half: FermatResidue
    full: FermatResidue


def chain_taps(n: int, base: int) -> ChainTaps:
    """Run one chain of 2^n squarings, read at its three tap points."""
    check_chain_index(n)
    quarter = mod_square_chain(require_coprime(n, base), (1 << n) - 2)
    half = mod_square_chain(quarter, 1)
    return ChainTaps(quarter=quarter, half=half,
                     full=mod_square_chain(half, 1))


def pepin_test(n: int, base: int = 3,
               observer: Optional[Observer] = None,
               allow_any_base: bool = False,
               resume_index: int = 0,
               resume_value: Optional[int] = None,
               ) -> Tuple[bool, FermatResidue]:
    """Half-residue primality test: F_n prime iff base^((F_n-1)/2) = -1.

    Valid for n >= 2 with base in PEPIN_ADMISSIBLE_BASES; other bases
    are rejected unless allow_any_base is set, because for them the
    equivalence with primality is not established (and for base 2 it is
    plainly false).  resume_index / resume_value restart the chain from
    a saved point.  The observer is the checkpoint hook; it sees the
    indices of the chain run here, which starts at resume_index.
    """
    check_chain_index(n)
    if base not in PEPIN_ADMISSIBLE_BASES and not allow_any_base:
        raise NonAdmissibleBaseError(
            f"base {base} is not in the admissible set "
            f"{sorted(PEPIN_ADMISSIBLE_BASES)}; the any-base override "
            f"runs it anyway but the result carries no primality claim")
    total = (1 << n) - 1
    if not 0 <= resume_index <= total:
        raise ValueError(
            f"resume index must be in 0..{total}, got {resume_index}")
    if resume_index == 0:
        start = require_coprime(n, base)
    else:
        if resume_value is None:
            raise ValueError("resume_value required when resume_index > 0")
        start = FermatResidue(n, resume_value)
    half = mod_square_chain(start, total - resume_index, observer)
    return half.is_minus_one, half


# Primality of F_n by index, filled in by whoever computes it first.
# F_0 = 3 and F_1 = 5 are prime (below the n >= 2 reach of the half
# -residue test; the brute-force suite re-certifies them).
_PRIME_CACHE: Dict[int, bool] = {0: True, 1: True}


def fermat_is_prime(n: int) -> bool:
    """Primality of F_n, via the base-3 half residue, cached per index."""
    check_index(n)
    cached = _PRIME_CACHE.get(n)
    if cached is None:
        cached, _ = pepin_test(n, PEPIN_BASE)
        _PRIME_CACHE[n] = cached
    return cached


def reset_prime_cache() -> None:
    """Drop cached verdicts (for tests that deliberately break arith)."""
    _PRIME_CACHE.clear()
    _PRIME_CACHE.update({0: True, 1: True})


def quarter_residue(n: int, base: int) -> QuarterClass:
    """base^((F_n-1)/4) mod F_n, read from chain_taps, classified."""
    return QuarterClass.from_residue(chain_taps(n, base).quarter)


def fermat_congruence(n: int, base: int) -> bool:
    """Whether base^(F_n - 1) = 1 mod F_n (two squarings past quarter)."""
    taps = chain_taps(n, base)
    return taps.full.is_one


def _audit_rules(n: int, base: int, pepin_prime: bool, congruence: bool,
                 quarter: QuarterClass) -> Tuple[RuleOutcome, ...]:
    """Check the n >= 5 quarter-residue rules that apply to (n, base).

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
    if n < AUDIT_MIN_INDEX:
        return ()
    pseudo = congruence and not pepin_prime
    one = quarter.tag is QuarterTag.PLUS_ONE
    minus_one = quarter.tag is QuarterTag.MINUS_ONE
    # (rule key, whether it holds, what a failure means)
    checks = [
        ("pseudoprime-quarter-one", one or not pseudo,
         f"F_{n} pseudoprime to base 0x{base:x} but quarter residue is "
         f"{quarter.tag.value} (expected 1)"),
        ("quarter-minus-one-implies-prime", pepin_prime or not minus_one,
         f"quarter residue of base 0x{base:x} is -1 yet F_{n} is "
         "composite"),
    ]
    if base == 3:
        checks += [
            ("base3-quarter-not-minus-one", not minus_one,
             f"3^((F_{n}-1)/4) = -1 should never happen for n >= 5"),
            ("base3-pseudoprime-iff-quarter-one", one == pseudo,
             f"base-3 quarter residue tag {quarter.tag.value} "
             f"disagrees with pseudoprime={pseudo} at n={n}"),
        ]
    return tuple(RuleOutcome(rule, passed, None if passed else detail)
                 for rule, passed, detail in checks)


def classify_report(n: int, base: int) -> Verdict:
    """Full verdict for (F_n, base), with the outcome of every rule.

    It is the one row of audit_range([n], [base]); a base sharing a
    factor with F_n raises first.  A failed rule is returned, not raised:
    the CLI turns it into exit 4 with the whole record printed.
    """
    check_chain_index(n)
    require_coprime(n, base)
    return audit_range([n], [base]).rows[0].verdict


def _verdict(n: int, base: int, taps: ChainTaps,
             pepin_prime: bool) -> Verdict:
    """The verdict for (F_n, base) from its chain and F_n's primality.

    squarings also counts the base-3 chain that decides primality, unless
    the requested base is 3, and counts it as a Pepin chain (2^n - 1
    squarings) although audit_range runs that chain for all 2^n.
    """
    quarter = QuarterClass.from_residue(taps.quarter)
    congruence = taps.full.is_one
    if pepin_prime:
        classification = Classification.PRIME
    elif congruence:
        classification = Classification.PSEUDOPRIME_TO_BASE
    else:
        classification = Classification.COMPOSITE_NON_PSEUDOPRIME
    squarings = 1 << n
    if base != PEPIN_BASE:
        squarings += (1 << n) - 1
    return Verdict(
        n=n,
        base=base,
        pepin_prime=pepin_prime,
        fermat_congruence_holds=congruence,
        quarter=quarter,
        half_residue=taps.half,
        fermat_residue=taps.full,
        classification=classification,
        squarings=squarings,
        rules=_audit_rules(n, base, pepin_prime, congruence, quarter),
    )


def default_audit_bases() -> List[int]:
    """Default audit base set: the first 50 primes, 2 to 229."""
    return [2, *_odd_primes()[:49]]


@dataclass(frozen=True, slots=True)
class AuditRow:
    """One (n, base) line of an audit sweep."""

    n: int
    base: int
    coprime: bool
    gcd: Optional[int] = None
    verdict: Optional[Verdict] = None


@dataclass(frozen=True, slots=True)
class AuditReport:
    rows: Tuple[AuditRow, ...]

    @property
    def violations(self) -> Tuple[RuleOutcome, ...]:
        return tuple(v for row in self.rows if row.verdict is not None
                     for v in row.verdict.violations)

    @property
    def all_passed(self) -> bool:
        return not self.violations


def audit_range(n_values, bases) -> AuditReport:
    """Classify every (n, base) of a grid, one chain per distinct pair.

    Every n and base is checked (check_audit_grid) before the first
    chain runs.  Each n's primality comes from its base-3 chain, which
    runs even when 3 is not among the bases (and then gives no row).
    The chains are the only work, and they run on a process pool (see
    _run_chains); the verdicts and rows are built here, in n_values then
    bases order.

    Non-coprime bases do not abort the sweep: the row records the gcd
    (a factor of F_n!) and moves on.  Any violation in any row makes
    all_passed false; the caller decides how loud to be about it.
    """
    n_values = list(n_values)
    check_audit_grid(n_values, bases)
    chain_bases = list(dict.fromkeys([*bases, PEPIN_BASE]))
    # largest n first, so that the last chains to start are short ones
    jobs = [(n, base) for n in sorted(set(n_values), reverse=True)
            for base in chain_bases]
    chains = dict(zip(jobs, _run_chains(jobs)))
    rows: List[AuditRow] = []
    for n in n_values:
        pepin_prime = chains[n, PEPIN_BASE].half.is_minus_one
        _PRIME_CACHE.setdefault(n, pepin_prime)
        for base in bases:
            chain = chains[n, base]
            if isinstance(chain, ChainTaps):
                rows.append(AuditRow(n=n, base=base, coprime=True,
                                     verdict=_verdict(n, base, chain,
                                                      pepin_prime)))
            else:
                rows.append(AuditRow(n=n, base=base, coprime=False,
                                     gcd=chain))
    return AuditReport(tuple(rows))


def check_audit_grid(n_values, bases) -> None:
    """Raise for the first index or base that audit_range would refuse."""
    for n in n_values:
        check_chain_index(n)
    for base in bases:
        _check_base(base)


def _chain_job(job: Tuple[int, int]) -> Union[ChainTaps, int]:
    """The taps of one (n, base) chain, or the gcd of a non-coprime base."""
    n, base = job
    try:
        return chain_taps(n, base)
    except BaseNotCoprimeError as err:
        return err.gcd


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _run_chains(jobs: List[Tuple[int, int]]) -> List[Union[ChainTaps, int]]:
    """_chain_job over jobs, in order, on min(usable CPUs, jobs) processes.

    A single CPU, or chains that cost less than starting the pool
    (_POOL_MIN_COST), run here instead.  multiprocessing is imported
    only when the pool is used: the import alone costs 7-11 ms.
    """
    workers = min(_usable_cpus(), len(jobs))
    if workers < 2 or sum(4 ** n for n, _ in jobs) < _POOL_MIN_COST:
        return [_chain_job(job) for job in jobs]
    import multiprocessing
    import signal
    import threading
    # Pinned, not the platform default: fork starts 2 workers in 14-20 ms,
    # against about 80 ms for spawn or forkserver, and they begin with
    # this process's modules loaded.  A fork copies no other thread, and
    # a lock one of them held stays held in the child, so a process with
    # threads (or without fork) spawns its workers.
    fork = threading.active_count() == 1 \
        and "fork" in multiprocessing.get_all_start_methods()
    # Workers ignore Ctrl-C; the parent gets it, and leaving the with
    # block terminates them, as it does when a job raises.
    with multiprocessing.get_context("fork" if fork else "spawn").Pool(
            workers, initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
        # one job per task, so that no worker idles while another holds
        # a queue of long chains
        return pool.map(_chain_job, jobs, chunksize=1)
