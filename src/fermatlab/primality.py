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
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .arith import FermatResidue, _check_base, check_chain_index, \
    check_index, fermat_value, require_coprime, square_blocks
from .errors import NonAdmissibleBaseError
from .factors import _odd_primes, proven_factors, refuted_bases

# Bases for which the half-residue test decides primality.  Known good
# bases; there is no general criterion here, hence an allowlist with an
# explicit override for experiments.
PEPIN_ADMISSIBLE_BASES = frozenset({3, 5, 10})

# The base whose half residue decides primality in every verdict.
PEPIN_BASE = 3

AUDIT_MIN_INDEX = 5


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

    The three taps are the stops, and square_blocks checks every
    residue it yields; a lone chain also yields at its block ends,
    which the index filter passes over."""
    check_chain_index(n)
    last = 1 << n
    quarters, halves, fulls = [
        residues for index, residues in square_blocks(
            bases, [require_coprime(n, base) for base in bases], 0,
            (last - 2, last - 1, last))
        if index >= last - 2]
    return [ChainTaps(quarter=quarter, half=half, full=full)
            for quarter, half, full in zip(quarters, halves, fulls)]


def check_pepin(n: int, base: int, allow_any_base: bool) -> None:
    """Raise for the index or base that pepin_test would refuse, in its
    order: the index, the base's sign, admissibility, coprimality."""
    check_chain_index(n)
    _check_base(base)
    if base not in PEPIN_ADMISSIBLE_BASES and not allow_any_base:
        raise NonAdmissibleBaseError(
            f"base 0x{base:x} is not in the admissible set "
            f"{sorted(PEPIN_ADMISSIBLE_BASES)}; the any-base override "
            f"runs it anyway but the result carries no primality claim")
    require_coprime(n, base)


def pepin_test(n: int, base: int = 3,
               allow_any_base: bool = False) -> Tuple[bool, FermatResidue]:
    """Half-residue primality test: F_n prime iff base^((F_n-1)/2) = -1.

    Valid for n >= 2 with base in PEPIN_ADMISSIBLE_BASES; other bases
    are rejected unless allow_any_base is set, because for them the
    equivalence with primality is not established (and for base 2 it is
    plainly false).  The half residue is the middle tap of chain_taps,
    whose chain squares on to the full residue, one squaring more; its
    residues are checked against the known factors of F_n, and a wrong
    one raises CheckpointError.  A resumable run of the half-residue
    chain is checkpoint.CheckpointWriter's run().
    """
    check_pepin(n, base, allow_any_base)
    half = chain_taps(n, base).half
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
    its verdict holds no taps.  The chains are the only other work,
    each n's squared together in this process as one _batch_taps
    batch, whose backend arith.mod_square_chains picks; the rows come
    in n_values then bases order.

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
    chains: Dict[Tuple[int, int], ChainTaps] = {}
    for n in sorted(primes):
        batch = [base for base in chain_bases
                 if gcds.get((n, base)) == 1 and base not in refuted[n]
                 or base == PEPIN_BASE and not primes[n]]
        chains.update(zip([(n, b) for b in batch], _batch_taps(n, batch)))
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

