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
is never -1.  classify() checks all of that on every call and treats a
counterexample as an event to report loudly, not to swallow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Callable, Dict, List, Optional, Tuple

from .arith import FermatResidue, Observer, check_index, fermat_value, \
    mod_square_chain, reduce_fold, to_hex
from .errors import BaseNotCoprimeError, IndexBelowTwoError, \
    NonAdmissibleBaseError, TheoremViolationError

# Bases for which the half-residue test decides primality.  Known good
# bases; there is no general criterion here, hence an allowlist with an
# explicit override for experiments.
PEPIN_ADMISSIBLE_BASES = frozenset({3, 5, 10})

AUDIT_MIN_INDEX = 5


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
class Verdict:
    """Everything one classify run learned about (F_n, base).

    pepin_prime always comes from a base-3 half residue; base 2 in
    particular proves nothing about primality (2^((F_n-1)/2) never
    lands on -1 for n >= 2), so the requested base only ever supplies
    the pseudoprimality side.
    """

    n: int
    base: int
    pepin_prime: bool
    pepin_base: int
    fermat_congruence_holds: bool
    quarter: QuarterClass
    half_residue: FermatResidue
    fermat_residue: FermatResidue
    classification: Classification
    squarings: int


@dataclass(frozen=True, slots=True)
class Violation:
    """One failed congruence constraint, named by its rule key."""

    rule: str
    detail: str


def require_coprime(n: int, base: int) -> FermatResidue:
    """Reduce base mod F_n, rejecting non-coprime bases.

    The reported gcd is itself a nontrivial factor of F_n, which is why
    the error carries it instead of hiding it.
    """
    check_index(n)
    if base < 0:
        raise ValueError(f"base must be >= 0, got {base}")
    g = gcd(base, fermat_value(n))
    if g != 1:
        raise BaseNotCoprimeError(
            f"base {base} shares factor {g} with F_{n}", g)
    return reduce_fold(base, n)


def _require_quarter_index(n: int) -> None:
    # (F_n - 1)/4 is an integer power of two only for n >= 2.
    if n < 2:
        raise IndexBelowTwoError(
            f"need n >= 2 so that (F_n - 1)/4 is an integer, got n={n}")


@dataclass(frozen=True, slots=True)
class ChainTaps:
    """Quarter, half and full residues taken from a single chain."""

    quarter: FermatResidue
    half: FermatResidue
    full: FermatResidue


def chain_taps(n: int, base: int) -> ChainTaps:
    """Run one chain of 2^n squarings, read at its three tap points."""
    _require_quarter_index(n)
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
    plainly false).  The observer is the checkpoint hook: it sees the
    global squaring index even on resumed runs, and resume_index /
    resume_value restart the chain from a saved point.
    """
    check_index(n)
    if n < 2:
        raise IndexBelowTwoError(
            f"the half-residue test needs n >= 2, got n={n}")
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

    if observer is None or resume_index == 0:
        shifted = observer
    else:
        offset = resume_index

        def shifted(i: int, value: Callable[[], int]) -> None:
            observer(i + offset, value)

    half = mod_square_chain(start, total - resume_index, shifted)
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
        cached, _ = pepin_test(n, 3)
        _PRIME_CACHE[n] = cached
    return cached


def reset_prime_cache() -> None:
    """Drop cached verdicts (for tests that deliberately break arith)."""
    _PRIME_CACHE.clear()
    _PRIME_CACHE.update({0: True, 1: True})


def quarter_residue(n: int, base: int) -> QuarterClass:
    """base^((F_n-1)/4) mod F_n via 2^n - 2 squarings, classified."""
    _require_quarter_index(n)
    start = require_coprime(n, base)
    residue = mod_square_chain(start, (1 << n) - 2)
    return QuarterClass.from_residue(residue)


def fermat_congruence(n: int, base: int) -> bool:
    """Whether base^(F_n - 1) = 1 mod F_n (two squarings past quarter)."""
    taps = chain_taps(n, base)
    return taps.full.is_one


def applicable_rules(n: int, base: int) -> List[str]:
    """Rule keys _audit_rules would evaluate for this (n, base)."""
    if n < AUDIT_MIN_INDEX:
        return []
    rules = ["pseudoprime-quarter-one", "quarter-minus-one-implies-prime"]
    if base == 3:
        rules += ["base3-quarter-not-minus-one",
                  "base3-pseudoprime-iff-quarter-one"]
    return rules


def _audit_rules(n: int, base: int, pepin_prime: bool, congruence: bool,
                 quarter: QuarterClass) -> List[Violation]:
    """Check the n >= 5 quarter-residue constraints; return failures.

    Rule keys, in check order:
      pseudoprime-quarter-one         congruence on composite F_n forces
                                      quarter residue 1
      quarter-minus-one-implies-prime quarter residue -1 forces primality
      base3-quarter-not-minus-one     base 3 never has quarter residue -1
      base3-pseudoprime-iff-quarter-one
                                      base 3: quarter residue 1 holds
                                      exactly on pseudoprime F_n
    Any entry in the returned list would be a genuine counterexample to
    the theory this library implements.
    """
    if n < AUDIT_MIN_INDEX:
        return []
    out: List[Violation] = []
    pseudo = congruence and not pepin_prime
    if pseudo and quarter.tag is not QuarterTag.PLUS_ONE:
        out.append(Violation(
            "pseudoprime-quarter-one",
            f"F_{n} pseudoprime to base {base} but quarter residue is "
            f"{quarter.tag.value} (expected 1)"))
    if quarter.tag is QuarterTag.MINUS_ONE and not pepin_prime:
        out.append(Violation(
            "quarter-minus-one-implies-prime",
            f"quarter residue of base {base} is -1 yet F_{n} is composite"))
    if base == 3:
        if quarter.tag is QuarterTag.MINUS_ONE:
            out.append(Violation(
                "base3-quarter-not-minus-one",
                f"3^((F_{n}-1)/4) = -1 should never happen for n >= 5"))
        if (quarter.tag is QuarterTag.PLUS_ONE) != pseudo:
            out.append(Violation(
                "base3-pseudoprime-iff-quarter-one",
                f"base-3 quarter residue tag {quarter.tag.value} "
                f"disagrees with pseudoprime={pseudo} at n={n}"))
    return out


def classify_report(n: int, base: int) -> Tuple[Verdict, List[Violation]]:
    """classify(), but returning violations instead of raising.

    The audit front end wants every row even when a row fails; the
    plain classify() entry point below is for callers who treat a
    violation as the exceptional event it is.
    """
    taps = chain_taps(n, base)
    squarings = 1 << n
    if base == 3:
        # the requested chain is the primality chain; reuse its half tap
        pepin_prime = taps.half.is_minus_one
        _PRIME_CACHE.setdefault(n, pepin_prime)
    else:
        pepin_prime = fermat_is_prime(n)
        squarings += (1 << n) - 1
    quarter = QuarterClass.from_residue(taps.quarter)
    congruence = taps.full.is_one
    if pepin_prime:
        classification = Classification.PRIME
    elif congruence:
        classification = Classification.PSEUDOPRIME_TO_BASE
    else:
        classification = Classification.COMPOSITE_NON_PSEUDOPRIME
    verdict = Verdict(
        n=n,
        base=base,
        pepin_prime=pepin_prime,
        pepin_base=3,
        fermat_congruence_holds=congruence,
        quarter=quarter,
        half_residue=taps.half,
        fermat_residue=taps.full,
        classification=classification,
        squarings=squarings,
    )
    violations = _audit_rules(n, base, pepin_prime, congruence, quarter)
    return verdict, violations


def verdict_transcript(verdict: Verdict) -> Dict[str, str]:
    """Residue transcript of a verdict, for violation reports."""
    return {
        "n": str(verdict.n),
        "base": to_hex(verdict.base),
        "quarter_residue": verdict.quarter.residue.to_hex(),
        "half_residue": verdict.half_residue.to_hex(),
        "fermat_residue": verdict.fermat_residue.to_hex(),
    }


def classify(n: int, base: int) -> Verdict:
    """Full verdict for (F_n, base); raises if a congruence rule fails.

    A raise from here means the run produced a counterexample to a
    proved statement: either the arithmetic is broken or something very
    surprising happened.  The error carries the rule names and the full
    residue transcript so the event can be reproduced and inspected.
    """
    verdict, violations = classify_report(n, base)
    if violations:
        raise TheoremViolationError(
            f"{len(violations)} congruence rule(s) failed for n={n} "
            f"base={base}: " + ", ".join(v.rule for v in violations),
            violations, verdict_transcript(verdict))
    return verdict


def first_primes(count: int) -> List[int]:
    """The first `count` primes, by an unbounded incremental sieve."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out: List[int] = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out if p * p <= candidate):
            out.append(candidate)
        candidate += 1
    return out


def default_audit_bases() -> List[int]:
    """Default audit base set: the first 50 primes, 2 to 229."""
    return first_primes(50)


@dataclass(frozen=True, slots=True)
class AuditRow:
    """One (n, base) line of an audit sweep."""

    n: int
    base: int
    coprime: bool
    gcd: Optional[int] = None
    verdict: Optional[Verdict] = None
    violations: Tuple[Violation, ...] = ()


@dataclass(frozen=True, slots=True)
class AuditReport:
    rows: Tuple[AuditRow, ...]

    @property
    def violations(self) -> Tuple[Violation, ...]:
        return tuple(v for row in self.rows for v in row.violations)

    @property
    def all_passed(self) -> bool:
        return not self.violations


def audit_range(n_values, bases) -> AuditReport:
    """Run classify_report over a grid of indices and bases.

    Non-coprime bases do not abort the sweep: the row records the gcd
    (a factor of F_n!) and moves on.  Any violation in any row makes
    all_passed false; the caller decides how loud to be about it.
    """
    rows: List[AuditRow] = []
    # Base 3's chain also decides primality; running it first fills the
    # prime cache that every other base of the same n reads.
    order = sorted(dict.fromkeys(bases), key=lambda base: base != 3)
    for n in n_values:
        _require_quarter_index(n)
        by_base = {base: _audit_row(n, base) for base in order}
        rows.extend(by_base[base] for base in bases)
    return AuditReport(tuple(rows))


def _audit_row(n: int, base: int) -> AuditRow:
    try:
        verdict, violations = classify_report(n, base)
    except BaseNotCoprimeError as err:
        return AuditRow(n=n, base=base, coprime=False, gcd=err.gcd)
    return AuditRow(n=n, base=base, coprime=True, verdict=verdict,
                    violations=tuple(violations))
