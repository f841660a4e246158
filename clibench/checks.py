"""Checks of fermatlab CLI output, computed apart from the program.

Nothing here imports fermatlab.  Residues are checked modulo the known
prime factors of F_n (known_factors.py), where builtin pow() gives
base^(2^s) exactly; divisor lists are compared against a scan made with
builtin pow(); orders and a seeded sample of audit rows are re-derived
with builtin pow() modulo F_n itself.  A check asserts a mathematical
fact about the output, never a value copied from an earlier run, so a
change to the program that keeps its answers right keeps passing.

Checker.problems(argv, exit_code, stdout) returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path
from typing import Dict, List, Tuple

from known_factors import KNOWN_FACTORS, is_strong_probable_prime

FLAGS = frozenset({"--prime-filter"})
AUDIT_POW_SAMPLE = 3


def fermat(n: int) -> int:
    return (1 << (1 << n)) + 1


def parse_hex(text: str) -> int:
    if not isinstance(text, str) or not text or \
            text.strip("0123456789abcdef"):
        raise ValueError(f"not a lowercase hex natural: {text!r}")
    return int(text, 16)


def first_primes(count: int) -> List[int]:
    primes: List[int] = []
    m = 2
    while len(primes) < count:
        if all(m % p for p in primes):
            primes.append(m)
        m += 1
    return primes


def default_audit_bases() -> List[int]:
    return sorted({2, *first_primes(50)})


def power_mod_p(base: int, s: int, p: int) -> int:
    """base^(2^s) mod the prime p, by Fermat's little theorem."""
    return pow(base, pow(2, s, p - 1), p)


def residue_problems(label: str, n: int, base: int, s: int,
                     r: int) -> List[str]:
    """r must be base^(2^s) mod F_n, in the range 0..2^(2^n)."""
    if not 0 <= r <= 1 << (1 << n):
        return [f"{label} out of range"]
    return [f"{label} wrong modulo known factor {p} of F_{n}"
            for p in KNOWN_FACTORS.get(n, ())
            if r % p != power_mod_p(base, s, p)]


def _parse(argv: List[str]) -> Tuple[List[str], Dict[str, object]]:
    positional: List[str] = []
    options: Dict[str, object] = {}
    it = iter(argv[1:])
    for arg in it:
        if arg in FLAGS:
            options[arg] = True
        elif arg.startswith("--"):
            options[arg] = next(it)
        else:
            positional.append(arg)
    return positional, options


class Checker:
    """Output checks for one benchmark run; seeded for the audit sample."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._divisor_scans: Dict[Tuple[int, int, bool], List[int]] = {}

    def problems(self, argv: List[str], exit_code: int,
                 stdout: str) -> List[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            doc = json.loads(stdout)
        except ValueError:
            return ["stdout is not one JSON record"]
        positional, options = _parse(argv)
        check = getattr(self, "_check_" + argv[0])
        try:
            return check(doc, positional, options)
        except (KeyError, TypeError, ValueError, OSError) as err:
            return [f"malformed {argv[0]} output: {err!r}"]

    def _check_pepin(self, doc, positional, options) -> List[str]:
        n = int(positional[0])
        base = int(options.get("--base", 3))
        out: List[str] = []
        if doc["n"] != n or parse_hex(doc["base"]) != base:
            out.append("record names another chain")
        stop = options.get("--stop-after")
        if stop is not None and int(stop) < (1 << n) - 1:
            if doc["record"] != "pepin-paused":
                return out + [f"expected a paused record, got {doc['record']}"]
            if doc["stopped_after"] != int(stop):
                out.append(f"stopped after {doc['stopped_after']}, "
                           f"asked {stop}")
            cp = json.loads(Path(doc["checkpoint"]).read_text("utf-8"))
            s = cp["squaring_index"]
            if s != int(stop):
                out.append(f"checkpoint index {s}, asked {stop}")
            return out + residue_problems("checkpoint residue", n, base, s,
                                          parse_hex(cp["residue"]))
        if doc["record"] != "pepin":
            return out + [f"expected a pepin record, got {doc['record']}"]
        if KNOWN_FACTORS.get(n) and doc["pepin_prime"] is not False:
            out.append(f"pepin_prime is not false on composite F_{n}")
        return out + residue_problems("half_residue", n, base, (1 << n) - 1,
                                      parse_hex(doc["half_residue"]))

    def _check_classify(self, doc, positional, options) -> List[str]:
        n = int(positional[0])
        base = int(options.get("--base", 3))
        if doc["record"] != "classify" or doc["n"] != n \
                or parse_hex(doc["base"]) != base:
            return ["record names another query"]
        top = 1 << (1 << n)
        quarter = parse_hex(doc["quarter"]["residue"])
        full = parse_hex(doc["fermat_residue"])
        out = residue_problems("quarter residue", n, base, (1 << n) - 2,
                               quarter)
        out += residue_problems("half_residue", n, base, (1 << n) - 1,
                                parse_hex(doc["half_residue"]))
        out += residue_problems("fermat_residue", n, base, 1 << n, full)
        tag = {1: "plus-one", top: "minus-one"}.get(quarter, "other")
        if doc["quarter"]["tag"] != tag:
            out.append(f"quarter tag {doc['quarter']['tag']}, residue "
                       f"says {tag}")
        if doc["fermat_congruence_holds"] != (full == 1):
            out.append("fermat_congruence_holds disagrees with the residue")
        if KNOWN_FACTORS.get(n):
            expected = ("pseudoprime-to-base" if full == 1
                        else "composite-non-pseudoprime")
            if doc["pepin_prime"] is not False:
                out.append(f"pepin_prime is not false on composite F_{n}")
            if doc["classification"] != expected:
                out.append(f"classification {doc['classification']}, "
                           f"expected {expected}")
        if not all(rule["passed"] for rule in doc["audit_rules"]):
            out.append("an audit rule failed")
        return out

    def _check_order(self, doc, positional, options) -> List[str]:
        n = int(positional[0])
        base = int(options.get("--base", 3))
        if doc["record"] != "order" or doc["n"] != n \
                or parse_hex(doc["base"]) != base:
            return ["record names another query"]
        f = fermat(n)
        alpha = doc["alpha"]
        out: List[str] = []
        if doc["not_totally_even"] != (alpha is None):
            out.append("not_totally_even disagrees with alpha")
        if alpha is None:
            # base^(2^(2^n)) != 1: shown modulo a known factor if one
            # witnesses it, else modulo F_n itself
            witnessed = any(power_mod_p(base, 1 << n, p) != 1
                            for p in KNOWN_FACTORS.get(n, ())) \
                or pow(base, 1 << (1 << n), f) != 1
            if not witnessed:
                out.append("alpha is null but base^(2^(2^n)) = 1 mod F_n")
            if doc["bound_satisfied"] is not None:
                out.append("bound_satisfied set without an alpha")
            return out
        if pow(base, 1 << alpha, f) != 1 or \
                (alpha > 0 and pow(base, 1 << (alpha - 1), f) == 1):
            out.append(f"alpha={alpha} is not the least exponent")
        if KNOWN_FACTORS.get(n) and \
                doc["bound_satisfied"] != (alpha <= (1 << n) - 2):
            out.append("bound_satisfied disagrees with alpha <= 2^n - 2")
        return out

    def _check_audit(self, doc, positional, options) -> List[str]:
        lo, _, hi = str(options.get("--n-range", "5..8")).partition("..")
        ns = range(int(lo), int(hi or lo) + 1)
        grid = [(n, b) for n in ns for b in default_audit_bases()]
        rows = doc["rows"]
        if doc["record"] != "audit" or \
                [(r["n"], parse_hex(r["base"])) for r in rows] != grid:
            return ["rows do not cover the requested grid in order"]
        out: List[str] = []
        if doc["all_passed"] is not True or doc["violation_count"] != 0:
            out.append("audit reports violations")
        for row in rows:
            out += self._audit_row_problems(row)
        for row in self.rng.sample(rows, min(AUDIT_POW_SAMPLE, len(rows))):
            if not row["coprime"]:
                continue
            n, base = row["n"], parse_hex(row["base"])
            f = fermat(n)
            congruence = pow(base, f - 1, f) == 1
            quarter = pow(base, (f - 1) // 4, f)
            tag = {1: "plus-one", f - 1: "minus-one"}.get(quarter, "other")
            if (row["fermat_congruence_holds"], row["quarter_tag"]) != \
                    (congruence, tag):
                out.append(f"n={n} base={base}: pow() mod F_n gives "
                           f"congruence={congruence} quarter={tag}")
        return out

    @staticmethod
    def _audit_row_problems(row) -> List[str]:
        n, base = row["n"], parse_hex(row["base"])
        where = f"n={n} base={base}"
        g = gcd(base, fermat(n))
        if row["coprime"] != (g == 1):
            return [f"{where}: coprime={row['coprime']} but gcd={g}"]
        if not row["coprime"]:
            return [] if parse_hex(row["gcd"]) == g else [f"{where}: gcd"]
        out: List[str] = []
        primes = KNOWN_FACTORS.get(n, ())
        quarter_s, full_s = (1 << n) - 2, 1 << n
        tag = row["quarter_tag"]
        congruence = row["fermat_congruence_holds"]
        if tag == "plus-one" and \
                any(power_mod_p(base, quarter_s, p) != 1 for p in primes):
            out.append(f"{where}: quarter tag plus-one is wrong")
        if tag == "minus-one" and \
                any(power_mod_p(base, quarter_s, p) != p - 1 for p in primes):
            out.append(f"{where}: quarter tag minus-one is wrong")
        if congruence and \
                any(power_mod_p(base, full_s, p) != 1 for p in primes):
            out.append(f"{where}: congruence cannot hold")
        if primes:
            if row["pepin_prime"] is not False:
                out.append(f"{where}: pepin_prime on composite F_{n}")
            expected = ("pseudoprime-to-base" if congruence
                        else "composite-non-pseudoprime")
            if row["classification"] != expected:
                out.append(f"{where}: classification "
                           f"{row['classification']}")
        # ord(2) = 2^(n+1) divides F_n - 1 = 2^(2^n), and divides
        # (F_n - 1)/4 for n >= 2
        if base == 2 and n >= 2 and (tag, congruence) != ("plus-one", True):
            out.append(f"{where}: base 2 must be a plus-one pseudoprime")
        if not all(rule["passed"] for rule in row["rules"]):
            out.append(f"{where}: an audit rule failed")
        return out

    def _check_factor(self, doc, positional, options) -> List[str]:
        n = int(positional[0])
        k_max = int(options.get("--k-max", 1000))
        prime_filter = bool(options.get("--prime-filter", False))
        if doc["record"] != "factor" or doc["n"] != n or \
                doc["k_max"] != k_max or doc["prime_filter"] != prime_filter:
            return ["record names another query"]
        out: List[str] = []
        found = [entry["k"] for entry in doc["found"]]
        expected = self.divisor_scan(n, k_max, prime_filter)
        if found != expected:
            out.append(f"found k={found}, a pow() scan finds k={expected}")
        f = fermat(n)
        for entry in doc["found"]:
            p = parse_hex(entry["p"])
            if p != (entry["k"] << (n + 2)) + 1 or \
                    pow(2, 1 << n, p) != p - 1 or entry["divides"] is not True:
                out.append(f"p={p} is not a divisor of the stated form")
            elif parse_hex(entry["cofactor"]) * p != f:
                out.append(f"cofactor of p={p} is wrong")
            if p < 1 << 64 and entry["prime"] != is_strong_probable_prime(p):
                out.append(f"prime flag of p={p} is wrong")
        if doc["violations"]:
            out.append("divisor-form violations reported")
        return out

    def divisor_scan(self, n: int, k_max: int,
                     prime_filter: bool) -> List[int]:
        """k in 1..k_max with k * 2^(n+2) + 1 a proper divisor of F_n."""
        key = (n, k_max, prime_filter)
        if key not in self._divisor_scans:
            f, e, shift = fermat(n), 1 << n, n + 2
            ks = []
            for k in range(1, k_max + 1):
                p = (k << shift) + 1
                if p >= f:
                    break
                if pow(2, e, p) == p - 1 and \
                        (not prime_filter or is_strong_probable_prime(p)):
                    ks.append(k)
            self._divisor_scans[key] = ks
        return self._divisor_scans[key]
