#!/usr/bin/env python3
"""Known prime factors of the Fermat numbers F_5..F_23, and their check.

The output checks of the benchmark reduce every residue the program
reports modulo these primes, where builtin pow() gives the exact value
cheaply.  The entries come from the published factor tables of Fermat
numbers; F_20 has no known factor and is absent.

    python3 clibench/known_factors.py

re-verifies every entry with builtin arithmetic only: p divides F_n
(2^(2^n) = -1 mod p), p has the form k * 2^(n+2) + 1, and p is a strong
probable prime to 24 bases (exact below 3.3 * 10^24, which covers all but
the longest entries).  It prints one line per entry and exits 1 if any
entry fails.
"""

from __future__ import annotations

import sys
from typing import Dict, List

KNOWN_FACTORS: Dict[int, List[int]] = {
    5: [641, 6700417],
    6: [274177, 67280421310721],
    7: [59649589127497217, 5704689200685129054721],
    8: [1238926361552897],
    9: [2424833, 7455602825647884208337395736200454918783366342657],
    10: [45592577, 6487031809, 4659775785220018543264560743076778192897],
    11: [319489, 974849, 167988556341760475137, 3560841906445833920513],
    12: [114689, 26017793, 63766529, 190274191361, 1256132134125569,
         568630647535356955169033410940867804839360742060818433],
    13: [2710954639361, 2663848877152141313, 3603109844542291969,
         319546020820551643220672513],
    14: [116928085873074369829035993834596371340386703423373313],
    15: [1214251009, 2327042503868417, 168768817029516972383024127016961],
    16: [825753601, 188981757975021318420037633],
    17: [31065037602817,
         7751061099802522589358967058392886922693580423169],
    18: [13631489, 81274690703860512587777],
    19: [70525124609, 646730219521, 37590055514133754286524446080499713],
    21: [4485296422913],
    22: [64658705994591851009055774868504577],
    23: [167772161],
}

# The first 24 primes; a strong probable prime to all of them is prime
# below 3.3 * 10^24 (Sorenson and Webster, 2015).
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
               59, 61, 67, 71, 73, 79, 83, 89)


def is_strong_probable_prime(m: int) -> bool:
    """Miller-Rabin to the bases above, written apart from the program."""
    if m < 2:
        return False
    for a in _SPRP_BASES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SPRP_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def entry_problems(n: int, p: int) -> List[str]:
    problems = []
    if pow(2, 2 ** n, p) != p - 1:
        problems.append("does not divide F_n")
    if (p - 1) % 2 ** (n + 2) != 0:
        problems.append("not of the form k * 2^(n+2) + 1")
    if not is_strong_probable_prime(p):
        problems.append("composite")
    return problems


def main() -> int:
    bad = 0
    for n, primes in KNOWN_FACTORS.items():
        for p in primes:
            problems = entry_problems(n, p)
            bad += bool(problems)
            k = (p - 1) >> (n + 2)
            status = "ok" if not problems else "FAIL " + ", ".join(problems)
            print(f"F_{n}  p={p}  k={k}  {status}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
