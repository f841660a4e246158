#!/usr/bin/env python3
"""Plain-Python reference jobs that gauge the speed of the machine.

    python3 -I clibench/reference.py WORKLOAD

Each job does the same kind of work as one workload of run.py, with the
standard library only: nothing of fermatlab is imported, so a change to
the program never changes how long a job takes, while a slow spell of
the shared host slows a job much as it slows the calls next to it.
run.py times the job in a fresh process before the first round and after
every round, and scales the run's rate by their mean.  The job prints a
checksum, so that a job cut short shows.
"""

import sys


def square_chain(n: int, x: int, steps: int) -> int:
    """x^(2^steps) mod F_n, by the shift-and-subtract reduction."""
    k = 1 << n
    f = (1 << k) + 1
    for _ in range(steps):
        y = x * x
        x = (y & (f - 2)) - (y >> k)
        if x < 0:
            x += f
    return x


def pepin_large() -> int:
    # full-size 256-Kbit residues from the first step, as in a resumed
    # pepin 18 slice
    return square_chain(18, ((1 << (1 << 18)) - 1) // 3, 40) % 1000003


def audit_sweep() -> int:
    # one Fermat-congruence chain of 2^n squarings per (n, base)
    return sum(square_chain(n, b, 1 << n) % 1000003
               for n in range(5, 13) for b in range(3, 15))


def factor_scan() -> int:
    # the divisor test 2^(2^n) = -1 mod p over candidates p = k 2^(n+2) + 1
    n = 16
    return sum(k for k in range(1, 150000)
               if pow(2, 1 << n, (k << (n + 2)) + 1) == k << (n + 2))


def short_queries() -> int:
    # the standard modules fermatlab.cli needs, then short chains
    import argparse, dataclasses, datetime, hashlib, json, random  # noqa
    return sum(square_chain(n, 3, 1 << n) % 1000003 for n in range(8, 14))


JOBS = {"pepin-large": pepin_large, "audit-sweep": audit_sweep,
        "factor-scan": factor_scan, "short-queries": short_queries}

if __name__ == "__main__":
    print(JOBS[sys.argv[1]]())
