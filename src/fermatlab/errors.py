"""Exception types shared across the library.

The CLI maps these onto its exit-code contract (see cli.py), so raising the
right class matters more than the message text.
"""


class FermatLabError(Exception):
    """Base class for all library-specific errors."""


class IndexOutOfRangeError(FermatLabError, ValueError):
    """Fermat index n is negative or exceeds the configured maximum."""


class IndexBelowTwoError(FermatLabError, ValueError):
    """Operation needs n >= 2 so that (F_n - 1)/4 is an integer power of two."""


class ModulusMismatchError(FermatLabError, ValueError):
    """Two residues with different Fermat indices were combined."""


class NonAdmissibleBaseError(FermatLabError, ValueError):
    """Pepin run requested with a base outside the admissible set, no override."""


class BaseNotCoprimeError(FermatLabError, ValueError):
    """gcd(base, F_n) != 1.

    The gcd is a factor of F_n, so it is carried on the exception rather
    than discarded: a proper one, or F_n itself for a base of 0 mod F_n.
    """

    def __init__(self, message: str, gcd: int):
        super().__init__(message)
        self.gcd = gcd

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which lack the gcd
        return type(self), (*self.args, self.gcd)


class CheckpointError(FermatLabError):
    """Checkpoint file is unreadable, tampered with, or inconsistent, or
    a chain residue fails the known-factor check."""


class NotADivisorError(FermatLabError, ValueError):
    """Divisor-structure validation called on a candidate that does not divide."""
