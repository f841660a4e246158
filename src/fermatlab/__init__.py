"""Primality and pseudoprimality toolkit for numbers 2^(2^n) + 1.

The arithmetic layer (arith) reduces by digit folding instead of
division; primality implements the half-residue primality test, the
quarter-residue classification and the congruence-rule audits; orders
and factors cover multiplicative orders and the k*2^(n+2)+1 divisor
search; oracle holds the slow independent reference implementations the
test suite compares everything against.
"""

from .arith import (
    DEFAULT_MAX_INDEX,
    FermatResidue,
    fermat_value,
    from_hex,
    max_index,
    mod_mul,
    mod_square_chain,
    reduce_fold,
    to_hex,
)
from .errors import (
    BaseNotCoprimeError,
    CheckpointError,
    FermatLabError,
    IndexBelowTwoError,
    IndexOutOfRangeError,
    ModulusMismatchError,
    NonAdmissibleBaseError,
    NotADivisorError,
)
from .factors import (
    CandidateDivisor,
    cofactor,
    divides_fermat,
    lucas_search,
    validate_divisor_form,
)
from .orders import OrderResult, order_alpha
from .primality import (
    PEPIN_ADMISSIBLE_BASES,
    Classification,
    QuarterClass,
    QuarterTag,
    Verdict,
    audit_range,
    classify_report,
    default_audit_bases,
    fermat_congruence,
    fermat_is_prime,
    pepin_test,
    quarter_residue,
)
from .records import LIBRARY_VERSION

__version__ = LIBRARY_VERSION

__all__ = [
    "BaseNotCoprimeError",
    "CandidateDivisor",
    "CheckpointError",
    "Classification",
    "DEFAULT_MAX_INDEX",
    "FermatLabError",
    "FermatResidue",
    "IndexBelowTwoError",
    "IndexOutOfRangeError",
    "ModulusMismatchError",
    "NonAdmissibleBaseError",
    "NotADivisorError",
    "OrderResult",
    "PEPIN_ADMISSIBLE_BASES",
    "QuarterClass",
    "QuarterTag",
    "Verdict",
    "audit_range",
    "classify_report",
    "cofactor",
    "default_audit_bases",
    "divides_fermat",
    "fermat_congruence",
    "fermat_is_prime",
    "fermat_value",
    "from_hex",
    "lucas_search",
    "max_index",
    "mod_mul",
    "mod_square_chain",
    "order_alpha",
    "pepin_test",
    "quarter_residue",
    "reduce_fold",
    "to_hex",
    "validate_divisor_form",
    "__version__",
]
