"""Primality and pseudoprimality toolkit for numbers 2^(2^n) + 1.

The arithmetic layer (arith) reduces by digit folding instead of
division; primality implements the half-residue primality test, the
quarter-residue classification and the congruence-rule audits; orders
and factors cover multiplicative orders and the k*2^(n+2)+1 divisor
search; oracle holds the slow independent reference implementations the
test suite compares everything against.

Importing the package loads none of them: each public name below is
imported from its module on first access (PEP 562), so that a CLI call
loads only the modules its command runs.
"""

import importlib

# Each public name, and the module that defines it.
_EXPORTS = {
    **dict.fromkeys([
        "DEFAULT_MAX_INDEX", "FermatResidue", "fermat_value", "from_hex",
        "max_index", "mod_mul", "mod_square_chain", "reduce_fold",
        "to_hex"], "arith"),
    **dict.fromkeys([
        "BaseNotCoprimeError", "CheckpointError", "FermatLabError",
        "IndexBelowTwoError", "IndexOutOfRangeError",
        "ModulusMismatchError", "NonAdmissibleBaseError",
        "NotADivisorError"], "errors"),
    **dict.fromkeys([
        "CandidateDivisor", "cofactor", "divides_fermat", "lucas_search",
        "validate_divisor_form"], "factors"),
    **dict.fromkeys(["OrderResult", "order_alpha"], "orders"),
    **dict.fromkeys([
        "PEPIN_ADMISSIBLE_BASES", "Classification", "QuarterClass",
        "QuarterTag", "Verdict", "audit_range", "classify_report",
        "default_audit_bases", "fermat_congruence", "fermat_is_prime",
        "pepin_test", "quarter_residue"], "primality"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name == "__version__":
        from .records import LIBRARY_VERSION
        return LIBRARY_VERSION
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
