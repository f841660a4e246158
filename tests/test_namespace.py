"""The lazy package namespace and the immutable record types."""

import importlib
import pickle

import pytest

import fermatlab
from fermatlab import records
from fermatlab.arith import FermatResidue
from fermatlab.checkpoint import Checkpoint
from fermatlab.errors import IndexOutOfRangeError
from fermatlab.factors import CandidateDivisor
from fermatlab.oracle import OracleReport
from fermatlab.orders import OrderResult
from fermatlab.primality import AuditReport, AuditRow, ChainTaps, \
    QuarterClass, RuleOutcome, Verdict, classify_report
from fermatlab.selftest import SelftestResult


class TestNamespace:
    @pytest.mark.parametrize("name", sorted(fermatlab._EXPORTS))
    def test_name_is_the_defining_modules_object(self, name):
        module = importlib.import_module(
            f"fermatlab.{fermatlab._EXPORTS[name]}")
        assert getattr(fermatlab, name) is getattr(module, name)
        assert name in fermatlab.__all__

    def test_version(self):
        assert fermatlab.__version__ == records.LIBRARY_VERSION
        assert "__version__" in fermatlab.__all__

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from fermatlab import *", namespace)
        assert set(fermatlab.__all__) <= set(namespace)
        for name in fermatlab.__all__:
            assert namespace[name] is getattr(fermatlab, name)

    def test_dir_lists_every_name(self):
        assert set(fermatlab.__all__) <= set(dir(fermatlab))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fermatlab.no_such_name


def _residue(value=1):
    return FermatResidue(5, value)


def _verdict():
    return classify_report(5, 2)


# One instance of each record type, and a field to try to assign.
RECORDS = {
    "FermatResidue": (_residue, "value"),
    "CandidateDivisor": (lambda: CandidateDivisor(5, 5, True), "k"),
    "OrderResult": (lambda: OrderResult(5, 2, 6, True), "alpha"),
    "QuarterClass": (lambda: QuarterClass(_residue()), "residue"),
    "RuleOutcome": (lambda: RuleOutcome("rule", True), "passed"),
    "ChainTaps": (lambda: ChainTaps(_residue(), _residue(), _residue()),
                  "full"),
    "Verdict": (_verdict, "pepin_prime"),
    "AuditRow": (lambda: AuditRow(5, 641, gcd=641), "gcd"),
    "AuditReport": (lambda: AuditReport(()), "rows"),
    "Checkpoint": (lambda: Checkpoint(5, 3, 10, 12345, "now"), "residue"),
    "OracleReport": (lambda: OracleReport("check", "subject", True),
                     "agreed"),
    "SelftestResult": (lambda: SelftestResult(True, 0, ()), "passed"),
}


class TestRecordTypes:
    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_fields_cannot_be_assigned(self, kind):
        make, field = RECORDS[kind]
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.unknown_field = 1

    @pytest.mark.parametrize("kind", ["FermatResidue", "ChainTaps",
                                      "Verdict"])
    def test_pool_types_round_trip_through_pickle(self, kind):
        record = RECORDS[kind][0]()
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record

    def test_residue_refuses_a_value_out_of_range(self):
        FermatResidue(5, 1 << 32)
        for value in (-1, (1 << 32) + 1):
            with pytest.raises(ValueError, match="out of range"):
                FermatResidue(5, value)

    def test_residue_refuses_an_index_above_the_cap(self, monkeypatch):
        monkeypatch.setenv("FERMAT_LAB_MAX_N", "6")
        FermatResidue(6, 1)
        with pytest.raises(IndexOutOfRangeError):
            FermatResidue(7, 1)

    def test_candidate_refuses_k_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            CandidateDivisor(5, 0)

    def test_replace_checks_as_construction_does(self):
        assert FermatResidue(5, 1)._replace(value=2) == FermatResidue(5, 2)
        with pytest.raises(ValueError, match="out of range"):
            FermatResidue(5, 1)._replace(value=-1)
        assert CandidateDivisor(5, 5)._replace(prime=True).prime is True
        with pytest.raises(ValueError, match="k must be >= 1"):
            CandidateDivisor(5, 5)._replace(k=0)

    def test_defaults_are_kept(self):
        assert CandidateDivisor(5, 5).prime is None
        assert RuleOutcome("rule", True).detail is None
        assert OrderResult(5, 2, None).bound_satisfied is None
        row = AuditRow(5, 3)
        assert (row.gcd, row.verdict) == (None, None)
        report = OracleReport("c", "s", True)
        assert (report.expected, report.actual) == (None, None)
