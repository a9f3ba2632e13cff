"""The record types: immutable named tuples compared and hashed by value, and a
package import that loads neither dataclasses nor hashlib nor json."""
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import qortho
from qortho import (FamilyKind, FamilySpec, MeasureKind, PrecisionContext,
                    adjudicate_normalization, check_inverted_parameter_recurrence,
                    check_product_chain, dual_q_extremal, gram_matrix, hermite_extremal,
                    lattice_normalization, mu_point, qpochhammer_inf)
from qortho import identities, kernel, measures

CTX = PrecisionContext.create()
SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC_NAMES = [
    "DEFAULT_CONTEXT", "DiscreteMeasure", "FamilyKind", "FamilySpec", "GramReport",
    "IdentityReport", "KernelError", "MeasureKind", "MuPoint", "NormalizationAdjudication",
    "PoleError", "PrecisionContext", "QReal", "SUITE_IDS", "SignViolation",
    "TruncationFailure", "adjudicate_normalization", "as_qparam", "basic_hypergeometric",
    "check_even_connection", "check_half_to_full_lattice",
    "check_inverted_parameter_recurrence", "check_odd_connection", "check_product_chain",
    "check_recurrence_chains", "discrete_ultra", "dual_base", "dual_q_extremal",
    "dual_qinv_extremal", "dual_ultra", "dual_ultra_coeff_rows", "dual_ultra_coeffs",
    "dual_ultra_series", "dual_ultra_table", "dual_ultra_tables", "even_hermite_factor",
    "evaluate", "expected_diagonal", "gram_matrix", "hermite_extremal",
    "lattice_normalization", "mu_point", "qinv_hermite", "qinv_hermite_coeff_rows",
    "qinv_hermite_coeffs", "qinv_hermite_series", "qinv_hermite_series_tables",
    "qinv_hermite_table", "qinv_hermite_tables", "qpochhammer", "qpochhammer_inf",
    "run_suite", "to_decimal",
]


def test_import_loads_no_dataclasses_inspect_hashlib_or_json():
    code = ("import sys, qortho.cli; qortho.PrecisionContext.create(); "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'hashlib', 'json') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "\n"


def test_public_names_are_unchanged():
    assert qortho.__all__ == PUBLIC_NAMES


def _records():
    measure = hermite_extremal("0.8", "0.5", CTX)
    return [CTX, FamilySpec(FamilyKind.QINV_HERMITE, mpmath.mpf("0.5")),
            mu_point(2, 1, "0.5", CTX), measure, gram_matrix(measure, 2, CTX),
            adjudicate_normalization(MeasureKind.DUAL_Q_EXTREMAL, "0.8", "0.5", CTX),
            check_product_chain("0.5", CTX)]


def test_records_refuse_assignment_to_a_field():
    for record in _records():
        assert isinstance(record, tuple) and record._fields
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


def test_replace_copies_a_record_as_its_own_type():
    measure = dual_q_extremal("0.8", "0.5", CTX)
    report = gram_matrix(measure, 2, CTX)
    assert report.node_hash
    copy = report._replace(N=report.N)
    assert type(copy) is measures.GramReport and copy == report and copy is not report
    assert "node_hash" not in vars(copy) and copy.node_hash == report.node_hash
    wider = measure._replace(a=mpmath.mpf("0.9"))
    assert type(wider) is measures.DiscreteMeasure and wider.kind is measure.kind
    with pytest.raises(ValueError, match="bits must be an integer >= 64"):
        CTX._replace(bits=32)


def test_derived_contexts_compare_and_hash_by_value(monkeypatch):
    # The contexts check_inverted_parameter_recurrence hands its series.
    series = []
    original = identities.qinv_hermite_series_tables

    def spy(ns, phis, q, ctx):
        series.append(ctx)
        return original(ns, phis, q, ctx)

    monkeypatch.setattr(identities, "qinv_hermite_series_tables", spy)
    for q in ("0.5", "0.01"):
        assert check_inverted_parameter_recurrence(10, None, q, CTX).passed
    assert series[1].bits > CTX.bits == series[0].bits   # q = 0.01 gains bits
    derived = [PrecisionContext.create(bits=512), CTX.doubled(),
               measures._closed(PrecisionContext.create(tol_exp=300)), *series]
    for ctx in derived:
        assert type(ctx) is PrecisionContext
        twin = PrecisionContext(bits=ctx.bits, tol=ctx.tol, max_terms=ctx.max_terms)
        assert twin is not ctx and twin == ctx and hash(twin) == hash(ctx)
    assert derived[0] == derived[1]
    assert derived[2].tol == derived[2].rounding_floor


def test_memos_key_on_equal_contexts():
    twin = PrecisionContext(bits=CTX.bits, tol=CTX.tol, max_terms=CTX.max_terms)
    for memo, call in ((kernel._qpochhammer_inf_memo, qpochhammer_inf),
                       (measures._lattice_normalization_memo, lattice_normalization)):
        memo.cache_clear()
        first = call("0.3", "0.7", CTX)
        assert call("0.3", "0.7", twin) is first
        assert memo.cache_info().misses == 1 and memo.cache_info().hits == 1
