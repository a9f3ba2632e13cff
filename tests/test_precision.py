"""Public results do not depend on the caller's mpmath precision.

Each private pass takes its precision as an argument, and mpmath's global
precision is set only around mpf arithmetic and rendering.  So the same
public call gives the same bytes, or the same mpf tuples, whether the caller
runs it at mpmath's default precision, inside mp.workprec(53) or inside
mp.workprec(3000).  The product memo is cleared before each call, so every
run computes its products afresh.
"""
import json

import mpmath
import pytest

from qortho import (PrecisionContext, dual_base, even_hermite_factor, gram_matrix,
                    hermite_extremal, qinv_hermite_series_tables, qpochhammer_inf, run_suite)
from qortho import kernel
from qortho.identities import DEFAULT_PHI_GRID

CTX = PrecisionContext.create()


def _each_precision(call) -> list:
    """call() at mpmath's default precision, at 53 bits and at 3000 bits,
    the product memo cleared before each."""
    outs = []
    for prec in (None, 53, 3000):
        kernel._qpochhammer_inf_memo.cache_clear()
        if prec is None:
            outs.append(call())
        else:
            with mpmath.mp.workprec(prec):
                outs.append(call())
    kernel._qpochhammer_inf_memo.cache_clear()
    return outs


def _same(call):
    default, low, high = _each_precision(call)
    assert low == default and high == default


_MEASURES = {
    "hermite_extremal": lambda: hermite_extremal("0.8", "0.7", CTX),
    "dual_base_even": lambda: dual_base(1, "0.7", "even", CTX),
}


@pytest.mark.parametrize("kind", sorted(_MEASURES))
def test_gram_bytes_do_not_depend_on_the_callers_precision(kind):
    def rendered():
        report = gram_matrix(_MEASURES[kind](), 6, CTX)
        return report.to_json(CTX.digits), report.to_csv(CTX.digits)
    _same(rendered)


@pytest.mark.parametrize("kind", sorted(_MEASURES))
def test_measure_points_do_not_depend_on_the_callers_precision(kind):
    measure = _MEASURES[kind]
    lo = -6 if measure().is_full_lattice else 0
    _same(lambda: [(x._mpf_, w._mpf_) for x, w in measure().points(lo, 6, CTX)])


def test_kernel_and_series_values_do_not_depend_on_the_callers_precision():
    # At q = 0.2 the odd degrees at phi = 0 miss their budget in the first
    # pass and are summed again by kernel._certified, and (q;q)_inf at
    # q = 0.999 multiplies out a head of 692 factors.
    _same(lambda: [[v._mpf_ for v in row]
                   for row in qinv_hermite_series_tables(range(30), DEFAULT_PHI_GRID, "0.2", CTX)])
    _same(lambda: [even_hermite_factor(k, 0, "0.99", CTX)._mpf_ for k in range(0, 31, 6)])
    _same(lambda: [qpochhammer_inf(a, q, CTX)._mpf_
                   for a, q in (("0.5", "0.9"), ("-2.5", "0.7"), ("0.999", "0.999"))])


def test_suite_bytes_do_not_depend_on_the_callers_precision():
    _same(lambda: json.dumps([r.to_dict(CTX.digits) for r in run_suite("0.7", CTX)]))


@pytest.mark.parametrize("prec", [53, 1000])
def test_decimal_strings_render_alike_at_any_ambient_precision(prec):
    # 29 digits below the tie 0.125: at 53 bits the string rounds to 0.125
    # itself, which prints 0.13.  The conversion's bits come from the string.
    with mpmath.mp.workprec(prec):
        assert kernel.to_decimal("0.12499999999999999999999999999", 2) == "0.12"
        assert kernel.to_decimal("-0.12500000000000000000000000001", 2) == "-0.13"
