"""Public results do not depend on the caller's mpmath precision.

Each private pass takes its precision as an argument, and no function of the
package reads or sets mpmath's global precision.  So the same public call
gives the same bytes, or the same mpf tuples, whether the caller runs it at
mpmath's default precision, inside mp.workprec(53) or inside
mp.workprec(3000); and each call runs with mpmath.mp.workprec made to raise,
and must leave mp.prec as it found it.  The product memo is cleared before
each call, so every run computes its products afresh.
"""
import contextlib
import io
import json
from unittest import mock

import mpmath
import pytest

from qortho import (PrecisionContext, as_qparam, basic_hypergeometric,
                    check_inverted_parameter_recurrence, dual_base, even_hermite_factor,
                    gram_matrix, hermite_extremal, mu_point, qinv_hermite_series_tables,
                    qpochhammer_inf, run_suite)
from qortho import cli, kernel
from qortho.identities import DEFAULT_PHI_GRID

CTX = PrecisionContext.create()


def _each_precision(call) -> list:
    """call() at mpmath's default precision, at 53 bits and at 3000 bits,
    the product memo cleared before each, and mpmath.mp.workprec replaced
    for the call by a stub that raises and counts: a call that sets the
    global precision fails here even where the package catches the error."""
    outs = []
    for prec in (None, 53, 3000):
        kernel._qpochhammer_inf_memo.cache_clear()
        with contextlib.ExitStack() as stack:
            if prec is not None:
                stack.enter_context(mpmath.mp.workprec(prec))
            before = mpmath.mp.prec
            workprec = stack.enter_context(mock.patch.object(
                mpmath.mp, "workprec", side_effect=AssertionError("mp.workprec called")))
            outs.append(call())
            assert not workprec.called, "the package set mpmath's global precision"
            assert mpmath.mp.prec == before
    kernel._qpochhammer_inf_memo.cache_clear()
    return outs


def _same(call):
    """call()'s result, the same at each precision of _each_precision."""
    default, low, high = _each_precision(call)
    assert low == default and high == default
    return default


def _cli(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


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
    reports = _same(lambda: json.dumps([r.to_dict(CTX.digits) for r in run_suite("0.7", CTX)]))
    assert all(report["pass"] for report in json.loads(reports))


def test_inverted_check_below_the_rounding_floor_does_not_depend_on_the_callers_precision():
    # At q = 0.01 the series tol falls below the floor of 256 bits, and the
    # series runs at 6 - floor(log2 tol) bits.
    report = _same(lambda: check_inverted_parameter_recurrence(10, None, "0.01", CTX).to_dict(
        CTX.digits))
    assert report["pass"]


def test_mu_point_does_not_depend_on_the_callers_precision():
    # x + 1 rounds at 256 bits for x = 1e-100; s = 16 at q = 0.5 is refused
    # with q^-2 in the message.
    assert _same(lambda: [mu_point(x, s, "0.7", CTX).mu._mpf_
                          for x, s in (("3", 1), ("-2.5", "0.5"), ("1e-100", "1.9"))])
    assert _same(lambda: _message(lambda: mu_point(1, 16, "0.5", CTX))) == (
        "s must satisfy 0 < s < q^-2 (got s=16.0, q^-2=4.0)")


def test_terminating_witness_does_not_depend_on_the_callers_precision():
    # q^-3 at q = 0.7 is inexact: the witness compares a parameter rounded
    # to 256 bits with q^-3 formed at 256 bits.
    q = as_qparam("0.7", CTX)
    top = kernel._mpf(kernel._q_power(q, -3, CTX.bits))
    assert _same(lambda: basic_hypergeometric([top, "0.3"], ["0.6"], q, "0.5", CTX,
                                              terminating_at=3)._mpf_)
    assert _same(lambda: _message(lambda: basic_hypergeometric(
        ["0.3"], ["0.6"], q, "0.5", CTX, terminating_at=3))) == (
        "terminating_at=3 requires a numerator parameter equal to q^-3")


_EVAL_ROUTES = {
    "h-x": ("--family", "h", "--n", "7", "--x", "0.3"),
    "h-phi": ("--family", "h", "--n", "7", "--phi", "0.4"),
    "C-x": ("--family", "C", "--n", "7", "--x", "0.3", "--s", "0.8"),
    "D-mu": ("--family", "D", "--n", "7", "--mu", "2.5", "--s", "0.8"),
    "D-x": ("--family", "D", "--n", "7", "--x", "2.5", "--s", "0.8"),
    "D-mu-qinv": ("--family", "D", "--n", "7", "--mu", "2.5", "--s-mode", "qinv"),
    "C-x-qinv": ("--family", "C", "--n", "7", "--x", "0.3", "--s-mode", "qinv"),
}


@pytest.mark.parametrize("route", sorted(_EVAL_ROUTES))
def test_eval_bytes_do_not_depend_on_the_callers_precision(route):
    code, out, err = _same(lambda: _cli("eval", "--q", "0.7", *_EVAL_ROUTES[route]))
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("args", [("--measure", "dual-base", "--s-mode", "qinv"),
                                  ("--measure", "dual-qinv-extremal")])
def test_gram_csv_bytes_do_not_depend_on_the_callers_precision(args):
    code, out, _ = _same(lambda: _cli("gram", "--q", "0.7", "--N", "6", "--output", "csv", *args))
    assert code == 0 and out.startswith("n,nprime,value,expected,residual\n")


def test_verify_bytes_do_not_depend_on_the_callers_precision():
    code, out, _ = _same(lambda: _cli("verify", "--q", "0.6", "--N", "4", "--k-max", "3"))
    assert code == 0 and out.endswith("13/13 identities passed\n")


def test_sweep_bytes_do_not_depend_on_the_callers_precision():
    code, out, _ = _same(lambda: _cli("sweep", "--measure", "dual-q-extremal", "--q", "0.7",
                                      "--a-from", "q", "--a-to", "0.95", "--steps", "3",
                                      "--N", "4"))
    assert code == 0 and len(out.splitlines()) == 4


def test_two_threads_at_two_precisions_get_the_serial_bytes():
    # The CI step runs the probe for 3 s on three ids; a function that set
    # the global precision made about 3 in 4 of these runs differ.
    from thread_probe import probe
    counts = probe("recurrence-chains", "0.7", [256, 1024], 1.0)
    assert all(runs for runs, _ in counts) and counts == [(runs, 0) for runs, _ in counts]


@pytest.mark.parametrize("prec", [53, 1000])
def test_decimal_strings_render_alike_at_any_ambient_precision(prec):
    # 29 digits below the tie 0.125: at 53 bits the string rounds to 0.125
    # itself, which prints 0.13.  The conversion's bits come from the string.
    with mpmath.mp.workprec(prec):
        assert kernel.to_decimal("0.12499999999999999999999999999", 2) == "0.12"
        assert kernel.to_decimal("-0.12500000000000000000000000001", 2) == "-0.13"
