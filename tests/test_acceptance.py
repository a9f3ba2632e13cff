"""Acceptance gate: one test and one printed verdict line per criterion.

Every check runs at 256 bits with the acceptance tolerance 2^-150; the
library's own working tolerance (2^-200) is tighter, so these bounds hold
with wide margin whenever the implementation is correct.  Diagonal closed
forms are recomputed here from scratch rather than taken from the library's
expected-diagonal helper.
"""
import time

import mpmath

from qortho import (PrecisionContext, adjudicate_normalization,
                    basic_hypergeometric, check_even_connection,
                    check_half_to_full_lattice, check_odd_connection,
                    check_product_chain, dual_base, dual_q_extremal,
                    dual_qinv_extremal, dual_ultra_series, dual_ultra_table,
                    gram_matrix, hermite_extremal, qinv_hermite_series,
                    qinv_hermite_table, qpochhammer, qpochhammer_inf)
from qortho.cli import main
from qortho.measures import MeasureKind

CTX = PrecisionContext.create()
TOL = mpmath.mpf(2) ** -150
Q_GRID = ("0.3", "0.5", "0.7")
PHI_GRID = ("-2", "-1", "-0.5", "0", "0.5", "1", "2")


def verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = "ACCEPTANCE criterion %d (%s): %s" % (num, desc, "PASS" if ok else "FAIL")
    if detail and not ok:
        line += " [" + detail + "]"
    print(line)
    assert ok, line


def rel(lhs, rhs):
    return abs(lhs - rhs) / max(mpmath.mpf(1), abs(lhs))


def extremal_a_grid(q):
    return [max(v, q) for v in (q, (q + 1) / 2, mpmath.mpf("0.95"))]


def test_criterion_1_hermite_extremal_orthogonality():
    ok = True
    detail = ""
    with CTX.workprec():
        for q_s in Q_GRID:
            q = mpmath.mpf(q_s)
            for a in extremal_a_grid(q):
                started = time.perf_counter()
                rep = gram_matrix(hermite_extremal(a, q, CTX), 8, CTX)
                elapsed = time.perf_counter() - started
                diag_ok = True
                for n in range(9):
                    closed = (q ** (mpmath.mpf(-n * (n + 1)) / 2)
                              * qpochhammer(q, q, n, CTX))
                    diag_ok = diag_ok and abs(rep.gram[n][n] / closed - 1) < TOL
                good = rep.off_diag_max < TOL and diag_ok and elapsed < 30
                if not good and not detail:
                    detail = "q=%s a=%s took %.1fs" % (q_s, mpmath.nstr(a, 6),
                                                       elapsed)
                ok = ok and good
    verdict(1, "full-lattice orthogonality with closed-form diagonals", ok,
            detail)


def test_criterion_2_base_lattice_orthogonality():
    ok = True
    with CTX.workprec():
        for q_s in Q_GRID:
            q = mpmath.mpf(q_s)
            q2 = q * q
            for s in (q, 1 / q, mpmath.mpf(1)):
                for parity in ("even", "odd"):
                    rep = gram_matrix(dual_base(s, q, parity, CTX), 8, CTX)
                    prefactor = (qpochhammer_inf(s * q ** 3, q2, CTX)
                                 / qpochhammer_inf(q, q2, CTX))
                    for n in range(9):
                        closed = (prefactor * qpochhammer(q2, q2, n, CTX)
                                  * q ** (-n)
                                  / qpochhammer(s * q2, q2, n, CTX))
                        ok = ok and abs(rep.gram[n][n] / closed - 1) < TOL
                    ok = ok and rep.off_diag_max < TOL
    verdict(2, "half-lattice orthogonality against the printed diagonal", ok)


def test_criterion_3_connection_formulas():
    ok = True
    with CTX.workprec():
        for q_s in Q_GRID:
            even = check_even_connection(6, PHI_GRID, q_s, CTX)
            odd = check_odd_connection(6, PHI_GRID, q_s, CTX)
            ok = ok and even.max_residual < TOL and odd.max_residual < TOL
    verdict(3, "even and odd connection formulas on the phi grid", ok)


def test_criterion_4_half_to_full_lattice_equivalence():
    ok = True
    with CTX.workprec():
        for q_s in Q_GRID:
            report = check_half_to_full_lattice(6, q_s, CTX)
            cross = mpmath.mpf(report.details["cross-parity-block"])
            ok = ok and report.max_residual < TOL and cross < TOL
    verdict(4, "half-lattice Gram blocks glue to the full lattice at a=q", ok)


def test_criterion_5_extremal_dual_orthogonality_and_normalization():
    ok = True
    with CTX.workprec():
        for q_s in Q_GRID:
            q = mpmath.mpf(q_s)
            builders = (
                (MeasureKind.DUAL_QINV_EXTREMAL, dual_qinv_extremal),
                (MeasureKind.DUAL_Q_EXTREMAL, dual_q_extremal),
            )
            for a in extremal_a_grid(q):
                for kind, build in builders:
                    rep = gram_matrix(build(a, q, CTX), 8, CTX)
                    ok = ok and rep.off_diag_max < TOL
                    ok = ok and rep.diag_rel_err_max < TOL
                    adj = adjudicate_normalization(kind, a, q, CTX)
                    ok = ok and adj.winner == "(-q/a^2;q)_inf"
                    ok = ok and adj.residual_quadratic < TOL
                    ok = ok and adj.residual_linear > mpmath.sqrt(TOL)
    verdict(5, "extremal dual orthogonality with decisive normalization", ok)


def test_criterion_6_cross_validation_and_precision_doubling():
    ok = True
    with CTX.workprec():
        for q_s in Q_GRID:
            q = mpmath.mpf(q_s)
            for phi_s in PHI_GRID:
                phi = mpmath.mpf(phi_s)
                table = qinv_hermite_table(20, mpmath.sinh(phi), q, CTX)
                for n in range(21):
                    series = qinv_hermite_series(n, phi, q, CTX)
                    ok = ok and rel(series, table[n]) < TOL
            for s in (q, 1 / q, mpmath.mpf(1)):
                for x in range(13):
                    mu = q ** (-x) + s * q ** (x + 1)
                    table = dual_ultra_table(12, mu, s, q, CTX)
                    for n in range(13):
                        series = dual_ultra_series(n, x, s, q, CTX)
                        ok = ok and rel(series, table[n]) < TOL

        half = mpmath.mpf("0.5")
        kernel_examples = (
            lambda ctx: qpochhammer("0.7", half, 0, ctx),
            lambda ctx: qpochhammer(0, half, 5, ctx),
            lambda ctx: qpochhammer(half, half, 2, ctx),
            lambda ctx: qpochhammer_inf(0, half, ctx),
            lambda ctx: qpochhammer_inf(half, half, ctx),
            lambda ctx: qpochhammer_inf(-half * half, half, ctx),
            lambda ctx: basic_hypergeometric([half], ["0.25"], half, 0, ctx),
            lambda ctx: basic_hypergeometric(
                [1 / half, -half ** 2, 0], [half, -half], half, half, ctx,
                terminating_at=1),
            lambda ctx: basic_hypergeometric(["0.3", "0.2"], ["0.7"], half,
                                             "0.4", ctx),
        )
        doubled = CTX.doubled()
        with doubled.workprec():
            for case in kernel_examples:
                ok = ok and rel(case(doubled), case(CTX)) < TOL
    verdict(6, "series/recurrence cross-validation and precision doubling", ok)


def test_criterion_7_product_chain():
    ok = True
    with CTX.workprec():
        for q_s in ("0.5", "0.9"):
            report = check_product_chain(q_s, CTX)
            ok = ok and report.max_residual < TOL
    verdict(7, "infinite-product chain restatements", ok)


def test_criterion_8_measure_distinctness_and_certificates(tmp_path):
    target = tmp_path / "sweep.csv"
    code = main(["sweep", "--q", "0.5", "--a-from", "q", "--a-to", "0.95",
                 "--steps", "10", "--N", "8", "--out", str(target)])
    lines = target.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ok = code == 0 and len(rows) == 10
    ok = ok and len({row[3] for row in rows}) == 10
    with CTX.workprec():
        for row in rows:
            ok = ok and mpmath.mpf(row[1]) < TOL and mpmath.mpf(row[2]) < TOL

        # Truncation honesty: what five more lattice points per side would
        # add to any Gram entry stays below the certified tail bound.
        q = mpmath.mpf("0.5")
        measure = hermite_extremal("0.7", q, CTX)
        rep = gram_matrix(measure, 8, CTX)
        ok = ok and rep.tail_bound > 0
        extra = (list(range(rep.m_hi + 1, rep.m_hi + 6))
                 + list(range(rep.m_lo - 5, rep.m_lo)))
        points = [measure.point(m, CTX) for m in extra]
        tables = [qinv_hermite_table(8, x, q, CTX) for x, _ in points]
        for n in range(9):
            for np_ in range(9):
                added = mpmath.fsum(
                    points[i][1] * tables[i][n] * tables[i][np_]
                    for i in range(len(points)))
                ok = ok and abs(added) < rep.tail_bound
    verdict(8, "sweep distinctness and truncation-certificate honesty", ok)
