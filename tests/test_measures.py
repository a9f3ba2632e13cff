"""Discrete measures, Gram matrices, and the normalization adjudication."""
import functools
import json
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho import (DiscreteMeasure, FamilyKind, FamilySpec, MeasureKind,
                    NormalizationAdjudication, PrecisionContext, SignViolation,
                    adjudicate_normalization, dual_base, dual_q_extremal, dual_qinv_extremal,
                    dual_ultra_coeff_rows, dual_ultra_table, dual_ultra_tables,
                    expected_diagonal, gram_matrix, hermite_extremal,
                    lattice_normalization, qinv_hermite_coeff_rows,
                    qinv_hermite_table, run_suite, to_decimal)
from qortho.families import _recurrence
from qortho.kernel import (TruncationFailure, _div, _largest, _mpf, _pair, _round, as_qparam,
                           qpochhammer, qpochhammer_inf)
from qortho.measures import _diagonals, _extremal, _residual_maxima, _residuals

from exact import exact_fraction

CTX = PrecisionContext.create()
Q = mpmath.mpf("0.5")
TIGHT = mpmath.mpf(2) ** -200


def rel(lhs, rhs):
    return abs(lhs - rhs) / max(mpmath.mpf(1), abs(lhs))


def sig_digits(s: str) -> int:
    return len(s.split("e")[0].replace("-", "").replace(".", "").lstrip("0"))


# -- weights and nodes --------------------------------------------------------


def test_base_even_weights_frozen():
    m = dual_base(2, Q, "even", CTX)
    node0, w0 = m.point(0, CTX)
    assert w0 == 1
    assert node0 == 2
    _, w1 = m.point(1, CTX)
    assert to_decimal(w1, 20) == "0.625"


def test_base_measure_flags_and_family_s():
    even = dual_base(1, Q, "even", CTX)
    odd = dual_base(1, Q, "odd", CTX)
    assert not even.is_full_lattice and not odd.is_full_lattice
    assert even.family(CTX).s == 1 and odd.family(CTX).s == 1
    herm = hermite_extremal("0.7", Q, CTX)
    assert herm.is_full_lattice and herm.family(CTX).s is None
    assert dual_qinv_extremal("0.7", Q, CTX).family(CTX).s == 2
    assert dual_q_extremal("0.7", Q, CTX).family(CTX).s == Q


def test_hermite_nodes_at_a_equals_q():
    m = hermite_extremal(Q, Q, CTX)
    with CTX.workprec():
        for k in (-2, 0, 3):
            node, _ = m.point(k, CTX)
            assert node == (Q ** (-k - 1) - Q ** (k + 1)) / 2


def test_full_lattice_weight_relations():
    # With the same a the three full-lattice measures share one normalization:
    # the qinv-extremal weight equals the base weight, and the q-extremal
    # weight is (2 node)^2 times it; the dual nodes are 4 x^2 + 2 (times q).
    with CTX.workprec():
        a = mpmath.mpf("0.7")
        herm = hermite_extremal(a, Q, CTX)
        qinv = dual_qinv_extremal(a, Q, CTX)
        dq = dual_q_extremal(a, Q, CTX)
        for m in range(-3, 4):
            x, wh = herm.point(m, CTX)
            y, wq = qinv.point(m, CTX)
            z, wdq = dq.point(m, CTX)
            assert rel(wq, wh) < TIGHT
            assert rel(y, 4 * x * x + 2) < TIGHT
            assert rel(z, Q * (4 * x * x + 2)) < TIGHT
            assert rel(wdq, 4 * x * x * wh) < TIGHT


def test_point_validation_and_sign_guard():
    base = dual_base(1, Q, "even", CTX)
    with pytest.raises(ValueError, match="m >= 0"):
        base.point(-1, CTX)
    # s past the validity window flips a weight factor negative; only a raw
    # construction can reach it, the constructors reject such s.
    rogue = DiscreteMeasure(MeasureKind.DUAL_BASE_EVEN, Q, s=mpmath.mpf(5))
    with pytest.raises(SignViolation):
        rogue.point(1, CTX)


def test_constructor_range_errors():
    with pytest.raises(ValueError, match="q <= a < 1"):
        hermite_extremal("0.3", Q, CTX)
    with pytest.raises(ValueError, match="q <= a < 1"):
        dual_qinv_extremal(1, Q, CTX)
    with pytest.raises(ValueError, match="0 < s < q\\^-2"):
        dual_base(4, Q, "even", CTX)
    with pytest.raises(ValueError, match="parity"):
        dual_base(1, Q, "sideways", CTX)


# -- expected diagonals --------------------------------------------------------


def test_expected_diagonal_frozen_values():
    herm = hermite_extremal("0.7", Q, CTX)
    assert expected_diagonal(herm, 0, CTX) == 1
    assert to_decimal(expected_diagonal(herm, 1, CTX), 20) == "1"
    qinv = dual_qinv_extremal("0.7", Q, CTX)
    assert to_decimal(expected_diagonal(qinv, 1, CTX), 20) == "3"
    dq = dual_q_extremal("0.7", Q, CTX)
    assert to_decimal(expected_diagonal(dq, 0, CTX), 20) == "1"


def test_base_mass_matches_degree_zero_diagonal():
    # The weights of each base measure sum to the closed-form (0,0) entry.
    with CTX.workprec():
        for parity in ("even", "odd"):
            for s in (Q, 1, 1 / Q):
                measure = dual_base(s, Q, parity, CTX)
                total = mpmath.mpf(0)
                for _, w in measure.points(0, 199, CTX):
                    total += w
                assert rel(total, expected_diagonal(measure, 0, CTX)) < 4 * CTX.tol


def test_hermite_lattice_mass_is_one():
    for q_s, a_s in (("0.5", "0.5"), ("0.5", "0.7"), ("0.3", "0.9")):
        report = gram_matrix(hermite_extremal(a_s, q_s, CTX), 0, CTX)
        assert len(report.gram) == 1 and len(report.gram[0]) == 1
        with CTX.workprec():
            assert rel(report.gram[0][0], mpmath.mpf(1)) < CTX.tol


# -- gram matrices -------------------------------------------------------------


def test_gram_passes_for_every_measure_kind():
    for measure in (hermite_extremal("0.7", Q, CTX),
                    dual_base(1, Q, "even", CTX), dual_base(1, Q, "odd", CTX),
                    dual_qinv_extremal("0.7", Q, CTX),
                    dual_q_extremal("0.7", Q, CTX)):
        report = gram_matrix(measure, 4, CTX)
        assert report.passed(CTX.tol), measure.kind.value
        assert report.N == 4 and len(report.gram) == 5
        for n in range(5):
            for np_ in range(5):
                assert report.gram[n][np_] == report.gram[np_][n]
        with CTX.workprec():
            for n in range(5):
                assert report.gram[n][n] > 0


def test_gram_hermite_across_a_values():
    with CTX.workprec():
        root = mpmath.sqrt(Q)
    for a in (Q, root, mpmath.mpf("0.9")):
        report = gram_matrix(hermite_extremal(a, Q, CTX), 4, CTX)
        assert report.passed(CTX.tol)


def test_gram_window_and_node_distinctness():
    measure = hermite_extremal("0.7", Q, CTX)
    report = gram_matrix(measure, 3, CTX)
    assert report.m_lo < 0 < report.m_hi
    rendered = [to_decimal(measure.point(m, CTX)[0], 30)
                for m in range(report.m_lo, report.m_hi + 1)]
    assert len(set(rendered)) == len(rendered)
    base_report = gram_matrix(dual_base(1, Q, "even", CTX), 3, CTX)
    assert base_report.m_lo == 0


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_base_gram_passes_next_to_s_at_q_to_the_minus_two(parity):
    # At s = q^-2 (1 - 2^-70) the leading coefficient 1 - s q^2 of D's first
    # step is about 2^-70; from a rounded s q^2 it would lose about 70 bits,
    # and with them the diagonal.
    with CTX.workprec():
        q = mpmath.mpf("0.3")
        s = q ** -2 * (1 - mpmath.ldexp(1, -70))
    report = gram_matrix(dual_base(s, q, parity, CTX), 4, CTX)
    assert report.passed(CTX.tol)
    assert report.diag_rel_err_max < CTX.rounding_floor


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_base_gram_reads_finite_products_only_for_its_diagonals(parity, monkeypatch):
    """A Gram of any kind makes no kernel.qpochhammer call: its weights and
    its closed-form diagonals are both stepped runs.  Each parity checks its
    base kind and the three extremal kinds, at a = q for even and at
    a = (1 + q)/2 for odd."""
    import sys
    from qortho import kernel
    original, calls = kernel.qpochhammer, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "qortho" or name.startswith("qortho."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    a = "0.9" if parity == "even" else "0.95"
    measures = [dual_base(1, "0.9", parity, CTX)] + [
        kind(a, "0.9", CTX) for kind in (hermite_extremal, dual_qinv_extremal, dual_q_extremal)]
    for measure in measures:
        assert gram_matrix(measure, 8, CTX).passed(CTX.tol)
        assert calls == [], measure.kind.value


def _pair_inputs(monkeypatch, measure, N, ctx):
    """The (weights, tables, N) a Gram of the measure hands to _pair_sums."""
    from qortho import measures
    seen = []
    pair_sums = measures._pair_sums

    def recording(weights, tables, n, prec):
        seen.append((weights, tables, n))
        return pair_sums(weights, tables, n, prec)

    monkeypatch.setattr(measures, "_pair_sums", recording)
    gram_matrix(measure, N, ctx)
    monkeypatch.undo()
    assert len(seen) == 1
    return seen[0]


_PAIR_MEASURES = {
    "hermite_extremal": lambda ctx: hermite_extremal("0.8", "0.7", ctx),
    "dual_qinv_extremal": lambda ctx: dual_qinv_extremal("0.8", "0.7", ctx),
    # At a = q the weight at m = -1 is exactly 0.
    "dual_q_extremal": lambda ctx: dual_q_extremal("0.7", "0.7", ctx),
    "dual_base_even": lambda ctx: dual_base(1, "0.7", "even", ctx),
    "dual_base_odd": lambda ctx: dual_base(1, "0.7", "odd", ctx),
}


@pytest.mark.parametrize("kind", sorted(_PAIR_MEASURES))
def test_expected_diagonal_rejects_a_negative_degree(kind):
    # d_n is read from a list of the run, where n = -1 would give d_N.
    measure = _PAIR_MEASURES[kind](CTX)
    with pytest.raises(ValueError, match="nonnegative"):
        expected_diagonal(measure, -1, CTX)


@pytest.mark.parametrize("bits, tol_exp", [(256, 200), (1024, 800)])
@pytest.mark.parametrize("kind", sorted(_PAIR_MEASURES))
def test_pair_sums_are_within_their_bound_of_the_exact_sum(monkeypatch, kind,
                                                           bits, tol_exp):
    # Every entry against the exact rational sum of the same inputs, on the
    # sqrt(G_nn G_n'n') scale: (2^-prec + 5 (M+1) 2^-(prec+16+bitlen(M))).
    from qortho.measures import _pair_sums
    ctx = PrecisionContext.create(bits=bits, tol_exp=tol_exp)
    weights, tables, N = _pair_inputs(monkeypatch, _PAIR_MEASURES[kind](ctx), 6, ctx)
    # An identically zero column and a negated one ride along.
    tables = [list(row[:N + 1]) + [(0, 0), (-row[1][0], row[1][1])] for row in tables]
    with ctx.workprec():
        gram = _pair_sums(weights, tables, N + 2, bits)
    w = [exact_fraction(v) for v in weights]
    t = [[exact_fraction(v) for v in row] for row in tables]
    if kind == "dual_q_extremal":
        assert w.count(0) == 1
    assert all(v >= 0 for v in w)
    assert any(row[N + 2] < 0 for row in t)
    M = sum(1 for v in w if v)
    bound = (Fraction(1, 1 << bits)
             + Fraction(5 * (M + 1), 1 << (bits + 16 + M.bit_length())))
    size = N + 3
    exact = [[sum(wi * row[n] * row[k] for wi, row in zip(w, t)) for k in range(size)]
             for n in range(size)]
    for n in range(size):
        for k in range(size):
            err = exact_fraction(gram[n][k]) - exact[n][k]
            assert err * err <= bound * bound * exact[n][n] * exact[k][k], (n, k)
    assert all(exact_fraction(v) == 0 for v in gram[N + 1]) and exact[N + 1][N + 1] == 0


def test_pair_sums_do_not_depend_on_node_order(monkeypatch):
    from qortho.measures import _pair_sums
    weights, tables, N = _pair_inputs(monkeypatch, hermite_extremal("0.8", Q, CTX), 8, CTX)
    with CTX.workprec():
        forward = _pair_sums(weights, tables, N, CTX.bits)
        backward = _pair_sums(weights[::-1], tables[::-1], N, CTX.bits)
    assert forward == backward


def test_pair_sums_refuse_what_their_bound_does_not_cover():
    from qortho.measures import _pair_sums
    with CTX.workprec():
        assert [[exact_fraction(v) for v in row] for row in
                _pair_sums([(1, 0), (1, 0)], [[(1, 0)], [(-1, 0)]], 0, CTX.bits)] == [[2]]
        with pytest.raises(ValueError, match="nonnegative"):
            _pair_sums([(-1, 0)], [[(1, 0)]], 0, CTX.bits)
        # The weights and values come as pairs, and no pair holds inf or nan.
        for value in (mpmath.inf, mpmath.nan, -mpmath.inf):
            with pytest.raises(ValueError, match="finite"):
                _pair(value)


def largest_residuals(gram, diag, prec):
    """_largest over all of _residuals: the diagonal, then n < n' row by row."""
    res = _residuals(gram, diag, prec)
    size = len(diag)
    return (_largest(res[n][n] for n in range(size)),
            _largest(res[n][np_] for n in range(size) for np_ in range(n + 1, size)))


def test_residual_maxima_at_near_ties_zeros_and_small_sizes():
    prec = 256
    rng = random.Random(11)

    def positive():
        return rng.randrange(1 << 255, 1 << 256), rng.randrange(-300, 300)

    def symmetric(diag, off):
        gram = [[(dm + 12345, de) for dm, de in diag] for _ in diag]
        for (n, np_), g in off.items():
            gram[n][np_] = gram[np_][n] = g
        return gram

    # Near ties across degrees: G_01 and G_02 are c sqrt(d_0 d_n) for one c,
    # each rounded to 256 bits, so their exact quotients differ by about a
    # unit in the last place, far below what the 53-bit ranking resolves.
    cases, split = [], 0
    for _ in range(200):
        diag = [positive() for _ in range(3)]
        c = _mpf(positive())
        with mpmath.mp.workprec(4 * prec):
            g1, g2 = (_round(_pair(c * mpmath.sqrt(_mpf(diag[0]) * _mpf(d))), prec)
                      for d in diag[1:])
        cases.append((symmetric(diag, {(0, 1): g1, (0, 2): (-g2[0], g2[1]),
                                       (1, 2): (g1[0], g1[1] - 30)}), diag))
        res = _residuals(cases[-1][0], diag, prec)
        split += res[0][1] != res[0][2]
    assert split > 50   # the two computed quotients differ in most cases
    # Exact quotients one unit apart in the last place, the larger first or second.
    m = positive()[0]
    ones = [(1, 0)] * 3
    cases += [(symmetric(ones, {(0, 1): (m, -256), (0, 2): (m + 1, -256), (1, 2): (0, 0)}), ones),
              (symmetric(ones, {(0, 1): (m + 1, -256), (0, 2): (m, -256), (1, 2): (0, 0)}), ones)]
    # Every off-diagonal entry zero, N = 0 and N = 1.
    diag = [positive() for _ in range(4)]
    cases.append((symmetric(diag, {(n, np_): (0, 0) for n in range(4)
                                   for np_ in range(n + 1, 4)}), diag))
    cases.append((symmetric(diag[:1], {}), diag[:1]))
    cases.append((symmetric(diag[:2], {(0, 1): (3, -400)}), diag[:2]))
    for gram, diag in cases:
        assert _residual_maxima(gram, diag, prec) == largest_residuals(gram, diag, prec)
    assert _residual_maxima(*cases[-3], prec)[1] == (0, 0)
    assert _residual_maxima(*cases[-2], prec)[1] == (0, 0)


def test_node_hash_separates_a_values():
    hashes = set()
    for a in ("0.6", "0.7", "0.8"):
        report = gram_matrix(hermite_extremal(a, Q, CTX), 2, CTX)
        hashes.add(report.node_hash)
    assert len(hashes) == 3


def test_node_hash_is_formed_only_when_read(monkeypatch):
    # gram and verify never print the hash, so a Gram renders no node; a
    # read renders the window once.
    import qortho.measures
    rendered = []
    render = qortho.measures.to_decimal

    def counted(value, digits):
        rendered.append(digits)
        return render(value, digits)

    monkeypatch.setattr(qortho.measures, "to_decimal", counted)
    measure = hermite_extremal("0.8", Q, CTX)
    report = gram_matrix(measure, 4, CTX)
    assert rendered == []
    assert len(report.node_hash) == 16
    assert rendered == [30] * (report.m_hi - report.m_lo + 1)


def window_extension_entries(measure, N, report, pad):
    """What a window widened by pad per side would add to each Gram entry."""
    family = measure.family(CTX)
    extra = list(range(report.m_hi + 1, report.m_hi + pad + 1))
    if measure.is_full_lattice:
        extra += list(range(report.m_lo - pad, report.m_lo))
    with CTX.workprec():
        points = [measure.point(m, CTX) for m in extra]
        if family.kind is FamilyKind.QINV_HERMITE:
            tables = [qinv_hermite_table(N, x, family.q, CTX) for x, _ in points]
        else:
            s = family.validated(CTX).s
            tables = [dual_ultra_table(N, x, s, family.q, CTX) for x, _ in points]
        out = [[mpmath.mpf(0)] * (N + 1) for _ in range(N + 1)]
        for n in range(N + 1):
            for np_ in range(N + 1):
                out[n][np_] = mpmath.fsum(
                    points[i][1] * tables[i][n] * tables[i][np_]
                    for i in range(len(points)))
        return out


def test_truncation_certificate_honesty():
    # Widening the window must move no entry by more than the certified bound.
    for measure in (hermite_extremal("0.7", Q, CTX), dual_base(1, Q, "even", CTX)):
        report = gram_matrix(measure, 3, CTX)
        added = window_extension_entries(measure, 3, report, 5)
        with CTX.workprec():
            assert report.tail_bound > 0
            for n in range(4):
                for np_ in range(4):
                    assert abs(added[n][np_]) < report.tail_bound


MEASURES = {
    "hermite_extremal": lambda ctx: hermite_extremal("0.8", "0.7", ctx),
    "dual_qinv_extremal": lambda ctx: dual_qinv_extremal("0.8", "0.7", ctx),
    "dual_q_extremal": lambda ctx: dual_q_extremal("0.8", "0.7", ctx),
    "dual_base_even": lambda ctx: dual_base("1.5", "0.7", "even", ctx),
    "dual_base_odd": lambda ctx: dual_base("1.5", "0.7", "odd", ctx),
}


# 4096-bit entries have binary exponents past +-3500, where to_decimal hands
# the rendering to nstr.
@pytest.mark.parametrize("bits", [256, 4096])
@pytest.mark.parametrize("N", [0, 2, 3])
@pytest.mark.parametrize("kind", sorted(MEASURES))
def test_gram_report_json_schema_and_precision(kind, N, bits):
    ctx = PrecisionContext.create(bits=bits)
    report = gram_matrix(MEASURES[kind](ctx), N, ctx)
    text = report.to_json(ctx.digits)
    assert text == report.to_json(ctx.digits)
    obj = json.loads(text)
    # README: re-parsing and re-serializing the object is byte-identical.
    assert json.dumps(obj, indent=2) + "\n" == text
    assert set(obj) == {"family", "measure", "q", "s", "a", "N", "bits", "gram",
                        "off_diag_max", "diag_rel_err_max", "m_window",
                        "tail_bound"}
    assert obj["family"] == report.family_kind
    assert obj["measure"] == kind
    assert (obj["s"] is None) == (kind == "hermite_extremal")
    assert (obj["a"] is None) == kind.startswith("dual_base")
    assert obj["N"] == N and obj["bits"] == bits
    assert obj["m_window"] == [report.m_lo, report.m_hi]
    assert len(obj["gram"]) == N + 1 and all(len(row) == N + 1 for row in obj["gram"])
    # At least the measured entries must carry full working precision (80
    # digits at 256 bits).
    if N:
        assert max(sig_digits(v) for row in obj["gram"] for v in row) >= ctx.digits - 7


def test_gram_report_csv_layout():
    report = gram_matrix(hermite_extremal("0.7", Q, CTX), 2, CTX)
    lines = report.to_csv(CTX.digits).splitlines()
    assert lines[0] == "n,nprime,value,expected,residual"
    assert len(lines) == 1 + 9
    assert lines[1].startswith("0,0,")


def test_gram_input_validation():
    with pytest.raises(ValueError):
        gram_matrix(hermite_extremal("0.7", Q, CTX), -1, CTX)
    # A measure built without its factory still has its q and s checked.
    with pytest.raises(ValueError, match="q\\^-2"):
        gram_matrix(DiscreteMeasure(MeasureKind.DUAL_BASE_EVEN, Q, s=5), 2, CTX)
    with pytest.raises(ValueError):
        gram_matrix(DiscreteMeasure(MeasureKind.HERMITE_EXTREMAL, mpmath.mpf(2),
                                    a=mpmath.mpf("0.7")), 2, CTX)


# -- normalization adjudication ------------------------------------------------


def test_adjudication_judges_z_alone():
    # The suite's id shows Z(a)'s residual, the one it judges, and nothing
    # else; the record holds no other candidate.
    assert NormalizationAdjudication._fields == (
        "measure_kind", "a", "q", "mass", "candidate_quadratic", "residual_quadratic")
    for build, identity in ((MeasureKind.DUAL_QINV_EXTREMAL, "qinv-extremal-normalization"),
                            (MeasureKind.DUAL_Q_EXTREMAL, "q-extremal-normalization")):
        verdict = adjudicate_normalization(build, "0.75", Q, CTX)
        assert verdict.candidate_quadratic == lattice_normalization(verdict.a, Q, CTX)
        with CTX.workprec():
            assert verdict.residual_quadratic < CTX.tol
        (report,) = run_suite(Q, CTX, only=[identity], a="0.75")
        assert report.details == {
            "candidate (-q/a^2;q)_inf residual": to_decimal(verdict.residual_quadratic, CTX.digits)}
        assert report.passed and report.max_residual == verdict.residual_quadratic


def test_adjudication_rejects_other_kinds():
    with pytest.raises(ValueError, match="extremal dual"):
        adjudicate_normalization(MeasureKind.HERMITE_EXTREMAL, "0.7", Q, CTX)


# Z(a) = sum_k q^(k(k-1)/2) a^(2k) = (-a^2;q)_inf (-q/a^2;q)_inf (q;q)_inf
# (Jacobi triple product), at q near 0, at q = 1/2, where 1/q is exact, and
# near 1, at the ends of q <= a < 1 and between them.
_Z_QS = ("1e-4", "0.3", "0.5", "0.9", "0.99", "0.999")


def _z_cases(q_s):
    q = as_qparam(q_s, CTX)
    with CTX.workprec():
        return q, [q, mpmath.sqrt(q), (1 + q) / 2, mpmath.mpf("0.999")]


def _agrees(value, want):
    """value within relative tol/16 of want, the certificate of Z(a)."""
    with CTX.workprec():
        return abs(value - want) <= mpmath.ldexp(CTX.tol, -4) * want


def _theta_sum(a, q, bits):
    """sum_k q^(k(k-1)/2) a^(2k) in mpf at bits, each side summed past its
    largest term until a term is below 2^-(bits+8) of the sum."""
    with mpmath.mp.workprec(bits):
        z, total = a * a, mpmath.mpf(1)
        for ratio in (z, q / z):   # t_(k+1) / t_k going up, and going down
            term = mpmath.mpf(1)
            while True:
                term *= ratio
                total += term
                ratio *= q
                if ratio < 1 and term < mpmath.ldexp(total, -(bits + 8)):
                    break
        return total


@pytest.mark.parametrize("q_s", _Z_QS)
def test_lattice_normalization_matches_the_triple_product(q_s):
    q, a_values = _z_cases(q_s)
    for a in a_values:
        z = lattice_normalization(a, q, CTX)
        with CTX.workprec():
            products = (qpochhammer_inf(-a * a, q, CTX) * qpochhammer_inf(-q / (a * a), q, CTX)
                        * qpochhammer_inf(q, q, CTX))
        assert _agrees(z, products), (q_s, a)
    herm = hermite_extremal(a_values[2], q, CTX)
    assert herm.normalization(CTX) == lattice_normalization(a_values[2], q, CTX)
    assert dual_base(1, q, "even", CTX).normalization(CTX) == 1


@pytest.mark.parametrize("q_s", _Z_QS)
def test_lattice_normalization_matches_a_sum_at_four_times_the_bits(q_s):
    q, a_values = _z_cases(q_s)
    for a in a_values:
        assert _agrees(lattice_normalization(a, q, CTX), _theta_sum(a, q, 4 * CTX.bits))


@pytest.mark.parametrize("q_s", _Z_QS)
def test_a_sum_without_its_k_equals_minus_one_term_fails_the_check(q_s):
    # t_(-1) = q / a^2 lies in (q, 1/q], far above tol/16 of the sum.
    q, a_values = _z_cases(q_s)
    for a in a_values:
        with CTX.workprec():
            dropped = lattice_normalization(a, q, CTX) - q / (a * a)
            products = (qpochhammer_inf(-a * a, q, CTX) * qpochhammer_inf(-q / (a * a), q, CTX)
                        * qpochhammer_inf(q, q, CTX))
        assert not _agrees(dropped, products)
        assert not _agrees(dropped, _theta_sum(a, q, 4 * CTX.bits))


@pytest.mark.parametrize("a_s", ["0.5", "0.999", "1.5"])
@pytest.mark.parametrize("q_s", ["0.999", "0.9999"])
def test_theta_tail_covers_the_terms_each_side_leaves_out(q_s, a_s):
    # Near q = 1 each side stops at a term t_k below 2^-256 whose ratio is
    # still 0.22 to 0.83 here, so the terms it leaves out sum to about
    # 1 / (1 - ratio) times t_k.  The tail 2^c t_k must cover them, within
    # 1.011 for the rounding of t_k (_theta_pass): t_k alone, a tail
    # without its 2^c, falls short on every side.  The bound's rounding
    # part, 2 count 2^-256, is far larger than either, so only the tail
    # itself shows this.
    from qortho.measures import _theta_side
    prec = 256
    with mpmath.workprec(prec):
        q, z = mpmath.mpf(q_s), mpmath.mpf(a_s) ** 2
    q_p, z_p = _pair(q), _pair(z)
    total, count = (1, 0), 0
    for ratio, r_count, x, shift in ((z_p, 0, z, 0), (_div(q_p, z_p, prec), 1, 1 / z, 1)):
        total, count, tail, k = _theta_side(total, count, ratio, r_count, q_p, 50000, prec)
        with mpmath.workprec(2000):
            # t_j = x^j q^(j(j-1)/2 + shift j): x = z going up, 1/z going
            # down (shift 1), each term the last times x q^(j + shift)
            term = x ** k * q ** (k * (k - 1) // 2 + shift * k)
            t_k, left_out, qj = term, mpmath.mpf(0), q ** (k + shift)
            while term > mpmath.ldexp(left_out, -2000):
                left_out += term
                term *= x * qj
                qj *= q
            assert left_out <= mpmath.mpf("1.011") * _mpf(tail), (q_s, a_s, shift)
            assert left_out > mpmath.mpf("1.011") * t_k, (q_s, a_s, shift)


def test_lattice_normalization_refuses_past_max_terms_and_at_a_equals_zero():
    # At q = 1/2 each side of the sum needs about 20 terms.
    with pytest.raises(TruncationFailure,
                       match="Z\\(a\\) theta sum not resolved within max_terms=5"):
        lattice_normalization("0.7", Q, PrecisionContext(max_terms=5))
    with pytest.raises(ValueError, match="a must be nonzero"):
        lattice_normalization(0, Q, CTX)


def _window_measure(kind, q_s, ctx):
    """The kind's measure at q: a = (1 + q)/2, s = 1 for the even base kind
    and s = 1/q for the odd one."""
    if kind is MeasureKind.DUAL_BASE_EVEN:
        return dual_base(1, q_s, "even", ctx)
    q = as_qparam(q_s, ctx)
    if kind is MeasureKind.DUAL_BASE_ODD:
        with ctx.workprec():
            return dual_base(1 / q, q, "odd", ctx)
    with ctx.workprec():
        return _extremal(kind, (1 + q) / 2, q, ctx)


@pytest.mark.parametrize("q_s,bits", [(q_s, bits) for q_s in ("1e-4", "0.3", "0.9", "0.999")
                                       for bits in (256, 1024)] + [("0.99999", 256)])
@pytest.mark.parametrize("kind", list(MeasureKind))
def test_window_tail_covers_the_sum_over_four_times_the_window(kind, q_s, bits):
    # What the window omits of each diagonal entry, sum w_m P_n(x_m)^2 over
    # the m outside it (and by Cauchy-Schwarz of every entry), summed out
    # to four times the window at four times the bits, is at most the
    # certified tail.  At q = 0.99999 every window stops at a ratio above
    # 1/2, so each tail is 2^c times its first term for some c > 1.
    ctx, N = _ctx(bits), 6
    wide = PrecisionContext(bits=4 * bits)
    measure = _window_measure(kind, q_s, ctx)
    report = gram_matrix(measure, N, ctx)
    values = _recurrence(measure.family(ctx).validated(ctx).validated(wide), N, wide)[0]
    runs = [(report.m_hi + 1, 4 * report.m_hi)]
    if measure.is_full_lattice:
        runs.append((4 * report.m_lo, report.m_lo - 1))
    omitted = [mpmath.mpf(0)] * (N + 1)
    with wide.workprec():
        for lo, hi in runs:
            for x, w in measure.points(lo, hi, wide):
                for n, p in enumerate(values(_pair(x))):
                    omitted[n] += w * _mpf(p) ** 2
        assert 0 < max(omitted) <= report.tail_bound


@pytest.mark.parametrize("kind", ["hermite_extremal", "dual_base_even"])
def test_gram_evaluates_each_lattice_point_once(monkeypatch, kind):
    # The window scan looks one point past each edge; every other point it
    # sees is reused by the assembly instead of being evaluated again.
    q = mpmath.mpf("0.9")
    if kind == "hermite_extremal":
        measure = hermite_extremal("0.95", q, CTX)
    else:
        measure = dual_base(1, q, "even", CTX)
    calls = []
    point = DiscreteMeasure.point

    def counted(self, m, *args, **kwargs):
        calls.append(m)
        return point(self, m, *args, **kwargs)

    monkeypatch.setattr(DiscreteMeasure, "point", counted)
    report = gram_matrix(measure, 8, CTX)
    assert report.passed(CTX.tol)
    assert len(calls) <= report.m_hi - report.m_lo + 3


def test_adjudication_forms_z_once_and_no_product():
    # One theta sum, Z(a), which the degree-0 Gram divides by too, and no
    # infinite product.
    from qortho.kernel import _qpochhammer_inf_memo
    from qortho.measures import _lattice_normalization_memo
    _qpochhammer_inf_memo.cache_clear()
    _lattice_normalization_memo.cache_clear()
    verdict = adjudicate_normalization(MeasureKind.DUAL_Q_EXTREMAL, "0.75", Q, CTX)
    with CTX.workprec():
        assert verdict.residual_quadratic < CTX.tol
    assert _qpochhammer_inf_memo.cache_info().misses == 0
    assert _lattice_normalization_memo.cache_info().misses == 1


@pytest.mark.parametrize("kind", ["hermite_extremal", "dual_base_even"])
def test_gram_runs_each_recurrence_once(monkeypatch, kind):
    # No coefficient-row pass, since the majorant runs the recurrence at each
    # node it is asked about, and one recurrence handle whose values are
    # taken once at each window node, whatever N and the window size.
    import qortho.families
    import qortho.measures
    rows, handles, points = [], [], []
    for name in ("qinv_hermite_coeff_rows", "dual_ultra_coeff_rows"):
        monkeypatch.setattr(qortho.families, name, lambda n_max, *args: rows.append(n_max))
    if kind == "hermite_extremal":
        measure = hermite_extremal("0.8", Q, CTX)
    else:
        measure = dual_base(1, Q, "even", CTX)

    def recorded(family, n_max, ctx):
        values, majorant, all_rows = _recurrence(family, n_max, ctx)
        handles.append(n_max)
        return (lambda p: points.append(p) or values(p), majorant,
                lambda: rows.append(n_max) or all_rows())

    monkeypatch.setattr(qortho.measures, "_recurrence", recorded)
    report = gram_matrix(measure, 10, CTX)
    assert report.passed(CTX.tol)
    assert rows == [] and handles == [10]
    assert [_mpf(p) for p in points] == report.nodes


@pytest.mark.parametrize("kind", ["hermite_extremal", "dual_base_even"])
def test_gram_forms_recurrence_coefficients_once(monkeypatch, kind):
    # The window's majorant and the values at its nodes share one set of
    # recurrence coefficients, wherever a module holds the function that
    # forms them.
    import qortho.families
    import qortho.measures
    name = "_hermite_steps" if kind == "hermite_extremal" else "_dual_steps"
    build = getattr(qortho.families, name)
    formed = []

    def counted(*args):
        formed.append(args[0])
        return build(*args)

    for module in (qortho.families, qortho.measures):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    if kind == "hermite_extremal":
        measure = hermite_extremal("0.8", Q, CTX)
    else:
        measure = dual_base(1, Q, "even", CTX)
    assert gram_matrix(measure, 10, CTX).passed(CTX.tol)
    assert formed == [10]


def test_measure_family_pairs_each_kind():
    with CTX.workprec():
        q = mpmath.mpf("0.7")
        cases = [
            (hermite_extremal("0.8", q, CTX), FamilyKind.QINV_HERMITE, None),
            (dual_qinv_extremal("0.8", q, CTX), FamilyKind.DUAL_DISCRETE_ULTRA, 1 / q),
            (dual_q_extremal("0.8", q, CTX), FamilyKind.DUAL_DISCRETE_ULTRA, q),
            (dual_base("0.3", q, "even", CTX), FamilyKind.DUAL_DISCRETE_ULTRA,
             mpmath.mpf("0.3")),
            (dual_base("0.3", q, "odd", CTX), FamilyKind.DUAL_DISCRETE_ULTRA,
             mpmath.mpf("0.3")),
        ]
    for measure, kind, s in cases:
        assert measure.family(CTX) == FamilySpec(kind, q, s)


# -- the majorant is each family's own recurrence at one point ----------------
#
# A(t) = max_n sum_j |c_nj| t^j.  The oracle forms the sums from the public
# coefficient rows at four times the precision.

_EXTREMAL = {"hermite": hermite_extremal, "dual-qinv": dual_qinv_extremal,
             "dual-q": dual_q_extremal}

# The s of each dual family as a function of q.
_DUAL_S = {
    "D(s=q)": lambda q: q,
    "D(s=1/q)": lambda q: 1 / q,
    "D(s=1)": lambda q: mpmath.mpf(1),
    "D(s=0.999/q^2)": lambda q: mpmath.mpf("0.999") / (q * q),
}


def _ctx(bits):
    return PrecisionContext.create(bits=bits, tol_exp=200 if bits == 256 else 800)


def _wide_rows(family, N, ctx):
    """The coefficient rows of degrees 0..N at 4 ctx.bits, with the context."""
    wide = PrecisionContext(bits=4 * ctx.bits)
    if family.kind is FamilyKind.QINV_HERMITE:
        return qinv_hermite_coeff_rows(N, family.q, wide), wide
    return dual_ultra_coeff_rows(N, family.s, family.q, wide), wide


def _assert_is_coefficient_sum(amax, family, N, ts, ctx):
    """amax(t), on the pair of t, is within relative 2^(12-bits) of
    max_n sum_j |c_nj| t^j."""
    rows, wide = _wide_rows(family, N, ctx)
    for t in ts:
        value = _mpf(amax(_pair(t)))
        with wide.workprec():
            want = max(mpmath.fsum(abs(c) * t ** j for j, c in enumerate(cs))
                       for cs in rows)
            assert abs(value - want) <= mpmath.ldexp(want, 12 - ctx.bits), t


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["h"] + sorted(_DUAL_S)),
       q=st.floats(min_value=0.05, max_value=0.999),
       N=st.integers(min_value=0, max_value=30),
       bits=st.sampled_from([256, 1024]),
       log2_t=st.floats(min_value=-30, max_value=300))
def test_majorant_is_the_largest_absolute_coefficient_sum(name, q, N, bits, log2_t):
    ctx = _ctx(bits)
    with ctx.workprec():
        q = mpmath.mpf(q)
        t = mpmath.mpf(2) ** log2_t
        if name == "h":
            family = FamilySpec(FamilyKind.QINV_HERMITE, q)
        else:
            s = _DUAL_S[name](q)
            family = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s)
    if name != "h":
        # D_n(-t) = sum_j |c_nj| t^j, so no value of the loop at -t is <= 0
        assert all(v > 0 for v in dual_ultra_tables(N, [-t], s, q, ctx)[0])
    with ctx.workprec():
        amax = _recurrence(family, N, ctx)[1]
    _assert_is_coefficient_sum(amax, family, N, [t], ctx)


def _exact_rows(name, N, q, s=1):
    """Exact coefficient rows of h, or of D, at a rational q (and s)."""
    rows = [[Fraction(1)]]
    for j in range(N):
        prev, cur = rows[j - 1] if j else [], rows[j]
        if name == "h":
            # x^i: h_{j+1} = 2x h_j - q^-j (1 - q^j) h_{j-1}
            nxt = [Fraction(0)] + [2 * c for c in cur]
            low, lead = q ** -j * (1 - q ** j), 1
        else:
            # mu^i: q^(-2j-1) (1 - s q^(2j+2)) D_{j+1}
            #     = (q^(-2j-1) (1+q) - mu) D_j - q^(-2j) (1 - q^(2j)) D_{j-1}
            nxt = [q ** (-2 * j - 1) * (1 + q) * c for c in cur] + [Fraction(0)]
            for i, c in enumerate(cur):
                nxt[i + 1] -= c
            low = q ** (-2 * j) * (1 - q ** (2 * j))
            lead = q ** (-2 * j - 1) * (1 - s * q ** (2 * j + 2))
        for i, c in enumerate(prev):
            nxt[i] -= low * c
        rows.append([c / lead for c in nxt])
    return rows


@pytest.mark.parametrize("N", [7, 8])
@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 4)], ids=["q0.5", "q0.75"])
@pytest.mark.parametrize("name", ["h", "D(s=1)"])
def test_majorant_matches_exact_rational_rows(name, q, N):
    # Every term of h_n(it) / i^n and of D_n(-t) has one sign, which is the
    # identity the majorant rests on; and its value at exact dyadic t is
    # within relative 2^(12-bits) of the exact max.  At odd N and small t
    # the max is not in the last row, since h_N(0) = 0.
    ctx = _ctx(256)
    rows = _exact_rows(name, N, q)
    for n, cs in enumerate(rows):
        if name == "h":
            assert all(c == 0 if (n - j) % 2 else c * (-1) ** ((n - j) // 2) > 0
                       for j, c in enumerate(cs))
        else:
            assert all(c * (-1) ** j > 0 for j, c in enumerate(cs))
    with ctx.workprec():
        q_mpf = mpmath.mpf(q.numerator) / q.denominator
        if name == "h":
            family = FamilySpec(FamilyKind.QINV_HERMITE, q_mpf)
        else:
            family = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q_mpf, mpmath.mpf(1))
        amax = _recurrence(family, N, ctx)[1]
        for t in [Fraction(0), Fraction(1, 1 << 20), Fraction(3, 8), Fraction(1),
                  Fraction(5, 2), Fraction(1 << 40)]:
            want = max(sum(abs(c) * t ** j for j, c in enumerate(cs)) for cs in rows)
            value = exact_fraction(amax(_pair(mpmath.mpf(t.numerator) / t.denominator)))
            assert abs(value - want) <= want / (1 << (ctx.bits - 12)), t


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("N", [7, 8])
@pytest.mark.parametrize("s", [Fraction(1), Fraction(1, 2)], ids=["s1", "s0.5"])
@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 4)], ids=["q0.5", "q0.75"])
def test_dual_rows_match_exact_rational_rows(q, s, N, bits):
    # The coefficient rows the majorant's oracle reads: every coefficient of
    # D_0, ..., D_N is within relative 2^(6-bits) of the exact one.
    ctx = _ctx(bits)
    with ctx.workprec():
        rows = dual_ultra_coeff_rows(N, mpmath.mpf(s.numerator) / s.denominator,
                                     mpmath.mpf(q.numerator) / q.denominator, ctx)
    exact = _exact_rows("D", N, q, s)
    assert [len(cs) for cs in rows] == [len(cs) for cs in exact]
    for cs, want_cs in zip(rows, exact):
        for c, want in zip(cs, want_cs):
            assert abs(exact_fraction(c) - want) <= abs(want) / (1 << (bits - 6))


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.05", "0.3", "0.7"])
@pytest.mark.parametrize("kind", list(_EXTREMAL))
def test_filtered_majorant_is_the_full_max_at_every_scanned_node(
        monkeypatch, kind, q_s, bits):
    # The window runs the majorant once per side, at its anchor, a node of
    # the window, and the majorant is the max over every coefficient row
    # there.
    import qortho.measures
    ctx = _ctx(bits)
    seen = []

    def recorded(family, N, ctx_):
        values, amax, rows = _recurrence(family, N, ctx_)
        seen.append((family, amax, []))
        return values, lambda t: seen[-1][2].append(_mpf(t)) or amax(t), rows

    monkeypatch.setattr(qortho.measures, "_recurrence", recorded)
    measure = _EXTREMAL[kind]("0.9", q_s, ctx)
    report = gram_matrix(measure, 20, ctx)
    assert report.passed(ctx.tol)
    (family, amax, ts), = seen
    _assert_is_coefficient_sum(amax, family, 20, ts, ctx)
    with ctx.workprec():
        window = {abs(x)._mpf_ for x in report.nodes}
    assert len(ts) == 2 and all(t._mpf_ in window for t in ts)


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.05", "0.5", "0.999"])
@pytest.mark.parametrize("kind", list(_EXTREMAL))
def test_filtered_majorant_is_the_full_max_at_chosen_points(kind, q_s, bits):
    # t = 0, t < 1, t = 1 and large t; and both sides of each place where
    # the largest row changes (only the h rows near q = 1 have one), where
    # two rows tie.
    ctx = _ctx(bits)
    N = 30
    family = _EXTREMAL[kind](q_s, q_s, ctx).family(ctx)  # the family does not depend on a
    with ctx.workprec():
        amax = _recurrence(family, N, ctx)[1]
    rows, wide = _wide_rows(family, N, ctx)
    with ctx.workprec():
        ts = [mpmath.mpf(0), mpmath.mpf(1) / 3, mpmath.mpf("0.999"), mpmath.mpf(1),
              mpmath.mpf(2), mpmath.mpf(10) ** 40]
        grid = [mpmath.mpf(2) ** k for k in range(-10, 60, 3)]

    def top_row(t):
        with wide.workprec():
            values = [mpmath.fsum(abs(c) * t ** j for j, c in enumerate(cs)) for cs in rows]
        return max(range(N + 1), key=values.__getitem__)

    keys = [top_row(t) for t in grid]
    ties = []
    for i in [i for i in range(len(grid) - 1) if keys[i] != keys[i + 1]][:2]:
        lo, hi = grid[i], grid[i + 1]
        for _ in range(24):
            with ctx.workprec():
                mid = (lo + hi) / 2
            if top_row(mid) == keys[i]:
                lo = mid
            else:
                hi = mid
        ties += [lo, hi]
    assert bool(ties) == ((kind, q_s) == ("hermite", "0.999"))
    _assert_is_coefficient_sum(amax, family, N, ts + ties, ctx)


@pytest.mark.parametrize("kind", list(_EXTREMAL))
def test_majorant_evaluates_few_rows_at_the_scanned_nodes(monkeypatch, kind):
    # No coefficient row at all: each call runs the family's recurrence
    # once, N steps at one point, where the sum over N + 1 = 25 rows would
    # take N + 1 Horner passes.  The rest of the runs are the values at the
    # window nodes, one run per node.
    import qortho.families
    import qortho.measures
    calls, runs, rows = [], [], []

    def counted_build(*args):
        values, amax, all_rows = _recurrence(*args)
        return (values, lambda t: calls.append(t) or amax(t),
                lambda: rows.append(args[1]) or all_rows())

    for name in ("_three_term",):
        def counted(*args, _fn=getattr(qortho.families, name)):
            runs.append(args[0])
            return _fn(*args)
        monkeypatch.setattr(qortho.families, name, counted)
    for name in ("qinv_hermite_coeff_rows", "dual_ultra_coeff_rows"):
        monkeypatch.setattr(qortho.families, name, lambda n_max, *args: rows.append(n_max))
    monkeypatch.setattr(qortho.measures, "_recurrence", counted_build)
    measure = _EXTREMAL[kind]("0.9", "0.3", CTX)
    report = gram_matrix(measure, 24, CTX)
    assert report.passed(CTX.tol)
    window = report.m_hi - report.m_lo + 1
    assert calls and len(runs) == len(calls) + window and rows == []


# -- stepped runs --------------------------------------------------------------


# The per-point formulas the stepped runs replaced, kept as their oracle:
# (node, weight before normalization) at m, at the caller's working
# precision.  qpow(k) is q^k, formed once per k and shared by every a or s;
# the extremal kinds share up, down and a^(4m) q^(m(2m-1)), and the base
# kinds step their finite products from j to j + 1.
_EXTREMAL_KINDS = (MeasureKind.HERMITE_EXTREMAL, MeasureKind.DUAL_QINV_EXTREMAL,
                   MeasureKind.DUAL_Q_EXTREMAL)


def _oracle_extremal(a, q, m, qpow):
    up, down = a ** (-1) * qpow(-m), a * qpow(m)
    gauss = a ** (4 * m) * qpow(m * (2 * m - 1))
    return (((up - down) / 2, gauss * (1 + down * down)),
            (up * up + down * down, a ** (4 * m + 1) * qpow(2 * m * m) * (up + down)),
            ((up * up + down * down) * q, gauss * (1 + down * down) * (up - down) ** 2))


def _oracle_base(s, steps, qpow):
    """([(node, weight) at m for m = 0..steps] of the even base kind, the
    same of the odd one) at the caller's working precision, with
    (s q^2;q)_(j-1) / (q;q)_j and q^(m(j-1+parity)) running products over
    j = 2m + parity."""
    values = ([(1 + s * qpow(1), mpmath.mpf(1))], [])
    num = den = mpmath.mpf(1)   # (s q^2;q)_(j-1) and (q;q)_j
    gauss = [mpmath.mpf(1)] * 2   # q^(m(j-1+parity)) of each parity
    for j in range(1, 2 * steps + 2):
        den *= 1 - qpow(j)
        if j > 1:
            num *= 1 - s * qpow(j)
        parity, m = j % 2, j // 2
        if m:
            gauss[parity] *= qpow(4 * m - 3 + 2 * parity)
        values[parity].append((qpow(-j) + s * qpow(j + 1),
                               (1 - s * qpow(2 * j + 1)) * num / den * gauss[parity]))
    return values


_RUN_QS = ("1e-4", "0.05", "0.5", "0.9", "0.999")
_RUN_STEPS = 600


def _check_runs(q, runs, oracle, ms, bits):
    """Each run's (node, weight) at m = ms[k], runs[i][k], is within the
    measures docstring's relative bound 2^-bits + 1.01 R(|m|) 2^-(bits+32),
    R(k) = 8 (k+2)^2, of oracle(m, qpow)[i] formed at 4 bits; 2^-(2 bits)
    more covers the oracle's own rounding."""
    for k, m in enumerate(ms):
        with mpmath.mp.workprec(4 * bits):
            wants = oracle(m, functools.lru_cache(maxsize=None)(lambda e: q ** e))
        with mpmath.mp.workprec(2 * bits):
            bound = (mpmath.ldexp(1, -bits) + mpmath.ldexp(1, -2 * bits)
                     + mpmath.mpf(101) / 100 * 8 * (abs(m) + 2) ** 2
                     * mpmath.ldexp(1, -(bits + 32)))
            for run, want in zip(runs, wants):
                for got, w in zip(run[k], want):
                    assert abs(got - w) <= bound * abs(w), m


def _check_extremal_runs(q, a_values, ms, ctx):
    """_check_runs for the three extremal kinds at each a."""
    runs = [_extremal(kind, a, q, ctx).points(ms[0], ms[-1], ctx)
            for a in a_values for kind in _EXTREMAL_KINDS]
    z = [lattice_normalization(a, q, ctx) for a in a_values]

    def oracle(m, qpow):
        return [(node, weight / za) for a, za in zip(a_values, z)
                for node, weight in _oracle_extremal(a, q, m, qpow)]

    _check_runs(q, runs, oracle, ms, ctx.bits)


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", _RUN_QS)
def test_extremal_runs_are_within_their_bound_of_the_power_formulas(q_s, bits):
    # a = q, the default a = (1 + q)/2, and a = 1 - 2^-20, where up - down
    # cancels 20 bits at m = 0.
    ctx = _ctx(bits)
    q = as_qparam(q_s, ctx)
    with ctx.workprec():
        a_values = (q, (1 + q) / 2, 1 - mpmath.ldexp(1, -20))
    _check_extremal_runs(q, a_values, range(-_RUN_STEPS, _RUN_STEPS + 1), ctx)


@pytest.mark.parametrize("bits", [256, 1024])
def test_extremal_runs_keep_their_bound_where_up_minus_down_cancels(bits):
    # Past the 32 guard bits: a 2^-100 above q cancels about 100 bits of
    # up - down at m = -1, and a = 1 - 2^-100 as many at m = 0.
    ctx = _ctx(bits)
    for q_s in _RUN_QS:
        q = as_qparam(q_s, ctx)
        with ctx.workprec():
            a_values = (q * (1 + mpmath.ldexp(1, -100)), 1 - mpmath.ldexp(1, -100))
        _check_extremal_runs(q, a_values, range(-3, 4), ctx)


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", _RUN_QS)
def test_base_runs_are_within_their_bound_of_the_power_formulas(q_s, bits):
    ctx = _ctx(bits)
    q = as_qparam(q_s, ctx)
    with ctx.workprec():
        s_values = (q, mpmath.mpf(1), 1 / q, q ** -2 / 2)
    cases = [(s, parity) for s in s_values for parity in (0, 1)]
    runs = [dual_base(s, q, ("even", "odd")[parity], ctx).points(0, _RUN_STEPS, ctx)
            for s, parity in cases]
    with mpmath.mp.workprec(4 * bits):
        up, down = [mpmath.mpf(1)], [mpmath.mpf(1)]   # q^k and q^-k, k <= 4 steps + 3
        for _ in range(4 * _RUN_STEPS + 3):
            up.append(up[-1] * q)
            down.append(down[-1] / q)

        def qpow(e):
            return up[e] if e >= 0 else down[-e]

        wants = [want for s in s_values for want in _oracle_base(s, _RUN_STEPS, qpow)]

    def oracle(m, _):
        return [want[m] for want in wants]

    _check_runs(q, runs, oracle, range(_RUN_STEPS + 1), bits)


# The closed forms the diagonal runs replaced, kept as their oracle: d_n of
# each kind from the finite products qp(a, b, n) = (a;b)_n and the infinite
# products qinf(a, b) = (a;b)_inf.
_ORACLE_DIAGONALS = {
    MeasureKind.HERMITE_EXTREMAL: lambda s, q, n, qp, qinf: (
        q ** (mpmath.mpf(-n * (n + 1)) / 2) * qp(q, q, n)),
    MeasureKind.DUAL_QINV_EXTREMAL: lambda s, q, n, qp, qinf: (
        q ** (-n) * qp(q, q, 2 * n) / qp(q, q * q, n) ** 2),
    MeasureKind.DUAL_Q_EXTREMAL: lambda s, q, n, qp, qinf: (
        q ** (-(n + 1)) * qp(q, q, 2 * n + 1) / qp(q ** 3, q * q, n) ** 2),
    MeasureKind.DUAL_BASE_EVEN: lambda s, q, n, qp, qinf: (
        qinf(s * q ** 3, q * q) / qinf(q, q * q)
        * qp(q * q, q * q, n) * q ** (-n) / qp(s * q * q, q * q, n)),
}
_ORACLE_DIAGONALS[MeasureKind.DUAL_BASE_ODD] = _ORACLE_DIAGONALS[MeasureKind.DUAL_BASE_EVEN]


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", _RUN_QS)
def test_diagonal_runs_are_within_their_bound_of_the_closed_forms(q_s, bits):
    # Every d_n, n <= 30, within the measures docstring's relative bound
    # 2^-bits + 1.01 R(n) 2^-(bits+32), R(n) = 8 (n+2)^2, of its closed form
    # on kernel.qpochhammer at 4 bits from the same rounded q and s;
    # 2^-(2 bits) more covers the oracle's rounding, and for the base kinds
    # tol/16 for each infinite product, two in the run and two in the oracle
    # (certified at ctx like the run's, as the closed form took them).
    N = 30
    ctx = _ctx(bits)
    wide = PrecisionContext.create(bits=4 * bits)
    q = as_qparam(q_s, ctx)
    with ctx.workprec():
        measures = [kind(q, q, ctx) for kind in _EXTREMAL.values()] + [
            dual_base(s, q, parity, ctx)
            for s in (q, mpmath.mpf(1), 1 / q, q ** -2 / 2) for parity in ("even", "odd")]
    qp = functools.lru_cache(maxsize=None)(lambda a, b, n: qpochhammer(a, b, n, wide))
    qinf = functools.lru_cache(maxsize=None)(lambda a, b: qpochhammer_inf(a, b, ctx))
    for measure in measures:
        diag = [_mpf(d) for d in _diagonals(measure, N, ctx)]
        assert diag[N]._mpf_ == expected_diagonal(measure, N, ctx)._mpf_
        products = 0 if measure.is_full_lattice else ctx.tol / 4
        with wide.workprec():
            for n, got in enumerate(diag):
                want = _ORACLE_DIAGONALS[measure.kind](measure.s, q, n, qp, qinf)
                bound = (mpmath.ldexp(1, -bits) + mpmath.ldexp(1, -2 * bits) + products
                         + mpmath.mpf(101) / 100 * 8 * (n + 2) ** 2
                         * mpmath.ldexp(1, -(bits + 32)))
                assert abs(got - want) <= bound * abs(want), (measure.kind.value, n)


@pytest.mark.parametrize("kind", sorted(_PAIR_MEASURES))
def test_point_is_the_gram_windows_node_and_weight(monkeypatch, kind):
    measure = _PAIR_MEASURES[kind](CTX)
    weights, _, _ = _pair_inputs(monkeypatch, measure, 6, CTX)
    weights = [_mpf(w) for w in weights]
    report = gram_matrix(measure, 6, CTX)
    window = range(report.m_lo, report.m_hi + 1)
    assert len(weights) == len(report.nodes) == len(window)
    for m, node, weight in zip(window, report.nodes, weights):
        got = measure.point(m, CTX)
        assert (got[0]._mpf_, got[1]._mpf_) == (node._mpf_, weight._mpf_), m
    assert measure.points(report.m_lo, report.m_hi, CTX) == list(zip(report.nodes, weights))


@pytest.mark.parametrize("q_s", _RUN_QS)
def test_q_extremal_weight_at_a_equals_q_is_exactly_zero(q_s):
    # a^2 q^(2m) = 1 at m = -1 only: the weight there is 0, not a rounding
    # residue, and so is the hermite node, while their neighbours are not.
    for bits in (256, 1024):
        ctx = _ctx(bits)
        (_, w_before), (_, w), (_, w_after) = dual_q_extremal(q_s, q_s, ctx).points(-2, 0, ctx)
        assert w == 0 and w_before > 0 and w_after > 0
        assert hermite_extremal(q_s, q_s, ctx).point(-1, ctx)[0] == 0


@pytest.mark.parametrize("kind", [MeasureKind.DUAL_BASE_EVEN, MeasureKind.DUAL_BASE_ODD])
def test_rogue_base_measure_raises_sign_violation_from_its_run(kind):
    rogue = DiscreteMeasure(kind, Q, s=mpmath.mpf(5))
    with pytest.raises(SignViolation, match="m=1 "):
        rogue.points(0, 3, CTX)
    with pytest.raises(SignViolation):
        rogue.point(1, CTX)
