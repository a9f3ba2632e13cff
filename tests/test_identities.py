"""The identity suite: per-check behavior, scaling, and cross-family gluing."""
import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho import (SUITE_IDS, PrecisionContext, check_even_connection,
                    check_half_to_full_lattice, check_inverted_parameter_recurrence,
                    check_odd_connection, check_product_chain, check_recurrence_chains,
                    dual_qinv_extremal, gram_matrix, hermite_extremal,
                    qpochhammer, run_suite, to_decimal)

CTX = PrecisionContext.create()
Q = mpmath.mpf("0.5")

# Non-numeric details plus the two deliberately-large contrast residuals.
NUMERIC_DETAIL_SKIP = {"winner", "definitive", "m_window",
                       "shifted-form-constant-2/q",
                       "candidate (-q/a;q)_inf residual"}


def test_suite_runs_green_at_default_q():
    reports = run_suite("0.5", CTX)
    assert [r.identity_id for r in reports] == list(SUITE_IDS)
    with CTX.workprec():
        for r in reports:
            assert r.passed, (r.identity_id, r.details)
            assert r.max_residual < CTX.tol
            assert "error" not in r.details
            for key, value in r.details.items():
                if key in NUMERIC_DETAIL_SKIP:
                    continue
                assert mpmath.mpf(value) < CTX.tol, (r.identity_id, key)


@pytest.mark.parametrize("check", [check_recurrence_chains, check_even_connection,
                                   check_odd_connection])
def test_negative_k_max_is_rejected(check):
    with pytest.raises(ValueError, match="k_max must be a nonnegative integer"):
        check(-1, None, Q, CTX)


@pytest.mark.parametrize("check", [check_recurrence_chains, check_even_connection,
                                   check_odd_connection])
def test_empty_grid_is_rejected(check):
    # With no phi the check compared nothing and passed with residual 0.
    with pytest.raises(ValueError, match="the grid has no point"):
        check(6, [], Q, CTX)


def test_inverted_parameter_recurrence_rejects_n_max_zero():
    # At n_max = 0 the check compared no degree and passed.
    with pytest.raises(ValueError, match=r"n_max must be a positive integer \(got 0\)"):
        check_inverted_parameter_recurrence(0, None, Q, CTX)


def test_inverted_parameter_recurrence_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="the grid has no point"):
        check_inverted_parameter_recurrence(10, [], Q, CTX)


def _largest(details, *names):
    return max((details[name] for name in names), key=mpmath.mpf)


def test_inverted_parameter_report_counts_its_three_residuals():
    # The golden verify digest leaves this check out, so its report is
    # pinned here: the three details in order, the largest the max_residual.
    report = check_inverted_parameter_recurrence(10, None, Q, CTX)
    names = ["coefficient-transform", "series-values-recurrence", "parity-zeros"]
    assert list(report.details) == names
    assert to_decimal(report.max_residual, CTX.digits) == _largest(report.details, *names)
    assert report.passed


def test_product_chain_does_not_count_its_contrast():
    report = check_product_chain("0.5", CTX)
    counted = [name for name in report.details if name != "shifted-form-constant-2/q"]
    assert len(counted) == 4
    assert to_decimal(report.max_residual, CTX.digits) == _largest(report.details, *counted)
    assert report.passed


def test_pass_flag_tracks_tolerance():
    reports = run_suite("0.5", CTX, only=["product-chain", "even-connection"])
    with CTX.workprec():
        for r in reports:
            assert r.passed == (r.max_residual < CTX.tol)


def test_verdict_rule_at_its_boundaries():
    # Decided exactly at 256 bits: a residual equal to tol fails and one unit
    # (2^-256 relatively) below it passes; tol at the floor 2^-250 can pass,
    # and one unit below the floor cannot, whatever the residual.
    from qortho.identities import _judged
    from qortho.kernel import _mpf, _pair
    zero = mpmath.mpf(0)
    gram = gram_matrix(hermite_extremal("0.75", Q, CTX), 2, CTX)._replace(off_diag_max=zero)

    def verdicts(residual, tol):   # of the identity-report constructor and of a Gram
        report = _judged("product-chain", "", residual, PrecisionContext(bits=256, tol=tol), {})
        return report.passed, gram._replace(diag_rel_err_max=residual).passed(tol)

    def below(x):   # x (1 - 2^-256), exactly
        m, e = _pair(x)
        return _mpf(((m << 256) - m, e - 256))
    floor = CTX.rounding_floor
    assert floor == mpmath.ldexp(1, -250)
    assert verdicts(CTX.tol, CTX.tol) == (False, False)
    assert verdicts(below(CTX.tol), CTX.tol) == (True, True)
    assert verdicts(zero, floor) == (True, True)
    assert verdicts(below(floor), floor) == (True, True)
    assert verdicts(zero, below(floor)) == (False, False)
    assert gram.passed(2.0 ** -200) and not gram.passed(2.0 ** -251)   # a float tol, exactly
    for tol in (0, -1.0, mpmath.inf, "1e-60"):
        with pytest.raises(ValueError, match="tol must be a positive finite int, float or mpf"):
            gram.passed(tol)
    assert _judged("product-chain", "", zero, CTX, {}, contrasted=False).passed is False
    assert _judged("product-chain", "", mpmath.inf, CTX, {}).passed is False


def test_report_dict_shape():
    (report,) = run_suite("0.5", CTX, only=["product-chain"])
    obj = report.to_dict(CTX.digits)
    assert set(obj) == {"id", "grid", "max_residual", "pass", "details"}
    assert obj["id"] == "product-chain"
    assert obj["pass"] is True
    json.dumps(obj)


def test_product_chain_separates_the_constants():
    report = check_product_chain("0.5", CTX)
    with CTX.workprec():
        good = mpmath.mpf(report.details["shifted-form-constant-q/2"])
        bad = mpmath.mpf(report.details["shifted-form-constant-2/q"])
        assert good < CTX.tol
        assert bad > 1


def test_connection_checks_across_q():
    for q in ("0.3", "0.7"):
        even = check_even_connection(4, None, q, CTX)
        odd = check_odd_connection(4, None, q, CTX)
        with CTX.workprec():
            assert even.passed and even.max_residual < CTX.tol
            assert odd.passed and odd.max_residual < CTX.tol


def test_residuals_scale_with_tolerance():
    # Deepening both the precision and the tolerance target must push the
    # measured residuals down with them: they are not stuck at some fixed
    # floor.  A residual of exactly 0 at 256 bits (the product chain at
    # q = 0.5, whose three forms agree to the last bit) counts as 2^-256.
    deep = PrecisionContext.create(bits=512, tol_exp=400)
    with deep.workprec():
        drop = mpmath.mpf(2) ** -128
        for check in (check_product_chain,
                      lambda q, ctx: check_even_connection(4, None, q, ctx)):
            shallow_res = max(check("0.5", CTX).max_residual, mpmath.ldexp(1, -CTX.bits))
            deep_res = check("0.5", deep).max_residual
            assert deep_res < shallow_res * drop


def test_even_gram_composes_into_dual_gram():
    # D_n under the qinv-extremal measure is h_{2n} under the base measure,
    # up to the connection constants: the two Gram matrices must agree.
    with CTX.workprec():
        for a in (Q, mpmath.mpf("0.8")):
            rep_h = gram_matrix(hermite_extremal(a, Q, CTX), 10, CTX)
            rep_d = gram_matrix(dual_qinv_extremal(a, Q, CTX), 5, CTX)
            c = [(-1) ** n * Q ** (-n * n) * qpochhammer(Q, Q * Q, n, CTX)
                 for n in range(6)]
            for n in range(6):
                for np_ in range(6):
                    want = rep_h.gram[2 * n][2 * np_] / (c[n] * c[np_])
                    scale = max(mpmath.mpf(1), mpmath.sqrt(abs(
                        rep_d.expected_diag[n] * rep_d.expected_diag[np_])))
                    diff = abs(rep_d.gram[n][np_] - want) / scale
                    assert diff < 4 * CTX.tol


def test_suite_is_deterministic():
    ids = ["product-chain", "hermite-extremal-orthogonality",
           "qinv-extremal-normalization"]
    first = [r.to_dict(CTX.digits) for r in run_suite("0.5", CTX, only=ids)]
    second = [r.to_dict(CTX.digits) for r in run_suite("0.5", CTX, only=ids)]
    assert json.dumps(first) == json.dumps(second)


def test_suite_reports_uncertifiable_checks_as_errors():
    # Euler's sum for Z(a) at q = 0.5 needs about 20 terms to reach 2^-200.
    starved = PrecisionContext(bits=256, tol=mpmath.mpf(2) ** -200,
                               max_terms=8)
    (report,) = run_suite("0.5", starved,
                          only=["hermite-extremal-orthogonality"])
    assert not report.passed
    assert "error" in report.details
    assert "TruncationFailure" in report.details["error"]
    assert report.max_residual == mpmath.inf
    assert report.to_dict(starved.digits)["max_residual"] == "inf"


@pytest.mark.parametrize("q", ["0.3", "0.7", "0.9"])
def test_suite_qinv_extremal_family_s_at_inexact_inverse(q):
    # 1/q is inexact in binary here; it must be formed at the working
    # precision to match the measure's own s = 1/q.
    (report,) = run_suite(q, CTX, only=["qinv-extremal-orthogonality"])
    assert "error" not in report.details
    assert report.passed


def test_suite_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown identity ids"):
        run_suite("0.5", CTX, only=["no-such-check"])


def test_suite_honors_parameter_overrides():
    reports = run_suite("0.5", CTX, only=["base-even-orthogonality"],
                        s="0.5", N=3)
    assert reports[0].passed
    assert "s=0.5" in reports[0].grid and "N=3" in reports[0].grid
    reports = run_suite("0.5", CTX, only=["hermite-extremal-orthogonality"],
                        a="0.9", N=2)
    assert reports[0].passed
    assert "a=0.9" in reports[0].grid


@pytest.mark.parametrize("q", ["0.2", "0.25"])
def test_suite_passes_at_small_q(q):
    # The inverted-parameter recurrence multiplies series values by up to
    # q^-10; the series must be certified below tol by that much.
    reports = run_suite(q, CTX)
    failed = [r.identity_id for r in reports if not r.passed]
    assert failed == []


def test_half_to_full_lattice_forms_z_once():
    # Z(q), a theta sum, formed once for the reference Gram and the lattice
    # constant, and the two products of the closed-form mass
    # (q^2;q^2)_inf / (q;q^2)_inf.
    from qortho.kernel import _qpochhammer_inf_memo
    from qortho.measures import _lattice_normalization_memo
    _qpochhammer_inf_memo.cache_clear()
    _lattice_normalization_memo.cache_clear()
    report = check_half_to_full_lattice(8, "0.7", CTX)
    assert report.passed
    assert _qpochhammer_inf_memo.cache_info().misses == 2
    assert _lattice_normalization_memo.cache_info().misses == 1


@pytest.mark.parametrize("q, products", [("0.5", 10), ("0.7", 10), ("0.9", 10)])
def test_suite_evaluates_each_product_once(q, products):
    # Ten distinct products: seven in the product chain, (s q^3;q^2)_inf
    # of the base diagonals, and the adjudication's (-a^2;q)_inf and
    # (-q/a;q)_inf; and two theta sums, Z(a) of the extremal measures and
    # Z(q) of the half-to-full lattice check.
    from qortho.kernel import _qpochhammer_inf_memo
    from qortho.measures import _lattice_normalization_memo
    _qpochhammer_inf_memo.cache_clear()
    _lattice_normalization_memo.cache_clear()
    reports = run_suite(q, CTX)
    assert all(r.passed for r in reports)
    assert _qpochhammer_inf_memo.cache_info().misses == products
    assert _lattice_normalization_memo.cache_info().misses == 2


def test_verify_json_is_the_same_with_a_warm_memo(capsys):
    from qortho.cli import main
    from qortho.kernel import _qpochhammer_inf_memo
    argv = ["verify", "--q", "0.7", "--output", "json"]
    assert main(argv) == 0
    capsys.readouterr()
    misses = _qpochhammer_inf_memo.cache_info().misses
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert _qpochhammer_inf_memo.cache_info().misses == misses
    _qpochhammer_inf_memo.cache_clear()
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert warm == cold


@pytest.mark.parametrize("N", [0, 1])
def test_half_to_full_lattice_small_degrees(N):
    report = check_half_to_full_lattice(N, "0.7", CTX)
    assert report.passed, report.details


def _relative(lhs, rhs):
    """The residual of the checks as an mpf expression at the ambient precision."""
    return abs(lhs - rhs) / max(mpmath.mpf(1), abs(lhs))


def _per_phi_chain_worst(k_max, q, ctx):
    """check_recurrence_chains's residuals in mpf, with every phi-free
    coefficient formed afresh at each phi, as the check once did."""
    from qortho.families import dual_ultra_tables, qinv_hermite_tables
    from qortho.identities import DEFAULT_PHI_GRID, _connection
    from qortho.kernel import _mpf, _pair

    def chain(parity, mu, v, mid):
        worst = mpmath.mpf(0)
        for n in range(k_max + 1):
            lhs = mu * v[n]
            rhs = (v[n + 1] if parity == 0 else q * v[n + 1]) + mid(n) * v[n]
            if n >= 1:
                rhs += (q ** (-4 * n + 1 - parity) * (1 - q ** (2 * n))
                        * (1 - q ** (2 * n - 1 + 2 * parity)) * v[n - 1])
            worst = max(worst, _relative(lhs, rhs))
        return worst

    with ctx.workprec():
        q = mpmath.mpf(q)
        phis = [mpmath.mpf(p) for p in DEFAULT_PHI_GRID]
        ys = [mpmath.exp(2 * phi) + mpmath.exp(-2 * phi) for phi in phis]
        h_tables = qinv_hermite_tables(2 * k_max + 3, [mpmath.sinh(phi) for phi in phis],
                                       q, ctx)
        worst = {}
        for parity, side in enumerate(("even", "odd")):
            s, c, mus = _connection(parity, k_max + 1, [_pair(y) for y in ys], q, ctx)
            c, mus = [_mpf(c_n) for c_n in c], [_mpf(mu) for mu in mus]
            d_tables = dual_ultra_tables(k_max + 1, mus, s, q, ctx)
            worst[side + "-hermite"] = worst[side + "-dual"] = mpmath.mpf(0)
            for mu, hs, dvals in zip(mus, h_tables, d_tables):
                worst[side + "-hermite"] = max(worst[side + "-hermite"], chain(
                    parity, mu, hs[parity::2], lambda k: q ** (-2 * k) * (1 + 1 / q)))
                t = [c_n * d for c_n, d in zip(c, dvals)]
                worst[side + "-dual"] = max(worst[side + "-dual"], chain(
                    parity, mu, t, lambda n: q ** (-2 * n - 1) * (1 + q)))
        return worst


@pytest.mark.parametrize("q", ["0.3", "0.5", "0.7", "0.9"])
def test_recurrence_chains_match_the_per_phi_coefficients_bit_for_bit(q):
    report = check_recurrence_chains(6, None, q, CTX)
    worst = _per_phi_chain_worst(6, q, CTX)
    assert report.max_residual == max(worst.values())
    assert report.details == {name: to_decimal(value, CTX.digits)
                              for name, value in worst.items()}


@st.composite
def _residual_operands(draw, low, high):
    """A precision and two pairs of low(prec) to high(prec) bits, with
    exponents near each other or far apart (more than 100 places, where
    mpf_sub perturbs the smaller operand, included)."""
    prec = draw(st.sampled_from([64, 256, 1024]))

    def pair():
        if draw(st.integers(0, 15)) == 0:
            return (0, 0)
        bits = draw(st.integers(low(prec), high(prec)))
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        exp = draw(st.one_of(st.integers(-8, 8), st.integers(-4 * prec, 4 * prec)))
        return (-man if draw(st.booleans()) else man), exp
    return prec, pair(), pair()


@settings(deadline=None)
@given(_residual_operands(lambda prec: 1, lambda prec: prec + 4))
def test_residual_is_the_mpf_expression(args):
    # On operands of at most prec + 4 bits mpmath rounds each step correctly.
    from qortho.identities import _residual
    from qortho.kernel import _mpf
    prec, lhs, rhs = args
    with mpmath.workprec(prec):
        want = _relative(_mpf(lhs), _mpf(rhs))
    assert _mpf(_residual(lhs, rhs, prec))._mpf_ == want._mpf_, (prec, lhs, rhs)


def _exact(a) -> Fraction:
    """The exact value of a pair."""
    m, e = a
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _nearest(x: Fraction, prec: int) -> Fraction:
    """x rounded to prec bits, to nearest with ties to even."""
    if not x:
        return x
    size = abs(x)
    e = size.numerator.bit_length() - size.denominator.bit_length() - prec
    scaled = size / Fraction(2) ** e
    while scaled >= 1 << prec:
        e, scaled = e + 1, scaled / 2
    while scaled < 1 << (prec - 1):
        e, scaled = e - 1, scaled * 2
    man, rest = divmod(scaled.numerator, scaled.denominator)
    if 2 * rest > scaled.denominator or (2 * rest == scaled.denominator and man & 1):
        man += 1
    return (1 if x > 0 else -1) * man * Fraction(2) ** e


def _stepwise_residual(lhs, rhs, prec: int) -> Fraction:
    """|lhs - rhs| / max(1, |lhs|) of two pairs with each of its three steps,
    the difference, |lhs| and the quotient, rounded once to prec bits."""
    diff = _nearest(_exact(lhs) - _exact(rhs), prec)
    size = _nearest(abs(_exact(lhs)), prec)
    return _nearest(abs(diff) / max(Fraction(1), size), prec)


@settings(deadline=None)
@given(_residual_operands(lambda prec: prec + 5, lambda prec: 2 * prec + 8))
def test_residual_of_wide_operands_rounds_each_step_once(args):
    # Series values formed wider than the check reach the residual helper.
    from qortho.identities import _residual
    prec, lhs, rhs = args
    assert _exact(_residual(lhs, rhs, prec)) == _stepwise_residual(lhs, rhs, prec), args


@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_residual_of_operands_far_apart_is_the_exact_difference_rounded(prec):
    # lhs has prec + 20 bits, 1 below a midpoint at prec bits, and rhs lies
    # more than prec + 4 binary places below it, its exponent over 100
    # below: the exact difference lies above the midpoint and rounds up,
    # where mpf_sub stands in a sticky bit for rhs and rounds down.
    from qortho.identities import _residual
    from qortho.kernel import _mpf, _pair
    lhs = ((1 << (prec + 19)) | ((1 << 19) - 1), 0)
    rhs = (-((1 << 111) + 1), -101)
    want = _stepwise_residual(lhs, rhs, prec)
    assert _exact(_residual(lhs, rhs, prec)) == want
    with mpmath.workprec(prec):
        assert _exact(_pair(_relative(_mpf(lhs), _mpf(rhs)))) != want
