"""The identity suite: per-check behavior, scaling, and cross-family gluing."""
import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qortho import (SUITE_IDS, PrecisionContext, check_even_connection,
                    check_half_to_full_lattice, check_inverted_parameter_recurrence,
                    check_odd_connection, check_product_chain, check_recurrence_chains,
                    dual_qinv_extremal, gram_matrix, hermite_extremal,
                    qpochhammer, run_suite, to_decimal)
from qortho.identities import PHI_GRID

from exact import exact_fraction

CTX = PrecisionContext.create()
Q = mpmath.mpf("0.5")

# The non-numeric detail plus the two deliberately-large contrast residuals.
NUMERIC_DETAIL_SKIP = {"m_window", "shifted-form-constant-2/q",
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
        check(-1, Q, CTX)


_GRID_TEXT = str(list(PHI_GRID))


@pytest.mark.parametrize("check, grid", [
    (lambda: check_even_connection(4, Q, CTX), "k <= 4, phi in " + _GRID_TEXT),
    (lambda: check_odd_connection(4, Q, CTX), "k <= 4, phi in " + _GRID_TEXT),
    (lambda: check_inverted_parameter_recurrence(Q, CTX), "n <= 10, x in " + _GRID_TEXT),
], ids=["even-connection", "odd-connection", "inverted-parameter-recurrence"])
def test_series_checks_sum_the_h_series_on_the_one_grid(check, grid, monkeypatch):
    # Each check takes no grid and no degree bound of its own: the h series
    # is summed at every point of PHI_GRID, and the inverted check at the
    # degrees n <= 10 + 1 its recurrence reads.
    from qortho import identities
    calls, tables = [], identities.qinv_hermite_series_tables

    def spy(degrees, points, q, ctx):
        calls.append((list(degrees), len(points)))
        return tables(degrees, points, q, ctx)
    monkeypatch.setattr(identities, "qinv_hermite_series_tables", spy)
    report = check()
    assert report.passed and report.grid == grid
    assert [points for _, points in calls] == [len(PHI_GRID)]
    if grid.startswith("n"):
        assert calls[0][0] == list(range(12))


def test_recurrence_chains_run_on_the_one_grid(monkeypatch):
    from qortho import identities
    points, tables = [], identities._tables

    def spy(kind, n_max, at, q, ctx, s=None):
        points.append(len(at))
        return tables(kind, n_max, at, q, ctx, s)
    monkeypatch.setattr(identities, "_tables", spy)
    report = check_recurrence_chains(4, Q, CTX)
    assert report.passed and report.grid == "k <= 4, phi in " + _GRID_TEXT
    # the h table and one dual table per parity, each at every phi
    assert points == [len(PHI_GRID)] * 3


def _largest(details, *names):
    return max((details[name] for name in names), key=mpmath.mpf)


def test_inverted_parameter_report_counts_its_three_residuals():
    # The golden verify digest leaves this check out, so its report is
    # pinned here: the three details in order, the largest the max_residual.
    report = check_inverted_parameter_recurrence(Q, CTX)
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
        even = check_even_connection(4, q, CTX)
        odd = check_odd_connection(4, q, CTX)
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
                      lambda q, ctx: check_even_connection(4, q, ctx)):
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


# A log-spaced grid over 0 < q < 1: below q = 0.05 the chains' terms cancel,
# and below about 3.9e-31 the normalization ids' other candidate misses Z(a)
# by less than sqrt(tol); neither may turn a PASS into a FAIL.
@pytest.mark.parametrize("q", ["1e-60", "1e-31", "1e-20", "1e-8", "1e-4", "0.01", "0.05",
                               "0.1", "0.3", "0.5", "0.9", "0.99", "0.999", "0.99999"])
def test_suite_passes_over_the_whole_domain(q):
    reports = run_suite(q, CTX)
    assert [(r.identity_id, r.details) for r in reports if not r.passed] == []
    assert len(reports) == 13


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
    coefficient formed afresh at each phi, as the check once did: each
    |lhs - rhs| over 2^top, the least power of two above every nonzero term
    and at least 1 (frexp's exponent of a term is its top bit)."""
    from qortho.families import dual_ultra_tables, qinv_hermite_tables
    from qortho.identities import PHI_GRID, _connection
    from qortho.kernel import _mpf, _pair

    def chain(parity, mu, v, mid):
        worst = mpmath.mpf(0)
        for n in range(k_max + 1):
            terms = [mu * v[n], v[n + 1] if parity == 0 else q * v[n + 1], mid(n) * v[n]]
            rhs = terms[1] + terms[2]
            if n >= 1:
                terms.append(q ** (-4 * n + 1 - parity) * (1 - q ** (2 * n))
                             * (1 - q ** (2 * n - 1 + 2 * parity)) * v[n - 1])
                rhs += terms[3]
            top = max([0] + [mpmath.frexp(t)[1] for t in terms if t])
            worst = max(worst, mpmath.ldexp(abs(terms[0] - rhs), -top))
        return worst

    with ctx.workprec():
        q = mpmath.mpf(q)
        phis = [mpmath.mpf(p) for p in PHI_GRID]
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
    report = check_recurrence_chains(6, q, CTX)
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


# The scales kernel._relative_residual is called with, by the form each
# caller names, as functions of the two operands: None for the identity
# checks' max(1, |lhs|), which identities._residual forms; a Gram's |d_n|
# on the diagonal, and sqrt|d_n| sqrt|d_n'| off it (d_n = rhs, d_n' = lhs
# here); and 1.  A scale of 0 leaves the example out.
_SCALES = {
    "max(1, |lhs|)": lambda lhs, rhs, prec: None,
    "|d_n|": lambda lhs, rhs, prec: (abs(rhs[0]), rhs[1]),
    "sqrt|d_n| sqrt|d_n'|": lambda lhs, rhs, prec: _gram_root_scale(lhs, rhs, prec),
    "1": lambda lhs, rhs, prec: (1, 0),
}


def _gram_root_scale(lhs, rhs, prec):
    from qortho.kernel import _mul
    from qortho.measures import _root
    return _mul(_root(rhs, prec), _root(lhs, prec), prec)


def _scaled_residual(lhs, rhs, size, prec):
    """The residual of lhs and rhs at the scale size: identities._residual's
    for None, else kernel._relative_residual's."""
    from qortho.identities import _residual
    from qortho.kernel import _relative_residual
    if size is None:
        return _residual(lhs, rhs, prec)
    return _relative_residual(lhs, rhs, size, prec)


def _mpf_residual(lhs, rhs, size):
    """The residual as an mpf expression at the ambient precision: _relative
    for size None, else abs(lhs - rhs) divided by the exact scale."""
    from qortho.kernel import _mpf
    if size is None:
        return _relative(_mpf(lhs), _mpf(rhs))
    return abs(_mpf(lhs) - _mpf(rhs)) / _mpf(size)


@pytest.mark.parametrize("scale", _SCALES)
@settings(deadline=None)
@given(_residual_operands(lambda prec: 1, lambda prec: prec + 4))
def test_residual_is_the_mpf_expression(scale, args):
    # On operands of at most prec + 4 bits mpmath rounds each step correctly.
    from qortho.kernel import _mpf
    prec, lhs, rhs = args
    size = _SCALES[scale](lhs, rhs, prec)
    assume(size is None or size[0])
    residual = _scaled_residual(lhs, rhs, size, prec)
    with mpmath.workprec(prec):
        want = _mpf_residual(lhs, rhs, size)
    assert _mpf(residual)._mpf_ == want._mpf_, (prec, lhs, rhs)


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


def _stepwise_residual(lhs, rhs, prec: int, size=None) -> Fraction:
    """|lhs - rhs| / scale of two pairs with each of its steps, the
    difference, the quotient and, for the scale max(1, |lhs|) (size None),
    |lhs|, rounded once to prec bits; else the scale is the pair size."""
    diff = _nearest(exact_fraction(lhs) - exact_fraction(rhs), prec)
    scale = (max(Fraction(1), _nearest(abs(exact_fraction(lhs)), prec)) if size is None
             else exact_fraction(size))
    return _nearest(abs(diff) / scale, prec)


@pytest.mark.parametrize("scale", _SCALES)
@settings(deadline=None)
@given(_residual_operands(lambda prec: prec + 5, lambda prec: 2 * prec + 8))
def test_residual_of_wide_operands_rounds_each_step_once(scale, args):
    # Series values formed wider than the check reach the residual helper.
    prec, lhs, rhs = args
    size = _SCALES[scale](lhs, rhs, prec)
    assume(size is None or size[0])
    residual = _scaled_residual(lhs, rhs, size, prec)
    assert exact_fraction(residual) == _stepwise_residual(lhs, rhs, prec, size), args


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_residual_of_operands_far_apart_is_the_exact_difference_rounded(prec, scale):
    # lhs has prec + 20 bits, 1 below a midpoint at prec bits, and rhs lies
    # more than prec + 4 binary places below it, its exponent over 100
    # below: the exact difference lies above the midpoint and rounds up,
    # where mpf_sub stands in a sticky bit for rhs and rounds down.
    from qortho.kernel import _pair
    lhs = ((1 << (prec + 19)) | ((1 << 19) - 1), 0)
    rhs = (-((1 << 111) + 1), -101)
    size = _SCALES[scale](lhs, rhs, prec)
    residual = _scaled_residual(lhs, rhs, size, prec)
    want = _stepwise_residual(lhs, rhs, prec, size)
    assert exact_fraction(residual) == want
    with mpmath.workprec(prec):
        assert exact_fraction(_pair(_mpf_residual(lhs, rhs, size))) != want


def _double_every_residual(monkeypatch):
    """Patch kernel._relative_residual, in every module of the package that
    imported it, to return twice its value (its exponent plus 1, exactly)."""
    import sys
    from qortho import kernel
    helper = kernel._relative_residual

    def doubled(*args):
        m, e = helper(*args)
        return m, e + 1
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qortho" and getattr(module, "_relative_residual", None) is helper:
            monkeypatch.setattr(module, "_relative_residual", doubled)


# The details of a report that are not residuals.
_NOT_RESIDUALS = {"m_window", "tail_bound"}


def _is_doubled(before: str, after: str, digits: int) -> bool:
    """after renders twice the value before renders, both at digits digits:
    within 4 units of their last digit, or both exactly 0."""
    with mpmath.workprec(4 * digits):
        old, new = mpmath.mpf(before), mpmath.mpf(after)
        return abs(new - 2 * old) <= 4 * mpmath.mpf(10) ** (1 - digits) * new


def test_every_residual_is_formed_by_the_one_residual_rule(monkeypatch):
    # With kernel._relative_residual doubled, every residual the suite
    # reports doubles or stays exactly 0, and the Gram's two maxima and CSV
    # residuals double while its window and tail bound stay: a residual
    # formed outside the helper would stay where it was.  The suite runs at
    # three q, since each residual but two is nonzero at one of them.
    qs = ("0.5", "0.7", "0.9")
    measure = hermite_extremal("0.85", "0.7", CTX)
    suites, gram = [run_suite(q, CTX) for q in qs], gram_matrix(measure, 4, CTX)
    csv = gram.to_csv(CTX.digits)
    _double_every_residual(monkeypatch)
    doubled_suites, doubled_gram = [run_suite(q, CTX) for q in qs], gram_matrix(measure, 4, CTX)
    zero = None   # the residuals that are 0 at every q
    for suite, doubled_suite in zip(suites, doubled_suites):
        zeros = set()
        for report, doubled in zip(suite, doubled_suite, strict=True):
            assert report.passed and doubled.passed, report.identity_id
            assert doubled.max_residual == mpmath.ldexp(report.max_residual, 1)
            assert list(doubled.details) == list(report.details)
            for key, value in report.details.items():
                if key in _NOT_RESIDUALS:
                    assert doubled.details[key] == value, (report.identity_id, key)
                    continue
                assert _is_doubled(value, doubled.details[key], CTX.digits), (
                    report.identity_id, key, value, doubled.details[key])
                if not mpmath.mpf(value):
                    zeros.add((report.identity_id, key))
        zero = zeros if zero is None else zero & zeros
    assert zero == {("product-chain", "doubling-subidentity"),
                    ("inverted-parameter-recurrence", "parity-zeros")}
    assert doubled_gram.off_diag_max == mpmath.ldexp(gram.off_diag_max, 1) != 0
    assert doubled_gram.diag_rel_err_max == mpmath.ldexp(gram.diag_rel_err_max, 1) != 0
    assert doubled_gram.tail_bound == gram.tail_bound
    assert (doubled_gram.m_lo, doubled_gram.m_hi) == (gram.m_lo, gram.m_hi)
    for row, doubled in zip(csv.splitlines()[1:],
                            doubled_gram.to_csv(CTX.digits).splitlines()[1:], strict=True):
        assert _is_doubled(row.split(",")[-1], doubled.split(",")[-1], CTX.digits), row


_NUDGE = (2 ** 100 + 1, -100)   # 1 + 2^-100, exactly


def _nudged(value, prec: int):
    """value (1 + 2^-100) rounded to prec bits: a pair of a pair, an mpf of an mpf."""
    from qortho.kernel import _mpf, _mul, _pair
    if isinstance(value, tuple):
        return _mul(value, _NUDGE, prec)
    return _mpf(_mul(_pair(value), _NUDGE, prec))


def _nudge_connection_coefficient(monkeypatch):
    from qortho import identities
    connection = identities._connection

    def nudged(parity, n_max, ys, q, ctx):   # c_1
        s, c, mus = connection(parity, n_max, ys, q, ctx)
        return s, [c[0], _nudged(c[1], ctx.bits), *c[2:]], mus
    monkeypatch.setattr(identities, "_connection", nudged)


def _nudge_chain_coefficient(monkeypatch):
    from qortho import identities
    chain = identities._chain_residual

    def nudged(parity, mu, v, k_max, q, mid, low, prec):   # mu
        return chain(parity, _nudged(mu, prec), v, k_max, q, mid, low, prec)
    monkeypatch.setattr(identities, "_chain_residual", nudged)


def _nudge_diagonal(monkeypatch):
    from qortho import measures
    diagonals = measures._diagonals

    def nudged(measure, N, ctx):   # d_1
        d = diagonals(measure, N, ctx)
        return [d[0], _nudged(d[1], ctx.bits), *d[2:]] if N >= 1 else d
    monkeypatch.setattr(measures, "_diagonals", nudged)


def _nudge_product(monkeypatch):
    from qortho import identities
    product = identities.qpochhammer_inf

    def nudged(a, q, ctx):   # (-1;q)_inf
        value = product(a, q, ctx)
        return _nudged(value, ctx.bits) if a == -1 else value
    monkeypatch.setattr(identities, "qpochhammer_inf", nudged)


def _nudge_lattice_mass(monkeypatch):
    from qortho import measures
    normalization = measures.lattice_normalization

    def nudged(a, q, ctx):   # Z(a)
        return _nudged(normalization(a, q, ctx), ctx.bits)
    monkeypatch.setattr(measures, "lattice_normalization", nudged)


# Each check, with the function that nudges one of its inputs.
_NUDGES = {
    "even-connection": _nudge_connection_coefficient,
    "recurrence-chains": _nudge_chain_coefficient,
    "hermite-extremal-orthogonality": _nudge_diagonal,
    "product-chain": _nudge_product,
    "qinv-extremal-normalization": _nudge_lattice_mass,
}


@pytest.mark.parametrize("identity", _NUDGES)
@pytest.mark.parametrize("q", ["0.05", "0.5", "0.9"])
def test_an_input_off_by_two_to_the_minus_100_fails_its_check(monkeypatch, q, identity):
    # One input of a check scaled by 1 + 2^-100 gives a residual far above
    # tol = 2^-200, so the check fails, where it passes as it is: a residual
    # helper that returned 0 would pass both.
    def report():
        (result,) = run_suite(q, CTX, only=[identity], k_max=4, N=4)
        assert "error" not in result.details
        return result
    assert report().passed
    _NUDGES[identity](monkeypatch)
    nudged = report()
    assert not nudged.passed and nudged.max_residual > mpmath.ldexp(1, -150), nudged.details
