"""Polynomial families: series vs recurrence routes, structure, edge cases."""
import contextlib
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv

from qortho import (FamilyKind, FamilySpec, PoleError, PrecisionContext, TruncationFailure,
                    as_qparam, basic_hypergeometric, discrete_ultra, dual_ultra,
                    dual_ultra_coeff_rows, dual_ultra_coeffs, dual_ultra_series,
                    dual_ultra_table, dual_ultra_tables, evaluate,
                    even_hermite_factor, mu_point, qinv_hermite,
                    qinv_hermite_coeff_rows, qinv_hermite_coeffs,
                    qinv_hermite_series, qinv_hermite_series_tables,
                    qinv_hermite_table, qinv_hermite_tables, to_decimal)
from qortho import families
from qortho.families import _hermite_rows, _hermite_sum, _recurrence
from qortho.kernel import _ZERO, _mpf, _pair, power_run

CTX = PrecisionContext.create()
Q = mpmath.mpf("0.5")
TIGHT = mpmath.mpf(2) ** -200


def rel(lhs, rhs):
    return abs(lhs - rhs) / max(mpmath.mpf(1), abs(lhs))


def horner(coeffs, x):
    acc = mpmath.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def divided_differences(nodes, values):
    """Top row of the divided-difference table: [f[x0], f[x0,x1], ...]."""
    table = list(values)
    out = [table[0]]
    for level in range(1, len(nodes)):
        table = [(table[i + 1] - table[i]) / (nodes[i + level] - nodes[i])
                 for i in range(len(table) - 1)]
        out.append(table[0])
    return out


# -- q-inverse Hermite -------------------------------------------------------


def test_hermite_low_degrees_exact():
    assert qinv_hermite(0, "0.3", Q, CTX) == 1
    assert to_decimal(qinv_hermite(2, 0, Q, CTX), 20) == "-1"
    assert to_decimal(qinv_hermite_series(2, 0, Q, CTX), 20) == "-1"
    with CTX.workprec():
        phi = mpmath.mpf("0.7")
        assert rel(qinv_hermite_series(1, phi, Q, CTX),
                   2 * mpmath.sinh(phi)) < TIGHT


def test_hermite_series_matches_recurrence():
    # At parity zeros the series cancels terms of size ~q^{-n^2/4}, so the
    # agreement bound carries that conditioning factor.
    with CTX.workprec():
        for phi_s in ("-2", "-1", "-0.5", "0", "0.5", "1", "2"):
            phi = mpmath.mpf(phi_s)
            x = mpmath.sinh(phi)
            table = qinv_hermite_table(20, x, Q, CTX)
            for n in range(21):
                cond = Q ** (-(n * n) // 4) * 4 * mpmath.exp(n * abs(phi))
                diff = abs(qinv_hermite_series(n, phi, Q, CTX) - table[n])
                assert diff < mpmath.mpf(2) ** -240 * cond


def test_hermite_parity():
    with CTX.workprec():
        x = mpmath.mpf("0.8")
        plus = qinv_hermite_table(9, x, Q, CTX)
        minus = qinv_hermite_table(9, -x, Q, CTX)
        for n in range(10):
            assert rel(minus[n], (-1) ** n * plus[n]) < TIGHT


def test_hermite_table_prefix_consistency():
    long = qinv_hermite_table(8, "0.3", Q, CTX)
    assert qinv_hermite_table(4, "0.3", Q, CTX) == long[:5]


def test_hermite_dominant_growth():
    # For large phi the top series term e^{n phi} dominates.
    with CTX.workprec():
        phi = mpmath.mpf(10)
        for n in range(7):
            v = qinv_hermite_series(n, phi, Q, CTX)
            assert abs(v / mpmath.exp(n * phi) - 1) < mpmath.mpf("0.01")


def test_hermite_coefficients():
    with CTX.workprec():
        x = mpmath.mpf("0.6")
        for n in range(9):
            coeffs = qinv_hermite_coeffs(n, Q, CTX)
            assert len(coeffs) == n + 1
            for j, c in enumerate(coeffs):
                if (n - j) % 2 == 1:
                    assert c == 0
            assert rel(horner(coeffs, x), qinv_hermite(n, x, Q, CTX)) < TIGHT


def test_hermite_input_validation():
    with pytest.raises(ValueError):
        qinv_hermite(-1, 0.5, Q, CTX)
    with pytest.raises(ValueError):
        qinv_hermite_series(-2, 0.5, Q, CTX)
    with pytest.raises(ValueError, match="0 < q < 1"):
        qinv_hermite(3, 0.5, "1.5", CTX)


# -- even cofactor of the odd-degree polynomials -----------------------------


def test_even_cofactor_values():
    assert even_hermite_factor(0, "0.3", Q, CTX) == 2
    assert to_decimal(even_hermite_factor(2, 0, Q, CTX), 20) == "134"
    with CTX.workprec():
        x = mpmath.mpf(1)
        assert rel(even_hermite_factor(1, x, Q, CTX) * x,
                   qinv_hermite(3, x, Q, CTX)) < TIGHT


def test_even_cofactor_is_even_and_continuous_at_zero():
    with CTX.workprec():
        for k in range(4):
            lhs = even_hermite_factor(k, "0.4", Q, CTX)
            rhs = even_hermite_factor(k, "-0.4", Q, CTX)
            assert rel(lhs, rhs) < TIGHT
            at_zero = even_hermite_factor(k, 0, Q, CTX)
            near = even_hermite_factor(k, mpmath.mpf(2) ** -40, Q, CTX)
            assert abs(near - at_zero) < mpmath.mpf(2) ** -30
    with pytest.raises(ValueError):
        even_hermite_factor(-1, 0, Q, CTX)


# -- discrete q-ultraspherical -----------------------------------------------


def test_ultra_low_degrees():
    assert discrete_ultra(0, "0.3", 1, Q, CTX) == 1
    with CTX.workprec():
        v = discrete_ultra(1, 0, 1, Q, CTX)
        assert rel(v, mpmath.mpf(-2) / 3) < TIGHT
    # x = 1 collapses every term past the constant one.
    assert discrete_ultra(1, 1, 1, Q, CTX) == 1


def test_ultra_is_polynomial_of_degree_n():
    with CTX.workprec():
        n = 4
        s = mpmath.mpf(1)
        nodes = [mpmath.mpf(j) / 7 for j in range(n + 2)]
        values = [discrete_ultra(n, t, s, Q, CTX) for t in nodes]
        dd = divided_differences(nodes, values)
        assert abs(dd[n]) > mpmath.mpf("1e-10")
        assert abs(dd[n + 1]) < TIGHT * abs(dd[n])


def test_ultra_validation():
    with pytest.raises(ValueError):
        discrete_ultra(-1, 0.5, 1, Q, CTX)
    with pytest.raises(ValueError, match="s must satisfy"):
        discrete_ultra(2, 0.5, 0, Q, CTX)


# -- dual discrete q-ultraspherical ------------------------------------------


def test_dual_low_degrees():
    pt = mu_point(1, "0.5", Q, CTX)
    assert dual_ultra(0, pt.mu, "0.5", Q, CTX) == 1
    assert to_decimal(dual_ultra(1, pt.mu, "0.5", Q, CTX), 20) == "0.5"
    assert to_decimal(dual_ultra_series(1, 1, "0.5", Q, CTX), 20) == "0.5"


def test_dual_degree_one_grid_identity():
    # D_1 at mu(x) equals 1 + q (1 - q^-x)(1 - s q^{x+1}) / (1 - s q^2).
    with CTX.workprec():
        for q_s in ("0.3", "0.5", "0.8"):
            q = mpmath.mpf(q_s)
            for s in (mpmath.mpf("0.7"), 1 / q, mpmath.mpf(1)):
                for x_s in ("0", "1", "2.5", "-1.25"):
                    pt = mu_point(x_s, s, q, CTX)
                    got = dual_ultra(1, pt.mu, s, q, CTX)
                    x = mpmath.mpf(x_s)
                    want = 1 + q * (1 - q ** -x) * (1 - s * q ** (x + 1)) / (1 - s * q ** 2)
                    assert rel(got, want) < TIGHT


def test_dual_series_matches_recurrence():
    with CTX.workprec():
        for s in (Q, 1 / Q, mpmath.mpf(1)):
            for x in range(13):
                pt = mu_point(x, s, Q, CTX)
                table = dual_ultra_table(12, pt.mu, s, Q, CTX)
                for n in range(13):
                    assert rel(dual_ultra_series(n, x, s, Q, CTX),
                               table[n]) < TIGHT


def test_dual_table_prefix_consistency():
    pt = mu_point(2, 1, Q, CTX)
    long = dual_ultra_table(7, pt.mu, 1, Q, CTX)
    assert dual_ultra_table(3, pt.mu, 1, Q, CTX) == long[:4]


def test_dual_coefficients_and_degree():
    with CTX.workprec():
        s = mpmath.mpf(1)
        n = 5
        coeffs = dual_ultra_coeffs(n, s, Q, CTX)
        assert len(coeffs) == n + 1
        mu = mpmath.mpf("1.375")
        assert rel(horner(coeffs, mu), dual_ultra(n, mu, s, Q, CTX)) < TIGHT
        # Divided differences of grid-series values recover the leading
        # coefficient and certify the degree is exactly n.
        pts = [mu_point(x, s, Q, CTX) for x in range(n + 2)]
        values = [dual_ultra_series(n, x, s, Q, CTX) for x in range(n + 2)]
        dd = divided_differences([p.mu for p in pts], values)
        assert rel(dd[n], coeffs[-1]) < TIGHT
        assert abs(dd[n + 1]) < TIGHT * abs(coeffs[-1])


def test_dual_validation_and_degeneracy():
    # s = 16 and s = 4 = q^-2 would zero the lead 1 - s q^(2n+2) at n = 1
    # and n = 0; both are outside 0 < s < q^-2 and refused before any step.
    with pytest.raises(ValueError, match="0 < s < q\\^-2"):
        dual_ultra_series(2, 1, 5, Q, CTX)
    with pytest.raises(ValueError, match="0 < s < q\\^-2"):
        dual_ultra_table(2, mpmath.mpf(2), 16, Q, CTX)
    with pytest.raises(ValueError, match="0 < s < q\\^-2"):
        dual_ultra_coeffs(1, 4, Q, CTX)


@pytest.mark.parametrize("call", [
    lambda s: dual_ultra(3, 1, s, Q, CTX),
    lambda s: dual_ultra_table(3, 1, s, Q, CTX),
    lambda s: dual_ultra_coeffs(3, s, Q, CTX),
    lambda s: dual_ultra_coeff_rows(3, s, Q, CTX),
], ids=["dual_ultra", "dual_ultra_table", "dual_ultra_coeffs", "dual_ultra_coeff_rows"])
def test_dual_recurrence_rejects_s_out_of_range(call):
    # At q = 0.5 the range is 0 < s < 4; neither s zeroes a leading
    # coefficient, and dual_ultra_series rejects both, each with the rule of
    # FamilySpec.validated that it breaks.
    for s, rule in ((100, "0 < s < q\\^-2"), (-2, "s > 0")):
        with pytest.raises(ValueError, match=rule):
            dual_ultra_series(3, 1, s, Q, CTX)
        with pytest.raises(ValueError, match=rule):
            call(s)


def test_family_spec_checks_s_at_the_context_precision():
    from qortho.measures import dual_base, gram_matrix
    # s a relative 2^-70 past q^-2, and as far inside it: apart at 256 bits,
    # equal to q^-2 at 53.
    with CTX.workprec():
        q = mpmath.mpf("0.7")
        above = q ** -2 * (1 + mpmath.ldexp(1, -70))
    with pytest.raises(ValueError, match="0 < s < q\\^-2"):
        FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, above).validated(CTX)
    with CTX.workprec():
        q = mpmath.mpf("0.3")
        below = q ** -2 * (1 - mpmath.ldexp(1, -70))
    spec = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, below)
    assert spec.validated(CTX).s == below
    report = gram_matrix(dual_base(below, q, "even", CTX), 4, CTX)
    assert report.s == below and report.m_hi > report.m_lo


def test_mu_point_recomputable():
    with CTX.workprec():
        pt = mu_point("1.5", "0.7", Q, CTX)
        assert rel(pt.mu, Q ** mpmath.mpf("-1.5")
                   + mpmath.mpf("0.7") * Q ** mpmath.mpf("2.5")) < TIGHT
        assert pt.x == mpmath.mpf("1.5")
        assert pt.s == mpmath.mpf("0.7")


# -- family spec and dispatcher ----------------------------------------------


def test_family_spec_validation():
    with pytest.raises(ValueError, match="requires the parameter s"):
        FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, "0.5").validated(CTX)
    with pytest.raises(ValueError, match="s > 0"):
        FamilySpec(FamilyKind.DISCRETE_ULTRA, "0.5", "-1").validated(CTX)
    with pytest.raises(ValueError, match="q\\^-2"):
        FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, "0.5", "5").validated(CTX)
    spec = FamilySpec(FamilyKind.QINV_HERMITE, "0.5").validated(CTX)
    assert spec.q == Q and spec.s is None


def test_evaluate_dispatch():
    h = FamilySpec(FamilyKind.QINV_HERMITE, "0.5")
    assert evaluate(h, 2, x=0, ctx=CTX) == -1
    assert to_decimal(evaluate(h, 2, phi=0, ctx=CTX), 20) == "-1"
    ht = FamilySpec(FamilyKind.EVEN_HERMITE_FACTOR, "0.5")
    assert evaluate(ht, 0, x="0.3", ctx=CTX) == 2
    for x in ("0.3", 0):   # the recurrence route and the removable point
        want = even_hermite_factor(3, x, Q, CTX)
        assert evaluate(ht, 3, x=x, ctx=CTX)._mpf_ == want._mpf_
    assert to_decimal(evaluate(ht, 2, x=0, ctx=CTX), 20) == "134"
    c = FamilySpec(FamilyKind.DISCRETE_ULTRA, "0.5", "1")
    assert evaluate(c, 1, x=1, ctx=CTX) == 1
    d = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, "0.5", "0.5")
    pt = mu_point(1, "0.5", Q, CTX)
    assert to_decimal(evaluate(d, 1, mu=pt.mu, ctx=CTX), 20) == "0.5"
    assert to_decimal(evaluate(d, 1, x=1, ctx=CTX), 20) == "0.5"


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_evaluators_reject_non_finite_arguments(bad):
    v = mpmath.mpf(bad)
    calls = {
        "h recurrence": lambda: qinv_hermite(3, v, Q, CTX),
        "h series": lambda: qinv_hermite_series(3, v, Q, CTX),
        "h tables": lambda: qinv_hermite_tables(3, [1, v], Q, CTX),
        "ht": lambda: even_hermite_factor(1, v, Q, CTX),
        "C at x": lambda: discrete_ultra(3, v, 1, Q, CTX),
        "C at s": lambda: discrete_ultra(3, "0.5", v, Q, CTX),
        "D recurrence": lambda: dual_ultra(3, v, 1, Q, CTX),
        "D tables": lambda: dual_ultra_tables(3, [2, v], 1, Q, CTX),
        "D grid series": lambda: dual_ultra_series(3, v, 1, Q, CTX),
        "grid point at x": lambda: mu_point(v, 1, Q, CTX),
        "grid point at s": lambda: mu_point(2, v, Q, CTX),
        "dispatch": lambda: evaluate(FamilySpec(FamilyKind.QINV_HERMITE, Q), 3, x=v, ctx=CTX),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError):
            call()
            pytest.fail("%s accepted %s" % (name, bad))


def test_evaluate_dispatch_errors():
    h = FamilySpec(FamilyKind.QINV_HERMITE, "0.5")
    with pytest.raises(ValueError, match="exactly one"):
        evaluate(h, 2, x=0, phi=0, ctx=CTX)
    with pytest.raises(ValueError, match="exactly one"):
        evaluate(h, 2, ctx=CTX)
    with pytest.raises(ValueError, match="not mu"):
        evaluate(h, 2, mu=1, ctx=CTX)
    ht = FamilySpec(FamilyKind.EVEN_HERMITE_FACTOR, "0.5")
    with pytest.raises(ValueError, match="takes x"):
        evaluate(ht, 1, phi=0, ctx=CTX)
    c = FamilySpec(FamilyKind.DISCRETE_ULTRA, "0.5", "1")
    with pytest.raises(ValueError, match="takes x"):
        evaluate(c, 1, mu=1, ctx=CTX)
    d = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, "0.5", "0.5")
    with pytest.raises(ValueError, match="takes mu or x"):
        evaluate(d, 1, phi=0, ctx=CTX)


_SPECS = {"h": FamilySpec(FamilyKind.QINV_HERMITE, "0.5"),
          "ht": FamilySpec(FamilyKind.EVEN_HERMITE_FACTOR, "0.5"),
          "C": FamilySpec(FamilyKind.DISCRETE_ULTRA, "0.5", "1"),
          "D": FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, "0.5", "0.5")}


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("family, points, message", [
    ("h", {"mu": 1}, "qinv_hermite takes x or phi, not mu"),
    ("ht", {"phi": 0}, "even_hermite_factor takes x"),
    ("ht", {"mu": 1}, "even_hermite_factor takes x"),
    ("C", {"phi": 0}, "discrete_ultra takes x"),
    ("C", {"mu": 1}, "discrete_ultra takes x"),
    ("D", {"phi": 0}, "dual_discrete_ultra takes mu or x"),
] + [(family, points, "exactly one of x, phi, mu must be supplied (got %s)" % got)
     for family in ("h", "ht", "C", "D")
     for points, got in (({}, "[]"), ({"x": 0, "phi": 0}, "['phi', 'x']"),
                         ({"x": 0, "phi": 0, "mu": 1}, "['mu', 'phi', 'x']"))])
def test_evaluate_messages_are_whole_strings(family, points, message):
    assert _message(lambda: evaluate(_SPECS[family], 1, ctx=CTX, **points)) == message


@pytest.mark.parametrize("kind, s, message", [
    (FamilyKind.DISCRETE_ULTRA, None, "discrete_ultra requires the parameter s"),
    (FamilyKind.DUAL_DISCRETE_ULTRA, None, "dual_discrete_ultra requires the parameter s"),
    (FamilyKind.DISCRETE_ULTRA, "-1", "s must satisfy s > 0 (got s=-1.0)"),
    (FamilyKind.DUAL_DISCRETE_ULTRA, "0", "s must satisfy s > 0 (got s=0.0)"),
    (FamilyKind.DUAL_DISCRETE_ULTRA, "5", "s must satisfy 0 < s < q^-2 (got s=5.0, q^-2=4.0)"),
])
def test_validated_messages_are_whole_strings(kind, s, message):
    spec = FamilySpec(kind, "0.5", s)
    assert _message(lambda: spec.validated(CTX)) == message
    assert _message(lambda: evaluate(spec, 1, x=0, ctx=CTX)) == message


@pytest.mark.parametrize("kind", [FamilyKind.QINV_HERMITE, FamilyKind.EVEN_HERMITE_FACTOR])
def test_families_without_s_refuse_one(kind):
    # as `qortho eval --family h --s 7` exits 2, in place of dropping the s
    spec = FamilySpec(kind, "0.5", "7")
    message = "%s takes no parameter s" % kind.value
    assert _message(lambda: spec.validated(CTX)) == message
    assert _message(lambda: evaluate(spec, 2, x=0, ctx=CTX)) == message


def _s_entry_points(n):
    """{name: (family kind, call of s)} for every public function that takes
    s, and evaluate on each route of C and D, at degree n and q = 0.5."""
    from qortho.measures import dual_base
    C, D = FamilyKind.DISCRETE_ULTRA, FamilyKind.DUAL_DISCRETE_ULTRA
    return {
        "discrete_ultra": (C, lambda s: discrete_ultra(n, "0.5", s, "0.5", CTX)),
        "dual_ultra_series": (D, lambda s: dual_ultra_series(n, 2, s, "0.5", CTX)),
        "dual_ultra_tables": (D, lambda s: dual_ultra_tables(n, [1], s, "0.5", CTX)),
        "dual_ultra_table": (D, lambda s: dual_ultra_table(n, 2, s, "0.5", CTX)),
        "dual_ultra": (D, lambda s: dual_ultra(n, 2, s, "0.5", CTX)),
        "dual_ultra_coeff_rows": (D, lambda s: dual_ultra_coeff_rows(n, s, "0.5", CTX)),
        "dual_ultra_coeffs": (D, lambda s: dual_ultra_coeffs(n, s, "0.5", CTX)),
        "mu_point": (D, lambda s: mu_point(1, s, "0.5", CTX)),
        "dual_base": (D, lambda s: dual_base(s, "0.5", "even", CTX)),
        "evaluate C at x": (C, lambda s: evaluate(FamilySpec(C, "0.5", s), n, x="0.5", ctx=CTX)),
        "evaluate D at mu": (D, lambda s: evaluate(FamilySpec(D, "0.5", s), n, mu=2, ctx=CTX)),
        "evaluate D at x": (D, lambda s: evaluate(FamilySpec(D, "0.5", s), n, x=2, ctx=CTX)),
    }


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("s", [None, "-1", "0", "4", "16"])   # q^-2 = 4 at q = 0.5
def test_every_s_entry_point_checks_s_as_validated_does(s, n):
    # FamilySpec.validated is the one check of s: each entry point raises
    # its message, whole, for an s it refuses, and no ValueError for an s it
    # accepts (C takes s = 4 and 16, D neither; there sqrt(s) q = 1 and 2
    # put a pole in C's 3phi2 for n >= 2, which is not a refusal of s).
    for name, (kind, call) in _s_entry_points(n).items():
        try:
            FamilySpec(kind, "0.5", s).validated(CTX)
        except ValueError as exc:
            assert _message(lambda: call(s)) == str(exc), (name, s, n)
        else:
            with contextlib.suppress(PoleError):
                call(s)


@pytest.mark.parametrize("s,n,k", [(4, 3, 0), (16, 2, 1), (16, 8, 1), (64, 3, 2)])
def test_discrete_ultra_names_s_and_k_at_a_pole(s, n, k):
    # C's denominators (s q^2; q^2)_k vanish where s q^(2k+2) = 1, inside
    # C's rule s > 0; the kernel's message named neither C nor s.  At
    # q = 0.5 the lane 1 - s q^(2k+2) is exact, and 0 at k = 0, 1 and 2.
    with pytest.raises(PoleError) as info:
        discrete_ultra(n, "0.3", s, Q, CTX)
    assert str(info.value) == ("discrete_ultra has a pole at s=%d.0: s q^(2k+2) = 1 at k=%d"
                               " (q=0.5)" % (s, k))
    assert info.value.index == k


@pytest.mark.parametrize("n", [3, 8])
def test_discrete_ultra_is_within_tol_next_to_a_pole(n):
    # s q^2 = 1 - 2.5e-30: 1 - s q^(2k+2) formed from a rounded sqrt(s) q
    # cancelled about 100 bits here (2.25e-48 from the exact sum); the lane
    # from the exact s q^2 cancels none.  Exact at the 256-bit inputs.
    s_s = "3.99999999999999999999999999999"
    q, x, s = (_fraction(CTX.to_real(v)) for v in ("0.5", "0.3", s_s))
    exact = total = Fraction(1)
    for k in range(n):
        num = q * (1 - q ** (k - n)) * (1 + s * q ** (n + 1 + k)) * (1 - x * q ** k)
        total *= num / ((1 - q ** (k + 1)) * (1 - s * q ** (2 * k + 2)))
        exact += total
    value = _fraction(discrete_ultra(n, "0.3", s_s, "0.5", CTX))
    assert abs(value - exact) <= _fraction(CTX.tol) * abs(exact)


def _degree_calls(v):
    """{name: (degree argument's name, call at degree v)} for every check of
    a degree, count or index."""
    from qortho import basic_hypergeometric, expected_diagonal, gram_matrix, qpochhammer
    from qortho.measures import dual_base
    base = dual_base(1, Q, "even", CTX)
    return {
        "qpochhammer": ("n", lambda: qpochhammer("0.5", Q, v, CTX)),
        "basic_hypergeometric": ("terminating_at", lambda: basic_hypergeometric(
            [Q], [], Q, Q, CTX, terminating_at=v)),
        "qinv_hermite_series_tables": ("n", lambda: qinv_hermite_series_tables(
            [1, v], [0], Q, CTX)),
        "qinv_hermite": ("n", lambda: qinv_hermite(v, "0.3", Q, CTX)),
        "qinv_hermite_coeffs": ("n", lambda: qinv_hermite_coeffs(v, Q, CTX)),
        "even_hermite_factor": ("k", lambda: even_hermite_factor(v, 0, Q, CTX)),
        "discrete_ultra": ("n", lambda: discrete_ultra(v, 0, 1, Q, CTX)),
        "dual_ultra_series": ("n", lambda: dual_ultra_series(v, 0, 1, Q, CTX)),
        "dual_ultra": ("n", lambda: dual_ultra(v, "0.5", 1, Q, CTX)),
        "dual_ultra_coeffs": ("n", lambda: dual_ultra_coeffs(v, 1, Q, CTX)),
        "qinv_hermite_tables": ("n_max", lambda: qinv_hermite_tables(v, [0], Q, CTX)),
        "dual_ultra_tables": ("n_max", lambda: dual_ultra_tables(v, [0], 1, Q, CTX)),
        "expected_diagonal": ("n", lambda: expected_diagonal(base, v, CTX)),
        "gram_matrix": ("N", lambda: gram_matrix(base, v, CTX)),
    }


@pytest.mark.parametrize("v", [-1, 2.0, "3"])
def test_degree_messages_are_whole_strings(v):
    for name, (what, call) in _degree_calls(v).items():
        assert _message(call) == "%s must be a nonnegative integer (got %r)" % (what, v), name


def _bool_degree_calls():
    """(degree argument's name, call at degree v) for each kind of degree
    argument: a bool is an int subclass, so an isinstance check alone
    would take True for 1 and False for 0."""
    from qortho import basic_hypergeometric, gram_matrix, qpochhammer
    from qortho.identities import check_even_connection
    from qortho.measures import hermite_extremal
    return {
        "qpochhammer": ("n", lambda v: qpochhammer("0.3", "0.5", v, CTX)),
        "gram_matrix": ("N", lambda v: gram_matrix(hermite_extremal("0.7", "0.5", CTX), v, CTX)),
        "even_hermite_factor": ("k", lambda v: even_hermite_factor(v, "0.3", "0.5", CTX)),
        "qinv_hermite_table": ("n_max", lambda v: qinv_hermite_table(v, "0.3", "0.5", CTX)),
        "check_even_connection": ("k_max", lambda v: check_even_connection(v, None, "0.5", CTX)),
        "basic_hypergeometric": ("terminating_at", lambda v: basic_hypergeometric(
            [Q], [], Q, Q, CTX, terminating_at=v)),
    }


@pytest.mark.parametrize("name", sorted(_bool_degree_calls()))
def test_degree_arguments_refuse_bools(name):
    what, call = _bool_degree_calls()[name]
    for v in (True, False):
        assert _message(lambda: call(v)) == (
            "%s must be a nonnegative integer (got %r)" % (what, v)), name


def _fraction(value) -> Fraction:
    m, e = _pair(value)
    return Fraction(m) * Fraction(2) ** e


def _neighbours(value, bits, k=2):
    """The 2k + 1 values of bits bits around and at value, one unit apart."""
    _, man, exp, bc = value._mpf_
    m, e = man << (bits - bc), exp - (bits - bc)
    return [_mpf((m + i, e)) for i in range(-k, k + 1)]


@pytest.mark.parametrize("q_s", ["0.3", "0.7", "0.999"])
def test_dual_s_rule_is_exact(q_s):
    # s one unit either side of q^-2 at 256 bits: validated accepts s
    # exactly when s q^2 < 1, the condition the first lead 1 - s q^2 needs.
    with CTX.workprec():
        q = mpmath.mpf(q_s)
        near = _neighbours(q ** -2, CTX.bits)
    seen = set()
    for s in near:
        inside = _fraction(s) * _fraction(q) ** 2 < 1
        spec = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s)
        if inside:
            assert spec.validated(CTX).s == s
        else:
            assert _message(lambda: spec.validated(CTX)).startswith("s must satisfy 0 < s < q^-2")
        seen.add(inside)
    assert seen == {True, False}


@pytest.mark.parametrize("bits", [64, 256])
def test_dual_leads_stay_positive_as_q_nears_1(bits):
    # q = 1 - 2^-k down to one unit below 1 and s the largest value of bits
    # bits with s q^2 < 1: every lead 1 - s q^(2j+2) stays positive
    # (_dual_steps), so the top coefficient of D_n has the sign (-1)^n.
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    for k in range(bits - 8, bits + 1):
        q = Fraction(2 ** k - 1, 2 ** k)
        unit = Fraction(1, 2 ** (bits - 1))   # 1 < q^-2 < 2, so s = j unit has bits bits
        j = int(1 / (unit * q ** 2))
        j -= j * unit * q ** 2 == 1
        assert j * unit * q ** 2 < 1 <= (j + 1) * unit * q ** 2
        rows = dual_ultra_coeff_rows(8, _mpf((j, 1 - bits)), _mpf((2 ** k - 1, -k)), ctx)
        assert [mpmath.sign(row[-1]) for row in rows] == [(-1) ** n for n in range(9)], k


# -- batched recurrences against their exact runs ------------------------------
#
# The h and D steps round once each, from coefficients formed from one run of
# negative powers of q, so no mpf expression gives their values bit for bit.
# Their oracles run each recurrence exactly instead, and hold the computed
# values to a running-error bound: D's first, then h's, which reuses its
# helpers.


def raw(values):
    return [v._mpf_ for v in values]


ORACLE_N = 12


# -- D's recurrence against its exact run ---------------------------------------
#
# D's step rounds ((c_mid - mu) D_j - c_low D_{j-1}) r once, r the reciprocal
# of the rounded c_lead at bits + 64, so no mpf expression gives its values
# bit for bit.  The oracle runs the recurrence exactly instead, in integers,
# from the exact values of q, s and the point (dyadic rationals), and holds
# the computed values to a running-error bound (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., §3.3).  With q = a 2^-z and
# s = sigma 2^-w, step j over the common denominator den = a^(2j+1) 2^(w+z)
# has the integers
#
#   mid  = c_mid den  = 2^(2jz+w+z) (2^z + a)
#   low  = c_low den  = a (2^(2jz) - a^(2j)) 2^(w+z)
#   lead = c_lead den = 2^(w+(2j+2)z) - sigma a^(2j+2)
#
# and the computed step is ((c_mid + dm - p) P_j - (c_low + dl) P_{j-1})
# (1 + g) (1 + e) / c_lead on the computed P_j and P_{j-1}, with
# |dm| <= rm c_mid, |dl| <= rl c_low, |g| the relative error of r as
# 1/c_lead and |e| <= 2^-prec the step's one rounding.  Each bound is that
# of the factor formed as q^(-2j-1) (1 + q), q^(-2j) (1 - q^(2j)) and
# q^(-2j-1) (1 - s q^(2j+2)): power_run's bound on each power of q,
# rho(k) = 2^-prec + 1.01 r(k) 2^-(prec+32), 2^-prec per product, sum and
# difference, and for 1 - q^(2j) and 1 - s q^(2j+2) the error of the
# rounded power times q^(2j) / (1 - q^(2j)) or s q^(2j+2) / (1 - s q^(2j+2)).
# At j = 0, s q^2 is exact, so 1 - s q^2 carries one rounding and no such
# factor.  _dual_steps forms the factors from negative powers alone, as
# q^(-2j-1) + q^(-2j), q^(-2j) - 1 and, for j >= 1, q^(-2j-1) - s q with
# s q exact, each rounded once.  Their bounds, to first order
# rho(-2j-1) + 2^-prec, rho(-2j) / (1 - q^(2j)) + 2^-prec and
# rho(-2j-1) / (1 - s q^(2j+2)) + 2^-prec, are each about 2^-prec below
# those above (rho(2j+2) = rho(-2j-1), and rho(-2j) - rho(2j) is only
# 1.01 2^-(prec+32)), so the bounds above hold these steps too.  With N the
# exact step's numerator on the computed values, the step's own error is at
# most
#
#   beta_j = ((G - 1) |N| + G (rm c_mid |P_j| + rl c_low |P_{j-1}|)) / c_lead,
#
# G = (1 + g)(1 + 2^-prec), and the error of P_{j+1} is at most
# E_{j+1} = (|c_mid - p| E_j + c_low E_{j-1}) / c_lead + beta_j.  The rows
# run the same step with p P_j replaced by P_j's coefficients moved up one
# degree.  The bounds are formed in 128-bit mpf, whose roundings SLACK
# covers.

SLACK = 1 + mpmath.ldexp(1, -100)


def _exact_dual_steps(n_max, s, q, prec):
    """Per step j < n_max of D: (mid, low, lead, den, rm, rl, G - 1) as above."""
    a, z = _pair(q)
    z = -z
    sigma, w = _pair(s)
    sigma, w = (sigma << w, 0) if w >= 0 else (sigma, -w)
    steps = []
    with mpmath.mp.workprec(128):
        u = mpmath.ldexp(1, -prec)

        def rho(k):   # power_run's bound on q^k
            r = k - 1 if k > 0 else -k
            return u + mpmath.mpf(1.01) * r * mpmath.ldexp(1, -prec - 32)

        for j in range(n_max):
            a2j = a ** (2 * j)
            s_power = sigma * a2j * a * a
            lead = (1 << (w + (2 * j + 2) * z)) - s_power
            rm = _grown(rho(-2 * j - 1), u, u)
            if j:
                rl = _grown(rho(-2 * j), u, u,
                            rho(2 * j) * _size(a2j) / _size((1 << 2 * j * z) - a2j))
                err = _grown(rho(2 * j + 2), u)   # of the rounded s q^(2j+2)
                rd = _grown(rho(-2 * j - 1), u, u, err * _size(s_power) / _size(lead))
            else:
                rl = 0
                rd = _grown(rho(-1), u, u)
            g = (mpmath.ldexp(1, -prec - 64) + rd) / (1 - rd)
            steps.append(((2 ** z + a) << (2 * j * z + w + z),
                          a * ((1 << 2 * j * z) - a2j) << (w + z),
                          lead, a2j * a << (w + z), rm, rl, _grown(g, u)))
    return steps


def _grown(*bounds):
    """prod (1 + b) - 1 over the relative bounds b >= 0, formed without
    adding them to 1."""
    total = 0
    for b in bounds:
        total += b + total * b
    return total


def _dyadic_sum(*terms):
    """The exact sum of terms (k, (m, e)), each k m 2^e, as a pair."""
    lo = min(e for _, (_, e) in terms)
    return sum(k * m << (e - lo) for k, (m, e) in terms), lo


def _size(x):
    """|x| for an int or a pair, rounded up to 128 bits, as an mpf (mpf's own
    conversion of an int of 10^5 bits takes milliseconds)."""
    m, e = (x, 0) if isinstance(x, int) else x
    m, cut = abs(m), abs(m).bit_length() - 128
    if cut > 0:
        m, e = (m >> cut) + 1, e + cut
    return mpmath.ldexp(m, e)


def _within(x, num, den, bound):
    """|x - num / den| <= bound for a pair x, ints num and den > 0 and an mpf
    bound, decided exactly."""
    (m, e), (bm, be) = x, _pair(bound)
    lo = min(e, be, 0)
    return abs((m * den << (e - lo)) - (num << -lo)) <= bm * den << (be - lo)


def _check_step(step, got, n, up, low_value, scale):
    """beta_j of one step, after asserting that the computed value got is
    within it of the exact step n / (lead 2^scale) on the computed values;
    up is the computed value c_mid multiplies, low_value the one c_low does."""
    mid, low, lead, _, rm, rl, g1 = step
    k = lead << scale
    coeffs = rm * _size(mid << scale) * _size(up) + rl * _size(low << scale) * _size(low_value)
    beta = (g1 * _size(n) + coeffs + g1 * coeffs) / k
    assert _size(_dyadic_sum((k, got), (-1, n))) <= beta * k * SLACK
    return beta


def _check_dual_values(steps, p, got, exact):
    """Assert that each computed step of D at p is within beta_j of the
    exact step on the computed values and, when exact, that each computed
    D_j(p) in got (pairs) is within E_j of the exact D_j(p)."""
    pm, pe = _pair(p)
    pi, v = (pm << pe, 0) if pe >= 0 else (pm, -pe)   # p = pi 2^-v
    x0, x1, k0, den_run = 0, 1, 1, 1                  # D_j(p) = x1 / den_run
    with mpmath.mp.workprec(128):
        e0 = e1 = mpmath.mpf(0)
        for j, step in enumerate(steps):
            mid, low, lead, den = step[:4]
            a, b, k = (mid << v) - pi * den, low << v, lead << v
            prev = got[j - 1] if j else _ZERO
            n = _dyadic_sum((a, got[j]), (-b, prev))
            beta = _check_step(step, got[j + 1], n, got[j], prev, v)
            if exact:
                e0, e1 = e1, (_size(a) * e1 + _size(b) * e0) / k + beta
                x0, x1 = x1, a * x1 - b * k0 * x0
                k0, den_run = k, den_run * k
                assert _within(got[j + 1], x1, den_run, e1 * SLACK), (j, p)


def _check_dual_rows(steps, rows, exact):
    """_check_dual_values for the coefficient rows (pairs) of D."""
    def at(row, i):
        return row[i] if 0 <= i < len(row) else _ZERO

    def int_at(row, i):
        return row[i] if 0 <= i < len(row) else 0

    y0, y1, k0, den_run = [], [1], 1, 1   # row j = y1 / den_run
    with mpmath.mp.workprec(128):
        e0, e1 = [], [mpmath.mpf(0)]
        for j, step in enumerate(steps):
            mid, low, lead, den = step[:4]
            cur, prev, y, e = rows[j], rows[j - 1] if j else [], [], []
            for i in range(j + 2):
                n = _dyadic_sum((mid, at(cur, i)), (-den, at(cur, i - 1)), (-low, at(prev, i)))
                beta = _check_step(step, rows[j + 1][i], n, at(cur, i), at(prev, i), 0)
                if exact:
                    y.append(mid * int_at(y1, i) - den * int_at(y1, i - 1)
                             - low * k0 * int_at(y0, i))
                    e.append((_size(mid) * (e1[i] if i <= j else 0)
                              + _size(den) * (e1[i - 1] if i else 0)
                              + _size(low) * (e0[i] if i < j else 0)) / lead + beta)
            if exact:
                y0, y1, k0, den_run = y1, y, lead, den_run * lead
                e0, e1 = e1, e
                for i, c in enumerate(rows[j + 1]):
                    assert _within(c, y1[i], den_run, e1[i] * SLACK), (j, i)


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.3", "0.5", "0.7", "0.9", "0.99"])
def test_batched_dual_recurrences_match_per_node_formulas(q_s, bits):
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    with ctx.workprec():
        q = mpmath.mpf(q_s)
        s_values = [1 / q, q, mpmath.mpf("0.45")]
    for s in s_values:
        with ctx.workprec():
            mus = [mu_point(x, s, q, ctx).mu for x in (0, 1, 2, 5, "2.5")]
            mus += [mpmath.mpf(v) for v in ("-4", "0", "1.375")]
        steps = _exact_dual_steps(ORACLE_N, s, q, bits)
        tables = dual_ultra_tables(ORACLE_N, mus, s, q, ctx)
        assert len(tables) == len(mus)
        for mu, table in zip(mus, tables):
            assert raw(dual_ultra_table(ORACLE_N, mu, s, q, ctx)) == raw(table)
            _check_dual_values(steps, mu, [_pair(v) for v in table], exact=True)
        rows = dual_ultra_coeff_rows(ORACLE_N, s, q, ctx)
        assert len(rows) == ORACLE_N + 1
        for n, row in enumerate(rows):
            assert raw(dual_ultra_coeffs(n, s, q, ctx)) == raw(row)
        _check_dual_rows(steps, [[_pair(c) for c in row] for row in rows], exact=True)


# -- h's recurrence against its exact run ---------------------------------------
#
# h's step is h_{j+1} = 2p h_j - L_j h_{j-1}, L_j = q^-j - 1, and the majorant
# runs H_{j+1} = 2t H_j + L_j H_{j-1}: sign = 1 and -1 below.  _hermite_steps
# forms L_j for j >= 2 from the run's q^-j, within
# rho(-j) = 2^-prec + 1.01 j 2^-(prec+32) of the exact power (power_run), and
# rounds the difference once, so the computed L_j is within relative
#
#   rl_j = (1 + rho(-j) / (1 - q^j)) (1 + 2^-prec) - 1
#
# of the exact one, as q^-j / L_j = 1 / (1 - q^j); L_0 = 0 is exact, and
# L_1 = (1 - q) / q is rounded once, so rl_1 = 2^-prec.  With
# q = a 2^-z and the point p = pi 2^-v, step j has the integers a = 2 pi a^j,
# b = sign (2^(jz) - a^j) 2^v and k = a^j 2^v, and the exact step on the
# computed values is N = (a P_j - b P_{j-1}) / k.  The computed value is N with
# L_j perturbed within rl_j, times (1 + e)(1 + f): |e| <= 2^-prec the step's
# rounding, and |f| <= 2^-(2 prec) that of _exact_sub when two terms lie more
# than 2 prec binary places apart.  So with G = (1 + 2^-prec)(1 + 2^-(2 prec))
# the step's own error is at most
#
#   beta_j = ((G - 1) |N k| + G rl_j |b P_{j-1}|) / k,
#
# the error of P_{j+1} at most E_{j+1} = (|a| E_j + |b| E_{j-1}) / k + beta_j,
# and the exact run is X_{j+1} = a X_j - b k_{j-1} X_{j-1} over
# K_{j+1} = k K_j.  The rows run the same step, with p P_j replaced by P_j's
# coefficients moved up one degree (pi = 1, v = 0).  The bounds are formed in
# 128-bit mpf, whose roundings SLACK covers, as for D.


def _exact_hermite_steps(n_max, q, prec):
    """Per step j < n_max of h: (lnum, lden, rl) with L_j = lnum / lden."""
    a, z = _pair(q)
    z = -z
    steps = []
    with mpmath.mp.workprec(128):
        u = mpmath.ldexp(1, -prec)
        for j in range(n_max):
            aj = a ** j
            lnum = (1 << j * z) - aj
            rho = u + mpmath.mpf(1.01) * j * mpmath.ldexp(1, -prec - 32)
            rl = _grown(rho * _size(1 << j * z) / _size(lnum), u) if j > 1 else j * u
            steps.append((lnum, aj, rl))
    return steps


def _hermite_step(got, a, up, b, low, k, rl, prec):
    """beta_j of one step of h, after asserting that the computed value got
    is within it of the exact step (a up - b low) / k on the computed values
    up and low (pairs)."""
    n = _dyadic_sum((a, up), (-b, low))
    g = _grown(mpmath.ldexp(1, -prec), mpmath.ldexp(1, -2 * prec))
    off = rl * _size(b) * _size(low)
    bound = g * _size(n) + off + g * off
    assert _size(_dyadic_sum((k, got), (-1, n))) <= bound * SLACK
    return bound / _size(k)


def _check_hermite_values(steps, p, got, prec, exact, sign=1):
    """Assert that each computed step of h at p (of H at sign = -1) is
    within beta_j of the exact step on the computed values and, when exact,
    that each computed value in got (pairs) is within E_j of the exact one."""
    pm, pe = _pair(p)
    pi, v = (pm << pe, 0) if pe >= 0 else (pm, -pe)   # p = pi 2^-v
    x0, x1, k0, den_run = 0, 1, 1, 1                  # P_j(p) = x1 / den_run
    with mpmath.mp.workprec(128):
        e0 = e1 = mpmath.mpf(0)
        for j, (lnum, lden, rl) in enumerate(steps):
            a, b, k = 2 * pi * lden, sign * lnum << v, lden << v
            prev = got[j - 1] if j else _ZERO
            beta = _hermite_step(got[j + 1], a, got[j], b, prev, k, rl, prec)
            if exact:
                e0, e1 = e1, (_size(a) * e1 + _size(b) * e0) / _size(k) + beta
                x0, x1 = x1, a * x1 - b * k0 * x0
                k0, den_run = k, den_run * k
                assert _within(got[j + 1], x1, den_run, e1 * SLACK), (j, p)


def _check_hermite_rows(steps, rows, prec, exact=True):
    """_check_hermite_values for the coefficient rows (pairs) of h."""
    def at(row, i):
        return row[i] if 0 <= i < len(row) else _ZERO

    def int_at(row, i):
        return row[i] if 0 <= i < len(row) else 0

    y0, y1, k0, den_run = [], [1], 1, 1   # row j = y1 / den_run
    with mpmath.mp.workprec(128):
        e0, e1 = [], [mpmath.mpf(0)]
        for j, (lnum, lden, rl) in enumerate(steps):
            cur, prev, y, e = rows[j], rows[j - 1] if j else [], [], []
            for i in range(j + 2):
                beta = _hermite_step(rows[j + 1][i], 2 * lden, at(cur, i - 1), lnum, at(prev, i),
                                     lden, rl, prec)
                if exact:
                    y.append(2 * lden * int_at(y1, i - 1) - lnum * k0 * int_at(y0, i))
                    e.append((_size(2 * lden) * (e1[i - 1] if 0 < i <= j + 1 else 0)
                              + _size(lnum) * (e0[i] if i < j else 0)) / _size(lden) + beta)
            if exact:
                y0, y1, k0, den_run = y1, y, lden, den_run * lden
                e0, e1 = e1, e
                for i, c in enumerate(rows[j + 1]):
                    assert _within(c, y1[i], den_run, e1[i] * SLACK), (j, i)


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.3", "0.5", "0.7", "0.9", "0.99"])
def test_batched_hermite_recurrences_match_per_node_formulas(q_s, bits):
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    with ctx.workprec():
        q = mpmath.mpf(q_s)
        xs = [mpmath.mpf(v) for v in ("-3.25", "-1", "-0.3", "0", "0.7", "2")]
        xs.append((q ** -5 - q ** 5) / 2)
    steps = _exact_hermite_steps(ORACLE_N, q, bits)
    tables = qinv_hermite_tables(ORACLE_N, xs, q, ctx)
    assert len(tables) == len(xs)
    for x, table in zip(xs, tables):
        assert raw(qinv_hermite_table(ORACLE_N, x, q, ctx)) == raw(table)
        _check_hermite_values(steps, x, [_pair(v) for v in table], bits, exact=True)
    rows = qinv_hermite_coeff_rows(ORACLE_N, q, ctx)
    assert len(rows) == ORACLE_N + 1
    for n, row in enumerate(rows):
        assert raw(qinv_hermite_coeffs(n, q, ctx)) == raw(row)
    _check_hermite_rows(steps, [[_pair(c) for c in row] for row in rows], bits)


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.3", "0.7", "0.99", "0.999"])
def test_hermite_first_low_coefficient_is_rounded_once(q_s, bits):
    # L_1 = q^-1 - 1 = (1 - q) / q, from the exact 1 - q and one rounding,
    # which mpf's division makes: a difference of the rounded q^-1 would
    # amplify its rounding by 1 / (1 - q), to 80 units at q = 0.999 and
    # 256 bits, 614 at 1024.
    q = as_qparam(q_s, PrecisionContext.create(bits=bits, tol_exp=bits - 56))
    with mpmath.workprec(2 * bits):
        gap = 1 - q   # exact
    with mpmath.workprec(bits):
        want = gap / q
    m, e = families._hermite_steps(2, q, bits)[1][1]   # the step holds -L_1 / 2
    assert _mpf((-m, e + 1))._mpf_ == want._mpf_


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.7", "0.99", "0.999"])
def test_hermite_low_coefficients_are_within_one_unit(q_s, bits):
    # c_low = -(q^-j - 1) / 2 for j <= 30, against the exact value at the
    # rounded q.  The difference of q^-j rounded to bits amplified that
    # rounding by 1 / (1 - q^j), up to 326 units at q = 0.999 and 256 bits;
    # taken from q^-j at bits + 32, it stays within one unit 2^-bits.
    q = as_qparam(q_s, PrecisionContext.create(bits=bits, tol_exp=bits - 56))
    qf = _fraction(q)
    unit = Fraction(1, 2 ** bits)
    for j, (_, low, _) in enumerate(families._hermite_steps(31, q, bits)):
        exact = -(qf ** -j - 1) / 2
        got = Fraction(low[0]) * Fraction(2) ** low[1]
        assert abs(got - exact) <= unit * abs(exact), j


@pytest.mark.parametrize("q_s", ["1e-4", "0.3", "0.999"])
def test_hermite_exact_run_catches_a_mutated_coefficient(q_s, monkeypatch):
    # q^-2 in place of q^-2 - 1 in the third step: the values and the rows
    # from h_3 on leave their bounds.
    real = families._hermite_steps

    def mutated(n_max, q, prec):
        steps = real(n_max, q, prec)
        m, e = power_run(_pair(q), -2, -2, prec)[0]
        steps[2] = (_ZERO, (-m, e - 1), (-1, 1))
        return steps
    monkeypatch.setattr(families, "_hermite_steps", mutated)
    q = as_qparam(q_s, CTX)
    steps = _exact_hermite_steps(6, q, CTX.bits)
    with pytest.raises(AssertionError):
        _check_hermite_values(steps, mpmath.mpf("0.7"),
                              [_pair(v) for v in qinv_hermite_table(6, "0.7", q, CTX)],
                              CTX.bits, exact=True)
    with pytest.raises(AssertionError):
        _check_hermite_rows(steps, [[_pair(c) for c in row]
                                    for row in qinv_hermite_coeff_rows(6, q, CTX)], CTX.bits)


def test_batched_recurrences_edge_cases():
    assert qinv_hermite_tables(4, [], Q, CTX) == []
    assert dual_ultra_tables(4, [], 1, Q, CTX) == []
    assert qinv_hermite_coeff_rows(0, Q, CTX) == [[1]]
    # D_0 = 1 reads no s, and s is checked all the same
    with pytest.raises(ValueError, match="0 < s < q\\^-2"):
        dual_ultra_coeff_rows(0, 16, Q, CTX)
    with pytest.raises(ValueError, match="n_max"):
        dual_ultra_tables(-1, [1], 1, Q, CTX)
    with pytest.raises(ValueError, match="n_max"):
        qinv_hermite_coeff_rows(-1, Q, CTX)
    # s = 16 would zero the lead at n = 1; it is refused before any step.
    with pytest.raises(ValueError, match="0 < s < q\\^-2"):
        dual_ultra_tables(2, [], 16, Q, CTX)
    with pytest.raises(ValueError, match="0 < s < q\\^-2"):
        dual_ultra_coeff_rows(2, 16, Q, CTX)


# -- the shared three-term loop against the per-family runs ------------------
#
# Each family's values, majorant and rows come from the one loop _three_term.
# Every step is held to the bound beta_j of the exact step on the computed
# values (_check_hermite_values, _check_dual_values; running the recurrences
# exactly to degree 30 at 1024 bits takes integers of about 10^6 bits).  h's
# majorant at t is the largest H_n(t) of the loop run at t with L_j negated,
# D's the largest |D_n(-t)|.


def mpfs(pairs):
    return [_mpf(v) for v in pairs]


@pytest.mark.parametrize("n_max", [0, 1, 30])
@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["1e-4", "0.05", "0.5", "0.9", "0.999"])
def test_three_term_loop_matches_the_per_family_loops(q_s, bits, n_max):
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    with ctx.workprec():
        q = mpmath.mpf(q_s)
        ts = [mpmath.mpf(0), mpmath.ldexp(1, -40), mpmath.mpf("0.7"), mpmath.mpf("3.25"),
              (q ** -5 - q ** 5) / 2, mpmath.ldexp(3, 40)]
        points = ts + [-t for t in ts[1:]]
        specs = [FamilySpec(FamilyKind.QINV_HERMITE, q)] + [
            FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s) for s in (q, mpmath.mpf(1), 1 / q)]
    for family in specs:
        new = _recurrence(family, n_max, ctx)
        if family.s is None:
            steps = _exact_hermite_steps(n_max, q, bits)
            for p in points:
                _check_hermite_values(steps, p, new[0](_pair(p)), bits, exact=False)
            for t in ts:
                sums = families._three_term(_pair(t), families._hermite_steps(n_max, q, bits),
                                            bits, -1)
                _check_hermite_values(steps, t, sums, bits, exact=False, sign=-1)
                with ctx.workprec():
                    assert _mpf(new[1](_pair(t))) == max(abs(v) for v in mpfs(sums)), (family, t)
            _check_hermite_rows(steps, new[2](), bits, exact=False)
            continue
        with ctx.workprec():
            grid = [mu_point(x, family.s, q, ctx).mu for x in (0, 3)]
        steps = _exact_dual_steps(n_max, family.s, q, bits)
        for p in points + grid:
            _check_dual_values(steps, p, new[0](_pair(p)), exact=False)
        for t in ts:
            with ctx.workprec():
                assert (_mpf(new[1](_pair(t)))
                        == max(abs(v) for v in mpfs(new[0](_pair(-t))))), (family, t)
        _check_dual_rows(steps, new[2](), exact=False)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("exponent", [10 ** 9, -10 ** 9])
def test_three_term_loop_is_accurate_at_far_exponents(exponent, sign):
    # p = +-3 2^(+-10^9): c_mid - p, and the step's two products, have
    # exponents about 10^9 apart, so _exact_sub rounds them through _sub's
    # sticky path instead of shifting by the whole gap.  The tables still
    # agree with the same loop at four times the bits.
    wide = PrecisionContext.create(bits=4 * CTX.bits, tol_exp=4 * CTX.bits - 56)
    x = mpmath.ldexp(3 * sign, exponent)
    q = mpmath.mpf(0.7)   # a double, the same value at both precisions
    pairs = [(qinv_hermite_tables(30, [x], q, ctx)[0],
              dual_ultra_tables(30, [x], 1, q, ctx)[0]) for ctx in (CTX, wide)]
    for got, want in zip(pairs[0], pairs[1]):
        with wide.workprec():
            for g, w in zip(got, want):
                assert abs(g - w) <= CTX.tol * abs(w), (x, g, w)


# -- one-point evaluators against the routes they stand for --------------------


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.05", "0.5", "0.7", "0.999"])
def test_one_point_evaluators_equal_their_table_rows(q_s, bits):
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    q = as_qparam(q_s, ctx)
    with ctx.workprec():
        s_values = ("0.45", "1", 1 / q)
    for n in (0, 1, 7, 30):
        for x in ("-2.5", "0", "0.3", "17"):
            assert raw([qinv_hermite(n, x, q, ctx)]) == raw(qinv_hermite_table(n, x, q, ctx)[-1:])
            for s in s_values:
                want = dual_ultra_table(n, x, s, q, ctx)[-1:]
                assert raw([dual_ultra(n, x, s, q, ctx)]) == raw(want)
            if x != "0":
                with ctx.workprec():
                    want = qinv_hermite_table(2 * n + 1, x, q, ctx)[-1] / mpmath.mpf(x)
                assert raw([even_hermite_factor(n, x, q, ctx)]) == raw([want])


# -- the C and grid D series against their exact sums -------------------------
#
# The exact sum at the binary inputs takes integers of about 1.5 10^6 bits at
# 1024 bits and n = 22 (0.8 s a value as Fractions), so the sums, terms and
# amplifications are enclosed by mpmath's interval arithmetic at bits + 64
# bits, which rounds outward: each exact value lies in its interval, and a
# bound formed from the intervals' upper ends bounds the exact one.


@contextlib.contextmanager
def _iv_prec(prec):
    """mpmath.iv at prec bits, restored on exit."""
    old, iv.prec = iv.prec, prec
    try:
        yield
    finally:
        iv.prec = old


def _exact_series(nums, z, s, q, stop, bits):
    """(sum, terms, steps) of the 3phi2 of families._ultra_series at the
    exact parameters nums and z (intervals) and inputs s and q, as intervals:
    steps[j] = (amplifications |v / (1 - v)| for v = a_i q^j, and for
    v = sqrt(s) q^(j+1) and -sqrt(s) q^(j+1); l_j; g_j)."""
    with _iv_prec(bits + 64):
        rs, qk, terms, steps = iv.sqrt(s) * q, iv.mpf(1), [iv.mpf(1)], []
        for j in range(stop):
            vs = [a * qk for a in nums] + [rs * qk, -rs * qk]
            num = z
            for v in vs[:3]:
                num *= 1 - v
            qk *= q
            g = 1 - s * qk * qk
            terms.append(terms[-1] * num / ((1 - qk) * g))
            steps.append(([abs(v / (1 - v)) for v in vs], qk / (1 - qk), g))
        return sum(terms), terms, steps


def _rounding_bound(terms, steps, counts, z_count, q, u, loop):
    """u sum_k (c_k + K) |t_k| with the counts c_k of _ultra_series' docstring
    (loop "ultra"), or of basic_hypergeometric's loop at u = 2^-bits (loop
    "basic"): per step, round(z / round(1 - q^(j+1))), a division by each
    round(1 - round(b q^j)), a product with each round(1 - round(a q^j)), and
    the product with the term."""
    c, y, total, K = 0, iv.mpf(1), iv.mpf(0), len(steps)
    for j, (kappas, l, g) in enumerate(steps):
        total += (c + K) * abs(terms[j])
        if terms[j + 1] == 0:   # a factor 1 - a_i q^j is exactly 0, and formed exactly here
            return u * total
        if loop == "ultra":
            c += z_count + sum(k * (p + j) + 1 for k, p in zip(kappas, counts)) + l * j + y + 6
            if j + 1 < K:
                y = (q * q * abs(g) * (y + 1) + 1 - q * q) / abs(steps[j + 1][2]) + 1
        else:
            c += z_count + sum(k * (p + j + 1) + 2 for k, p in zip(kappas, counts)) + l * j + 3
    return u * (total + (c + K) * abs(terms[K]))


def _pow_count(t, q):
    """The count of mpf_pow's q^t that _ultra_series' docstring states."""
    return 2 if mpmath.isint(t) else 2 + abs(t) * (1 + abs(mpmath.log(q))) / 512


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.05", "0.277857", "0.5", "0.7", "0.999"])
def test_grid_series_are_within_their_bound_of_the_exact_sums(q_s, bits, monkeypatch):
    # C and grid D within _ultra_series' a-priori bound of the exact sums at
    # the binary inputs, at the route's cutoff (n, or a grid label x < n);
    # basic_hypergeometric, given each parameter rounded once (count at most
    # 2), within the same count of its own loop at 2^-bits.
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    q = as_qparam(q_s, ctx)
    stops, real = [], families._ultra_series

    def spy(nums, z, s, q, stop, wp, ctx):
        assert wp == bits + 32   # the guard the bound below assumes
        stops.append(stop)
        return real(nums, z, s, q, stop, wp, ctx)
    monkeypatch.setattr(families, "_ultra_series", spy)

    def check(value, nums, z, s, stop, counts, z_count):
        with _iv_prec(bits + 64):
            q_i = iv.mpf(q)
            total, terms, steps = _exact_series(nums, z, s, q_i, stop, bits)
            bound = abs(total) * mpmath.mpf(2) ** -bits + 1.01 * _rounding_bound(
                terms, steps, counts, z_count, q_i, iv.mpf(2) ** -(bits + 32), "ultra")
            assert abs(iv.mpf(value) - total).b <= bound.a, (nums, stop)
            # basic_hypergeometric, on the same sum with sqrt(s) q and -sqrt(s) q
            with ctx.workprec():
                num = [mpmath.mpf(a.mid) for a in nums]
                rs = mpmath.mpf((iv.sqrt(s) * q).mid)
                generic = basic_hypergeometric(num, [rs, -rs], q, mpmath.mpf(z.mid), ctx,
                                               terminating_at=stop)
            bound = 1.01 * _rounding_bound(terms, steps, [2] * 5, 2, q_i,
                                           iv.mpf(2) ** -bits, "basic")
            assert abs(iv.mpf(generic) - total).b <= bound.a, (nums, stop)

    for n in (0, 1, 5, 22):
        for s_s in ("0.45", "1", "1.079991"):
            s = ctx.to_real(s_s)
            dual = _fraction(s) * _fraction(q) ** 2 < 1
            with _iv_prec(bits + 64):
                s_i, q_i = iv.mpf(s), iv.mpf(q)
                params = [q_i ** -n, -s_i * q_i ** (n + 1)]
            for x_s in ("-1.5", "0", "0.734134"):
                x = ctx.to_real(x_s)
                value = discrete_ultra(n, x_s, s_s, q, ctx)
                assert stops[-1] == n
                check(value, params + [iv.mpf(x)], iv.mpf(q), s_i, n, [2, 3, 0], 0)
            if not dual:
                continue
            # labels below, at and past n (4 and 16 have the largest power
            # of two below 5 and 22), negative, not an integer, and an
            # integer past 2^256
            for x_s in ("0", "2", "3", "4", "7", "16", "40", "-3", "2.5", "1e90"):
                x = ctx.to_real(x_s)
                cutoff = int(x) if mpmath.isint(x) and 0 <= x < n else n
                value = dual_ultra_series(n, x_s, s_s, q, ctx)
                assert stops[-1] == cutoff
                with _iv_prec(bits + 64):
                    x_i = iv.mpf(x)
                    nums = [q_i ** -x_i, s_i * q_i ** (x_i + 1), q_i ** -n]
                    z = -q_i ** (n + 1)
                count = _pow_count(x, q)
                check(value, nums, z, s_i, cutoff, [count, count + 1, 2], 2)


# -- the h series against its sum at four times the bits ----------------------
#
# Each value is held to the bound its own first pass returned, or, when that
# bound missed the budget tol/4 and the value was summed again, to the budget
# and the final rounding.  The references are the unfolded sum over the full
# row, with ** powers and the q-binomial by its ratios, from the exact q.


def _hermite_sum_at(bits, n, q, factor):
    """sum_k (-1)^k q^{k(k-n)} [n,k]_q factor(k) at the given bits, from the
    exact value of q, with ** powers and the q-binomial by its ratios."""
    with mpmath.mp.workprec(bits):
        total, binom = mpmath.mpf(0), mpmath.mpf(1)
        for k in range(n + 1):
            total += (-1) ** k * q ** (k * (k - n)) * binom * factor(k)
            binom = binom * (1 - q ** (n - k)) / (1 - q ** (k + 1))
        return total


def _hermite_series_at_4x_bits(n, phi, q, ctx):
    """h_n(sinh(phi)|q), q and phi rounded to ctx.bits as the package rounds
    them, summed at 4 ctx.bits: the terms of this grid (n <= 30) stay below
    2^527, so at 1024 bits or more the sum keeps about 490 bits or more."""
    q, phi = as_qparam(q, ctx), ctx.to_real(phi)
    with mpmath.mp.workprec(4 * ctx.bits):
        e = mpmath.exp(phi)
    return _hermite_sum_at(4 * ctx.bits, n, q, lambda k: e ** (n - 2 * k))


def _recorded(monkeypatch, name):
    """Patch families.<name> to record (args, result) of every call."""
    calls, fn = [], getattr(families, name)

    def recorded(*args):
        out = fn(*args)
        calls.append((args, out))
        return out
    monkeypatch.setattr(families, name, recorded)
    return calls


def _within_first_pass_or_budget(got, ref, calls, ctx):
    """got is the first pass's value and within that pass's bound of ref, or,
    after a rerun, within tol/4 and the final rounding of ref; whether it
    was summed again."""
    (_, (total, bound)), reran = calls[0], len(calls) > 1
    with mpmath.mp.workprec(4 * ctx.bits):
        if reran:
            allowed = ctx.tol / 4 + mpmath.ldexp(1, -ctx.bits)
        else:
            assert got == _mpf(total)
            allowed = _mpf(bound)
        assert abs(got - ref) <= allowed * max(1, abs(ref))
    return reran


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.2", "0.5", "0.9"])
def test_hermite_series_is_within_its_pass_bound_of_the_4x_bits_sum(q_s, bits, monkeypatch):
    from qortho.identities import DEFAULT_PHI_GRID
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    q = as_qparam(q_s, ctx)
    passes = _recorded(monkeypatch, "_hermite_series_pass")
    repasses = []
    for n in range(31):
        for phi in DEFAULT_PHI_GRID:
            passes.clear()
            got = qinv_hermite_series(n, phi, q_s, ctx)
            ref = _hermite_series_at_4x_bits(n, phi, q_s, ctx)
            calls = [(args, out[0][0]) for args, out in passes]
            if _within_first_pass_or_budget(got, ref, calls, ctx):
                repasses.append((n, phi))
    lines = _recorded(monkeypatch, "_linear_coefficient_pass")
    for k in range(15):
        lines.clear()
        n = 2 * k + 1
        got = even_hermite_factor(k, 0, q_s, ctx)
        ref = _hermite_sum_at(4 * bits, n, q, lambda j: n - 2 * j)
        _within_first_pass_or_budget(got, ref, lines, ctx)
    # The re-pass is covered: odd degrees sum to 0 at phi = 0, from terms
    # up to q^(-n^2/4), and at every q of this grid h_29(0) is summed again.
    assert (29, "0") in repasses


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.2", "0.99", "0.999"])
def test_folded_odd_degrees_are_within_their_bound_at_small_phi(q_s, bits, monkeypatch):
    # For odd n the folded factor E^j - E^-j cancels at small j phi, while
    # its error is that of E^j and E^-j: the bound takes t_max from
    # |c_k| (E^j + E^-j), not from the folded term, which would be about
    # 2 j phi |c_k| and short of the error by about 1 / phi.
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    phis = [mpmath.ldexp(1, -100), ctx.to_real("1e-30"), ctx.to_real("1e-8")]
    passes = _recorded(monkeypatch, "_hermite_series_pass")
    qinv_hermite_series_tables([1, 15, 29], phis, q_s, ctx)
    assert passes[0][0][0] == [1, 15, 29]
    for (ns, at, q, _), out in passes:
        for phi, sums in zip(at, out):
            with mpmath.mp.workprec(2000):
                e = mpmath.exp(phi)
            for n, (total, bound) in zip(ns, sums):
                ref = _hermite_sum_at(2000, n, q, lambda k: e ** (n - 2 * k))
                with mpmath.mp.workprec(2000):
                    assert abs(_mpf(total) - ref) <= _mpf(bound) * max(1, abs(ref)), (n, phi)


@pytest.mark.parametrize("bits,tol_exp", [(256, 200), (1024, 800)])
@pytest.mark.parametrize("q_s", ["0.2", "0.5", "0.9", "0.99"])
def test_series_over_degrees_equals_the_per_degree_path(q_s, bits, tol_exp, monkeypatch):
    from qortho import families
    from qortho.identities import DEFAULT_PHI_GRID
    ctx = PrecisionContext.create(bits=bits, tol_exp=tol_exp)
    phis = [ctx.to_real(phi) for phi in DEFAULT_PHI_GRID]
    passes, pass_ = [], families._hermite_series_pass

    def counted(ns, phis, q, prec):
        passes.append((list(ns), list(phis)))
        return pass_(ns, phis, q, prec)
    monkeypatch.setattr(families, "_hermite_series_pass", counted)
    for degrees in (range(31), range(0, 31, 2), range(1, 31, 2)):
        passes.clear()
        got = qinv_hermite_series_tables(degrees, DEFAULT_PHI_GRID, q_s, ctx)
        # one first pass serves the whole grid; a rerun sums one (n, phi)
        assert passes[0] == (list(degrees), phis)
        assert all(len(ns) == len(at) == 1 for ns, at in passes[1:])
        want = [[qinv_hermite_series(n, phi, q_s, ctx) for n in degrees]
                for phi in DEFAULT_PHI_GRID]
        assert [[v._mpf_ for v in row] for row in got] == [[v._mpf_ for v in row] for row in want]
    # Only a degree whose bound misses the budget is summed again: h_n(0) = 0
    # for odd n, from terms up to q^(-n^2/4), so at q = 0.2 the top odd
    # degrees rerun (21 to 29 at 1024 bits), each in a pass of its own.
    passes.clear()
    qinv_hermite_series_tables(range(1, 31, 2), [0], q_s, ctx)
    assert passes[0] == (list(range(1, 31, 2)), [0])
    reruns = passes[1:]
    assert all(len(ns) == 1 and ns[0] % 2 for ns, _ in reruns)
    if q_s == "0.2":
        assert len(reruns) >= 5


def test_series_tables_build_each_row_once(monkeypatch):
    # Degrees 0..39 over the seven phis of the default grid, more rows than
    # a 32-row memo keeps across phis.  A call builds each degree's half row
    # once, in its one first pass, from one run of q, and takes one run of
    # E = exp(phi) per phi, for both parities; a rerun builds the half row of
    # its own degree, from runs of its own, and one run of E for that
    # degree's parity.
    from qortho.identities import DEFAULT_PHI_GRID
    builds, runs, row_runs = [], [], []
    rows_, factors_, run_ = families._hermite_rows, families._hermite_factors, families.power_run

    def rows(ns, q, prec):
        builds.append((list(ns), prec))
        return rows_(ns, q, prec)

    def factors(phi, top, parities, prec):
        runs.append((top, list(parities), prec))
        return factors_(phi, top, parities, prec)

    def power_run(x, lo, hi, prec):
        row_runs.append(x)
        return run_(x, lo, hi, prec)
    monkeypatch.setattr(families, "_hermite_rows", rows)
    monkeypatch.setattr(families, "_hermite_factors", factors)
    monkeypatch.setattr(families, "power_run", power_run)
    qinv_hermite_series_tables(range(40), DEFAULT_PHI_GRID, "0.7", CTX)
    assert builds[0] == (list(range(40)), CTX.bits)
    reruns = builds[1:]
    assert reruns and all(len(ns) == 1 and prec > CTX.bits for ns, prec in reruns)
    assert row_runs == [_pair(as_qparam("0.7", CTX))] * len(builds)
    assert runs[:len(DEFAULT_PHI_GRID)] == [(39, [0, 1], CTX.bits)] * len(DEFAULT_PHI_GRID)
    assert runs[len(DEFAULT_PHI_GRID):] == [(n, [n % 2], prec) for [n], prec in reruns]


@pytest.mark.parametrize("q_s", ["0.99", "0.999"])
def test_series_error_is_within_its_bound_on_every_pass(q_s, monkeypatch):
    # Near q = 1 the row's differences 1 - q^i lose about log2(1/(1 - q))
    # bits each: the summation roundoff (n + 1) max|term| 2^-bits alone was
    # 3.2 times short of the error at q = 0.99 and 17.7 times at q = 0.999
    # (n = 4, phi = 0).
    from qortho import families
    from qortho.identities import DEFAULT_PHI_GRID
    passes, pass_ = [], families._hermite_series_pass

    def recorded(ns, phis, q, prec):
        out = pass_(ns, phis, q, prec)
        passes.append((list(ns), list(phis), q, out))
        return out
    monkeypatch.setattr(families, "_hermite_series_pass", recorded)
    qinv_hermite_series_tables(range(31), DEFAULT_PHI_GRID, q_s, CTX)
    assert len(passes[0][1]) == len(DEFAULT_PHI_GRID)
    for ns, phis, q, out in passes:
        for phi, sums in zip(phis, out):
            with mpmath.mp.workprec(2000):
                e = mpmath.exp(phi)
            for n, (total, bound) in zip(ns, sums):
                ref = _hermite_sum_at(2000, n, q, lambda k: e ** (n - 2 * k))
                with mpmath.mp.workprec(2000):
                    assert abs(_mpf(total) - ref) <= _mpf(bound) * max(1, abs(ref)), (n, phi)


@pytest.mark.parametrize("k", [27, 30])
@pytest.mark.parametrize("q_s", ["0.99", "0.999"])
def test_even_cofactor_at_zero_is_certified(q_s, k):
    # The sum of the linear coefficient cancels: summed once at 256 bits it
    # missed tol * max(1, |ht|) by 26 to 1,587 times at q = 0.99 and by 11
    # to 146 times at q = 0.999.
    q, n = as_qparam(q_s, CTX), 2 * k + 1
    ref = _hermite_sum_at(3000, n, q, lambda j: n - 2 * j)
    got = even_hermite_factor(k, 0, q, CTX)
    with mpmath.mp.workprec(3000):
        assert abs(got - ref) <= CTX.tol * max(1, abs(ref))


@pytest.mark.parametrize("n,phi", [(5, "0.4"), (12, "1.3"), (21, "-0.7")])
def test_hermite_series_below_its_rounding_floor_raises(n, phi):
    # A value rounded to 128 bits carries up to 2^-128 relatively, far above
    # tol/4 = 2^-202; these calls returned values off by 1.2e-38 to 1.8e-37.
    shallow = PrecisionContext.create(bits=128, tol_exp=200)
    with pytest.raises(TruncationFailure, match="below the rounding floor"):
        qinv_hermite_series(n, phi, "0.7", shallow)
    # At the floor itself the value is within its budget, plus the final
    # rounding, of a 1024-bit value at the same rounded q and phi.
    edge = PrecisionContext(bits=128, tol=shallow.rounding_floor)
    deep = PrecisionContext.create(bits=1024, tol_exp=800)
    got = qinv_hermite_series(n, phi, "0.7", edge)
    ref = qinv_hermite_series(n, edge.to_real(phi), edge.to_real("0.7"), deep)
    with mpmath.mp.workprec(1024):
        assert abs(got - ref) <= (edge.tol / 4 + mpmath.ldexp(1, -127)) * max(1, abs(ref))


# -- the h-series sum on pairs against the operator loop ----------------------


def _operator_hermite_sum(row, factors, tops):
    """_hermite_sum written with mpf operators, the reference its pair loop
    must equal bit for bit; the row and factors are stored as pairs, so each
    is wrapped first."""
    total = mpmath.mpf(0)
    tmax = mpmath.mpf(0)
    for c, factor, top in zip(map(_mpf, row), map(_mpf, factors), tops):
        total += c * factor
        tmax = max(tmax, abs(mpmath.ldexp(c, top)))
    return total, tmax


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q_s", ["0.2", "0.5", "0.9", "0.99"])
def test_hermite_raw_sum_equals_operator_loop(q_s, bits):
    with mpmath.mp.workprec(bits):
        q = mpmath.mpf(q_s)
        for n in range(31):
            # the integer factors of the linear coefficient at x = 0
            row = _hermite_rows([n], q, bits)[n]
            assert len(row) == n // 2 + 1
            ints = [(2 * (n - 2 * j), 0) for j in range(n // 2 + 1)]
            tops = [f.bit_length() for f, _ in ints]
            got = _hermite_sum(row, ints, tops, bits)
            want = _operator_hermite_sum(row, ints, tops)
            assert [_mpf(v)._mpf_ for v in got] == [v._mpf_ for v in want]
            for phi in ("-2", "-0.5", "0", "1.25"):
                factors, tops = families._hermite_factors(mpmath.mpf(phi), n, [n % 2], bits)
                got = _hermite_sum(row, factors[n::-2], tops[n::-2], bits)
                want = _operator_hermite_sum(row, factors[n::-2], tops[n::-2])
                assert [_mpf(v)._mpf_ for v in got] == [v._mpf_ for v in want]


# -- independent routes agree over the benchmark's point domain ---------------
#
# Each value is compared with the package's other route for it, as the
# points workload compares them, to tol * max(1, |ref|): h by recurrence and
# by series, ht against the series over x, and D by recurrence and by grid
# series.  A loss of accuracy in the powers of any route fails here.  The
# largest miss measured on this grid is 0.03 tol, for D at 256 bits and
# q = 0.2.  The grid stops above q = 0.05, where D misses at n = 30 for
# both routes (a rounding defect, not one of the powers).

ROUTE_N = (0, 1, 15, 30)


@pytest.mark.parametrize("bits,tol_exp", [(256, 200), (1024, 800)])
@pytest.mark.parametrize("q_s", ["0.2", "0.35", "0.7", "0.95", "0.99"])
def test_independent_routes_agree_over_point_domain(q_s, bits, tol_exp):
    ctx = PrecisionContext.create(bits=bits, tol_exp=tol_exp)
    q = as_qparam(q_s, ctx)
    misses = []

    def agree(what, value, ref):
        with ctx.workprec():
            if not abs(value - ref) <= ctx.tol * max(1, abs(ref)):
                misses.append((what, mpmath.nstr(value, 12), mpmath.nstr(ref, 12)))

    with ctx.workprec():
        phis = [mpmath.mpf(v) for v in ("-1.9", "-0.4", "0.3", "1.7")]
        xs = [mpmath.mpf(v) for v in ("-3.4", "-0.6", "0.25", "2.9")]
    for n in ROUTE_N:
        for phi in phis:
            with ctx.workprec():
                x = mpmath.sinh(phi)
            agree(("h series", n, phi), qinv_hermite_series(n, phi, q, ctx),
                  qinv_hermite(n, x, q, ctx))
        for x in xs:
            with ctx.workprec():
                phi = mpmath.asinh(x)
            agree(("h recurrence", n, x), qinv_hermite(n, x, q, ctx),
                  qinv_hermite_series(n, phi, q, ctx))
            with ctx.workprec():
                ref = qinv_hermite_series(2 * (n // 2) + 1, phi, q, ctx) / x
            agree(("ht", n // 2, x), even_hermite_factor(n // 2, x, q, ctx), ref)
        agree(("ht at 0", n // 2), even_hermite_factor(n // 2, 0, q, ctx),
              qinv_hermite_coeffs(2 * (n // 2) + 1, q, ctx)[1])
        for s_s in ("0.1", "0.6", "1"):
            for x_s in ("0", "3", "17", "30", "0.5", "12.25", "29.75"):
                mu = mu_point(x_s, s_s, q, ctx).mu
                agree(("D", n, s_s, x_s), dual_ultra(n, mu, s_s, q, ctx),
                      dual_ultra_series(n, x_s, s_s, q, ctx))
    assert misses == []
