"""Executable checks for every identity the library's families satisfy.

Each check returns an IdentityReport with the worst relative residual over
its sample grid (the points of PHI_GRID for the two connections, the
recurrence chains and the inverted-parameter recurrence), built by _judged,
which passes it by the package's one verdict rule (kernel._verdict: tol at
or above the rounding floor of ctx.bits, and the residual below tol).
Every residual is formed by the package's one residual rule,
|LHS - RHS| / scale with the difference and the quotient each rounded once
(kernel._relative_residual); most take the scale max(1, |LHS|) (_residual),
because the quantities involved span many orders of magnitude, and the
recurrence chains the power of two 2^top at or above every term
(_chain_residual), because their terms cancel.  The suite covers:

* the closed-form connections between even / odd q-inverse Hermite
  polynomials and the dual discrete q-ultraspherical family at s = q^-1 and
  s = q (checked with independent evaluators on both sides),
* the squared-argument recurrence chains those connections rest on,
* the infinite-product chain relating (q^2;q^2)_inf/(q;q^2)_inf to three
  restatements (the chain's third constant is q/2; the alternative constant
  2/q is evaluated alongside and reported for contrast),
* the equivalence of the two half-lattice orthogonality relations with the
  full-lattice extremal relation at a = q, including the vanishing
  cross-parity block,
* the real form of the parameter-inversion map between the two Hermite-type
  recurrences,
* the orthogonality of every measure kind, and the extremal normalization
  constant Z(a) against the lattice mass (the alternative constant with
  (-q/a;q)_inf is evaluated alongside and reported for contrast).

Residuals are formed on the kernel's pairs: one pair operation for each
operation of the mpf expression they replace, in its order and at
ctx.bits, each rounded once, so each is that expression's value bit for
bit wherever mpmath rounds correctly.  Values are read as pairs from the
family recurrences, converted once where they arrive as mpf, and reported
as mpf once per check.  The transcendental functions (exp, sinh, asinh and sqrt) are
mpmath's, called with prec=ctx.bits, and the powers q^k are
kernel._q_power's (mpf_pow_int at ctx.bits), each converted to a pair
once: no function of the package reads or sets mpmath's global precision.
"""
from __future__ import annotations

import types
from typing import NamedTuple

import mpmath

from .families import (FamilyKind, FamilySpec, _recurrence,
                       qinv_hermite_series_tables)
from .kernel import (_ONE, _ZERO, DEFAULT_CONTEXT, PrecisionContext, QReal, _abs_lt, _add,
                     _below_floor, _check_degree, _div, _larger, _largest, _mpf, _mul, _pair,
                     _q_power, _relative_residual, _round, _shift, _sub, _verdict, as_qparam,
                     power_run, qpochhammer, qpochhammer_inf, to_decimal)
from .measures import (MeasureKind, _default_a, _pair_sums, _root, adjudicate_normalization,
                       dual_base, dual_q_extremal, dual_qinv_extremal,
                       gram_matrix, hermite_extremal)

# The points phi (x for inverted-parameter-recurrence) every grid check runs on.
PHI_GRID = ("-2", "-1", "-0.5", "0", "0.5", "1", "2")


class IdentityReport(NamedTuple):
    identity_id: str
    grid: str
    max_residual: QReal
    passed: bool
    details: dict[str, str]

    def to_dict(self, digits: int) -> dict:
        return {
            "id": self.identity_id,
            "grid": self.grid,
            "max_residual": to_decimal(self.max_residual, digits),
            "pass": self.passed,
            "details": self.details,
        }


def _judged(identity_id: str, grid: str, residual: QReal, ctx: PrecisionContext,
            details: dict[str, str]) -> IdentityReport:
    """The report of a check whose worst residual is residual, which passes
    by kernel._verdict at ctx.  Every IdentityReport is built here."""
    return IdentityReport(identity_id, grid, residual, _verdict(residual, ctx.tol, ctx.bits),
                          details)


def _report(identity_id: str, grid: str, residuals: dict[str, tuple[int, int]],
            ctx: PrecisionContext, contrast: str | None = None) -> IdentityReport:
    """The report of the named residuals, given as pairs: the details show
    each one at ctx.digits, and the largest, leaving out the contrast
    (shown, not counted), is the max_residual that _judged passes."""
    residuals = {name: _mpf(value) for name, value in residuals.items()}
    worst = max(value for name, value in residuals.items() if name != contrast)
    return _judged(identity_id, grid, worst, ctx, {name: to_decimal(value, ctx.digits)
                                                   for name, value in residuals.items()})


def _residual(lhs: tuple[int, int], rhs: tuple[int, int], prec: int) -> tuple[int, int]:
    """kernel._relative_residual at the scale max(1, |lhs|), |lhs| rounded
    once to prec bits, operands of any length (series values formed wider
    than the check) included: on operands of at most prec + 4 bits, the
    value of abs(lhs - rhs) / max(mpf(1), abs(lhs))."""
    size = _round((abs(lhs[0]), lhs[1]), prec)
    return _relative_residual(lhs, rhs, size if _abs_lt(_ONE, size) else _ONE, prec)


def _tables(kind: FamilyKind, n_max: int, points, q, ctx: PrecisionContext,
            s=None) -> list[list[tuple[int, int]]]:
    """[[P_0(p), ..., P_{n_max}(p)] for p in points] of h or D as pairs, by
    the recurrence of families' tables; each point a pair of at most
    ctx.bits bits."""
    values = _recurrence(FamilySpec(kind, q, s), n_max, ctx)[0]
    return [values(p) for p in points]


def _phi_points(ctx: PrecisionContext):
    """(phis, ys, two_sinhs) for the points of PHI_GRID: each phi as an mpf
    at ctx.bits, and y = e^{2phi} + e^{-2phi} and 2 sinh phi = e^phi - e^{-phi}
    as pairs, each exp taken at ctx.bits of the exact multiple of phi and
    each sum rounded once to ctx.bits."""
    prec = ctx.bits
    phis = [ctx.to_real(p) for p in PHI_GRID]

    def exp(phi, k: int) -> tuple[int, int]:   # e^{k phi}
        m, e = _pair(phi)
        return _pair(mpmath.exp(_mpf((k * m, e)), prec=prec))
    return (phis, [_add(exp(phi, 2), exp(phi, -2), prec) for phi in phis],
            [_sub(exp(phi, 1), exp(phi, -1), prec) for phi in phis])


def _connection(parity: int, n_max: int, ys, q, ctx: PrecisionContext):
    """The connection h_{2n+p}(sinh phi) = c_n (2 sinh phi)^p D_n(mu; s, q).

    Returns s, [c_0, ..., c_{n_max}] as pairs and, as pairs, the mu of each
    pair y = e^{2phi} + e^{-2phi} in ys, where
    c_n = (-1)^n q^{-n(n+p)} (q^{1+2p};q^2)_n, and s = q^-1 with mu = y for
    p = 0, s = q with mu = q y for p = 1; each operation rounded to ctx.bits.
    """
    prec, q_p = ctx.bits, _pair(q)
    s = _mpf(_div(_ONE, q_p, prec)) if parity == 0 else q
    base = q if parity == 0 else _mpf(_q_power(q, 3, prec))
    q2, c = _mpf(_mul(q_p, q_p, prec)), []
    for n in range(n_max + 1):
        m, e = _q_power(q, -n * (n + parity), prec)
        c.append(_mul(((-1) ** n * m, e), _pair(qpochhammer(base, q2, n, ctx)), prec))
    return s, c, list(ys) if parity == 0 else [_mul(q_p, y, prec) for y in ys]


def _check_connection(identity_id: str, parity: int, k_max: int, q,
                      ctx: PrecisionContext) -> IdentityReport:
    """h_{2k+p} by the explicit series against c_k (2 sinh phi)^p D_k by the recurrence."""
    _check_degree("k_max", k_max)
    q = as_qparam(q, ctx)
    prec = ctx.bits
    phis, ys, two_sinhs = _phi_points(ctx)
    s, c, mus = _connection(parity, k_max, ys, q, ctx)
    h_tables = qinv_hermite_series_tables([2 * k + parity for k in range(k_max + 1)],
                                          phis, q, ctx)
    d_tables = _tables(FamilyKind.DUAL_DISCRETE_ULTRA, k_max, mus, q, ctx, s)
    worst = _ZERO
    for two_sinh, hs, dvals in zip(two_sinhs, h_tables, d_tables):
        for k, lhs in enumerate(hs):
            rhs = (_mul(c[k], dvals[k], prec) if parity == 0
                   else _mul(_mul(c[k], two_sinh, prec), dvals[k], prec))
            worst = _larger(worst, _residual(_pair(lhs), rhs, prec))
    return _judged(identity_id, "k <= %d, phi in %s" % (k_max, list(PHI_GRID)), _mpf(worst),
                   ctx, {})


def check_even_connection(k_max: int, q,
                          ctx: PrecisionContext = DEFAULT_CONTEXT) -> IdentityReport:
    """h_{2k}(sinh phi|q) = (-1)^k q^{-k^2} (q;q^2)_k D_k(e^{2phi}+e^{-2phi}; q^-1, q).

    The left side uses the explicit series, the right side the three-term
    recurrence of the dual family, so the two sides share no code path.
    """
    return _check_connection("even-connection", 0, k_max, q, ctx)


def check_odd_connection(k_max: int, q,
                         ctx: PrecisionContext = DEFAULT_CONTEXT) -> IdentityReport:
    """h_{2k+1}(sinh phi|q) = (-1)^k q^{-k(k+1)} (q^3;q^2)_k (2 sinh phi) D_k(q e^{2phi}+q e^{-2phi}; q, q)."""
    return _check_connection("odd-connection", 1, k_max, q, ctx)


def _chain_residual(parity: int, mu, v, k_max: int, q, mid, low,
                    prec: int) -> tuple[int, int]:
    """Worst residual of mu v_n = q^p v_{n+1} + mid[n] v_n + low[n] v_{n-1}
    over n <= k_max, where low[n] = q^{-4n+1-p} (1-q^{2n}) (1-q^{2n-1+2p});
    every argument a pair or a list of pairs.

    The scale is 2^top, top the largest of 0 and the top bit e + bitlen(m)
    of each nonzero term m 2^e, mu v_n and the right side's: so 2^top is at
    least max(1, |term|) for every term, and |lhs - rhs| < tol 2^top is
    what a PASS means.  The terms reach q^-4n and cancel, so the scale is
    the largest of them, not |lhs|, lest their own rounding exceed tol; the
    division by 2^top is a shift."""
    worst = _ZERO
    for n in range(k_max + 1):
        terms = [_mul(mu, v[n], prec), v[n + 1] if parity == 0 else _mul(q, v[n + 1], prec),
                 _mul(mid[n], v[n], prec)]
        rhs = _add(terms[1], terms[2], prec)
        if n >= 1:
            terms.append(_mul(low[n], v[n - 1], prec))
            rhs = _add(rhs, terms[3], prec)
        top = max([0] + [e + m.bit_length() for m, e in terms if m])
        worst = _larger(worst, _relative_residual(terms[0], rhs, (1, top), prec))
    return worst


def check_recurrence_chains(k_max: int, q,
                            ctx: PrecisionContext = DEFAULT_CONTEXT) -> IdentityReport:
    """The squared-argument recurrences behind the two connections.

    Even side: (e^{2phi}+e^{-2phi}) h_{2k} = h_{2k+2}
        + q^{-2k}(1+q^-1) h_{2k} + q^{-4k+1}(1-q^{2k})(1-q^{2k-1}) h_{2k-2},
    and the same recurrence for T_n = (-1)^n q^{-n^2} (q;q^2)_n D_n(y; q^-1, q).
    Odd side: q(e^{2phi}+e^{-2phi}) h_{2k+1} = q h_{2k+3}
        + q^{-2k}(1+q^-1) h_{2k+1} + q^{-4k}(1-q^{2k})(1-q^{2k+1}) h_{2k-1},
    and its mirror for Tt_n = (-1)^n q^{-n(n+1)} (q^3;q^2)_n D_n(qy; q, q),
    whose leading term carries the extra factor q.
    """
    _check_degree("k_max", k_max)
    q = as_qparam(q, ctx)
    prec, q_p = ctx.bits, _pair(q)
    phis, ys, _ = _phi_points(ctx)
    h_tables = _tables(FamilyKind.QINV_HERMITE, 2 * k_max + 3,
                       [_pair(mpmath.sinh(phi, prec=prec)) for phi in phis], q, ctx)
    worst = dict.fromkeys(("even-hermite", "even-dual", "odd-hermite", "odd-dual"), _ZERO)

    def power(k: int) -> tuple[int, int]:
        return _q_power(q, k, prec)
    # The phi-free coefficients, formed once: mid[n] of each side, and
    # low[n] of each parity (low[0] is never read).
    one_plus = _add(_ONE, _div(_ONE, q_p, prec), prec)   # 1 + 1/q
    mid_hermite = [_mul(power(-2 * k), one_plus, prec) for k in range(k_max + 1)]
    mid_dual = [_mul(power(-2 * n - 1), _add(_ONE, q_p, prec), prec) for n in range(k_max + 1)]
    for parity, side in enumerate(("even", "odd")):
        low = [None] + [_mul(_mul(power(-4 * n + 1 - parity), _sub(_ONE, power(2 * n), prec),
                                  prec), _sub(_ONE, power(2 * n - 1 + 2 * parity), prec), prec)
                        for n in range(1, k_max + 1)]
        s, c, mus = _connection(parity, k_max + 1, ys, q, ctx)
        d_tables = _tables(FamilyKind.DUAL_DISCRETE_ULTRA, k_max + 1, mus, q, ctx, s)
        for mu, hs, dvals in zip(mus, h_tables, d_tables):
            res = _chain_residual(parity, mu, hs[parity::2], k_max, q_p,
                                  mid_hermite, low, prec)
            worst[side + "-hermite"] = _larger(worst[side + "-hermite"], res)
            t = [_mul(c_n, d, prec) for c_n, d in zip(c, dvals)]
            res = _chain_residual(parity, mu, t, k_max, q_p, mid_dual, low, prec)
            worst[side + "-dual"] = _larger(worst[side + "-dual"], res)
    return _report("recurrence-chains", "k <= %d, phi in %s" % (k_max, list(PHI_GRID)), worst,
                   ctx)


def check_product_chain(q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> IdentityReport:
    """(q^2;q^2)_inf/(q;q^2)_inf restated three ways.

    The chain: = (-q;q)_inf^2 (q;q)_inf
               = (1/2) (-1;q)_inf (-q;q)_inf (q;q)_inf
               = (q/2) (-q^2;q)_inf (-q^-1;q)_inf (q;q)_inf.
    The constant q/2 in the third member is forced by
    (-q^-1;q)_inf = (1+q^-1)(-1;q)_inf and (-q^2;q)_inf = (-q;q)_inf/(1+q);
    the residual against the alternative constant 2/q is reported for
    contrast.
    """
    q = as_qparam(q, ctx)
    prec, q_p = ctx.bits, _pair(q)
    (qm, qe), (q2m, q2e) = q_p, _mul(q_p, q_p, prec)
    q2 = _mpf((q2m, q2e))
    base = _div(_pair(qpochhammer_inf(q2, q2, ctx)), _pair(qpochhammer_inf(q, q2, ctx)), prec)
    euler = _pair(qpochhammer_inf(q, q, ctx))
    neg_q = _pair(qpochhammer_inf(_mpf((-qm, qe)), q, ctx))
    neg_one = _pair(qpochhammer_inf(mpmath.mpf(-1), q, ctx))
    neg_q2 = _pair(qpochhammer_inf(_mpf((-q2m, q2e)), q, ctx))
    neg_qinv = _pair(qpochhammer_inf(_mpf(_div((-1, 0), q_p, prec)), q, ctx))

    shifted = _mul(_mul(neg_q2, neg_qinv, prec), euler, prec)
    return _report("product-chain", "q=%s" % mpmath.nstr(q, 8), {
        # neg_q ** 2 is mpf's correctly rounded square, neg_q * neg_q
        "squared-form": _residual(base, _mul(_mul(neg_q, neg_q, prec), euler, prec), prec),
        "halved-form": _residual(
            base, _shift(_mul(_mul(neg_one, neg_q, prec), euler, prec), -1), prec),
        "shifted-form-constant-q/2": _residual(base, _mul(_shift(q_p, -1), shifted, prec), prec),
        "shifted-form-constant-2/q": _residual(
            base, _mul(_div((2, 0), q_p, prec), shifted, prec), prec),
        "doubling-subidentity": _residual(neg_one, _shift(neg_q, 1), prec),
    }, ctx, contrast="shifted-form-constant-2/q")


def check_inverted_parameter_recurrence(q,
                                        ctx: PrecisionContext = DEFAULT_CONTEXT) -> IdentityReport:
    """The base-inversion map onto the companion Hermite-type recurrence.

    Substituting x -> ix and multiplying degree n by i^-n turns the
    recurrence P_{n+1} = 2x P_n - (1 - p^n) P_{n-1} with p = q^-1 into
    h_{n+1} = 2x h_n + (1 - q^-n) h_{n-1}, which must coincide with the
    family's own recurrence because (1 - q^-n) = -q^-n (1 - q^n).  Checked
    three ways: the coefficient identity itself, the transformed recurrence
    on series-evaluated values, and the even/odd coefficient structure that
    makes the map real-valued, for degrees n <= n_max = 10 and at the points
    x of PHI_GRID.

    The series values carry an error of up to tol/4 relative to max(1, |h|),
    and the recurrence multiplies them by 2x and by up to q^-n_max, so they
    are requested at tol divided by that amplification.  Where that falls
    below the rounding floor of ctx.bits (q below about 0.03 at the default
    tol and bits), the series runs at the fewest bits whose floor admits it.
    """
    q, prec, n_max = as_qparam(q, ctx), ctx.bits, 10
    # (q^-n, q^n) and 1 - q^-n for each n, formed once
    powers = [None] + [(_q_power(q, -n, prec), _q_power(q, n, prec)) for n in range(1, n_max + 1)]
    one_minus = [None] + [_sub(_ONE, inverse, prec) for inverse, _ in powers[1:]]
    coeff_worst = _largest(   # 1 - q^-n against -q^-n (1 - q^n)
        _residual(one_minus[n], _mul((-m, e), _sub(_ONE, power, prec), prec), prec)
        for n, ((m, e), power) in enumerate(powers[1:], 1))
    xs = [ctx.to_real(v) for v in PHI_GRID]
    # 1 + 2 max|x| + q^-n_max and tol over it, each operation rounded to prec
    widest = _largest((abs(m), e) for m, e in map(_pair, xs))
    amplification = _add(_add(_ONE, _shift(widest, 1), prec), _q_power(q, -n_max, prec), prec)
    m, e = _div(_pair(ctx.tol), amplification, prec)
    series_ctx = ctx._replace(tol=_mpf((m, e)))
    if _below_floor((m, e), prec):   # then 6 - floor(log2 tol) bits, exactly
        series_ctx = series_ctx._replace(bits=7 - e - m.bit_length())
    h_tables = qinv_hermite_series_tables(
        range(n_max + 2), [mpmath.asinh(x, prec=prec) for x in xs], q, series_ctx)
    # The series values can be wider than prec, which _residual allows for.
    value_worst = _ZERO
    for x, hs in zip(xs, h_tables):
        two_x, hs = _shift(_pair(x), 1), [_pair(h) for h in hs]
        for n in range(1, n_max + 1):
            rhs = _add(_mul(two_x, hs[n], prec), _mul(one_minus[n], hs[n - 1], prec), prec)
            value_worst = _larger(value_worst, _residual(hs[n + 1], rhs, prec))
    rows = _recurrence(FamilySpec(FamilyKind.QINV_HERMITE, q), n_max, ctx)[2]
    parity_worst = _largest(   # |c_j| for the c_j with n - j odd
        _relative_residual(c, _ZERO, _ONE, prec)
        for n, coeffs in enumerate(rows()) for c in coeffs[1 - n % 2::2])
    grid = "n <= %d, x in %s" % (n_max, list(PHI_GRID))
    return _report("inverted-parameter-recurrence", grid, {
        "coefficient-transform": coeff_worst,
        "series-values-recurrence": value_worst,
        "parity-zeros": parity_worst,
    }, ctx)


def check_half_to_full_lattice(N: int, q,
                               ctx: PrecisionContext = DEFAULT_CONTEXT) -> IdentityReport:
    """The two half-lattice relations glue to the full extremal lattice at a = q.

    Build the full-lattice Gram S_A for h_0..h_N on the nodes
    xhat_j = (q^-j - q^j)/2 with weights u_j = (1 + q^{2j}) q^{j(2j-1)}
    (u_0 halved on the half-lattice), taking every h value from the dual
    family through the two connection formulas and every weight from the two
    base measures.  Then compare entrywise against q * Z(q) times the Gram of
    the extremal measure at a = q, whose node at index m is xhat_{m+1}.
    The cross-parity block of the extremal Gram must vanish on its own.
    """
    q = as_qparam(q, ctx)
    prec, q_p = ctx.bits, _pair(q)
    meas = hermite_extremal(q, q, ctx)
    scale_const = _mul(q_p, _pair(meas.normalization(ctx)), prec)
    ref = gram_matrix(meas, N, ctx)

    n_even = N // 2
    n_odd = (N - 1) // 2
    s_even, sign_even, _ = _connection(0, n_even, (), q, ctx)
    s_odd, sign_odd, _ = _connection(1, n_odd, (), q, ctx)
    base_even = dual_base(s_even, q, "even", ctx)
    base_odd = dual_base(s_odd, q, "odd", ctx)

    J = max(ref.m_hi + 1, -ref.m_lo + 1) + 3
    # Lattice index j takes base_even at j and, for j >= 1, base_odd at j - 1.
    even_pts = [(_pair(x), _pair(w)) for x, w in base_even.points(0, J, ctx)]
    odd_pts = [(_pair(x), _pair(w)) for x, w in base_odd.points(0, J - 1, ctx)]
    even_tabs = _tables(FamilyKind.DUAL_DISCRETE_ULTRA, n_even, [x for x, _ in even_pts],
                        q, ctx, s_even)
    odd_tabs = (_tables(FamilyKind.DUAL_DISCRETE_ULTRA, n_odd, [x for x, _ in odd_pts],
                        q, ctx, s_odd)
                if n_odd >= 0 else [[]] * J)

    # The lattice sums run over j >= 0 with weights u_0, 2 u_1, ..., 2 u_J,
    # which is 2 w_j for base_even's weight w_j, one pair-sum call per
    # parity, on pairs.  The odd h vanish at xhat_0 = 0.
    lattice_w = [_shift(w, 1) for _, w in even_pts]
    even_rows = [[_mul(c, t, prec) for c, t in zip(sign_even, tab)] for tab in even_tabs]
    odd_rows = [[_ZERO] * (n_odd + 1)]
    node_resid = weight_resid = _ZERO
    # (1 - q) (1 - q^2) and 4q, the xhat-free factors of a folded weight
    q2 = _mpf(_mul(q_p, q_p, prec))
    gaps = _sub(_ONE, q_p, prec), _sub(_ONE, _pair(q2), prec)
    four_q = _shift(q_p, 2)
    powers = power_run(q_p, -J, J, prec)   # powers[k + J] = q^k
    for j in range(J + 1):
        xhat = _shift(_sub(powers[J - j], powers[J + j], prec), -1)
        node_e, w_e = even_pts[j]
        node = _add(_mul(_shift(xhat, 2), xhat, prec), (2, 0), prec)
        node_resid = _larger(node_resid, _residual(node_e, node, prec))
        if j >= 1:
            node_o, w_o = odd_pts[j - 1]
            node_resid = _larger(node_resid, _residual(node_o, _mul(q_p, node_e, prec), prec))
            odd_rows.append([_mul(_mul(_shift(c, 1), xhat, prec), t, prec)
                             for c, t in zip(sign_odd, odd_tabs[j - 1])])
            w_folded = _div(_mul(_mul(w_o, gaps[0], prec), gaps[1], prec),
                            _mul(_mul(four_q, xhat, prec), xhat, prec), prec)
            weight_resid = _larger(weight_resid, _residual(w_e, w_folded, prec))
    sums = (_pair_sums(lattice_w, even_rows, n_even, prec),
            _pair_sums(lattice_w, odd_rows, n_odd, prec))

    entry_worst = cross_worst = diag_worst = _ZERO
    two_mass = _shift(_div(_pair(qpochhammer_inf(q2, q2, ctx)),
                           _pair(qpochhammer_inf(q, q2, ctx)), prec), 1)
    diag = [_mul(scale_const, _pair(d), prec) for d in ref.expected_diag]
    for i in range(N + 1):
        for ip in range(i, N + 1):
            # The lattice sum of a cross-parity pair is exactly 0.
            total = _ZERO if (i + ip) % 2 == 1 else sums[i % 2][i // 2][ip // 2]
            ref_entry = _mul(scale_const, _pair(ref.gram[i][ip]), prec)
            root = _root(_mul(diag[i], diag[ip], prec), prec)
            scale = root if _abs_lt(_ONE, root) else _ONE
            entry_worst = _larger(entry_worst, _relative_residual(total, ref_entry, scale, prec))
            if (i + ip) % 2 == 1:
                cross_worst = _larger(cross_worst,
                                      _relative_residual(ref_entry, _ZERO, scale, prec))
            elif i == ip:
                closed = _mul(_mul(two_mass, _q_power(q, -(i * (i + 1) // 2), prec), prec),
                              _pair(qpochhammer(q, q, i, ctx)), prec)
                diag_worst = _larger(diag_worst, _residual(total, closed, prec))

    return _report("half-to-full-lattice",
                   "degrees 0..%d, lattice |j| <= %d, q=%s" % (N, J, mpmath.nstr(q, 8)), {
                       "entrywise": entry_worst,
                       "cross-parity-block": cross_worst,
                       "diagonal-closed-forms": diag_worst,
                       "node-alignment": node_resid,
                       "folded-odd-weights": weight_resid,
                       "lattice-constant": _residual(two_mass, scale_const, prec),
                   }, ctx)


def _gram_entry(identity_id: str, measure, N: int,
                ctx: PrecisionContext) -> IdentityReport:
    rep = gram_matrix(measure, N, ctx)
    digits = ctx.digits
    details = {
        "off_diag_max": to_decimal(rep.off_diag_max, digits),
        "diag_rel_err_max": to_decimal(rep.diag_rel_err_max, digits),
        "m_window": "[%d, %d]" % (rep.m_lo, rep.m_hi),
        "tail_bound": to_decimal(rep.tail_bound, digits),
    }
    grid = "N=%d, measure=%s" % (N, rep.measure_kind)
    if rep.a is not None:
        grid += ", a=%s" % mpmath.nstr(rep.a, 8)
    if rep.s is not None:
        grid += ", s=%s" % mpmath.nstr(rep.s, 8)
    return _judged(identity_id, grid, max(rep.off_diag_max, rep.diag_rel_err_max), ctx, details)


def _normalization_entry(identity_id: str, kind: MeasureKind, a, q,
                         ctx: PrecisionContext) -> IdentityReport:
    """The residual of Z(a), the candidate every Gram divides by, with the
    other candidate's residual shown for contrast."""
    adj = adjudicate_normalization(kind, a, q, ctx)
    return _report(identity_id, "a=%s, q=%s" % (mpmath.nstr(adj.a, 8), mpmath.nstr(adj.q, 8)), {
        "candidate (-q/a^2;q)_inf residual": _pair(adj.residual_quadratic),
        "candidate (-q/a;q)_inf residual": _pair(adj.residual_linear),
    }, ctx, contrast="candidate (-q/a;q)_inf residual")


# The suite, one entry per check in run order: each takes its id and the
# run's settings (q, ctx, k_max, N, s, a) and returns the check's report.
_SUITE = {
    "even-connection": lambda i, r: check_even_connection(r.k_max, r.q, r.ctx),
    "odd-connection": lambda i, r: check_odd_connection(r.k_max, r.q, r.ctx),
    "recurrence-chains":
        lambda i, r: check_recurrence_chains(r.k_max, r.q, r.ctx),
    "product-chain": lambda i, r: check_product_chain(r.q, r.ctx),
    "inverted-parameter-recurrence":
        lambda i, r: check_inverted_parameter_recurrence(r.q, r.ctx),
    "base-even-orthogonality":
        lambda i, r: _gram_entry(i, dual_base(r.s, r.q, "even", r.ctx), r.N, r.ctx),
    "base-odd-orthogonality":
        lambda i, r: _gram_entry(i, dual_base(r.s, r.q, "odd", r.ctx), r.N, r.ctx),
    "hermite-extremal-orthogonality":
        lambda i, r: _gram_entry(i, hermite_extremal(r.a, r.q, r.ctx), r.N, r.ctx),
    "qinv-extremal-orthogonality":
        lambda i, r: _gram_entry(i, dual_qinv_extremal(r.a, r.q, r.ctx), r.N, r.ctx),
    "q-extremal-orthogonality":
        lambda i, r: _gram_entry(i, dual_q_extremal(r.a, r.q, r.ctx), r.N, r.ctx),
    "qinv-extremal-normalization": lambda i, r: _normalization_entry(
        i, MeasureKind.DUAL_QINV_EXTREMAL, r.a, r.q, r.ctx),
    "q-extremal-normalization": lambda i, r: _normalization_entry(
        i, MeasureKind.DUAL_Q_EXTREMAL, r.a, r.q, r.ctx),
    "half-to-full-lattice": lambda i, r: check_half_to_full_lattice(r.N, r.q, r.ctx),
}
SUITE_IDS = tuple(_SUITE)


def run_suite(q, ctx: PrecisionContext = DEFAULT_CONTEXT, *,
              only: list[str] | None = None, k_max: int = 6,
              N: int = 8, s=None, a=None) -> list[IdentityReport]:
    """Run the named checks (all of SUITE_IDS by default) and collect reports.

    A check named more than once in `only` runs once, where first named.

    s defaults to 1 for the base-measure entries; a defaults to (1+q)/2 for
    the extremal entries.  A check that raises is reported as failed with
    the error text in its details rather than aborting the suite.
    """
    q = as_qparam(q, ctx)
    run = types.SimpleNamespace(q=q, ctx=ctx, k_max=k_max, N=N,
                                s=ctx.to_real(1 if s is None else s),
                                a=_default_a(q, ctx) if a is None else ctx.to_real(a))

    selected = list(SUITE_IDS) if only is None else list(dict.fromkeys(only))
    unknown = [name for name in selected if name not in _SUITE]
    if unknown:
        raise ValueError("unknown identity ids: %s (known: %s)"
                         % (", ".join(unknown), ", ".join(SUITE_IDS)))
    reports = []
    for name in selected:
        try:
            reports.append(_SUITE[name](name, run))
        except Exception as exc:
            reports.append(_judged(name, "", mpmath.inf, ctx,
                                   {"error": "%s: %s" % (type(exc).__name__, exc)}))
    return reports
