"""Kernel primitives: contexts, q-shifted factorials, basic hypergeometric sums."""
import math
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho import (DEFAULT_CONTEXT, PoleError, PrecisionContext,
                    TruncationFailure, as_qparam, basic_hypergeometric,
                    qpochhammer, qpochhammer_inf, to_decimal)
from qortho.kernel import _certified, _mpf, _pair, power_run

CTX = PrecisionContext.create()

# (1/2;1/2)_inf, frozen from an independent 512-bit direct product.
EULER_HALF = ("0.288788095086602421278899721929230780088911904840685784114741066"
              "18490224090684701")

qs = st.floats(min_value=0.05, max_value=0.9)
small_reals = st.floats(min_value=-2, max_value=2, allow_nan=False)


def rel(lhs, rhs):
    return abs(lhs - rhs) / max(mpmath.mpf(1), abs(lhs))


def test_context_defaults():
    assert CTX.bits == 256
    assert CTX.tol == mpmath.mpf(2) ** -200
    assert CTX.digits == 256 // 3 + 2
    d = CTX.doubled()
    assert d.bits == 512 and d.tol == CTX.tol


_TOL_REFUSED = "tol must be a positive finite int, float or mpf (got %s)"


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext.create(bits=32)
    with pytest.raises(ValueError):
        PrecisionContext(bits=256, max_terms=0)
    for tol in (mpmath.mpf(0), -1, "1e-60", math.inf, math.nan, mpmath.inf, mpmath.nan, None):
        with pytest.raises(ValueError, match=re.escape(_TOL_REFUSED % repr(tol))):
            PrecisionContext(bits=256, tol=tol)
        with pytest.raises(ValueError, match=re.escape(_TOL_REFUSED % repr(tol))):
            CTX._replace(tol=tol)
    for tol_exp in (2.7, "7", None):
        with pytest.raises(ValueError, match=re.escape("tol_exp must be an integer (got %r)"
                                                       % (tol_exp,))):
            PrecisionContext.create(tol_exp=tol_exp)


def test_context_keeps_tol_as_an_equal_mpf():
    # an int or a float is converted exactly, whatever mpmath's precision
    for tol in (1, 3, 0.5, 1e-300, 2.0 ** -1074, 10 ** 400, (1 << 80) + 1, mpmath.mpf("1e-60")):
        ctx = PrecisionContext(tol=tol)
        assert type(ctx.tol) is mpmath.mpf and ctx.tol == tol
        assert ctx == PrecisionContext(tol=ctx.tol) and ctx._replace(bits=512).tol is ctx.tol
    assert PrecisionContext.create(tol_exp=7).tol == mpmath.mpf(2) ** -7


def test_context_refuses_bools():
    # bool is an int subclass: max_terms=True would be a one-term budget,
    # tol=True a tolerance of 1 and tol_exp=True one of 2^-1.
    for kwargs, message in ((dict(bits=True), r"bits must be an integer >= 64 \(got True\)"),
                            (dict(max_terms=True),
                             r"max_terms must be an integer >= 1 \(got True\)"),
                            (dict(tol=True), re.escape(_TOL_REFUSED % repr(True)))):
        with pytest.raises(ValueError, match=message):
            PrecisionContext(**kwargs)
        if "tol" not in kwargs:
            with pytest.raises(ValueError, match=message):
                PrecisionContext.create(**kwargs)
        with pytest.raises(ValueError, match=message):
            CTX._replace(**kwargs)
    with pytest.raises(ValueError, match=r"tol_exp must be an integer \(got True\)"):
        PrecisionContext.create(tol_exp=True)


def test_to_real_returns_a_fitting_mpf_as_it_is():
    ctx = PrecisionContext.create(bits=256)
    with mpmath.workprec(256):
        fitting = [mpmath.mpf("0.7"), mpmath.mpf(-3), mpmath.mpf(0), mpmath.mpf(2) ** -10 ** 6]
    for value in fitting:
        assert ctx.to_real(value) is value
    with mpmath.workprec(1024):
        wide = mpmath.mpf(1) / 3
    inputs = [wide, -wide, "0.7", "-1e-30", 3, -(10 ** 100), 0,
              mpmath.inf, -mpmath.inf, mpmath.nan]
    for value in inputs:
        got = ctx.to_real(value)
        with mpmath.workprec(256):
            want = mpmath.mpf(value)
        assert type(got) is mpmath.mpf and got._mpf_ == want._mpf_, value


def _head_stop(g):
    """W = 2^-g, where the head stops: exact for an int g, the float 2^-g
    for a float g."""
    return mpmath.ldexp(1, -g) if isinstance(g, int) else mpmath.mpf(2.0 ** -g)


def _mpf_head_length(a, q, bits):
    """(J, g) as the mpf expressions at 53 bits."""
    with mpmath.workprec(53):
        log_inv_q = -mpmath.log(q)
        cost = bits * float(log_inv_q) / (2 * math.log(2))
        g = math.isqrt(int(cost)) or max(math.sqrt(cost), -math.log2(0.9))
        size = abs(a) / _head_stop(g)
        if size <= 1:
            return 0, g
        return int(mpmath.ceil(mpmath.log(size) / log_inv_q)), g


def test_head_length_is_the_mpf_expression():
    from qortho.kernel import _head_length
    with CTX.workprec():
        qs = [mpmath.mpf(v) for v in ("1e-4", "0.001", "0.05", "0.25", "0.3", "0.5", "0.7",
                                      "0.9", "0.99", "0.999", "0.9999", "0.99999")]
        avals = [mpmath.mpf(v) for v in ("-3000", "-2.5", "-1", "-0.5", "-1e-9", "0", "0.25",
                                         "0.5", "0.5000001", "0.9", "1", "2", "17", "3000")]
    for bits in (64, 256, 1024):
        for q in qs:
            g = _head_length(mpmath.mpf(0), q, bits)[1]
            stop = _head_stop(g)
            with CTX.workprec():
                # a = +-q^k W puts |a| q^J on W, up to the rounding of q^k
                edges = [sign * q ** k * stop for k in (-3, -1, 0, 1) for sign in (1, -1)]
                special = [q, -q, 1 / q, -1 / q]
            for a in avals + edges + special:
                head_len, g = _head_length(a, q, bits)
                assert (head_len, g) == _mpf_head_length(a, q, bits), (a, q, bits)
                # J is the first index with |a| q^J <= W, up to the 53-bit logarithms
                with mpmath.workprec(4 * bits):
                    near = mpmath.mpf(2) ** -40
                    assert abs(a) * q ** head_len <= stop * (1 + near), (a, q, bits)
                    assert (head_len == 0
                            or abs(a) * q ** (head_len - 1) > stop * (1 - near)), (a, q)


def test_workprec_scoped():
    before = mpmath.mp.prec
    with CTX.workprec():
        assert mpmath.mp.prec == 256
    assert mpmath.mp.prec == before


def test_as_qparam_range():
    assert as_qparam("0.5", CTX) == mpmath.mpf("0.5")
    for bad in ("0", "1", "1.5", "-0.3"):
        with pytest.raises(ValueError, match="0 < q < 1"):
            as_qparam(bad, CTX)


def test_to_decimal_rendering():
    assert to_decimal(mpmath.mpf(1), 20) == "1"
    assert to_decimal(mpmath.mpf(-1), 20) == "-1"
    assert to_decimal(mpmath.mpf(0), 20) == "0"
    assert to_decimal(mpmath.mpf("0.375"), 20) == "0.375"
    assert to_decimal(mpmath.inf, 20) == "inf"


def test_to_decimal_forms_no_integer_of_a_huge_value():
    # 3 * 2^(2^26) is an integer past 10^20: telling so by forming it would
    # take 8 MiB here, and gigabytes at eval's binary exponents near 3e10
    import tracemalloc
    value = _mpf((3, 1 << 26))
    tracemalloc.start()
    try:
        assert to_decimal(value, 20) == mpmath.nstr(value, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_to_decimal_keeps_full_precision_outside_workprec():
    with CTX.workprec():
        v = 1 + mpmath.mpf(2) ** -200
    # Rendering after workprec exits must not round through ambient precision.
    assert to_decimal(v, CTX.digits) != "1"


def test_qpochhammer_empty_and_zero():
    assert qpochhammer(0.7, 0.5, 0, CTX) == 1
    assert qpochhammer(0, 0.5, 5, CTX) == 1


def test_qpochhammer_frozen():
    assert to_decimal(qpochhammer("0.5", "0.5", 2, CTX), 20) == "0.375"


def test_qpochhammer_rejects_negative_n():
    with pytest.raises(ValueError):
        qpochhammer(0.5, 0.5, -1, CTX)


@settings(max_examples=40, deadline=None)
@given(a=small_reals, q=qs, n=st.integers(min_value=0, max_value=50))
def test_qpochhammer_step_property(a, q, n):
    with CTX.workprec():
        a = mpmath.mpf(a)
        q = mpmath.mpf(q)
        lhs = qpochhammer(a, q, n + 1, CTX)
        rhs = qpochhammer(a, q, n, CTX) * (1 - a * q ** n)
        assert rel(lhs, rhs) < mpmath.mpf(2) ** -240


@settings(max_examples=30, deadline=None)
@given(a=small_reals, q=qs, n=st.integers(min_value=0, max_value=30))
def test_qpochhammer_matches_mpmath(a, q, n):
    with CTX.workprec():
        mine = qpochhammer(a, q, n, CTX)
        other = mpmath.qp(mpmath.mpf(a), mpmath.mpf(q), n)
        assert rel(mine, other) < mpmath.mpf(2) ** -240


# -- the finite product against the plain mpf loop ----------------------------
#
# The oracle is the mpf factor loop qpochhammer once ran, kept verbatim:
# every value of the loop on pairs must equal it bit for bit.


def _oracle_qpochhammer(a, q, n, ctx):
    with ctx.workprec():
        a = mpmath.mpf(a)
        q = mpmath.mpf(q)
        prod = mpmath.mpf(1)
        aqk = a
        for _ in range(n):
            prod *= 1 - aqk
            aqk *= q
        return prod


# a = 8 = q^-3 at q = 1/2 makes factor 3 exactly zero.
PRODUCT_CASES = [("0.3", "0.7"), ("0", "0.5"), ("-0.9", "0.9"), ("8", "0.5"),
                ("1.7", "0.95")]
ORDERS = {
    "increasing": list(range(41)),
    "decreasing": list(range(40, -1, -1)),
    "interleaved": [17, 3, 29, 0, 40, 11, 1, 38, 17, 5, 24, 2, 33, 9],
}


def _reach_oracle(num, den, prec):
    """The least c >= 1 with num <= den (1 - 2^-c), by Fractions; None when
    num >= den or c > prec // 2."""
    from fractions import Fraction
    n, d = (Fraction(m) * Fraction(2) ** e for m, e in (num, den))
    if n >= d:
        return None
    c = 1
    while n > d * (1 - Fraction(1, 2 ** c)):
        c += 1
    return c if c <= prec // 2 else None


def test_tail_reach_at_its_boundaries():
    from qortho.kernel import _tail_reach
    one = (1, 0)
    assert _tail_reach((1, -1), one, 256) == 1            # r = 1/2: today's factor 2
    assert _tail_reach((0, 0), one, 256) == 1
    for c in (1, 2, 3, 7, 64, 127, 128):
        edge = ((1 << c) - 1, -c)                         # r = 1 - 2^-c
        assert _tail_reach(edge, one, 256) == c
        # one unit of 2^-300 above the edge needs one more doubling
        above = ((((1 << c) - 1) << (300 - c)) + 1, -300)
        assert _tail_reach(above, one, 256) == (c + 1 if c < 128 else None)
        # the same ratios on other mantissas and exponents
        assert _tail_reach((5 * edge[0], edge[1] - 7), (5, -7), 256) == c
        assert _tail_reach((5 * above[0], above[1] + 9), (5, 9), 256) == (
            c + 1 if c < 128 else None)
    # r >= 1, and the cap c <= prec // 2
    for num, den in [(one, one), ((3, 0), (1, 1)), ((1, 0), (0, 0)), ((1, 5), (1, -5))]:
        assert _tail_reach(num, den, 256) is None
    assert _tail_reach(((1 << 32) - 1, -32), one, 64) == 32
    assert _tail_reach(((1 << 33) - 1, -33), one, 64) is None
    assert _tail_reach(((1 << 33) - 1, -33), one, 67) == 33


@given(dm=st.integers(1, 1 << 80), de=st.integers(-100, 100), c=st.integers(1, 160),
       step=st.integers(-3, 3), far=st.tuples(st.integers(0, 1 << 80), st.integers(-100, 100)),
       prec=st.integers(64, 300))
def test_tail_reach_matches_fractions(dm, de, c, step, far, prec):
    # num a few units from den (1 - 2^-c), and num anywhere
    from qortho.kernel import _tail_reach
    den = dm, de
    for num in ((max(0, (dm << c) - dm + step), de - c), far):
        assert _tail_reach(num, den, prec) == _reach_oracle(num, den, prec), num


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("a_s,q_s", PRODUCT_CASES)
def test_qpochhammer_memo_matches_plain_loop(a_s, q_s, order):
    contexts = [CTX, PrecisionContext.create(bits=1024, tol_exp=800)]
    for n in ORDERS[order]:
        for ctx in contexts:
            want = _oracle_qpochhammer(a_s, q_s, n, ctx)
            assert qpochhammer(a_s, q_s, n, ctx)._mpf_ == want._mpf_


def test_qpochhammer_inf_trivial_and_frozen():
    assert qpochhammer_inf(0, 0.5, CTX) == 1
    # The factor 1 - 2 * 0.5 vanishes exactly.
    assert qpochhammer_inf(2, 0.5, CTX) == 0
    deep = PrecisionContext.create(bits=320, tol_exp=280)
    v = qpochhammer_inf("0.5", "0.5", deep)
    with deep.workprec():
        # The frozen string carries 80 digits; its own parse error dominates.
        assert rel(v, mpmath.mpf(EULER_HALF)) < mpmath.mpf(10) ** -78


def test_qpochhammer_inf_does_not_take_a_rounded_zero_factor_for_zero():
    # At q = 0.074257 and a = 1/q, both rounded to 256 bits, 1 - a q is
    # -1.2e-82, and a q rounds to 1 at the first pass's precision; the
    # product is about 1.3e-81, not 0.
    q = CTX.to_real("0.074257")
    with CTX.workprec():
        a = 1 / q
    mine = qpochhammer_inf(a, q, CTX)
    with mpmath.workprec(3 * CTX.bits):
        want = mpmath.qp(a, q)
        assert abs(mine - want) <= CTX.tol / 16 * abs(want)


@settings(max_examples=30, deadline=None)
@given(a=small_reals, q=qs)
def test_qpochhammer_inf_functional_equation(a, q):
    with CTX.workprec():
        a = mpmath.mpf(a)
        q = mpmath.mpf(q)
        lhs = qpochhammer_inf(a, q, CTX)
        rhs = (1 - a) * qpochhammer_inf(a * q, q, CTX)
        assert rel(lhs, rhs) < 4 * CTX.tol


@settings(max_examples=20, deadline=None)
@given(a=small_reals, q=qs, n=st.integers(min_value=0, max_value=20))
def test_qpochhammer_inf_splits_off_finite_part(a, q, n):
    with CTX.workprec():
        a = mpmath.mpf(a)
        q = mpmath.mpf(q)
        lhs = qpochhammer_inf(a, q, CTX)
        rhs = qpochhammer(a, q, n, CTX) * qpochhammer_inf(a * q ** n, q, CTX)
        assert rel(lhs, rhs) < 4 * CTX.tol


def test_qpochhammer_inf_matches_mpmath():
    # Cases with w = a q^J > 0 make Euler's sum alternate and cancel.
    cases = ((0.3, 0.5), (-1.7, 0.8), (0.99, 0.3), (3.7, 0.6), (0.5, 0.9),
             (0.9, 0.9), (-0.5, 0.95), (0.95, 0.95))
    for a, q in cases:
        mine = qpochhammer_inf(a, q, CTX)
        with mpmath.workprec(2 * CTX.bits):
            other = mpmath.qp(mpmath.mpf(a), mpmath.mpf(q))
            assert abs(mine - other) / abs(other) < CTX.tol / 16, (a, q)


def _pentagonal(q, prec):
    """(q;q)_inf = sum_(n in Z) (-1)^n q^(n(3n-1)/2) (Euler's pentagonal number
    theorem) at prec bits, summed until a pair of terms is below 2^-prec."""
    with mpmath.workprec(prec):
        q = mpmath.mpf(q)
        # n >= 1 pairs q^(n(3n-1)/2) (1 + q^n); q^(3n+1) steps one to the next
        total, low, step, qn, q3, sign = mpmath.mpf(1), q, q ** 4, q, q ** 3, -1
        while True:
            pair = low * (1 + qn)
            total += sign * pair
            if pair < mpmath.ldexp(1, -prec):
                return total
            low, step, qn, sign = low * step, step * q3, qn * q, -sign


def _eta_transformed(q, prec):
    """(q;q)_inf = sqrt(2 pi / t) exp(t/24 - pi^2 / (6t)) (p;p)_inf with
    q = e^-t and p = exp(-4 pi^2 / t), Dedekind's eta under tau -> -1/tau,
    at prec bits; (p;p)_inf by the pentagonal series at p, which is tiny
    near q = 1."""
    with mpmath.workprec(prec):
        t = -mpmath.log(q)
        p = mpmath.exp(-4 * mpmath.pi ** 2 / t)
        return (mpmath.sqrt(2 * mpmath.pi / t) * mpmath.exp(t / 24 - mpmath.pi ** 2 / (6 * t))
                * _pentagonal(p, prec))


@pytest.mark.parametrize("q, bits, tol_exp", [("0.9", 1024, 800),
                                               ("0.99", 1024, 800),
                                               ("0.99", 256, 200),
                                               ("0.3", 256, 200),
                                               ("0.9", 256, 200),
                                               ("0.999", 256, 200),
                                               ("0.9999", 256, 200)])
def test_qpochhammer_inf_matches_pentagonal_series(q, bits, tol_exp):
    # The pentagonal terms are O(1) while (q;q)_inf is about
    # exp(-pi^2 / (6 t)), q = e^-t: 2e-70 at q = 0.99 and e^-16449 at
    # q = 0.9999.  The series is summed at 4 bits plus the bits that cancel,
    # which exp(-pi^2 / (6 t)) bounds from below; past 4,096 such bits only
    # the transformed series, whose terms fall at once, is summed.
    deep = PrecisionContext.create(bits=bits, tol_exp=tol_exp)
    mine = qpochhammer_inf(q, q, deep)
    qv = deep.to_real(q)
    with mpmath.workprec(64):
        cancel = int(mpmath.pi ** 2 / (6 * -mpmath.log(qv) * mpmath.log(2))) + 64
    wants = [_eta_transformed(qv, 4 * bits)]
    if cancel <= 4096:
        wants.append(_pentagonal(qv, 4 * bits + cancel))
    with mpmath.workprec(4 * bits):
        for want in wants:
            assert abs(mine - want) / want < deep.tol / 16


@pytest.mark.parametrize("q_s, bits", [("1e-4", 256), ("0.05", 256), ("0.5", 256), ("0.9", 256),
                                        ("1e-4", 1024), ("0.05", 1024), ("0.5", 1024)])
def test_qpochhammer_inf_matches_mpmath_qp(q_s, bits):
    # mpmath.qp multiplies the factors out: it does not converge at q = 0.99,
    # and at q = 0.9 and 3,072 bits it takes seconds.
    # a = q and q^3 make w > 0, a = -3000 gives the longest head, and a = 2.5
    # passes a head factor near 0.
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    with ctx.workprec():
        q = mpmath.mpf(q_s)
        avals = [q, -q, mpmath.mpf("0.25"), mpmath.mpf("2.5"), mpmath.mpf(-3000), q ** 3,
                 -1 / q]
    for a in avals:
        mine = qpochhammer_inf(a, q, ctx)
        with mpmath.workprec(3 * bits):
            want = mpmath.qp(a, q)
            assert abs(mine - want) <= ctx.tol / 16 * abs(want), (a, q_s)
    # the first head factor 1 - a vanishes exactly
    assert qpochhammer_inf(1, q, ctx) == 0


def test_qpochhammer_inf_rounding_floor():
    # A 128-bit result cannot carry a relative error of 2^-200.
    shallow = PrecisionContext.create(bits=128, tol_exp=200)
    with pytest.raises(TruncationFailure, match="rounding floor"):
        qpochhammer_inf("0.5", "0.5", shallow)
    assert shallow.rounding_floor == mpmath.mpf(2) ** -122
    edge = PrecisionContext(bits=128, tol=shallow.rounding_floor)
    assert qpochhammer_inf("0.5", "0.5", edge) > 0


def test_qpochhammer_inf_truncation_failure():
    tight = PrecisionContext.create(bits=128, tol_exp=200, max_terms=100)
    with pytest.raises(TruncationFailure, match="max_terms"):
        qpochhammer_inf("0.999", "0.999", tight)


def test_qpochhammer_inf_memo_keeps_each_context_apart():
    from qortho.kernel import _qpochhammer_inf_memo
    contexts = [CTX, PrecisionContext.create(bits=512),
                PrecisionContext.create(tol_exp=100)]
    cold = []
    for ctx in contexts:
        _qpochhammer_inf_memo.cache_clear()
        cold.append(qpochhammer_inf("0.3", "0.7", ctx))
    _qpochhammer_inf_memo.cache_clear()
    warm = [qpochhammer_inf("0.3", "0.7", ctx) for ctx in contexts]
    warm += [qpochhammer_inf("0.3", "0.7", ctx) for ctx in contexts]
    assert _qpochhammer_inf_memo.cache_info().misses == 3
    assert warm == cold + cold
    # The 512-bit value is its own, not the 256-bit one.
    assert cold[1] != cold[0]
    assert cold[1]._mpf_[3] > 256 >= cold[0]._mpf_[3]
    with mpmath.workprec(512):
        assert abs(cold[1] - cold[0]) < mpmath.mpf(2) ** -250


def test_qpochhammer_inf_memo_keeps_no_failure():
    from qortho.kernel import _qpochhammer_inf_memo
    _qpochhammer_inf_memo.cache_clear()
    tight = PrecisionContext.create(bits=128, tol_exp=200, max_terms=100)
    for _ in range(2):
        with pytest.raises(TruncationFailure, match="max_terms"):
            qpochhammer_inf("0.999", "0.999", tight)
    assert _qpochhammer_inf_memo.cache_info().misses == 2
    assert _qpochhammer_inf_memo.cache_info().currsize == 0


# -- the one escalation policy: _certified with a substituted pass ------------


def _substituted(bound_at, precs):
    """A pass returning the pairs of 1/3 at p bits and of bound_at(p), None
    for inf, recording p in precs."""
    def evaluate(p):
        precs.append(p)
        bound = bound_at(p)
        return (_pair(mpmath.fdiv(1, 3, prec=p)),
                None if bound == mpmath.inf else _pair(mpmath.mpf(bound)))
    return evaluate


BUDGET = CTX.tol / 4
BUDGET_PAIR = _pair(BUDGET)


def test_certified_returns_an_accepted_first_pass_bit_for_bit():
    precs = []
    got = _certified(_substituted(lambda p: BUDGET, precs), BUDGET_PAIR, CTX, lambda: "probe")
    with CTX.workprec():
        assert _mpf(got)._mpf_ == (mpmath.mpf(1) / 3)._mpf_
    assert precs == [256]
    # with guard bits the first pass runs at bits + guard and is rounded once
    precs = []
    got = _certified(_substituted(lambda p: 0, precs), BUDGET_PAIR, CTX, lambda: "probe",
                     guard=16)
    with mpmath.workprec(272):
        third = mpmath.mpf(1) / 3
    assert precs == [272] and _mpf(got)._mpf_ == CTX.to_real(third)._mpf_


def test_certified_reruns_once_at_the_bits_the_bound_asks_for():
    precs = []
    # the bound is 2^44 budget at 256 bits and halves with every bit
    got = _certified(_substituted(lambda p: mpmath.ldexp(BUDGET, 300 - p), precs),
                     BUDGET_PAIR, CTX, lambda: "probe")
    assert precs == [256, 256 + 44 + 1]
    with CTX.workprec():
        assert _mpf(got) == mpmath.mpf(1) / 3 and _mpf(got)._mpf_[3] <= 256


def test_certified_doubles_only_when_no_bit_is_certified():
    precs = []
    _certified(_substituted(lambda p: mpmath.inf if p < 1000 else 0, precs), BUDGET_PAIR, CTX,
               lambda: "probe")
    assert precs == [256, 512, 1024]


@pytest.mark.parametrize("bound_at,passes,reason", [
    (lambda p: 2 * BUDGET, 2, r"bound before: 3\.11"),   # does not shrink
    (lambda p: mpmath.ldexp(BUDGET, 10 ** 6), 1,    # past the cap
     r"next pass: 1000257 bits; cap: 1024 \* bits = 262144"),
])
def test_certified_raises_past_a_bound_that_stalls_or_the_cap(bound_at, passes, reason):
    precs = []
    with pytest.raises(TruncationFailure, match=r"probe: error bound .* misses the budget "
                       r"1.5557538e-61 at \d+ bits, and a rerun cannot meet it .*" + reason):
        _certified(_substituted(bound_at, precs), BUDGET_PAIR, CTX, lambda: "probe")
    assert len(precs) == passes


def test_certified_raises_when_a_rerun_barely_shrinks_the_bound():
    # 2^-150 (1 + 2^-p): a part of the bound does not shrink with p.  The
    # rerun adds 54 bits, ceil(log2(bound / budget)) + 1 for a bound just
    # above 2^52 budgets, so it must shrink the bound by 2^27, and it shrinks
    # it by a factor 1 + 2^-256; the ladder used to climb to the cap.
    precs = []

    def evaluate(p):
        precs.append(p)
        return _pair(mpmath.fdiv(1, 3, prec=p)), ((1 << p) + 1, -150 - p)
    with pytest.raises(TruncationFailure, match=r"probe: error bound 7\.0064923e-46 misses the "
                       r"budget 1\.5557538e-61 at 310 bits, and a rerun cannot meet it \(bound "
                       r"before: 7\.0064923e-46; next pass: 364 bits"):
        _certified(evaluate, BUDGET_PAIR, CTX, lambda: "probe")
    assert precs == [256, 310]


def test_certified_refuses_a_tol_below_the_rounding_floor_before_any_pass():
    precs = []
    shallow = PrecisionContext.create(bits=128, tol_exp=200)
    with pytest.raises(TruncationFailure,
                       match="probe: tol=6.2230153e-61 is below the rounding floor"):
        _certified(_substituted(lambda p: 0, precs), _pair(shallow.tol / 4), shallow,
                   lambda: "probe")
    assert precs == []


@pytest.mark.parametrize("prec", [64, 96, 300])
@pytest.mark.parametrize("q_s", ["0.05", "0.5", "0.9"])
def test_product_pass_error_is_within_its_bound(q_s, prec):
    # One pass at a low precision, against mpmath.qp at 4 prec: its value
    # must lie within the relative bound it returns.  1.0001 / q and
    # 0.9999 / q^2 put a head factor near 0 after one and two roundings of w.
    from qortho import kernel
    q = CTX.to_real(q_s)
    with CTX.workprec():
        avals = [q, -q, mpmath.mpf("0.25"), mpmath.mpf("2.5"), -1 / q, mpmath.mpf("0.99"),
                 mpmath.mpf("1.0001") / q, mpmath.mpf("0.9999") / q ** 2]
    q_p = _pair(q)
    inv_gap = -(-(1 << -q_p[1]) // ((1 << -q_p[1]) - q_p[0]))
    for a in avals:
        head_len, _ = kernel._head_length(a, q, CTX.bits)
        value, bound = kernel._product_pass(_pair(a), q_p, head_len, inv_gap, 50000, prec)
        assert bound is not None, (a, q_s, prec)
        with mpmath.workprec(4 * prec):
            want = mpmath.qp(a, q)
            assert abs(_mpf(value) - want) <= _mpf(bound) * abs(want), (a, q_s, prec)


def _euler_near_one(q):
    """(q;q)_inf by the Dedekind eta transformation, q = e^-t:
    sqrt(2 pi / t) exp(t/24 - pi^2 / (6 t)) (p;p)_inf with p = e^(-4 pi^2 / t),
    and (p;p)_inf = 1 below 2^-prec once 4 pi^2 / t > prec."""
    t = -mpmath.log(q)
    assert 4 * mpmath.pi ** 2 / t > mpmath.mp.prec
    return mpmath.sqrt(2 * mpmath.pi / t) * mpmath.exp(t / 24 - mpmath.pi ** 2 / (6 * t))


@pytest.mark.parametrize("prec", [64, 96, 300])
def test_product_pass_error_is_within_its_bound_near_one(prec):
    # At q = 0.99999 the head stops at |w| <= 0.9, 10,535 factors where
    # |w| <= 1/2 would take 69,314, so the series sums about 1,800 terms
    # whose ratio is near 0.9.  mpmath.qp does not converge there; (q;q)_inf
    # comes from the eta transformation, and (-q;q)_inf = (q^2;q^2)_inf /
    # (q;q)_inf and (-1;q)_inf = 2 (-q;q)_inf from it.
    from qortho import kernel
    q = CTX.to_real("0.99999")
    q_p = _pair(q)
    inv_gap = -(-(1 << -q_p[1]) // ((1 << -q_p[1]) - q_p[0]))
    with mpmath.workprec(4 * prec):
        euler = _euler_near_one(q)
        neg_q = _euler_near_one(q * q) / euler
        wants = {q: euler, -q: neg_q, mpmath.mpf(-1): 2 * neg_q}
    for a, want in wants.items():
        head_len, g = kernel._head_length(a, q, CTX.bits)
        assert 2.0 ** -g == 0.9 and 10_534 <= head_len <= 10_537, (a, g, head_len)
        value, bound = kernel._product_pass(_pair(a), q_p, head_len, inv_gap, 50000, prec)
        assert bound is not None, (a, prec)
        with mpmath.workprec(4 * prec):
            assert abs(_mpf(value) - want) <= _mpf(bound) * abs(want), (a, prec)


@pytest.mark.parametrize("a_s", ["1e-20", "1e-6", "0.001"])
@pytest.mark.parametrize("q_s", ["0.99", "0.999"])
def test_product_series_part_covers_the_error_of_its_sum(q_s, a_s):
    # With no head and a small w = a, S = sum_k w^k / (k (1 - q^k)) has few
    # terms and a large 1 / (1 - q): flooring w, q and their powers moves S
    # by about 70 to 1,250 units of v = 2^-256 here, well past the parts
    # of the bound that do not cover them: at most n - 1 for the terms'
    # own floors and 2 for exp and the last product, n <= 256 / log2(1/a)
    # + 2 the term count.  So the series part of the bound must cover that
    # error itself; one 64 times smaller missed it by 1.8 to 4.8 times.
    from qortho import kernel
    prec = 256
    with mpmath.workprec(prec):
        q, a = mpmath.mpf(q_s), mpmath.mpf(a_s)
    q_p = _pair(q)
    inv_gap = -(-(1 << -q_p[1]) // ((1 << -q_p[1]) - q_p[0]))
    value, bound = kernel._product_pass(_pair(a), q_p, 0, inv_gap, 50000, prec)
    with mpmath.workprec(2000):
        log = mpmath.mpf(0)
        for k in range(1, 2000 // int(-mpmath.log(a, 2)) + 2):
            log += a ** k / (k * (1 - q ** k))
        want = mpmath.exp(-log)
        err = abs(_mpf(value) - want) / want
        n_max = prec / -mpmath.log(a, 2) + 2
        assert err <= _mpf(bound)
        assert err > (n_max + 1) * mpmath.ldexp(1, -prec)


@pytest.mark.parametrize("prec", [64, 266, 1040])
def test_exp_is_within_its_bound(prec):
    from qortho.kernel import _exp
    with mpmath.workprec(prec):
        xs = [mpmath.mpf(v) for v in ("0", "1e-90", "1e-20", "0.3", "1", "5", "700",
                                      "16449.3")]
        xs += [mpmath.ldexp(1, -3 * prec)] + [-x for x in xs]
    for x in xs:
        got = _mpf(_exp(_pair(x), prec))
        with mpmath.workprec(4 * prec):
            want = mpmath.exp(x)
            assert abs(got - want) <= mpmath.ldexp(want, -prec), (x, prec)


@pytest.mark.parametrize("q_s,ladder", [("0.5", [266]), ("0.99", [274]),
                                        ("0.999", [283]), ("0.99999", [300])])
def test_qpochhammer_inf_ladders(q_s, ladder, monkeypatch):
    # (q;q)_inf at 256 bits: one pass, at the bits its a-priori bound asks
    # for, which grow near q = 1 with the head length and 1 / (1 - q); past
    # q = 0.9946 the head stops at a W between 1/2 and 0.9 (0.74 at q =
    # 0.999, 0.9 at q = 0.99999), which the guard prices at 1 / (1 - W)^2 <=
    # 2^(2c), c = 2 and 4
    from qortho import kernel
    precs, pass_ = [], kernel._product_pass

    def recorded(*args):
        precs.append(args[-1])
        return pass_(*args)
    monkeypatch.setattr(kernel, "_product_pass", recorded)
    kernel._qpochhammer_inf_memo.cache_clear()
    try:
        qpochhammer_inf(q_s, q_s, CTX)
    finally:
        kernel._qpochhammer_inf_memo.cache_clear()
    assert precs == ladder


@pytest.mark.parametrize("ctx", [CTX, PrecisionContext.create(bits=1024, tol_exp=800)],
                         ids=["256", "1024"])
def test_qpochhammer_inf_takes_one_pass_per_product(ctx, monkeypatch):
    from qortho import kernel
    passes, pass_ = [], kernel._product_pass

    def recorded(*args):
        passes.append(args[-1])
        return pass_(*args)
    monkeypatch.setattr(kernel, "_product_pass", recorded)
    kernel._qpochhammer_inf_memo.cache_clear()
    try:
        for q_s in ("0.2", "0.5", "0.7", "0.9", "0.96", "0.99", "0.999", "0.9999"):
            q = ctx.to_real(q_s)
            with ctx.workprec():
                avals = [q, -q, mpmath.mpf("0.25"), mpmath.mpf("2.5"), q ** 3, -1 / q,
                         mpmath.mpf(-1)]
            for a in avals:
                qpochhammer_inf(a, q, ctx)
        assert len(passes) == kernel._qpochhammer_inf_memo.cache_info().misses == 56
    finally:
        kernel._qpochhammer_inf_memo.cache_clear()


def test_hypergeometric_trivial_cases():
    assert basic_hypergeometric([0.5], [0.25], 0.5, 0, CTX) == 1
    assert basic_hypergeometric([1.0], [0.25], 0.5, 0.5, CTX,
                                terminating_at=0) == 1


def test_hypergeometric_terminating_two_term_value():
    # 3phi2 with numerators (q^-1, -s q^2, x) at q=0.5, s=1, x=0:
    # 1 + (1-q^-1)(1+q^2) q / [(1-q)(1+q)(1-q)] = 1 - 5/3.
    q = mpmath.mpf("0.5")
    with CTX.workprec():
        v = basic_hypergeometric([1 / q, -q ** 2, 0], [q, -q], q, q, CTX,
                                 terminating_at=1)
        assert rel(v, mpmath.mpf(-2) / 3) < mpmath.mpf(2) ** -240


def test_hypergeometric_degenerate_argument_slot():
    # A numerator parameter equal to 1 kills every term past n=0.
    q = mpmath.mpf("0.5")
    v = basic_hypergeometric([1 / q, -q ** 2, 1], [q, -q], q, q, CTX,
                             terminating_at=1)
    assert v == 1


def test_hypergeometric_terminating_matches_explicit_sum():
    q = mpmath.mpf("0.7")
    N = 5
    with CTX.workprec():
        num = [q ** -N, mpmath.mpf("0.3")]
        den = [mpmath.mpf("0.4")]
        z = mpmath.mpf("0.9")
        total = mpmath.mpf(0)
        for k in range(N + 1):
            term = (qpochhammer(num[0], q, k, CTX)
                    * qpochhammer(num[1], q, k, CTX)
                    / qpochhammer(den[0], q, k, CTX)
                    / qpochhammer(q, q, k, CTX) * z ** k)
            total += term
        v = basic_hypergeometric(num, den, q, z, CTX, terminating_at=N)
        assert rel(v, total) < mpmath.mpf(2) ** -230


def test_hypergeometric_q_binomial_theorem():
    # 1phi0(a; -; q, z) = (az;q)_inf / (z;q)_inf for |z| < 1.
    with CTX.workprec():
        for a, q, z in ((0.3, 0.5, 0.6), (-1.2, 0.7, 0.25), (2.0, 0.4, -0.5)):
            a = mpmath.mpf(a)
            q = mpmath.mpf(q)
            z = mpmath.mpf(z)
            lhs = basic_hypergeometric([a], [], q, z, CTX)
            rhs = (qpochhammer_inf(a * z, q, CTX)
                   / qpochhammer_inf(z, q, CTX))
            assert rel(lhs, rhs) < 8 * CTX.tol


def test_hypergeometric_matches_mpmath_nonterminating():
    with CTX.workprec():
        q = mpmath.mpf("0.5")
        a, b, c, z = (mpmath.mpf(v) for v in ("0.3", "0.2", "0.7", "0.4"))
        mine = basic_hypergeometric([a, b], [c], q, z, CTX)
        with mpmath.workprec(300):
            other = mpmath.qhyper([a, b], [c], q, z)
        assert rel(mine, other) < 8 * CTX.tol


def test_hypergeometric_terminating_slot_validation():
    q = mpmath.mpf("0.5")
    with pytest.raises(ValueError, match="terminating"):
        basic_hypergeometric([0.3], [0.7], q, 0.5, CTX, terminating_at=4)


def test_hypergeometric_pole_error():
    q = mpmath.mpf("0.5")
    # Denominator parameter q^-2 vanishes at the k=2 factor.
    with pytest.raises(PoleError):
        basic_hypergeometric([0.3], [q ** -2], q, 0.5, CTX)


def test_hypergeometric_truncation_failure_on_growth():
    tight = PrecisionContext.create(bits=128, tol_exp=60, max_terms=50)
    with pytest.raises(TruncationFailure):
        basic_hypergeometric([0.5], [0.25], "0.9", "1.0", tight)


def test_precision_doubling_stability():
    # Every kernel example rerun at doubled bits reproduces its value.
    q = mpmath.mpf("0.5")
    cases = [
        lambda ctx: qpochhammer(0.7, q, 0, ctx),
        lambda ctx: qpochhammer(0, q, 5, ctx),
        lambda ctx: qpochhammer(q, q, 2, ctx),
        lambda ctx: qpochhammer_inf(0, q, ctx),
        lambda ctx: qpochhammer_inf(q, q, ctx),
        lambda ctx: qpochhammer_inf(-q * q, q, ctx),
        lambda ctx: basic_hypergeometric([0.5], [0.25], q, 0, ctx),
        lambda ctx: basic_hypergeometric([1 / q, -q ** 2, 0], [q, -q], q, q,
                                         ctx, terminating_at=1),
        lambda ctx: basic_hypergeometric([0.3, 0.2], [0.7], q, 0.4, ctx),
    ]
    doubled = CTX.doubled()
    with doubled.workprec():
        for case in cases:
            v1 = case(CTX)
            v2 = case(doubled)
            assert rel(v2, v1) < 4 * CTX.tol


# -- stepped integer powers ---------------------------------------------------


def _within_power_bound(got, x, k, mk, bits):
    """|got - x^k| <= (2^-bits + 1.01 r 2^-(bits+32)) x^k, r the roundings of x^k.

    Decided exactly, in rational arithmetic on integers: with x = m 2^e and
    mk = m^|k|, both sides are scaled by 100 2^(bits+32) and by the exact
    denominator.  (fractions.Fraction would normalise every product by a gcd
    of numbers of up to 4096 * bits bits, which is far slower.)
    """
    r = -k if k < 0 else max(k - 1, 0)
    sign, big, exp, _ = got._mpf_
    assert not sign
    _, _, e, _ = x._mpf_
    if k < 0:
        # got / x^k = big * m^|k| * 2^(exp - e k)
        num, den, shift = big * mk, 1, exp - e * k
    else:
        # got / x^k = big * 2^(exp - e k) / m^k
        num, den, shift = big, mk, exp - e * k
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    return (abs(num - den) * 100) << (bits + 32) <= den * (100 * 2 ** 32 + 101 * r)


POWER_BASES = ["0.05", "0.3", "0.5", "0.7", "0.99", "0.9999", "e^-2", "e^0.5", "e^1"]


def _power_base(name, bits):
    with mpmath.mp.workprec(bits):
        if name.startswith("e^"):
            return mpmath.exp(mpmath.mpf(name[2:]))
        return mpmath.mpf(name)


def _power_run(x, lo, hi, bits):
    """power_run of an mpf, as mpfs."""
    return [_mpf(v) for v in power_run(_pair(x), lo, hi, bits)]


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("name", POWER_BASES)
def test_power_run_within_its_bound_of_exact_powers(name, bits):
    x = _power_base(name, bits)
    m = x._mpf_[1]
    run = _power_run(x, -200, 200, bits)
    assert len(run) == 401
    assert run[200] == 1 and run[201] == x
    mk = 1
    for k in range(201):
        assert _within_power_bound(run[200 + k], x, k, mk, bits), k
        assert _within_power_bound(run[200 - k], x, -k, mk, bits), -k
        mk *= m
    # x^k does not depend on where the run starts or ends.
    assert _power_run(x, 5, 9, bits) == run[205:210]
    assert _power_run(x, -9, -5, bits) == run[191:196]
    assert _power_run(x, 3, 2, bits) == []


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_power_run_of_4096_steps_within_its_bound(bits):
    # Small q, where the negative powers grow fastest.
    x = _power_base("0.05", bits)
    m = x._mpf_[1]
    run = _power_run(x, -4096, 4096, bits)
    assert len(run) == 8193
    top = m ** 4096
    for k, mk in ((4096, top), (4095, top // m), (2048, m ** 2048), (1000, m ** 1000), (3, m ** 3)):
        assert _within_power_bound(run[4096 + k], x, k, mk, bits), k
        assert _within_power_bound(run[4096 - k], x, -k, mk, bits), -k


# -- the term loop on pairs against the operator loop -------------------------


def _operator_basic_hypergeometric(num, den, q, z, ctx, terminating_at=None):
    """basic_hypergeometric as it was written with mpf operators, kept as the
    reference its pair loop must equal bit for bit on terminating and
    early-zero sums; it has no stop rule for the others."""
    q = as_qparam(q, ctx)
    with ctx.workprec():
        nums = [mpmath.mpf(v) for v in num]
        dens = [mpmath.mpf(v) for v in den]
        z = mpmath.mpf(z)
        one = mpmath.mpf(1)

        total = mpmath.mpf(0)
        term = one
        qk = one
        for k in range(ctx.max_terms):
            total += term
            if terminating_at is not None and k >= terminating_at:
                return total
            ratio = z / (one - q * qk)
            for b in dens:
                f = one - b * qk
                if f == 0:
                    raise PoleError(
                        "denominator parameter %s vanishes at index %d" % (mpmath.nstr(b, 8), k)
                    )
                ratio /= f
            for a in nums:
                ratio *= one - a * qk
            term = term * ratio
            qk *= q
            if term == 0:
                return total
        raise TruncationFailure("series not resolved within max_terms=%d" % ctx.max_terms)


def _hypergeometric_cases(bits):
    """(num, den, q, z, terminating_at) of terminating, early-zero and
    non-terminating series, as the families and the tests above call it."""
    cases = []
    with mpmath.mp.workprec(bits):
        for q_s in ("0.2", "0.277857", "0.5", "0.7", "0.9", "0.99"):
            q = mpmath.mpf(q_s)
            for n in (0, 1, 7, 22, 30):
                for s_s, x_s in (("1", "0.5"), ("1.079991", "0.734134"), ("0.4", "-0.9")):
                    s, x = mpmath.mpf(s_s), mpmath.mpf(x_s)
                    rs = mpmath.sqrt(s)
                    # C_n(x; s, q)
                    cases.append(([q ** (-n), -s * q ** (n + 1), x], [rs * q, -rs * q],
                                  q, q, n))
                # D_n on the grid at x = 3: the x slot ends the sum after 4 terms
                s = mpmath.mpf("0.6")
                rs = mpmath.sqrt(s)
                cutoff = min(n, 3)
                cases.append(([q ** -3, s * q ** 4, q ** (-n)], [rs * q, -rs * q],
                              q, -q ** (n + 1), cutoff))
            # a numerator slot 1 - x q^k that vanishes exactly ends the sum early
            if q_s == "0.5":
                for x in (mpmath.mpf(1), q ** -2):
                    cases.append(([q ** -7, -q ** 8, x], [q, -q], q, q, 7))
            # non-terminating sums, stopped by the shrinking terms
            cases.append(([mpmath.mpf("0.3"), mpmath.mpf("0.2")], [mpmath.mpf("0.7")],
                          q, mpmath.mpf("0.4"), None))
            cases.append(([mpmath.mpf("-1.2")], [], q, mpmath.mpf("0.25"), None))
    return cases


def _summed(num, den, q, z, terms=200, bits=1024):
    """The first `terms` terms of the series at `bits` bits, by the term
    ratio: a reference for sums that do not terminate."""
    with mpmath.mp.workprec(bits):
        q, z = mpmath.mpf(q), mpmath.mpf(z)
        total, term, qk = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1)
        for _ in range(terms):
            total += term
            term *= z / (1 - q * qk)
            for a in num:
                term *= 1 - mpmath.mpf(a) * qk
            for b in den:
                term /= 1 - mpmath.mpf(b) * qk
            qk *= q
        return total


def test_hypergeometric_sums_past_a_term_that_lifts_the_next():
    # The terms fall below tol before k = 5, then 1 / (1 - b q^5) = 2^200
    # lifts t_6 to about 2^-51: a stop on small terms returned an error of
    # relative 3.2e-16.
    with CTX.workprec():
        b, q, z = 32 * (1 - mpmath.ldexp(1, -200)), mpmath.mpf(0.5), mpmath.ldexp(1, -40)
    got = basic_hypergeometric([], [b], q, z, CTX)
    want = _summed([], [b], q, z)
    with mpmath.mp.workprec(1024):
        assert abs(got - want) <= CTX.tol * max(1, abs(want))


@pytest.mark.parametrize("bits", [256, 1024])
def test_hypergeometric_raw_loop_equals_operator_loop(bits):
    ctx = PrecisionContext.create(bits=bits, tol_exp=bits - 56)
    for num, den, q, z, stop in _hypergeometric_cases(bits):
        got = basic_hypergeometric(num, den, q, z, ctx, terminating_at=stop)
        if stop is None:
            # the certified tail, plus rounding: every term is positive here
            want = _summed(num, den, q, z, terms=1200, bits=2 * bits)
            with mpmath.mp.workprec(2 * bits):
                assert abs(got - want) <= (ctx.tol + mpmath.ldexp(1, 32 - bits)) * max(1, abs(want))
        else:
            want = _operator_basic_hypergeometric(num, den, q, z, ctx, terminating_at=stop)
            assert got._mpf_ == want._mpf_
    # A vanishing denominator raises from both loops at the same index.
    q = mpmath.mpf("0.5")
    for loop in (basic_hypergeometric, _operator_basic_hypergeometric):
        with pytest.raises(PoleError, match="at index 2"):
            loop([0.3], [q ** -2], q, 0.5, ctx)
