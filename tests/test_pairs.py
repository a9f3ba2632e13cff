"""The kernel's pair arithmetic against mpmath's own rounded operations.

Every pair operation rounds its exact result once to nearest-even, so it
must return, raw tuple for raw tuple, what mpmath 1.3.0 returns at
round_nearest.  mpf_add and mpf_sub are compared on operands of at most
prec + 4 bits, the sizes for which mpmath rounds them correctly; mul, div
and rounding take longer operands as well.  The fused recurrence step adds
exact products of up to 2 prec bits, so _add and _sub are also checked on
operands of up to 2 prec + 8 bits against the exact libmp sum (prec=0)
rounded once by mpf_pos.  The kernel's decimal parser must give, raw tuple
for raw tuple, what mpmath.mpf(text, prec=bits) gives, and mpmath's
exception for text it hands to mpmath.  The kernel's decimal rendering must
print, character for character, what mpmath.nstr prints, for every value
but the integers below 10^digits it prints whole.  Example counts come from
the hypothesis profile, so CI can search more of them (tests/conftest.py).
"""
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (from_man_exp, fzero, mpf_abs, mpf_add, mpf_cmp,
                          mpf_div, mpf_mul, mpf_mul_int, mpf_pos, mpf_sub,
                          round_nearest)

from qortho.kernel import (PrecisionContext, _abs_lt, _add, _div, _mpf, _mul, _pair, _round, _sub,
                           to_decimal)

PRECS = [64, 256, 288, 1024, 1056]
R = round_nearest


def raw(a):
    """The exact mpf tuple of a pair."""
    return from_man_exp(a[0], a[1])


def same(a, want):
    """The pair a has the value of the raw mpf want, in mpmath's normal form."""
    return _mpf(a)._mpf_ == want


def check_sums(a, b, prec):
    assert same(_add(a, b, prec), mpf_add(raw(a), raw(b), prec, R)), (a, b, prec)
    assert same(_sub(a, b, prec), mpf_sub(raw(a), raw(b), prec, R)), (a, b, prec)


def check_products(a, b, prec):
    assert same(_mul(a, b, prec), mpf_mul(raw(a), raw(b), prec, R)), (a, b, prec)
    if b[0]:
        assert same(_div(a, b, prec), mpf_div(raw(a), raw(b), prec, R)), (a, b, prec)


@st.composite
def pairs(draw, max_bits):
    """A pair with a mantissa of 1..max_bits bits, or zero; exponents near
    0 or spread over several precisions, so sums take both paths."""
    if draw(st.integers(0, 15)) == 0:
        return (0, 0)
    bits = draw(st.integers(1, max_bits))
    man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    exp = draw(st.one_of(st.integers(-8, 8), st.integers(-3 * max_bits, 3 * max_bits)))
    return (-man if draw(st.booleans()) else man), exp


@st.composite
def operands(draw, extra_bits):
    prec = draw(st.sampled_from(PRECS))
    pair = pairs(prec + extra_bits)
    return prec, draw(pair), draw(pair)


@settings(deadline=None)
@given(operands(4))
def test_pair_ops_match_mpmath(args):
    prec, a, b = args
    check_sums(a, b, prec)
    check_products(a, b, prec)
    assert _abs_lt(a, b) == (mpf_cmp(mpf_abs(raw(a)), mpf_abs(raw(b))) < 0)


@settings(deadline=None)
@given(operands(2000), st.integers(-(1 << 80), 1 << 80))
def test_long_operands_round_as_mpmath(args, k):
    prec, a, b = args
    check_products(a, b, prec)
    assert same(_mul(a, (k, 0), prec), mpf_mul_int(raw(a), k, prec, R))
    assert same(_round(a, prec), mpf_pos(raw(a), prec, R))
    assert _abs_lt(a, b) == (mpf_cmp(mpf_abs(raw(a)), mpf_abs(raw(b))) < 0)


@st.composite
def wide_operands(draw):
    """Operands of up to 2 prec + 8 bits, whose exponents are often more
    than 2 prec apart, so that _add takes its sticky path."""
    prec = draw(st.sampled_from(PRECS))
    pair = pairs(2 * prec + 8)
    a, b = draw(pair), draw(pair)
    gap = draw(st.one_of(st.integers(-2 * prec, 2 * prec), st.integers(2 * prec + 1, 6 * prec)))
    b = (b[0], a[1] - gap)
    return (prec, a, b) if draw(st.booleans()) else (prec, b, a)


@settings(deadline=None)
@given(wide_operands())
def test_sums_of_wide_operands_round_once(args):
    prec, a, b = args
    want = mpf_pos(mpf_add(raw(a), raw(b), 0), prec, R)
    assert same(_add(a, b, prec), want), (a, b, prec)
    want = mpf_pos(mpf_sub(raw(a), raw(b), 0), prec, R)
    assert same(_sub(a, b, prec), want), (a, b, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_exact_ties_round_to_even(prec):
    # A 2^1 + 1 has prec + 1 bits and ends in 1: a tie between A and A + 1
    # at prec bits, for A of either parity; the even one wins.
    low = 1 << (prec - 1)
    for big in (low, low + 1, (1 << prec) - 2, (1 << prec) - 1):
        for sign in (1, -1):
            a = (sign * big, 1)
            for step in (1, -1):
                one = (sign * step, 0)
                check_sums(a, one, prec)
                exact = 2 * big + step   # |a + one|
                if exact.bit_length() > prec:   # a tie: the even neighbour
                    exact = 2 * (big if big % 2 == 0 else big + step)
                assert same(_add(a, one, prec), raw((sign * exact, 0)))
            # 3 M has prec + 1 bits for M odd below 2^(prec+1) / 3: a tie
            m = sign * (low + 1 + 2 * (big % 2))
            check_products((m, 0), (3, 0), prec)
            assert same(_mul((m, 0), (3, 0), prec), mpf_mul_int(raw((m, 0)), 3, prec, R))


@pytest.mark.parametrize("prec", PRECS)
def test_far_apart_operands_take_the_sticky_path(prec):
    # b lies far below the last place of a: only its sign can matter, in
    # each operand order and sign combination, for a a power of two (a
    # negative b drops the sum to the binade below), a run of ones (a
    # positive b can carry), a short mantissa, mantissas of up to prec + 4
    # bits, and a that is itself a tie at prec bits, which b's sign breaks.
    heads = [1, (1 << prec) - 1, 5, (1 << (prec + 3)) + 1, (1 << (prec + 4)) - 1,
             (1 << prec) + 1, (1 << prec) + 3, (1 << (prec + 3)) + 8, (1 << (prec + 3)) + 24]
    tails = [1, 3, (1 << prec) - 1]
    for head in heads:
        for tail in tails:
            for gap in (prec + 4, prec + 9, 3 * prec, 100000):
                for sa in (1, -1):
                    for sb in (1, -1):
                        a = (sa * head, 0)
                        b = (sb * tail, -gap - tail.bit_length())
                        check_sums(a, b, prec)
                        check_sums(b, a, prec)
    # exponents far apart with b not small: the tops are close
    a = (1, 5 * prec)
    b = ((1 << (6 * prec)) - 1, -prec)
    check_sums(a, b, prec)
    check_sums(b, a, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_zeros_cancellation_and_one_bit_mantissas(prec):
    zero = (0, 0)
    for a in ((1, 0), (-1, 7), (1, -3000), ((1 << prec) - 1, -prec), (3, 10 ** 6)):
        neg = (-a[0], a[1])
        assert _add(a, neg, prec)[0] == 0 and _sub(a, a, prec)[0] == 0
        assert _mpf(_add(a, neg, prec))._mpf_ == fzero
        for b in (zero, (1, 0), (-1, -1), (1, 12345), (-1, -12345)):
            check_sums(a, b, prec)
            check_sums(b, a, prec)
            check_products(a, b, prec)
            check_products(b, a, prec)
        assert _mul(a, zero, prec)[0] == 0 and _div(zero, a, prec)[0] == 0
        with pytest.raises(ZeroDivisionError):
            _div(a, zero, prec)


@pytest.mark.parametrize("prec", PRECS)
def test_exact_and_inexact_quotients(prec):
    for num, den in ((1, 3), (2, 3), (-1, 7), (10, -3), ((1 << prec) - 1, (1 << prec) - 3),
                     (1, (1 << prec) - 1)):
        check_products((num, 0), (den, 5), prec)
    # +-2^k divisors, by a mantissa of +-1 or of a longer power of two, of
    # numerators that fit, that tie at prec bits and that need rounding
    top = 1 << prec
    for num in (1, -3, top - 1, top + 1, -(2 * top + 3), 2 * top - 1, (top << prec) + 7):
        for den in ((1, 0), (-1, 0), (1, -1), (-1, -1), (1, 77), (-1, -300), (4, 3), (-8, -2)):
            check_products((num, 5), den, prec)
            check_products((num, -prec), den, prec)
    # (c d) / d is exactly c when c fits in prec bits
    for c, d in ((3, 7), ((1 << prec) - 1, (1 << 40) + 1), (-((1 << prec) - 3), 3)):
        quot = _div((c * d, 9), (d, 4), prec)
        assert same(quot, raw((c, 5)))
        check_products((c * d, 9), (d, 4), prec)


def test_pair_conversion_rejects_inf_and_nan():
    for value in (mpmath.inf, -mpmath.inf, mpmath.nan):
        with pytest.raises(ValueError, match="x must be finite"):
            _pair(value, "x")
    assert _pair(mpmath.mpf(0)) == (0, 0)
    assert _pair(mpmath.mpf(-0.375)) == (-3, -3)
    for a in ((12, -2), (-(1 << 300), -5), (7, 0), (0, 9)):
        assert raw(_pair(_mpf(a))) == raw(a)


def check_parse(text, prec):
    """ctx.to_real(text) at prec bits is mpmath's value, or raises mpmath's
    exception with its message."""
    ctx = PrecisionContext(bits=prec)
    try:
        want = mpmath.mpf(text, prec=prec)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            ctx.to_real(text)
        assert str(got.value) == str(exc), (text, prec)
        return
    got = ctx.to_real(text)
    assert type(got) is mpmath.mpf and got._mpf_ == want._mpf_, (text, prec)


_DIGITS = "0123456789"


@settings(deadline=None)
@given(st.sampled_from(["", "-"]), st.text(_DIGITS, max_size=40),
       st.sampled_from(["", "."]), st.text(_DIGITS, max_size=60))
def test_plain_decimals_parse_as_mpmath_parses_them(sign, whole, point, frac):
    text = sign + whole + point + frac
    for prec in PRECS:
        check_parse(text, prec)


@pytest.mark.parametrize("text", ["7e-1", "+0.7", " 0.7", ".", "-", "inf", "nan", "1_0",
                                  "\u0661", ".0", "-.00", "-.5", "5.", "-0", "0.7l", "1/3",
                                  "", "0x1"])
def test_other_spellings_go_to_mpmath(text):
    for prec in PRECS:
        check_parse(text, prec)


def decimal_text(n, k):
    """The exact decimal spelling of n / 10^k, k >= 0."""
    digits = str(abs(n)).rjust(k + 1, "0")
    point = "." + digits[len(digits) - k:] if k else ""
    return "-"[:n < 0] + digits[:len(digits) - k] + point


def test_long_decimals_parse_to_the_correctly_rounded_pair():
    # past 400 fraction digits mpmath rounds through a power of ten at 10
    # guard bits, which can miss the correctly rounded value: the parser
    # rounds the exact rational m 2^-k / 5^k once at every length
    rng = random.Random(5)
    for _ in range(2000):
        text = decimal_text(rng.randrange(10 ** 402), 402)
        exact = raw(_div((int(text[2:]), -402), (5 ** 402, 0), 64))
        if mpmath.mpf(text, prec=64)._mpf_ != exact:
            break
    else:
        pytest.fail("no long decimal that mpmath rounds differently")
    assert PrecisionContext(bits=64).to_real(text)._mpf_ == exact
    # digits past the least limit (640) Python may set on int(), whole and
    # fraction, against values formed without a string conversion
    for prec in PRECS:
        ctx = PrecisionContext(bits=prec)
        with mpmath.workprec(prec):
            third, ten = mpmath.mpf(1) / 3, mpmath.mpf(10 ** 5000)
        assert ctx.to_real("0." + "3" * 5000) == third
        assert ctx.to_real("-0." + "9" * 5000) == -1
        assert ctx.to_real("1." + "0" * 4999 + "1") == 1
        assert ctx.to_real("1" + "0" * 5000 + ".000") == ten


@pytest.mark.parametrize("prec", PRECS)
def test_decimal_ties_round_to_even(prec):
    # (2^prec + 1) / 2^j and (2^prec + 3) / 2^j lie halfway between two
    # prec-bit values, and are exact decimals of j fraction digits
    ctx = PrecisionContext(bits=prec)
    for m in (1 << prec) + 1, (1 << prec) + 3:
        even = m + 1 if m & 2 else m - 1   # the neighbour whose last kept bit is 0
        for j in (0, 1, 7, 30):
            for sign in (1, -1):
                tie = sign * m * 5 ** j   # the tie is tie / 10^j
                check_parse(decimal_text(tie, j), prec)
                assert ctx.to_real(decimal_text(tie, j))._mpf_ == raw((sign * even, -j))
                # the tie moved by 10^-(j+20) away from 0 or toward it rounds that way
                for step, near in ((1, m + 1), (-1, m - 1)):
                    text = decimal_text(tie * 10 ** 20 + sign * step, j + 20)
                    check_parse(text, prec)
                    assert ctx.to_real(text)._mpf_ == raw((sign * near, -j))


RENDER_DIGITS = [1, 2, 8, 30, 87, 343]


def check_render(value, digits):
    """to_decimal prints nstr's string, unless value is an integer below
    10^digits, which it prints whole."""
    sign, man, exp, _ = value._mpf_
    if exp >= 0 and man << exp < 10 ** digits:
        assert to_decimal(value, digits) == "-"[:sign] + str(man << exp)
    else:
        assert to_decimal(value, digits) == mpmath.nstr(value, digits), (value._mpf_, digits)


@settings(deadline=None)
@given(st.booleans(), st.integers(1, 1100), st.data(), st.integers(-3600, 3600),
       st.sampled_from(RENDER_DIGITS))
def test_decimals_render_as_nstr_renders_them(negative, bits, data, top, digits):
    # mantissas of up to 1,100 bits with exp + bc across -3,600..3,600, so
    # past the hand-off to nstr at |exp + bc| > 3500 on both sides
    man = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    check_render(_mpf((-man if negative else man, top - bits)), digits)


def test_rendering_carries_ties_window_edges_and_hand_off():
    with mpmath.mp.workprec(256):
        cases = [
            # a carry through every digit adds one and moves the exponent,
            # also out of the fixed-point window (999.96 at 3 digits)
            "9.9999999", "0.99999", "-9.995e-10", "999.96", "99999999.6", "9.99999e+29",
            # digit ties at the cut round half up: 0.125 and 2.5 are exact
            "0.125", "-0.125", "2.5", "0.375", "1.5e-5", "12345678.5",
        ] + ["%s1.5e%d" % (sign, k) for sign in ("", "-") for k in range(-12, 33)]
        values = [mpmath.mpf(text) for text in cases]
    for top in (3499, 3500, 3501):
        for m in (1, 3, (1 << 255) + 1):
            for e in (top, -top):
                values += [_mpf((m, e - m.bit_length())), _mpf((-m, e - m.bit_length()))]
    for digits in RENDER_DIGITS:
        for v in values:
            check_render(v, digits)
    assert to_decimal(mpmath.mpf("0.99999"), 2) == "1.0"
    assert to_decimal(mpmath.mpf("999.96"), 3) == "1.0e+3"
    assert to_decimal(mpmath.mpf("0.125"), 2) == "0.13"
    assert to_decimal(mpmath.mpf("-0.125"), 2) == "-0.13"
    # the window at 8 digits is -5 < exponent < 8
    assert to_decimal(mpmath.mpf("1.5e-4"), 8) == "0.00015"
    assert to_decimal(mpmath.mpf("1.5e-5"), 8) == "1.5e-5"
    assert to_decimal(mpmath.mpf("12345678.5"), 8) == "12345679.0"
    assert to_decimal(mpmath.mpf("123456785"), 8) == "1.2345679e+8"
