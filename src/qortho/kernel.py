"""Extended-precision q-series primitives.

Public values are mpmath ``mpf`` reals ("QReal" below) computed at a
working precision carried by a :class:`PrecisionContext`. Infinite objects are
truncated under a-priori tail bounds: a result is returned together with the
guarantee that the discarded tail is below the context tolerance, or a
:class:`TruncationFailure` is raised.

Geometric tails.  If t_0, t_1, ... are nonnegative and t_(j+1) <= r t_j
for every j, with r <= 1 - 2^-c, then sum_j t_j <= t_0 / (1 - r) <= 2^c t_0.
_tail_reach(num, den, prec) gives the least such c >= 1 for r = num / den,
decided exactly on the pairs, with no division: c = 1 is the ratio 1/2 and
the factor 2.  It gives None when num >= den, and past the cap c = prec/2:
where num / den is a computed ratio within relative d of the exact one,
the exact r is at most 1 - 2^-c + d, so the tail is at most
2^c t_0 / (1 - 2^c d), and the cap keeps 2^c d <= 2^(prec/2) d small for
any d of a few roundings at prec.  The Z(a) theta sum and the Gram window
stop by this one rule, at any ratio below 1, where a ratio of 1/2 would
come only after about ln 2 / (1 - q) steps near q = 1; for the same reason
the product's head stops at a |w| between 1/2 and 0.9 there, and its guard
takes 1 / (1 - W) <= 2^c from the rule.

An infinite product (a;q)_inf splits off the finite head (a;q)_J with
|a q^J| <= W and forms the rest as exp(-S), where
S = sum_k w^k / (k (1 - q^k)) for w = a q^J: its terms have one sign, or
alternate, and fall by W < 1 at least (qpochhammer_inf says how W is set).
Its certificate is relative and covers rounding as well as the tail: the
result is within relative tol/16 of the exact product.  Its one pass
bounds its rounding a priori, so the bits it runs at are fixed before it
runs.  The head runs on pairs, and S and exp(-S) on integers with a fixed
binary point.  Each product is evaluated once per (a, q, context), with a
and q rounded to the context's bits: later calls return the memoised
value, so no caller needs to hand a computed product to another.  The memo
is bounded (the 256 most recently used products) and keeps no failure, so
an uncertifiable product raises on every call.

Rounding error is certified by one escalation policy, _certified, for the
infinite products and for the h series of families.  A pass is a call
evaluate(p): at the p bits it is given, it returns its value and a bound
of its error relative to a certified lower bound of the magnitude its
budget is relative to.  The first pass that meets the budget is rounded
to ctx.bits and returned; a pass that misses it is redone at
p + ceil(log2(bound / budget)) + 1 bits, or at 2p when it certifies no
bit.  TruncationFailure is raised when tol is below
ctx.rounding_floor, when a rerun that added s bits shrank a finite bound by
less than 2^(s/2), and when the next pass would run past the cap of
1024 * ctx.bits bits (262,144 at the default 256 bits): h_n(0) at q = 0.5
for odd n >= 1025 needs more, for example.

The package computes on pairs: a finite real m 2^e held as two Python ints
(m, e), the only number format that crosses a private interface.  A public
function converts its inputs once (ctx.to_real, then _pair, which names the
argument it refuses) and its result once (_mpf).  ctx.to_real rounds a plain
decimal string [-]digits[.digits] itself (_decimal), to the value mpmath
gives it, and leaves every other spelling and type to mpmath; the checks
of inputs and of tol decide on pairs and format with nstr only to raise.
to_decimal renders a value by the rules of libmp's to_str applied to its
raw mantissa and exponent, so it prints what nstr prints; nstr itself
renders only past the hand-off (binary exponents beyond +-3500, where
mpmath divides by a power of ten found with logarithms) and in messages.
Precision crosses the same interfaces as an argument: every private function that rounds takes
the precision it rounds to (prec, or ctx.bits from its context); a power
x^t is _q_power's mpf_pow at a named precision, and exp, sinh, asinh and
sqrt are called with prec.  No function of the package reads or sets
mpmath's global precision, and rendering reads no precision at all, so
threads that run the package at different precisions get the bytes of a
serial run (tests/thread_probe.py).  The private functions hand
each other pairs, with this module's private arithmetic _add, _sub, _mul,
_div, _round and _abs_lt (_mul by (k, 0) is mpf_mul_int by the int k);
_mul, _sub and power_run's steps write out the rounding of _rounded
rather than call it.  Its exact operations, _plus, _one_minus,
_times, _power and _shift, round nothing, so their mantissas grow with the
operands'.
Each operation forms its result exactly (an integer sum or product, or a
quotient of at least prec + 2 bits plus a sticky bit) and rounds it once to
the precision prec its caller names, to nearest with ties to even.  A
correctly rounded result is unique (Muller et al., Handbook of
Floating-Point Arithmetic, 2nd ed., 2.2; IEEE 754-2019, 4.3).  mpmath 1.3.0
rounds correctly at round_nearest in mpf_mul, mpf_mul_int, mpf_div and
mpf_pos, and in mpf_add and mpf_sub whenever each operand has at most
prec + 4 bits; past that, for operands more than 100 binary places apart,
mpf_add replaces the smaller one by a perturbation that can round
differently.  _add and _sub round the exact sum of operands of any length.
Most loops of the package add only operands rounded to the precision of the
addition or to less, so a loop on pairs that makes the operations an mpf
operator expression would make, in the same order and at the same
precisions, gives that expression's values bit for bit, without mpmath's
normalisation of every intermediate value.  The three-term recurrence step
of families makes one rounding per step, with a reciprocal lead at
bits + 64: it forms c_mid - p, two products and their difference exactly, and
rounds their product with the reciprocal once (libmp at prec=0, then
mpf_pos), which no mpf operator expression does.  A division by +-2^k is a
shift and one rounding.  A pair holds no inf or nan: _pair raises
ValueError on them, so every evaluator rejects non-finite arguments.
Integer powers that a loop needs in a run, x^lo, ..., x^hi, come from
power_run: one multiplication per power at 32 guard bits, each value
rounded once, under the product bound proved in its docstring.

Notation used throughout the package:

    (a;q)_n   = prod_{k=0}^{n-1} (1 - a q^k)          finite q-shifted factorial
    (a;q)_inf = prod_{k>=0}     (1 - a q^k)           with 0 < q < 1
    rphi(r-1) = sum_{k>=0} [prod_i (a_i;q)_k / prod_j (b_j;q)_k] z^k / (q;q)_k

The kernel is real-valued: complex arguments are out of scope.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, from_float, from_int, fzero, mpf_abs, mpf_ceil, mpf_div, mpf_le,
                          mpf_log, mpf_neg, mpf_pow, mpf_shift, numeral, round_nearest, to_float,
                          to_int)

QReal = mpmath.mpf


class KernelError(Exception):
    """Base class for kernel failures."""


class TruncationFailure(KernelError):
    """The tail bound could not be driven below tolerance within max_terms."""


class PoleError(KernelError):
    """A denominator q-shifted factorial vanished at a summed index, which
    the index attribute holds when known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def _positive_tol(tol) -> QReal:
    """tol as an equal mpf, an int or a float converted exactly (a bool is
    not taken for an int); ValueError unless it is a positive finite int,
    float or mpf."""
    raw = (tol._mpf_ if type(tol) is mpmath.mpf else None if isinstance(tol, bool)
           else from_int(tol) if isinstance(tol, int)
           else from_float(tol) if isinstance(tol, float) else None)
    if raw is None or raw[0] or not raw[1]:   # not a positive finite number
        raise ValueError("tol must be a positive finite int, float or mpf (got %r)" % (tol,))
    return tol if type(tol) is mpmath.mpf else mp.make_mpf(raw)


# PrecisionContext subclasses its fields because a NamedTuple class body may
# not define __new__, where the checks run.
class _PrecisionFields(NamedTuple):
    bits: int = 256
    tol: QReal = mpmath.ldexp(1, -200)
    max_terms: int = 50000


class PrecisionContext(_PrecisionFields):
    """Working precision, truncation tolerance and iteration budget.

    bits      -- mantissa size for every mpf operation (>= 64)
    tol       -- certified truncation tolerance, default 2^-200: a positive
                 finite int, float or mpf, kept as an equal mpf
    max_terms -- hard cap on product factors / series terms

    An immutable named tuple whose fields are checked on construction,
    _replace included; a bool is not taken for an integer.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PrecisionContext":
        self = super().__new__(cls, *args, **kwargs)
        if type(self.bits) is bool or not isinstance(self.bits, int) or self.bits < 64:
            raise ValueError("bits must be an integer >= 64 (got %r)" % (self.bits,))
        tol = _positive_tol(self.tol)
        if (type(self.max_terms) is bool or not isinstance(self.max_terms, int)
                or self.max_terms < 1):
            raise ValueError("max_terms must be an integer >= 1 (got %r)" % (self.max_terms,))
        if tol is not self.tol:
            self = tuple.__new__(cls, (self.bits, tol, self.max_terms))
        return self

    @classmethod
    def _make(cls, iterable) -> "PrecisionContext":
        return cls(*iterable)

    @classmethod
    def create(cls, bits: int = 256, tol_exp: int = 200, max_terms: int = 50000) -> "PrecisionContext":
        """Build a context with tol = 2^-tol_exp, tol_exp an int (not a bool)."""
        if type(tol_exp) is bool or not isinstance(tol_exp, int):
            raise ValueError("tol_exp must be an integer (got %r)" % (tol_exp,))
        return cls(bits=bits, tol=mpmath.ldexp(1, -tol_exp), max_terms=max_terms)

    @property
    def rounding_floor(self) -> QReal:
        """Smallest tol a certified kernel result rounded to bits can meet.

        Rounding to bits costs up to 2^-bits relatively, which is at most
        tol/64: a certified product spends that much of its tol/16 on it,
        every certified evaluation (_certified) refuses a tol below the
        floor, and no verdict passes below it (_verdict).  _below_floor is
        the test of a tol against it.
        """
        return mpmath.ldexp(1, 6 - self.bits)

    def workprec(self):
        """Context manager setting mpmath's global working precision to bits,
        for a caller's own mpf arithmetic; the package never calls it."""
        return mp.workprec(self.bits)

    def doubled(self) -> "PrecisionContext":
        """Same tolerance and budget at twice the working precision."""
        return PrecisionContext(bits=self.bits * 2, tol=self.tol, max_terms=self.max_terms)

    @property
    def digits(self) -> int:
        """Decimal digits used when rendering values produced under this context."""
        return self.bits // 3 + 2

    def to_real(self, value) -> QReal:
        """Convert a decimal string, int or mpf to an mpf at this precision.

        A finite mpf of at most bits bits is returned as it is: converting
        it would give the same value.  A plain ASCII decimal of any length
        is rounded correctly by _decimal, to the value mpmath's conversion
        gives up to 400 fraction digits; mpmath converts every other value
        and spelling.
        """
        if type(value) is mpmath.mpf:
            _, man, exp, bc = value._mpf_
            if bc <= self.bits and (man or not exp):   # not inf or nan
                return value
        elif type(value) is str:
            pair = _decimal(value, self.bits)
            if pair is not None:
                return _mpf(pair)
        return mpmath.mpf(value, prec=self.bits)


def _decimal(text: str, prec: int) -> tuple[int, int] | None:
    """The pair of a plain decimal [-]digits[.digits], rounded to prec bits:
    one or more ASCII digits before the point, any number after it; None
    for any other text.

    The exact value m / 10^k = (m 2^-k) / 5^k, for the k fraction digits,
    is rounded once to nearest with ties to even (_div), so every plain
    decimal, however long, gives its correctly rounded value.  mpmath's
    from_str gives the same value up to 400 fraction digits (it divides by
    5^k with mpf_div); past them it rounds through a power of ten at 10
    guard bits, which can miss by one unit.  The digits are converted to m
    in chunks of 600, below 640, the least limit Python may set on the
    digits int() converts, so no setting is read or changed.  Exponents,
    '+', spaces, a leading point, 'inf', 'nan', '_' and non-ASCII digits
    are left to mpmath, and with them every message.
    """
    neg = text[:1] == "-"
    whole, _, frac = (text[1:] if neg else text).partition(".")
    digits = whole + frac
    if not (whole and digits.isascii() and digits.isdigit()):
        return None
    m = 0
    for i in range(0, len(digits), 600):
        chunk = digits[i:i + 600]
        m = m * _ten(len(chunk)) + int(chunk)
    return _div((-m if neg else m, -len(frac)), (5 ** len(frac), 0), prec)


DEFAULT_CONTEXT = PrecisionContext()


def as_qparam(q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """Validate and convert a base parameter: 0 < q < 1."""
    qv = ctx.to_real(q)
    sign, man, exp, _ = qv._mpf_
    # positive and below 1 = 2^0: inf and nan have no mantissa
    if sign or not man or exp + man.bit_length() > 0:
        raise ValueError("q must satisfy 0 < q < 1 (got q=%s)" % mpmath.nstr(qv, 8))
    return qv


def to_decimal(value, digits: int) -> str:
    """Deterministic decimal rendering to `digits` significant digits; an
    integer below 10^digits in magnitude prints as all its digits, and every
    other value as mpmath.nstr(value, digits) prints it.

    An mpf is rendered as it is.  Other inputs are converted at 53 bits, or
    at 4 * digits + 16 bits, or, for a string, at 4 bits per character plus
    16 (more than the log2(10) bits a decimal digit needs), whichever is the
    most: the bits depend on the input alone, never on mp.prec.

    Below 2^3500 and above 2^-3500 the string is that of libmp's to_str at
    dps = digits, formed from the raw mantissa and exponent (_to_str); past
    those bounds, where to_digits_exp divides by a power of ten found with
    logarithms, and for digits < 1, nstr renders the value.
    """
    if isinstance(value, mpmath.mpf):
        v = value
    else:
        prec = max(53, 4 * digits + 16, 4 * len(value) + 16 if isinstance(value, str) else 0)
        v = mpmath.mpf(value, prec=prec)
    sign, man, exp, bc = v._mpf_
    if not man:
        if exp:   # inf, -inf and nan have no mantissa and exp != 0
            return "nan" if v != v else ("-inf" if sign else "inf")
        return "0"
    # an integer below 10^digits, which is below 2^(4 digits): the bound keeps
    # man << exp from forming the integer of a huge value
    if 0 <= exp and exp + bc <= 4 * digits and man << exp < _ten(digits):
        n = -(man << exp) if sign else man << exp
        # numeral converts chunks of fewer than 250 digits, so Python's limit
        # on the digits str() gives an int does not apply; size, an estimate
        # of the digit count, sets the chunks.
        return numeral(n, size=n.bit_length() * 3 // 10 + 1)
    if digits < 1 or not -3500 <= exp + bc <= 3500:
        return mpmath.nstr(v, digits)
    return _to_str(sign, man, exp, bc, digits)


_LOG2_10 = math.log(10, 2)   # the float to_digits_exp computes


@functools.lru_cache(maxsize=2048)
def _ten(k: int) -> int:
    """10^k, kept for the scales the renderer reuses."""
    return 10 ** k


def _to_str(sign: int, man: int, exp: int, bc: int, dps: int) -> str:
    """libmp.to_str((sign, man, exp, bc), dps) of a normalized finite
    nonzero value with |exp + bc| <= 3500 and dps >= 1.

    to_digits_exp(value, dps + 3) truncates |value| to a binary fixed point
    of fixprec bits and scales it by 10^fixdps, both numbers set from dps
    and exp + bc by mpmath's own float formulas; the integer's digits, cut
    toward zero, carry the decimal exponent.  to_str rounds them half up at
    dps digits (a carry past the first digit adds one and moves the
    exponent), prints the point in place when the exponent lies strictly
    between min(-(dps // 3), -5) and dps, and strips trailing zeros.
    """
    bitprec = int((dps + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    scaled = (man << shift if shift >= 0 else man >> -shift) * _ten(fixdps) >> fixprec
    # below 2^2000 the integer has fewer than 640 digits, the least limit
    # Python may set on str(); numeral splits longer ones as nstr does
    digits = str(scaled) if scaled.bit_length() < 2000 else numeral(scaled, size=dps + 3)
    exponent = len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] >= "5":
        digits = digits[:dps].rstrip("9")
        if digits:
            digits = digits[:-1] + str(int(digits[-1]) + 1) + "0" * (dps - len(digits))
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
            digits += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    if sign:
        text = "-" + text
    if not exponent:
        return text
    return text + ("e+%d" if exponent > 0 else "e%d") % exponent


# ---------------------------------------------------------------------------
# Pair arithmetic
#
# A pair (m, e) of Python ints is the finite real m 2^e; m need not be odd,
# and _pair gives zero as (0, 0).  The module docstring says why these
# operations give the values of mpf's operators.


_ZERO = (0, 0)
_ONE = (1, 0)
_make = mp.make_mpf


def _pair(value: QReal, what: str = "value") -> tuple[int, int]:
    """The pair of a finite mpf; ValueError naming `what` on inf or nan."""
    sign, man, exp, _ = value._mpf_
    if not man and exp:   # mpmath's inf, -inf and nan: no mantissa, exp != 0
        raise ValueError("%s must be finite (got %s)" % (what, value))
    return (-man if sign else man), exp


def _raw_pair(raw: tuple) -> tuple[int, int]:
    """The pair of a finite raw mpf tuple (sign, man, exp, bc)."""
    sign, man, exp, _ = raw
    return (-man if sign else man), exp


def _mpf(a: tuple[int, int]) -> QReal:
    """The mpf of a pair, in mpmath's normal form (odd mantissa, bit count)."""
    m, e = a
    if not m:
        return _make(fzero)
    sign, m = int(m < 0), abs(m)
    z = (m & -m).bit_length() - 1   # trailing zero bits
    m >>= z
    return _make((sign, m, e + z, m.bit_length()))


def _rounded(m: int, e: int, prec: int) -> tuple[int, int]:
    """m 2^e rounded to prec bits, to nearest with ties to even."""
    s = m.bit_length() - prec
    if s <= 0:
        return m, e
    # t keeps the rounding bit; floor shifts make this hold for m < 0 too
    t = m >> (s - 1)
    if t & 1 and (t & 2 or t << (s - 1) != m):
        return (t >> 1) + 1, e + s
    return t >> 1, e + s


# _mul, _sub and _stepped write out _rounded's rule, because calling it
# from them made the benchmark's points workload 7.7 % slower, suite 2.4 %
# and gram-sweep 12.4 %.


def _round(a: tuple[int, int], prec: int) -> tuple[int, int]:
    """a rounded to prec bits (mpf_pos)."""
    return _rounded(a[0], a[1], prec)


def _mul(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a * b rounded to prec bits (mpf_mul)."""
    m = a[0] * b[0]
    s = m.bit_length() - prec
    if s <= 0:
        return m, a[1] + b[1]
    t = m >> (s - 1)
    if t & 1 and (t & 2 or t << (s - 1) != m):
        return (t >> 1) + 1, a[1] + b[1] + s
    return t >> 1, a[1] + b[1] + s


def _add(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a + b rounded to prec bits: mpf_add on operands of at most prec + 4
    bits, and the exact sum rounded once on operands of any length.

    Exponents more than 2 prec apart take a sticky path, so no shift grows
    without bound.  Say a = ma 2^ea has the higher exponent and top = ea
    plus the bit length of ma.  When b lies below 2^p, where
    p = min(ea, top - prec - 3), b is replaced by a sticky half step
    sign(b) 2^(p-1): the sum lies above 2^(top-2), so its rounding step is
    at least 2^(p+1), and a is a multiple of 2^p.  a + b and
    a + sign(b) 2^(p-1) thus lie strictly between the same two multiples of
    2^p, where no representable value, no midpoint and no power of two
    falls, so they round alike.  Otherwise b reaches above 2^p, and the
    exact sum shifts ma by less than prec + 4 plus b's bit length.
    """
    ma, ea = a
    mb, eb = b
    if ea < eb:
        ma, ea, mb, eb = mb, eb, ma, ea
    if ea - eb > 2 * prec:
        if not (ma and mb):
            return _rounded(ma, ea, prec) if ma else _rounded(mb, eb, prec)
        p = min(ea, ea + ma.bit_length() - prec - 3)
        if eb + mb.bit_length() <= p:
            return _rounded((ma << (ea - p + 1)) + (1 if mb > 0 else -1), p - 1, prec)
    return _rounded((ma << (ea - eb)) + mb, eb, prec)


def _sub(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a - b rounded to prec bits (mpf_sub): _add of a and -b, its exact
    branch written out."""
    ma, ea = a
    mb, eb = b
    if 0 <= ea - eb <= 2 * prec:
        m, e = (ma << (ea - eb)) - mb, eb
    elif 0 < eb - ea <= 2 * prec:
        m, e = ma - (mb << (eb - ea)), ea
    else:
        return _add(a, (-mb, eb), prec)
    s = m.bit_length() - prec
    if s <= 0:
        return m, e
    t = m >> (s - 1)
    if t & 1 and (t & 2 or t << (s - 1) != m):
        return (t >> 1) + 1, e + s
    return t >> 1, e + s


def _div(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a / b rounded to prec bits (mpf_div); ZeroDivisionError when b = 0.

    The integer quotient carries at least prec + 2 bits, and one more bit,
    set when the division leaves a remainder, keeps an inexact quotient off
    the midpoints.
    """
    ma, ea = a
    mb, eb = b
    if not mb:
        raise ZeroDivisionError("pair division by zero")
    if not ma:
        return _ZERO
    # b = +-2^eb: the quotient is exact before rounding, and this branch stays
    # because the general path gives the same value as another pair (a 64-bit
    # mantissa where this keeps a 17-bit one), whose exponent steers the
    # far-apart branches of _add and families._three_term.
    if mb == 1 or mb == -1:
        return _rounded(ma * mb, ea - eb, prec)
    neg = (ma < 0) != (mb < 0)
    ma, mb = abs(ma), abs(mb)
    extra = prec + 2 - ma.bit_length() + mb.bit_length()
    if extra >= 0:
        quot, rem = divmod(ma << extra, mb)
    else:
        quot, rem = divmod(ma, mb << -extra)
    m, e = _rounded((quot << 1) | (1 if rem else 0), ea - eb - extra - 1, prec)
    return (-m if neg else m), e


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x * y of two pairs, exactly."""
    return x[0] * y[0], x[1] + y[1]


def _power(x: tuple[int, int], k: int) -> tuple[int, int]:
    """x^k of a pair for k >= 0, exactly."""
    return x[0] ** k, x[1] * k


def _shift(a: tuple[int, int], k: int) -> tuple[int, int]:
    """a 2^k: mpf's a * 2^k or a / 2^-k, exact for a of at most prec bits."""
    return a[0], a[1] + k


def _plus(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y of two pairs, exactly; x when y is 0 and y when x is 0."""
    (mx, ex), (my, ey) = x, y
    if not my:
        return x
    if not mx:
        return y
    if ex > ey:
        return (mx << (ex - ey)) + my, ey
    return mx + (my << (ey - ex)), ex


def _one_minus(x: tuple[int, int]) -> tuple[int, int]:
    """1 - x of a pair, exactly."""
    return _plus(_ONE, (-x[0], x[1]))


def _abs_lt(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """|a| < |b|, decided exactly."""
    ma, ea = a
    mb, eb = b
    if not mb:
        return False
    if not ma:
        return True
    ma, mb = abs(ma), abs(mb)
    top_a, top_b = ea + ma.bit_length(), eb + mb.bit_length()
    if top_a != top_b:
        return top_a < top_b
    # equal tops: the shift is at most the longer bit length
    if ea > eb:
        return ma << (ea - eb) < mb
    return ma < mb << (eb - ea)


def _larger(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """max(a, b) of two nonnegative pairs, a on a tie, as Python's max."""
    return b if _abs_lt(a, b) else a


def _largest(pairs) -> tuple[int, int]:
    """max(pairs) of nonnegative pairs, the first on a tie; _ZERO for none."""
    return functools.reduce(_larger, pairs, _ZERO)


# Bits a run or a loop on pairs steps at beyond its target precision; the
# rounding bounds of power_run, of the measures' runs and of the C and grid-D
# series assume them.
_RUN_GUARD = 32


def power_run(x: tuple[int, int], lo: int, hi: int, prec: int) -> list[tuple[int, int]]:
    """[x^lo, x^(lo+1), ..., x^hi] for a pair x, each rounded once to prec bits.

    The run is formed by repeated multiplication at prec + 32 bits: x^k for
    k > 0 steps up from x, and x^-k for k > 0 steps up from 1/x.  The value
    of x^k is thus reached through r(k) roundings at prec + 32, with
    r(k) = max(k - 1, 0) for k >= 0 (x^0 = 1 and x^1 = x are exact) and
    r(k) = |k| for k < 0 (one division and |k| - 1 products).  Forming
    x^lo, ..., x^hi costs about max(hi, 0) + max(-lo, 0) operations, where
    each ``x ** k`` would cost about log2|k| of its own.  lo > hi gives [].

    Rounding bound (the product bound of Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Lemma 3.1): let u = 2^-(prec+32).  Each
    rounding at prec + 32 multiplies the exact value by some (1 + d) with
    |d| <= u, so before its last rounding x^k carries a factor (1 + t) with
    |t| <= r u / (1 - r u).  Rounding to prec multiplies by (1 + e) with
    |e| <= 2^-prec, so the relative error of the value returned is at most

        |e| + (1 + |e|) |t| <= 2^-prec + 1.01 r 2^-(prec+32)

    whenever r u <= 1/200, since (1 + 2^-prec) / (1 - 1/200) <= 1.01 for
    prec >= 10.  That holds for r <= 2^(prec+24): for every run a list can
    hold once prec >= 40.
    """
    if lo > hi:
        return []
    wp = prec + _RUN_GUARD   # the guard bits the bound above assumes
    start = min(lo, 0)
    down = _stepped(_div(_ONE, x, wp), -start, wp) if start else []
    up = _stepped(x, hi, wp)
    # run[k - start] is x^k for start <= k <= max(hi, 0)
    run = down[::-1] + [_ONE] + up
    return [_round(v, prec) for v in run[lo - start:hi - start + 1]]


def _stepped(base: tuple[int, int], count: int, wp: int) -> list[tuple[int, int]]:
    """[base^1, ..., base^count] of a pair, each product rounded at wp."""
    if count <= 0:
        return []
    out = [base]
    bm, be = base
    m, e = base
    for _ in range(count - 1):
        # m 2^e = the last power times base, rounded at wp
        m, e = m * bm, e + be
        s = m.bit_length() - wp
        if s > 0:
            t = m >> (s - 1)
            if t & 1 and (t & 2 or t << (s - 1) != m):
                t += 2   # t >> 1 rounds up
            m, e = t >> 1, e + s
        out.append((m, e))
    return out


def _q_power(x: QReal, t, prec: int) -> tuple[int, int]:
    """x^t as a pair, for an int t or a raw exponent t: libmp's mpf_pow at
    prec bits, which hands an integer t to mpf_pow_int, so the value of
    x ** t at mpmath precision prec."""
    return _raw_pair(mpf_pow(x._mpf_, from_int(t) if type(t) is int else t, prec, round_nearest))


def _check_degree(name: str, value) -> None:
    """ValueError unless value is an integer >= 0: the one check of a
    degree, count or index argument; a bool is not taken for an integer."""
    if type(value) is bool or not isinstance(value, int) or value < 0:
        raise ValueError("%s must be a nonnegative integer (got %r)" % (name, value))


def qpochhammer(a, q, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """Finite q-shifted factorial (a;q)_n = prod_{k<n} (1 - a q^k), n >= 0, by
    the plain product loop on pairs at ctx.bits.  ValueError when a or q is
    inf or nan."""
    _check_degree("n", n)
    prec, prod = ctx.bits, _ONE
    aqk, qp = _pair(ctx.to_real(a), "a"), _pair(ctx.to_real(q), "q")
    for _ in range(n):
        prod = _mul(prod, _sub(_ONE, aqk, prec), prec)
        aqk = _mul(aqk, qp, prec)
    return _mpf(prod)


def _tail_reach(num: tuple[int, int], den: tuple[int, int], prec: int) -> int | None:
    """The least c >= 1 with num <= den (1 - 2^-c), for pairs num >= 0 and
    den >= 0, decided exactly; None when num >= den or c > prec // 2 (the
    module docstring's lemma on geometric tails)."""
    if not _abs_lt(num, den):
        return None
    (nm, ne), (dm, de) = num, den
    if ne + nm.bit_length() < de + dm.bit_length() - 1:   # num < den / 2
        return 1
    # the two tops differ by at most 1, so these shifts stay short
    low = min(ne, de)
    whole = dm << (de - low)
    gap = whole - (nm << (ne - low))   # (den - num) 2^-low > 0
    # c is the least with gap 2^c >= whole: c0 or c0 + 1 for equal bit lengths
    c = whole.bit_length() - gap.bit_length()
    c = max(1, c + (gap << c < whole))
    return c if c <= prec // 2 else None


def _head_stop(g) -> tuple:
    """The raw W = 2^-g at which the product's head stops, |a q^J| <= W, for
    an int g >= 1 or a float g in (0, 1)."""
    return mpf_shift(fone, -g) if type(g) is int else from_float(2.0 ** -g)


def _head_length(a: QReal, q: QReal, bits: int) -> tuple[int, int | float]:
    """(J, g) for the product's head, the smallest J >= 0 with |a| q^J <= W,
    W = 2^-g, up to rounding at the boundary.  With the cost model's
    g* = sqrt(bits log2(1/q) / 2), g is floor(g*) when that is at least 1,
    and otherwise the float g* itself, but no less than log2(1/0.9), so that
    W <= 0.9.  g* is formed from -log(q) at 53 bits, and
    J = ceil(log(|a| / W) / -log(q)) at 53 bits, by the libmp operations
    that mpmath's abs, log, division and ceil make at that precision, on raw
    tuples."""
    neg_log_q = mpf_neg(mpf_log(q._mpf_, 53, round_nearest))
    cost = bits * to_float(neg_log_q) / (2 * math.log(2))   # g*^2
    g = math.isqrt(int(cost)) or max(math.sqrt(cost), -math.log2(0.9))
    size = mpf_div(mpf_abs(a._mpf_, 53, round_nearest), _head_stop(g), 53, round_nearest)
    if mpf_le(size, fone):
        return 0, g
    ratio = mpf_div(mpf_log(size, 53, round_nearest), neg_log_q, 53, round_nearest)
    return int(to_int(mpf_ceil(ratio, 53, round_nearest))), g


def _below_floor(tol: tuple[int, int], bits: int) -> bool:
    """tol < 2^(6-bits) for a pair tol > 0, decided exactly: tol is below the
    rounding floor of a bits-bit value (PrecisionContext.rounding_floor).
    Every test of a tol against the floor is this one."""
    return _abs_lt(tol, (1, 6 - bits))


def _verdict(residual: QReal, tol, bits: int) -> bool:
    """The one verdict rule: PASS when tol is at or above the rounding floor
    of bits (_below_floor) and residual < tol, both decided exactly; tol a
    positive finite mpf, int or float (_positive_tol).  Below the floor no
    bits-bit result certifies agreement to tol, whatever its residual; an
    inf or nan residual fails.  Every PASS of a Gram or an identity check is
    this rule's, and every exit code of the CLI derives from its verdicts."""
    tol = _positive_tol(tol)
    return not _below_floor(_pair(tol), bits) and bool(residual < tol)


def _relative_residual(lhs: tuple[int, int], rhs: tuple[int, int], scale: tuple[int, int],
                       prec: int) -> tuple[int, int]:
    """The one residual rule: |lhs - rhs| / scale of pairs, scale > 0, the
    difference and the quotient each rounded once to prec bits; on operands
    of at most prec + 4 bits, the value of abs(lhs - rhs) / scale in mpf,
    and on wider ones the exact difference rounded once.  Every residual a
    check compares with tol is formed here, each caller naming only its
    scale: max(1, |lhs|) for most identity checks (identities._residual),
    a power of two at or above 1 and every term for the recurrence chains
    (identities._chain_residual), |d_n| on a Gram's diagonal and
    sqrt|d_n| sqrt|d_n'| off it,
    max(1, sqrt|d_n d_n'|) for half-to-full-lattice's entrywise and
    cross-parity residuals, and 1 for the normalization adjudication and
    the parity zeros of inverted-parameter-recurrence.  Against rhs = 0 on
    an lhs of at most prec bits the difference is exact, as is the quotient
    by scale 1."""
    m, e = _sub(lhs, rhs, prec)
    return _div((abs(m), e), scale, prec)


def _check_floor(ctx: PrecisionContext, what) -> None:
    """TruncationFailure unless ctx.tol is at least ctx.rounding_floor: a
    value rounded to ctx.bits carries up to 2^-bits relatively, which a
    budget of tol/64 or more then covers.  what() names the evaluation."""
    if _below_floor(_pair(ctx.tol), ctx.bits):
        raise TruncationFailure("%s: tol=%s is below the rounding floor %s of a %d-bit value" % (
            what(), mpmath.nstr(ctx.tol, 8), mpmath.nstr(ctx.rounding_floor, 8), ctx.bits))


def _budget(ctx: PrecisionContext, k: int) -> tuple[int, int]:
    """tol 2^-k as a pair: the value of mpmath.ldexp(ctx.tol, -k)."""
    m, e = _pair(ctx.tol)
    return m, e - k


def _certified(evaluate, budget: tuple[int, int], ctx: PrecisionContext, what, guard: int = 0,
               first=None) -> tuple[int, int]:
    """The value of the first pass of evaluate whose bound meets budget,
    rounded to ctx.bits: the one escalation policy of the package.

    evaluate(p) runs one pass at the p bits it is given, whatever mpmath's
    global precision, and returns (value, bound), all three pairs.  bound
    bounds |value - exact| / scale, where scale is a lower bound, certified
    by the same pass, of the magnitude the budget is relative to; bound is
    None when the pass certifies no bit.  The first pass runs at ctx.bits + guard and is
    accepted when bound <= budget.  Otherwise the next pass runs at
    p + ceil(log2(bound / budget)) + 1, which meets the budget when the
    bound scales like 2^-p, or at 2p when bound is None; the step and the
    stall test below are decided exactly on the pairs.  TruncationFailure,
    with the bound, the bound before and the budget in its message, is
    raised when a rerun that added s bits shrank the bound by less than
    2^(s/2) (so a bound with a part that does not
    scale like 2^-p stops the ladder at once rather than at the cap), when
    the next pass would run past the cap of 1024 * ctx.bits bits, and, before
    any pass, when tol is below ctx.rounding_floor (_check_floor).  what()
    names the evaluation in those messages; it is called only on failure.
    first, when given, is the (value, bound) of the first pass, already run
    at ctx.bits + guard by a caller that shares that pass among several
    evaluations; the policy starts from it.
    """
    _check_floor(ctx, what)
    prec, last, added = ctx.bits + guard, None, 0
    while True:
        (value, bound), first = evaluate(prec) if first is None else first, None
        if bound is not None and not _abs_lt(budget, bound):
            return _round(value, ctx.bits)
        step, stalled = prec, False
        if bound is not None:
            # ceil(log2(bound / budget)) is k or k + 1, k the difference of the top bits
            (bm, be), (tm, te) = bound, budget
            k = be + bm.bit_length() - te - tm.bit_length()
            step = k + _abs_lt((tm, te + k), bound) + 1
            # the rerun added `added` bits and shrank the bound by less than 2^(added/2)
            stalled = last is not None and _abs_lt((last[0] ** 2, 2 * last[1]),
                                                   (bm * bm, 2 * be + added))
        if stalled or prec + step > 1024 * ctx.bits:
            def shown(b):
                return mpmath.nstr(mpmath.inf if b is None else _mpf(b), 8)
            raise TruncationFailure(
                "%s: error bound %s misses the budget %s at %d bits, and a rerun cannot meet it"
                " (bound before: %s; next pass: %d bits; cap: 1024 * bits = %d)"
                % (what(), shown(bound), shown(budget), prec, shown(last), prec + step,
                   1024 * ctx.bits))
        prec, last, added = prec + step, bound, step


def _product_pass(a_p, q_p, head_len: int, inv_gap: int, max_terms: int, prec: int):
    """One evaluation of (a;q)_inf on the pairs a and q at prec bits:
    (value, bound) for _certified, bound relative to the exact product and
    None when it certifies no bit.

    value is the head (a;q)_J, formed on pairs, times exp(-S), S the sum of
    the terms t_k = w^k / (k (1 - q^k)) for w = a q^J.  S is summed in
    integers with prec fractional bits (v = 2^-prec): w and q are floored
    to multiples of v, w^k and q^k are stepped by products floored to v,
    t_k is floored once, and the sum stops at the first term that floors
    to -1, 0 or 1, which is not added.  A head factor that rounds to 0
    gives (0, 0) when a q^j is exactly 1, and (0, None) otherwise.

    With W >= |w| for the computed and the floored w, G = inv_gap >=
    1 / (1 - q) and n the index of the term that stopped the sum, the
    returned bound, 2 v times the units below, covers:
      head: each pair operation rounds once, to relative v.  w_j = a q^j
        carries j roundings, and 1 - w_j carries them amplified by
        A_j = |w_j| / |1 - w_j| < 2^(d_j + 1), d_j the difference of the
        two magnitudes' binary exponents, plus its own rounding and the
        product's: sum_j (j max(1, A_j) + 2) <= amp + 2J.
      S, in units of v: the floored w^k is within 1 / (1 - W) of w'^k,
        w' the floored w, each step adding less than 1; the floored q^k is
        at most q'^k and within k - 1 of it, so 1 - q^k as summed is at
        least 1 - q^k >= 1 / G and off by at most k - 1.  So the k-th term
        is off by at most 1 + G / (k (1 - W)) + W^k G^2 against
        w'^k / (k (1 - q'^k)), which sums to at most
        n - 1 + G b / (1 - W) + G^2 W / (1 - W) over the terms added,
        b = bitlen(n) >= 1 + ln(n - 1).  The terms fall by W at least,
        |t_(k+1) / t_k| = W (k / (k + 1)) (1 - q^k) / (1 - q^(k+1)), and the
        term that stopped the sum is at most 2 + G / (1 - W) + G^2 W, so
        the terms not added are at most that over 1 - W.  Flooring w moves
        S by at most G / (1 - W), as |dS/dw| <= sum_k W^(k-1) / (1 - q^k);
        flooring q by at most G^2 W / (1 - W), as q^k - q'^k <= k v; and
        the J roundings of w, w (1 + e) with |e| <= J v, by at most
        J W G / (1 - W).  In all at most n - 1 plus
        (2 + G (b + 2 + J W) + 3 G^2 W) / (1 - W)^2.  Each of these sums
        is a geometric series in W, so the bound holds for any W < 1, also
        for the head's W up to 0.9 near q = 1.
      exp: _exp is within relative v of exp(-S~), which is exp(-S) times
        exp(S - S~), S - S~ being the error of S above; and the last
        product rounds once more: 2.
    The bound is returned only when it is at most 2^-10: then every error
    it sums is so small that the factor 2 covers the products of the
    factors (1 + e) against their first-order sums, and the amplifications
    of the computed w_j against the exact ones.
    """
    head, w, amp = _ONE, a_p, 0
    for j in range(head_len):
        factor = _sub(_ONE, w, prec)
        if not factor[0]:   # exact when a q^j = 1, that is a_m q_m^j = 2^(-a_e - j q_e)
            top = -a_p[1] - j * q_p[1]
            return _ZERO, (_ZERO if top >= 0 and a_p[0] * q_p[0] ** j == 1 << top else None)
        head = _mul(head, factor, prec)
        d = w[1] + abs(w[0]).bit_length() - factor[1] - abs(factor[0]).bit_length()
        amp += j << max(0, d + 1)
        w = _mul(w, q_p, prec)

    one = 1 << prec
    w_v, q_v = ((m << max(0, e + prec)) >> max(0, -e - prec) for m, e in (w, q_p))
    total, wk, qk = 0, w_v, q_v
    for n in range(1, max_terms + 1):
        term = (wk << prec) // (n * (one - qk))   # t_n
        if -1 <= term <= 1:
            break
        total += term
        wk, qk = wk * w_v >> prec, qk * q_v >> prec
    else:
        raise TruncationFailure("log series not resolved within max_terms=%d (w=%s, q=%s)" % (
            max_terms, mpmath.nstr(_mpf(w), 8), mpmath.nstr(_mpf(q_p), 8)))
    big_w = abs(w_v) + 1   # W 2^prec, above the computed and the floored |w|
    series = ((2 + inv_gap * (n.bit_length() + 2)) * one * one
              + (inv_gap * head_len + 3 * inv_gap ** 2) * big_w * one)
    units = amp + 2 * head_len + n + 1 - (-series // (one - big_w) ** 2)
    value = _mul(head, _exp((-total, -prec), prec), prec)
    return value, (None if units >> (prec - 11) else (units, 1 - prec))


def _exp(x: tuple[int, int], prec: int) -> tuple[int, int]:
    """e^x of a pair, within relative 2^-prec, as a pair of more bits; the
    product's certificate needs that bound, which mpmath's mpf_exp does not
    state.

    With |x| < 2^t, y = x / 2^r for r = max(0, t + 8) has |y| < 2^-8.
    Taylor's sum of e^y runs in integers at wp = prec + r + k fractional
    bits, k = bitlen(prec + r) + 5: y is floored to a multiple of
    v = 2^-wp, each term t_i = t_(i-1) y / i is floored once, and the sum
    stops at the first term that floors to 0; r squarings on pairs at wp
    bits give e^x.  Flooring y moves e^y by at most relative 1.01 v.  Each
    computed term is within 1.01 v of the exact term of the floored y, as
    |y| / i < 2^-8 damps the error it inherits, so the n terms added are
    off by at most 1.01 n v, and the terms left out, which fall by 1/2 at
    least from one below 1.01 v, by at most 2.02 v.  As e^y >= 0.99, the
    sum is within relative e_0 <= (1.03 n + 3.1) v <= 4 wp v of e^y, since
    n <= wp / 8 + 3.  Each squaring at most doubles the relative error and
    adds v, so e^x carries at most exp(2^r (e_0 + v)) - 1, where
    2^r (e_0 + v) <= 2^r 8 wp v < 2^(r + k - 1 - wp) = 2^-prec / 2, as
    8 wp <= 16 (prec + r) < 2^(k-1); and exp(z) - 1 <= 1.01 z for z that
    small.
    """
    m, e = x
    r = max(0, e + abs(m).bit_length() + 8)
    wp = prec + r + (prec + r).bit_length() + 5
    y = (m << max(0, e - r + wp)) >> max(0, r - e - wp)
    total, term, i = 1 << wp, 1 << wp, 1
    while term:
        term, i = term * y // (i << wp), i + 1
        total += term
    total = total, -wp
    for _ in range(r):
        total = _mul(total, total, wp)
    return total


def qpochhammer_inf(a, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """Infinite product (a;q)_inf, within relative tol/16 of the exact value.

    The finite head (a;q)_J is multiplied out, J being the first index with
    |a q^J| <= W = 2^-g for g = floor(g*), g* = sqrt(bits log2(1/q) / 2):
    there are about (g + log2|a|) / log2(1/q) head factors and bits / g
    terms below, a term costs about half a factor, and g* makes the cost
    least.  Where floor(g*) is 0 (q above 2^(-2/bits), 0.9946 at 256 bits),
    g is g* itself, but W at most 0.9: a head that waited for |w| <= 1/2
    would need about ln 2 / (1 - q) factors, 69,314 at q = 0.99999 and
    a = q, where this one needs 10,535.  A head factor that is exactly zero
    makes the result 0.  The rest is (w;q)_inf = exp(-S) for w = a q^J, with

        S = -log (w;q)_inf = sum_(k>=1) w^k / (k (1 - q^k)),

    the sum over n >= 0 of log(1 - w q^n) = -sum_k (w q^n)^k / k for
    |w| < 1 (Gasper-Rahman, Basic Hypergeometric Series, 2nd ed.).  For
    w > 0 every term has one sign, and for w < 0 the terms alternate; either
    way they fall by the factor |w| <= W at least, and an absolute error in
    S is the same relative error in exp(-S), so nothing is lost to
    cancellation, also near q = 1: (q;q)_inf at q = 0.9999 is about
    e^-16449, and takes one pass of 1,053 head factors and about 1,880
    terms.  The pass (_product_pass) bounds its rounding and its tail a
    priori, from J, the term count, |w| and 1 / (1 - q).  Its precision,
    ctx.bits plus the bits that bound needs when no head factor lies closer
    to 0 than 1 - q^(j+1), is fixed before it runs, with 1 / (1 - W) <= 2^c
    for c from _tail_reach, so _certified, the package's escalation policy,
    accepts the first pass unless a head factor lies closer to 0 than that,
    and then reruns it at the bits the bound asks for.  The pass's budget is
    tol/64, and rounding the result to ctx.bits adds at most 2^-bits, which
    is below tol/64 by the rounding-floor check.

    Raises TruncationFailure when J exceeds max_terms, when tol is below
    ctx.rounding_floor, when the sum needs more than max_terms terms, or
    when a rerun's bound stalls or would need more than 1024 * ctx.bits
    bits.
    """
    return _qpochhammer_inf_memo(ctx.to_real(a), as_qparam(q, ctx), ctx)


# Keyed on (a, q) as rounded to ctx.bits and on ctx, which fix the value.
# lru_cache keeps no raised exception, so a failure is raised on every call.
@functools.lru_cache(maxsize=256)
def _qpochhammer_inf_memo(a: QReal, q: QReal, ctx: PrecisionContext) -> QReal:
    head_len, g = _head_length(a, q, ctx.bits)
    if head_len > ctx.max_terms:
        raise TruncationFailure(
            "(a;q)_inf needs %d head factors, more than max_terms=%d (a=%s, q=%s)"
            % (head_len, ctx.max_terms, mpmath.nstr(a, 8), mpmath.nstr(q, 8)))
    a_p, q_p = _pair(a), _pair(q)
    inv_gap = -(-(1 << -q_p[1]) // ((1 << -q_p[1]) - q_p[0]))   # ceil(1 / (1 - q))
    # The pass's units with W = 2^-g <= 1 - 2^-c, n <= (bits + 64) / g + 1,
    # and amp <= J^2 / 2 + 2 J G (factors no closer to 0 than 1 - q^(j+1)),
    # against a budget of 2^-bits or more
    c = _tail_reach(_raw_pair(_head_stop(g)), _ONE, ctx.bits)
    n = int((ctx.bits + 64) / g) + 1
    units = (head_len * (head_len + 4 * inv_gap) // 2 + 2 * head_len + n + 1
             + ((2 + inv_gap * (n.bit_length() + 2)) << 2 * c)
             + inv_gap * (head_len + 3 * inv_gap) * ((1 << 2 * c) - (1 << c)))
    return _mpf(_certified(
        lambda prec: _product_pass(a_p, q_p, head_len, inv_gap, ctx.max_terms, prec),
        _budget(ctx, 6), ctx,
        lambda: "(a;q)_inf at a=%.8g, q=%.8g" % (float(a), float(q)),
        guard=(2 * units).bit_length()))


def basic_hypergeometric(num, den, q, z, ctx: PrecisionContext = DEFAULT_CONTEXT,
                         terminating_at: int | None = None) -> QReal:
    """Real basic hypergeometric series by term-ratio forward recurrence.

    num/den are sequences of numerator/denominator parameters. The k-th term
    obeys t_{k+1} = t_k * prod_i (1-a_i q^k) / prod_j (1-b_j q^k) * z/(1-q^{k+1}),
    so each term costs O(len(num)+len(den)) operations and no q-shifted
    factorial is recomputed from scratch.

    With terminating_at=N the sum has exactly N+1 terms and one numerator
    parameter must equal q^-N; a term becoming exactly zero (another slot
    terminating earlier) also stops the loop. Without it, the loop stops after
    the term t_(k+1) once every 1 - |b_j| q^k is positive, so that
    R = |z| prod(1 + |a_i| q^k) / ((1 - q^(k+1)) prod(1 - |b_j| q^k)) bounds
    |t_(j+1) / t_j| for every j >= k (each factor falls in j), and R < 1 puts
    the tail past t_(k+1), at most |t_(k+1)| R / (1 - R), below
    tol * max(1, |partial sum|).  R is formed at the working precision from
    the rounded q^k the terms are formed from.  A term that merely looks
    small does not stop the loop: 1 / (1 - b q^k) can lift a later term by
    any factor.  TruncationFailure is raised when max_terms is exhausted.
    The loop runs on pairs at ctx.bits.  The C and grid D evaluators sum
    their 3phi2 in a loop of their own (families._ultra_series), and the
    tests hold both to the same exact sums.
    """
    q = as_qparam(q, ctx)
    nums = [ctx.to_real(v) for v in num]
    dens = [ctx.to_real(v) for v in den]
    z = ctx.to_real(z)
    z_p = _pair(z, "z")
    num_p = [_pair(a, "numerator parameter") for a in nums]
    den_p = [_pair(b, "denominator parameter") for b in dens]
    q_p, prec, tol_p = _pair(q), ctx.bits, _pair(ctx.tol)
    if terminating_at is not None:
        _check_degree("terminating_at", terminating_at)
        # some |a - q^-N| <= q^-N 2^-(bits/2), the difference rounded to bits
        tm, te = _q_power(q, -terminating_at, prec)
        if all(_abs_lt((tm, te - prec // 2), _sub(a, (tm, te), prec)) for a in num_p):
            raise ValueError("terminating_at=%d requires a numerator parameter equal to q^-%d"
                             % (terminating_at, terminating_at))
    total, term, qk = _ZERO, _ONE, _ONE
    for k in range(ctx.max_terms):
        total = _add(total, term, prec)
        if terminating_at is not None and k >= terminating_at:
            return _mpf(total)
        # ratio = z / (1 - q qk) / prod_j (1 - b_j qk) * prod_i (1 - a_i qk);
        # q qk is also the next qk
        q_qk = _mul(q_p, qk, prec)
        ratio = _div(z_p, _sub(_ONE, q_qk, prec), prec)
        for b in den_p:
            f = _sub(_ONE, _mul(b, qk, prec), prec)
            if not f[0]:
                raise PoleError("denominator parameter %s vanishes at index %d"
                                % (mpmath.nstr(_mpf(b), 8), k), k)
            ratio = _div(ratio, f, prec)
        for a in num_p:
            ratio = _mul(ratio, _sub(_ONE, _mul(a, qk, prec), prec), prec)
        term = _mul(term, ratio, prec)
        if not term[0]:
            return _mpf(total)
        if terminating_at is None:
            # R = |z| prod(1 + |a_i| q^k) / ((1 - q^(k+1)) prod(1 - |b_j| q^k))
            lows = [_sub(_ONE, _mul((abs(m), e), qk, prec), prec) for m, e in den_p]
            if all(m > 0 for m, _ in lows):
                major = _div((abs(z_p[0]), z_p[1]), _sub(_ONE, q_qk, prec), prec)
                for low in lows:
                    major = _div(major, low, prec)
                for m, e in num_p:
                    major = _mul(major, _add(_ONE, _mul((abs(m), e), qk, prec), prec), prec)
                floor = _mul(tol_p, total if _abs_lt(_ONE, total) else _ONE, prec)
                # R < 1, and the tail, at most |term| R / (1 - R), below floor
                if _abs_lt(major, _ONE) and _abs_lt(_mul(term, major, prec),
                                                    _mul(floor, _sub(_ONE, major, prec), prec)):
                    return _mpf(_add(total, term, prec))
        qk = q_qk
    raise TruncationFailure(
        "series not resolved within max_terms=%d (q=%s, z=%s)"
        % (ctx.max_terms, mpmath.nstr(_mpf(q_p), 8), mpmath.nstr(_mpf(z_p), 8))
    )
