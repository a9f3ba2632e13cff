"""Extended-precision q-series primitives.

Public values are mpmath ``mpf`` reals ("QReal" below) computed at a
working precision carried by a :class:`PrecisionContext`. Infinite objects are
truncated under a-priori tail bounds: a result is returned together with the
guarantee that the discarded tail is below the context tolerance, or a
:class:`TruncationFailure` is raised.

An infinite product (a;q)_inf splits off the finite head (a;q)_J with
|a q^J| <= 1/2 and sums the rest by Euler's series, whose terms decay like
q^{k^2/2}.  Its certificate is relative and covers rounding as well as the
tail: the result is within relative tol/16 of the exact product, with more
bits when the alternating series cancels.  The head, the sum and the
rounding bound of each pass run on pairs.  Each
product is evaluated once per (a, q, context), with a and q rounded to the
context's bits: later calls return the memoised value, so no caller needs
to hand a computed product to another.  The memo is bounded (the 256 most
recently used products) and keeps no failure, so an uncertifiable product
raises on every call.

Rounding error is certified by one escalation policy, _certified, for the
infinite products and for the h series of families.  A pass is a call
evaluate(p): at the p bits it is given, it returns its value and a bound
of its error relative to a certified lower bound of the magnitude its
budget is relative to.  The first pass that meets the budget is rounded
to ctx.bits and returned; a pass that misses it is redone at
p + ceil(log2(bound / budget)) + 1 bits, or at 2p when it certifies no
bit.  TruncationFailure is raised when tol is below
ctx.rounding_floor, when a finite bound does not shrink from one pass to
the next, and when the next pass would run past the cap of 1024 * ctx.bits
bits (262,144 at the default 256 bits): h_n(0) at q = 0.5 for odd
n >= 1025 needs more, for example.

The package computes on pairs: a finite real m 2^e held as two Python ints
(m, e), the only number format that crosses a private interface.  A public
function converts its inputs once (ctx.to_real, then _pair, which names the
argument it refuses) and its result once (_mpf).  Precision crosses the
same interfaces as an argument: every private function that rounds takes
the precision it rounds to (prec, or ctx.bits from its context), and none
reads mpmath's global precision, which the package sets only around mpf
arithmetic and rendering.  The private functions hand
each other pairs, with this module's private arithmetic _add, _sub, _mul,
_div, _round and _abs_lt (_mul by (k, 0) is mpf_mul_int by the int k).
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

import dataclasses
import functools

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_ceil, mpf_div, mpf_le, mpf_log,
                          mpf_neg, mpf_shift, numeral, round_nearest, to_int)

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


@dataclasses.dataclass(frozen=True)
class PrecisionContext:
    """Working precision, truncation tolerance and iteration budget.

    bits      -- mantissa size for every mpf operation (>= 64)
    tol       -- certified truncation tolerance, default 2^-200
    max_terms -- hard cap on product factors / series terms
    """

    bits: int = 256
    tol: QReal = mpmath.mpf(2) ** -200
    max_terms: int = 50000

    def __post_init__(self):
        if not isinstance(self.bits, int) or self.bits < 64:
            raise ValueError("bits must be an integer >= 64 (got %r)" % (self.bits,))
        if not self.tol > 0:
            raise ValueError("tol must be positive (got %r)" % (self.tol,))
        if not isinstance(self.max_terms, int) or self.max_terms < 1:
            raise ValueError("max_terms must be an integer >= 1 (got %r)" % (self.max_terms,))

    @classmethod
    def create(cls, bits: int = 256, tol_exp: int = 200, max_terms: int = 50000) -> "PrecisionContext":
        """Build a context with tol = 2^-tol_exp."""
        return cls(bits=bits, tol=mpmath.mpf(2) ** -int(tol_exp), max_terms=max_terms)

    @property
    def rounding_floor(self) -> QReal:
        """Smallest tol a certified kernel result rounded to bits can meet.

        Rounding to bits costs up to 2^-bits relatively, which is at most
        tol/64: a certified product spends that much of its tol/16 on it, and
        every certified evaluation (_certified) refuses a tol below the floor.
        """
        return mpmath.ldexp(1, 6 - self.bits)

    def workprec(self):
        """Context manager setting the mpmath working precision."""
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
        it would give the same value.
        """
        if type(value) is mpmath.mpf:
            _, man, exp, bc = value._mpf_
            if bc <= self.bits and (man or not exp):   # not inf or nan
                return value
        return mpmath.mpf(value, prec=self.bits)


DEFAULT_CONTEXT = PrecisionContext()


def as_qparam(q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """Validate and convert a base parameter: 0 < q < 1."""
    qv = ctx.to_real(q)
    if not (0 < qv < 1):
        raise ValueError("q must satisfy 0 < q < 1 (got q=%s)" % mpmath.nstr(qv, 8))
    return qv


def to_decimal(value, digits: int) -> str:
    """Deterministic decimal rendering to `digits` significant digits; an
    integer below 10^digits in magnitude prints as all its digits.

    An mpf passes through unrounded whatever the ambient precision; other
    inputs are converted with enough bits to honor the digit count.
    """
    if isinstance(value, mpmath.mpf):
        v = value
    else:
        with mp.workprec(max(mp.prec, 4 * digits + 16)):
            v = mpmath.mpf(value)
    if not mpmath.isfinite(v):
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    if mpmath.isint(v) and abs(v) < 10 ** digits:
        n = int(v)
        # numeral converts chunks of fewer than 250 digits, so Python's limit
        # on the digits str() gives an int does not apply; size, an estimate
        # of the digit count, sets the chunks.
        return numeral(n, size=n.bit_length() * 3 // 10 + 1)
    return mpmath.nstr(v, digits)


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


def _round(a: tuple[int, int], prec: int) -> tuple[int, int]:
    """a rounded to prec bits (mpf_pos)."""
    return _rounded(a[0], a[1], prec)


def _mul(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a * b rounded to prec bits (mpf_mul)."""
    return _rounded(a[0] * b[0], a[1] + b[1], prec)


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
    """a - b rounded to prec bits (mpf_sub)."""
    return _add(a, (-b[0], b[1]), prec)


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
    if mb == 1 or mb == -1:   # b = +-2^eb: the quotient is exact before rounding
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
    wp = prec + 32   # the guard bits the bound above assumes
    start = min(lo, 0)
    down = _stepped(_div(_ONE, x, wp), -start, wp) if start else []
    up = _stepped(x, hi, wp)
    # run[k - start] is x^k for start <= k <= max(hi, 0)
    run = down[::-1] + [_ONE] + up
    return [_round(v, prec) for v in run[lo - start:hi - start + 1]]


def _stepped(base: tuple[int, int], count: int, wp: int) -> list[tuple[int, int]]:
    """[base^1, ..., base^count] of a pair, each product rounded at wp."""
    out = [base] if count > 0 else []
    for _ in range(count - 1):
        out.append(_mul(out[-1], base, wp))
    return out


def _check_degree(name: str, value, least: int = 0) -> None:
    """ValueError unless value is an integer >= least (0 or 1): the one
    check of a degree, count or index argument."""
    if not isinstance(value, int) or value < least:
        raise ValueError("%s must be a %s integer (got %r)"
                         % (name, ("nonnegative", "positive")[least], value))


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


def _head_length(a: QReal, q: QReal) -> int:
    """Smallest J >= 0 with |a| q^J <= 1/2, up to rounding at the boundary:
    ceil(log(2 |a|) / -log(q)) at 53 bits, by the libmp operations that
    mpmath's abs, log and ceil make at that precision, on raw tuples."""
    size = mpf_shift(mpf_abs(a._mpf_, 53, round_nearest), 1)
    if mpf_le(size, fone):
        return 0
    ratio = mpf_div(mpf_log(size, 53, round_nearest),
                    mpf_neg(mpf_log(q._mpf_, 53, round_nearest)), 53, round_nearest)
    return int(to_int(mpf_ceil(ratio, 53, round_nearest)))


def _check_floor(ctx: PrecisionContext, what) -> None:
    """TruncationFailure unless ctx.tol is at least ctx.rounding_floor: a
    value rounded to ctx.bits carries up to 2^-bits relatively, which a
    budget of tol/64 or more then covers.  what() names the evaluation."""
    if ctx.tol < ctx.rounding_floor:
        raise TruncationFailure("%s: tol=%s is below the rounding floor %s of a %d-bit value" % (
            what(), mpmath.nstr(ctx.tol, 8), mpmath.nstr(ctx.rounding_floor, 8), ctx.bits))


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
    p + ceil(log2(bound / budget)) + 1 (in mpf at ctx.bits), which meets
    the budget when the bound scales like 2^-p, or at 2p when bound is
    None.  TruncationFailure, with the bound and the budget in its message,
    is raised when a bound does not shrink from the pass before, when the
    next pass would run past the cap of 1024 * ctx.bits bits, and, before
    any pass, when tol is below ctx.rounding_floor (_check_floor).  what()
    names the evaluation in those messages; it is called only on failure.
    first, when given, is the (value, bound) of the first pass, already run
    at ctx.bits + guard by a caller that shares that pass among several
    evaluations; the policy starts from it.
    """
    _check_floor(ctx, what)
    prec, last = ctx.bits + guard, mp.inf
    while True:
        if first is None:
            value, bound = evaluate(prec)
        else:
            (value, bound), first = first, None
        if bound is not None and not _abs_lt(budget, bound):
            return _round(value, ctx.bits)
        with ctx.workprec():
            size = mp.inf if bound is None else _mpf(bound)
            step = prec if bound is None else int(mp.ceil(mp.log(size / _mpf(budget), 2))) + 1
        if last <= size < mp.inf or prec + step > 1024 * ctx.bits:
            raise TruncationFailure(
                "%s: error bound %s misses the budget %s at %d bits, and a rerun cannot meet it"
                " (bound before: %s; next pass: %d bits; cap: 1024 * bits = %d)"
                % (what(), mpmath.nstr(size, 8), mpmath.nstr(_mpf(budget), 8), prec,
                   mpmath.nstr(last, 8), prec + step, 1024 * ctx.bits))
        prec, last = prec + step, size


def _product_pass(a_p, q_p, head_len: int, target_p, max_terms: int, prec: int):
    """One evaluation of (a;q)_inf on the pairs a, q and target at prec bits.

    Returns (value, noise) as pairs: value is the head (a;q)_J times Euler's
    sum for w = a q^J, summed until the omitted tail is at most
    target * |sum|; noise bounds the relative rounding error of value to
    first order, None when the sum is 0.  An exactly vanishing head factor
    gives (0, 0).  Each pair operation is the mpf operation of the same
    expression at the same precision, so the value and the noise are those
    of the mpf loop bit for bit.
    """
    head = _ONE
    w = a_p
    f_min = None   # the smallest |head factor|
    for _ in range(head_len):
        factor = _sub(_ONE, w, prec)
        if not factor[0]:
            return _ZERO, _ZERO
        head = _mul(head, factor, prec)
        if f_min is None or _abs_lt(factor, f_min):
            f_min = abs(factor[0]), factor[1]
        w = _mul(w, q_p, prec)

    # sum_k t_k with t_{k+1} = t_k * (-w q^k) / (1 - q^{k+1}).  The ratio's
    # magnitude decreases in k, so once it is <= 1/2 every omitted term is
    # at most half the one before and the tail after t_k is below |t_k|.
    total = term = t_max = _ONE
    step = (-w[0], w[1])
    qk1 = q_p
    settled = False
    for n_terms in range(1, max_terms + 1):
        den = _sub(_ONE, qk1, prec)
        if not settled:
            # 2 |step| <= den, as den > 0
            settled = not _abs_lt(den, (step[0], step[1] + 1))
        term = _div(_mul(term, step, prec), den, prec)
        total = _add(total, term, prec)
        if settled:
            # |term| <= target * |total|
            if not _abs_lt(_mul(target_p, total, prec), term):
                break
        elif _abs_lt(t_max, term):
            t_max = abs(term[0]), term[1]
        step = _mul(step, q_p, prec)
        qk1 = _mul(qk1, q_p, prec)
    else:
        raise TruncationFailure(
            "Euler sum for (w;q)_inf not resolved within max_terms=%d (w=%s, q=%s)"
            % (max_terms, mpmath.nstr(_mpf(w), 8), mpmath.nstr(_mpf(q_p), 8)))
    if not total[0]:
        return _ZERO, None

    # Every operation has relative error <= u.  Head: factor j carries
    # j u |a q^j| / |1 - a q^j| + u, plus one multiplication.  The J roundings
    # in w perturb (w;q)_inf by at most 2 J u |w| / (1-q) relatively.  Sum:
    # t_k carries k (k + 3 + 1/(1-q)) u, using j q^j / (1 - q^j) <= q / (1-q),
    # and n_terms additions add n_terms u * sum |t_k|.  That is
    #   noise = u (J (2 + J |a| / f_min) + 2 J / (1-q)
    #              + n^2 (n + 4 + 1/(1-q)) t_max / |total| + 1),  n = n_terms + 1,
    # with u = 2^(1-prec), each operation rounded at prec in that order.
    inv_gap = _div(_ONE, _sub(_ONE, q_p, prec), prec)
    n = n_terms + 1
    noise = _ZERO
    if head_len:
        ratio = _div(_mul((head_len, 0), _round((abs(a_p[0]), a_p[1]), prec), prec), f_min, prec)
        noise = _mul((head_len, 0), _add((2, 0), ratio, prec), prec)
    noise = _add(noise, _mul((2 * head_len, 0), inv_gap, prec), prec)
    sum_noise = _mul((n * n, 0), _add((n + 4, 0), inv_gap, prec), prec)
    sum_noise = _div(_mul(sum_noise, t_max, prec), (abs(total[0]), total[1]), prec)
    noise = _add(_add(noise, sum_noise, prec), _ONE, prec)
    return _mul(head, total, prec), _mul((1, 1 - prec), noise, prec)


def qpochhammer_inf(a, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """Infinite product (a;q)_inf, within relative tol/16 of the exact value.

    The finite head (a;q)_J is multiplied out, J being the first index with
    |a q^J| <= 1/2; a head factor that is exactly zero makes the result 0.
    The rest is Euler's sum (Gasper-Rahman, Basic Hypergeometric Series,
    1.3) for w = a q^J,

        (w;q)_inf = sum_k (-1)^k q^{k(k-1)/2} w^k / (q;q)_k,

    whose terms decay like q^{k^2/2}: about 75 terms at q = 0.95 and 256
    bits, where the plain product needs about 2,900 factors.  Summation
    stops under the geometric tail bound once the term ratio
    |w| q^k / (1 - q^{k+1}) is at most 1/2, with the tail below tol/64 of
    the partial sum.  Rounding is bounded from
    the head length, the term count and the largest term; for w > 0 the
    terms alternate and the sum can be far smaller than its largest term.
    The first pass runs at ctx.bits + 16 and _certified, the package's one
    escalation policy, reruns it until that bound meets tol/64: at
    p + ceil(log2(bound / (tol/64))) + 1 bits, or at 2p while the bound
    certifies no bit ((q;q)_inf at 256 bits: 272 then 377 bits at q = 0.99,
    272 to 2,176 by doubling at q = 0.999, and 272 to 17,408 at q = 0.9999).
    Rounding the result to ctx.bits adds at most 2^-bits, which is below
    tol/64 by the rounding-floor check.

    Raises TruncationFailure when J exceeds max_terms, when tol is below
    ctx.rounding_floor, when the sum needs more than max_terms terms, or
    when a rerun's bound does not shrink or would need more than
    1024 * ctx.bits bits.
    """
    return _qpochhammer_inf_memo(ctx.to_real(a), as_qparam(q, ctx), ctx)


# Keyed on (a, q) as rounded to ctx.bits and on ctx, which fix the value.
# lru_cache keeps no raised exception, so a failure is raised on every call.
@functools.lru_cache(maxsize=256)
def _qpochhammer_inf_memo(a: QReal, q: QReal, ctx: PrecisionContext) -> QReal:
    head_len = _head_length(a, q)
    if head_len > ctx.max_terms:
        raise TruncationFailure(
            "(a;q)_inf needs %d head factors, more than max_terms=%d (a=%s, q=%s)"
            % (head_len, ctx.max_terms, mpmath.nstr(a, 8), mpmath.nstr(q, 8)))
    budget = _pair(mpmath.ldexp(ctx.tol, -6))

    def product_pass(prec: int):
        value, noise = _product_pass(_pair(a), _pair(q), head_len, budget, ctx.max_terms, prec)
        # noise is relative to value, so the product is at least |value| (1 - noise)
        if noise is None or not _abs_lt(noise, _ONE):
            return value, None
        return value, _div(noise, _sub(_ONE, noise, prec), prec)
    # 16 guard bits cover the rounding bound of typical head lengths and term counts
    return _mpf(_certified(product_pass, budget, ctx,
                           lambda: "(a;q)_inf at a=%.8g, q=%.8g" % (float(a), float(q)),
                           guard=16))


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
    """
    q = as_qparam(q, ctx)
    with ctx.workprec():
        nums = [mpmath.mpf(v) for v in num]
        dens = [mpmath.mpf(v) for v in den]
        z = mpmath.mpf(z)

        if terminating_at is not None:
            n_stop = terminating_at
            _check_degree("terminating_at", n_stop)
            target = q ** (-n_stop)
            witness = min((abs(v - target) for v in nums), default=None)
            if witness is None or witness > abs(target) * mpmath.mpf(2) ** (-(ctx.bits // 2)):
                raise ValueError("terminating_at=%d requires a numerator parameter equal to q^-%d"
                                 % (n_stop, n_stop))

        z_p = _pair(z, "z")
        return _hypergeometric_sum([_pair(a, "numerator parameter") for a in nums],
                                   [_pair(b, "denominator parameter") for b in dens],
                                   _pair(q), z_p, ctx, terminating_at)


def _hypergeometric_sum(num_p, den_p, q_p, z_p, ctx: PrecisionContext,
                        terminating_at: int | None = None) -> QReal:
    """basic_hypergeometric's loop on pairs at ctx.bits, without its checks:
    for callers whose parameters are formed at ctx.bits and, given
    terminating_at=N, hold q^-N by construction (the C and grid D series)."""
    prec, tol_p = ctx.bits, _pair(ctx.tol)
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
