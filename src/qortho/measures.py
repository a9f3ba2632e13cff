"""Discrete orthogonality measures and certified Gram-matrix assembly.

A measure is a countable set of (node, weight) pairs.  Its five kinds follow
one pattern, so each kind is one record of the table _KINDS: the lanes its
node and weight at support index m are stepped from (see "Stepped runs"
below), the run of the closed-form diagonal d_n of the paired family (see
"Diagonal runs"), whether the support is all of Z or m >= 0, and the paired
family with its s.  The normalization follows the support: Z(a) on all of
Z, 1 on m >= 0.

  kind                support  node at m                  family  normalization
  hermite_extremal    m in Z   (a^-1 q^-m - a q^m)/2      h       Z(a)
  dual_qinv_extremal  m in Z   a^-2 q^-2m + a^2 q^2m      D(1/q)  Z(a)
  dual_q_extremal     m in Z   q (a^-2 q^-2m + a^2 q^2m)  D(q)    Z(a)
  dual_base_even      m >= 0   mu(2m; s)                  D(s)    1
  dual_base_odd       m >= 0   mu(2m+1; s)                D(s)    1

Here h is the q-inverse Hermite family, D(s) the dual discrete
q-ultraspherical family, q <= a < 1, 0 < s < q^-2 and Z(a) the theta sum
sum_(k in Z) q^(k(k-1)/2) a^(2k), which the Jacobi triple product equates
with (-a^2;q)_inf (-q/a^2;q)_inf (q;q)_inf (lattice_normalization).  The
base weights are stated with the common factor (1 - s q) cancelled, which
keeps them finite at s = q^-1.  The q-extremal weight vanishes at a single
site exactly when a^2 q^{2m} = 1 (e.g. a = q, m = -1), which is allowed.

adjudicate_normalization compares the lattice mass with Z(a) times the
degree-0 diagonal: Z(a) = (-a^2;q)_inf (-q/a^2;q)_inf (q;q)_inf by the
triple product, formed only as that theta sum, is the normalization used
throughout.

Assembly forms each quantity once: the family's recurrence coefficients
serve both the majorant and the values at the window nodes, and each entry
G_nn' over the M window nodes is an exact integer dot product rounded once,
within (2^-prec + 5 (M+1) 2^-(prec+16+bitlen(M))) sqrt(G_nn G_n'n') in any
node order (_pair_sums).

Stepped runs.  With up = a^-1 q^-m and down = a q^m, the weights before
normalization are

  hermite_extremal    a^(4m) q^(m(2m-1)) (1 + down^2)
  dual_qinv_extremal  a^(4m+1) q^(2m^2) (up + down)
  dual_q_extremal     a^(4m) q^(m(2m-1)) (1 + down^2) (up - down)^2
  dual_base           (1 - s q^(2j+1)) P_j q^(m(j-1+parity)),  j = 2m + parity,
                      P_j = (s q^2;q)_(j-1) / (q;q)_j, and 1 at j = 0.

No point is formed from scratch.  A run walks m = 0, 1, 2, ... (and, on the
full lattice, a second run m = -1, -2, ...) on pairs at wp = bits + 32, and
each kind's record gives the lanes it steps, with their values where the
run starts and what one step multiplies them by:
- extremal: up and down (times q^-1 and q, or q and q^-1 going down), the
  gap 1 - a^2 q^(2m) for m >= 0 or 1 - a^-2 q^(-2m) for m < 0 (taken to
  q^2 gap + (1 - q^2)), and the ratio of consecutive Gaussian factors, for
  example g_(m+1) = g_m a^4 q^(4m+1) for hermite_extremal, whose ratio is
  multiplied by q^4 per step;
- base: q^-j and s q^(j+1) (times q^-2 and q^2), 1 - s q^(2j+1) (taken to
  q^4 v + (1 - q^4)), the Gaussian ratio q^(4m+1+2 parity), and the four
  factors of P_(j+2) / P_j = (1 - s q^(j+1)) (1 - s q^(j+2))
  / ((1 - q^(j+1)) (1 - q^(j+2))), each taken to q^2 v + (1 - q^2).  The
  even run gives j = 0 as a head and starts its lanes at j = 2.
The weight is multiplied by its ratio at each step.  _walk rounds each
node and weight once to bits, divides the weight by Z(a) (at tol raised to
the rounding floor, as a Gram takes it) before that rounding, and checks
its sign.  The runs of one call are extended as far as it asks and then
dropped; DiscreteMeasure.points and a Gram read them alike, so every route
gives the same bits.

Diagonal runs.  By (a;q)_(n+1) = (a;q)_n (1 - a q^n) (Gasper-Rahman, Basic
Hypergeometric Series, 1.2) each closed-form diagonal steps from its d_0:

  kind                d_n / d_0                           d_0
  hermite_extremal    q^(-n(n+1)/2) (q;q)_n               1
  dual_qinv_extremal  q^-n (q;q)_2n / (q;q^2)_n^2         1
  dual_q_extremal     q^-n (q^2;q)_2n / (q^3;q^2)_n^2     q^-1 (1 - q)
  dual_base           q^-n (q^2;q^2)_n / (s q^2;q^2)_n    (s q^3;q^2)_inf / (q;q^2)_inf

d_(n+1) / d_n is q^-(n+1) (1 - q^(n+1)) for hermite_extremal and
q^-1 (1 - q^(2n+2)) / (1 - x q^(2n+2)) for the dual kinds, x = q^-1, q or s.
Its lanes are q^-(n+1) (times q^-1) or q^-1 (times 1) and each 1 - y q^k,
taken to q^k v + (1 - q^k) like the base lanes; _run steps them as it
steps the weights, and each d_n is rounded once to bits.

Bound.  up - down = a^-1 q^-m (1 - a^2 q^(2m)) cancels: the hermite_extremal
node and the dual_q_extremal weight carry it, and a difference of rounded
up and down would lose a factor (up + down) / |up - down| of accuracy, 2^20
at a = 1 - 2^-20 and m = 0, and without limit as a -> q at m = -1.  The runs
never form that difference.  They form up * gap for m >= 0 and
-(down * gap) for m < 0, and each gap is a sum of nonnegative terms:
1 - a^2 q^(2m+2) = q^2 (1 - a^2 q^(2m)) + (1 - q^2), started from 1 - a^2 or
(a^2 - q^2) / a^2, which are formed from the exact a and q and rounded
once.  At a = q and m = -1 that start is exactly 0, and so are the node of
hermite_extremal and the weight of dual_q_extremal there.  The base
factors 1 - x q^k and the diagonals' lanes are stepped the same way and
lie in (0, 1] for 0 < s < q^-2; the gaps lie in [0, 1] for q <= a < 1.

Every value is thus formed from the exact a, q and s by products, quotients
and sums of nonnegative terms, each rounded once at wp.  Let u = 2^-wp.  A
rounding multiplies by (1 + d) with |ln(1 + d)| <= -ln(1 - u); a product or
quotient adds the |ln| errors of its operands, and a sum of nonnegative
terms keeps the larger.  So give each value a count r: its operands' counts
added (product, quotient) or their larger (sum), plus 1 if it is rounded.
A value of count r is the exact value times e^t, |t| <= -r ln(1 - u).
Counted on the code, at k = |m| (the base runs count k from their first
lane, so k <= m), r is at most

  kind                node     weight, the division by Z(a) included
  hermite_extremal    5k + 3   k^2 + 3k + 4
  dual_qinv_extremal  4k + 4   k^2 + 3k + 4
  dual_q_extremal     4k + 5   k^2 + 13k + 12
  dual_base           2k + 2   7k^2 + 6k + 7
  diagonal d_k        3k^2 + 3k + 2 for every kind (2k^2 + 2k for hermite)

and the run to m < 0 counts no more at the same k.  The k^2 comes from the
ratio lanes: the weight takes in a new ratio, with its own O(k) roundings,
at every step.  Every entry is at most R(k) = 8 (k + 2)^2.  When
R u <= 1/200, |e^t - 1| <= 1.0051 R u, and the last rounding to bits
multiplies by (1 + e) with |e| <= 2^-bits, so every node and weight of a
run is within relative

    2^-bits + 1.01 R(|m|) 2^-(bits+32),   R(k) = 8 (k + 2)^2,

of the exact node, and of the exact weight before normalization divided by
the Z(a) lattice_normalization returns; so is every d_n, at k = n, of its
closed form (for the base kinds, with the two infinite products the kernel
returns).  R u <= 1/200 holds for |m| < 2^(bits/2 + 10), past any run a
list can hold; at |m| = 600 the second term is below 2^-(bits+10).

Window.  The summand a Gram omits at m, for degrees up to N, is at most
B(m) = w_m A(t_m)^2, t_m = |x_m|, where A(t) = max_n A_n(t) and
A_n(t) = sum_j |c_nj| t^j (families._recurrence gives A and says why it
bounds the family).  Each A_n has nonnegative coefficients and degree
n <= N, so A(t) <= A(t_0) (t / t_0)^N for t >= t_0 > 0.  A side therefore
runs the majorant once, at an anchor m_a with t_0 = t_(m_a), and bounds B
past it, where the nodes grow outward (below), by

    Bh(m) = w_m A(t_0)^2 (t_m / t_0)^(2N).

Write m' for the node after m, outward.  Bh(m') / Bh(m) is
r(m) = (w_m' / w_m) (t_m' / t_m)^(2N), which needs no majorant.  r is
nonincreasing from the kind's m_0 (below) on, so by the kernel's lemma on
geometric tails the omitted sum past a window edge m from the anchor on
is at most 2^c Bh(m'), c = _tail_reach(r(m)), for any r(m) < 1.  A side
scans out from +-(isqrt(bits) + 1), at least 9, and anchors at the first m
past m_0 whose r(m) has a c with 2^c w_m' <= target: no stop comes sooner,
since A >= A_0 = 1 gives Bh >= B >= w.  It stops at the first m from the
anchor on with 2^c Bh(m') <= target, c from r(m) itself, and returns
2^c Bh(m') as its tail.
The checks divide by the closed-form diagonals d_n, so
target = tol/8 * min(1, min_n d_n), and the two tails keep the truncation
of every relative residual below tol/4.  The tests read the rounded nodes
and weights, as the Gram does, and form r and Bh at bits, within relative
(4N + 4) 2^-bits of their values on those nodes and weights, so r is
within (8N + 9) 2^-bits, and each tail within relative
2^c (8N + 9) 2^-bits <= (8N + 9) 2^-(bits/2) by the kernel's cap on c;
A(t_0) carries the rounding families._recurrence measures.

m_0.  Step outward from m to m', and use ln(1 + x) <= x,
ln(1/q) >= 1 - q, 1 - q^2 <= 2 (1 - q) and 1 - q^4 <= 4 (1 - q).
- Extremal kinds, m >= 0 or m <= -2.  With U = a^-1 q^-m and D = a q^m
  (U D = 1), let v be the smaller of D/U = a^2 q^(2m) and
  U/D = a^-2 q^(-2m); v <= max(a^2, q^2) < 1, and v falls by q^2 a step.
  Every factor of r is a Gaussian ratio, which a step multiplies by q^4,
  or a constant times a function of v: the node ratio
  q^-1 (1 - q^2 v) / (1 - v) of hermite_extremal, the node ratio
  q^-2 (1 + q^4 v^2) / (1 + v^2) of the dual kinds, the ratio
  q^-2 ((1 - q^2 v) / (1 - v))^2 of the factor (up - down)^2, and the
  ratio q^-k (1 + q^2 v) / (1 + v), k = 0, 1 or 2, of the factor
  1 + down^2 or up + down.  As v falls, (1 - q^2 v) / (1 - v) falls, and
  the other two rise by the step ratios 1 + v^2 (1 - q^4)^2 / (1 + q^4 v^2)^2
  and 1 + v (1 - q^2)^2 / (1 + q^2 v)^2.  So

      ln(r(m') / r(m)) <= -4 ln(1/q) + v (1 - q^2)^2 + 2N v^2 (1 - q^4)^2
                       <= 4 (1 - q) (-1 + (1 - q) v (1 + 8N v)),

  and the rule is (1 - q) v (1 + 8N v) <= 1.
- Base kinds, j = 2m + parity >= 1 stepping to j + 2, Q = q^(j+1) and
  y = s q^(2j+1) = s Q^2 / q < 1.  The factors of r are the Gaussian ratio
  q^(4m+1+2 parity), which a step multiplies by q^4; (1 - q^4 y) / (1 - y),
  which falls; the node ratio q^-2 (1 + q^4 y) / (1 + y), whose step ratio
  is at most 1 + y (1 - q^4)^2; and P_(j+2) / P_j = F(q^(j+1)) F(q^(j+2)),
  F(x) = (1 - s x) / (1 - x), whose step ratio is
  1 + (s - 1) (1 - q^2) x / ((1 - q^2 x) (1 - s x)): at most 1 for s <= 1,
  and for s > 1 largest at x = Q.  So

      ln(r(m') / r(m)) <= 4 (1 - q) (-1 + (s - 1)^+ Q / ((1 - q^2 Q) (1 - s Q))
                                       + 8N (1 - q) s Q^2 / q),

  and the rule is that the last two terms sum to at most 1.
Each rule's left side falls outward, so m_0, the first m where it holds,
starts a run on which r is nonincreasing; the window decides it exactly on
a 64-bit upper bound of the power of q it reads.  The nodes grow outward
there: the node ratios above are at least q^-1 and q^-2 (1 + q^4) / 2 > 1,
and mu(j+1) - mu(j) = (1 - q) (q^-(j+1) - s q^(j+1)) is positive, since
s q^(2j+2) < 1.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from typing import Callable, NamedTuple

import mpmath

from .families import FamilyKind, FamilySpec, _recurrence
from .kernel import (_ONE, _RUN_GUARD, _ZERO, DEFAULT_CONTEXT, PrecisionContext, QReal,
                     TruncationFailure, _abs_lt, _add, _below_floor, _budget, _certified,
                     _check_degree, _div, _largest, _mpf, _mul, _one_minus, _pair, _plus, _power,
                     _q_power, _relative_residual, _round, _rounded, _sub, _tail_reach, _times,
                     _verdict, as_qparam, qpochhammer_inf, to_decimal)


class SignViolation(Exception):
    """A weight came out negative inside the declared support."""


class MeasureKind(enum.Enum):
    HERMITE_EXTREMAL = "hermite_extremal"
    DUAL_BASE_EVEN = "dual_base_even"
    DUAL_BASE_ODD = "dual_base_odd"
    DUAL_QINV_EXTREMAL = "dual_qinv_extremal"
    DUAL_Q_EXTREMAL = "dual_q_extremal"


def lattice_normalization(a, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """Z(a) = sum_(k in Z) q^(k(k-1)/2) z^k, z = a^2, within relative tol/16
    of the exact sum at a and q rounded to ctx.bits; ValueError at a = 0.

    By the Jacobi triple product (Gasper-Rahman, Basic Hypergeometric
    Series, 2nd ed., (1.6.1)) the sum is (-z;q)_inf (-q/z;q)_inf (q;q)_inf,
    and it is the lattice's own mass: the hermite_extremal weight at m,
    before normalization, is its k = 2m and k = 2m + 1 terms.  Every term is
    positive, so nothing cancels, even near q = 1 where (q;q)_inf does.

    One pass (_theta_pass) steps each side from t_0 = 1 by its ratio, z q^k
    going up and q^(k+1)/z going down, and stops a side at its first term
    below the pass's rounding unit, with a tail of 2^c times that term for
    the ratio r <= 1 - 2^-c (the kernel's lemma on geometric tails);
    _certified, the kernel's escalation policy, reruns it at more bits
    until its bound meets tol/64, and rounding to ctx.bits adds at most
    2^-bits <= tol/64.
    TruncationFailure when a side needs more than max_terms terms, or as
    _certified raises it.  Each Z(a) is formed once per (a, q, ctx) and
    memoised, as the kernel memoises its products.
    """
    return _lattice_normalization_memo(ctx.to_real(a), as_qparam(q, ctx), ctx)


# Keyed on (a, q) as rounded to ctx.bits and on ctx, which fix the value.
@functools.lru_cache(maxsize=256)
def _lattice_normalization_memo(a: QReal, q: QReal, ctx: PrecisionContext) -> QReal:
    if not a:
        raise ValueError("a must be nonzero")
    (am, ae), q_p = _pair(a, "a"), _pair(q)
    z = am * am, 2 * ae
    return _mpf(_certified(lambda prec: _theta_pass(z, q_p, ctx.max_terms, prec),
                           _budget(ctx, 6), ctx,
                           lambda: "Z(a) at a=%.8g, q=%.8g" % (float(a), float(q)),
                           guard=16))


def _theta_pass(z, q, max_terms: int, prec: int):
    """One evaluation of sum_k q^(k(k-1)/2) z^k on the exact pairs z > 0 and
    q at prec bits: (value, bound) for _certified, bound None when the
    rounding count below is too large to certify a bit.

    t_0 = 1; going up t_(k+1) = t_k z q^k, going down t_(-k-1) = t_(-k)
    q^(k+1)/z, each ratio lane multiplied by q per step.  Each side's
    ratios decrease, so the terms past one t, which is not added, fall by
    its ratio r at least, and by the kernel's lemma on geometric tails they
    sum to at most 2^c t, c = _tail_reach(r, 1, prec).  A side stops at the
    first t <= 2^-prec whose r has a c, r <= 1 - 2^-c for some c <= prec/2,
    which puts its tail within 2^c of the pass's own rounding unit.

    Rounding is counted as in the measures module docstring: z and q are
    exact, a product or quotient adds its operands' counts and 1, and a sum
    of the positive terms keeps the larger count and adds 1.  With R the
    largest count of the sum and of the two tail terms and u = 2^-prec,
    every such value is its exact counterpart times e^x, |x| <= -R ln(1 - u),
    and R u <= 1/200 makes |e^x - 1| <= 1.0051 R u.  A bound is returned
    only when 200 R <= 2^(prec/2): each stopping r, of at most R roundings,
    is then within relative d <= 2^-(prec/2) / 199 of the exact ratio, and
    with 2^c <= 2^(prec/2) each tail is at most 2^c t / (1 - 1/199) <=
    1.011 2^c t~ of its computed t~, while the exact sum is at least the
    computed one S~ over 1.006.  So the relative error is at most
    1.0051 R u + 1.02 (T_up + T_down) / S~, T = 2^c t~, which the returned
    bound, 2 R u + 2 (T_up + T_down) / S~, covers together with its own
    rounding.
    """
    total, count, tails = _ONE, 0, _ZERO
    for ratio, r_count in ((z, 0), (_div(q, z, prec), 1)):
        side = _theta_side(total, count, ratio, r_count, q, max_terms, prec)
        if side is None:
            raise TruncationFailure(
                "Z(a) theta sum not resolved within max_terms=%d (a^2=%s, q=%s)"
                % (max_terms, mpmath.nstr(_mpf(z), 8), mpmath.nstr(_mpf(q), 8)))
        total, count, tail, _ = side
        tails = _add(tails, tail, prec)
    if 200 * count > 1 << prec // 2:
        return total, None
    return total, _add((2 * count, -prec), _div((tails[0], tails[1] + 1), total, prec), prec)


def _theta_side(total, count: int, ratio, r_count: int, q, max_terms: int, prec: int):
    """One side of _theta_pass's sum, added to total with count, the
    largest rounding count so far: the terms t_1, t_2, ... stepped from
    t_0 = 1 by ratio, itself multiplied by q per step, r_count the roundings
    of the first ratio.  (total, count, tail, k), where t_k is the first
    term not added and tail = 2^c t_k bounds the terms t_k, t_(k+1), ...
    by the lemma on geometric tails; None when max_terms terms do not
    reach the stop."""
    term, t_count = _ONE, 0
    for k in range(1, max_terms + 1):
        term, t_count = _mul(term, ratio, prec), t_count + r_count + 1
        # term <= 2^-prec, and ratio <= 1 - 2^-c (c >= 1, so never falsy)
        if not _abs_lt((1, -prec), term) and (c := _tail_reach(ratio, _ONE, prec)):
            return total, max(count, t_count), (term[0], term[1] + c), k
        total, count = _add(total, term, prec), max(count, t_count) + 1
        ratio, r_count = _mul(ratio, q, prec), r_count + 1
    return None


def _closed(ctx: PrecisionContext) -> PrecisionContext:
    """ctx with tol raised to its rounding floor, for Z(a) and the diagonals,
    which need no more accuracy than a Gram's own arithmetic carries: below
    the floor the residuals show the shortfall as a failed check rather than
    an uncertifiable product."""
    return ctx._replace(tol=ctx.rounding_floor) if _below_floor(_pair(ctx.tol), ctx.bits) else ctx


def _extremal_lanes(alpha: int, beta: int):
    """Lanes [up, down, gap, ratio] and weight of an extremal kind whose
    Gaussian factor is a^(4m+alpha) q^(2m^2+beta m), at m = 0 or m = -1."""
    def lanes(measure, backward: bool, wp: int):
        a, q = _pair(measure.a), _pair(measure.q)
        a2, q2 = _power(a, 2), _power(q, 2)
        qi = _div(_ONE, q, wp)
        if backward:
            # m = -1: a^-1 q, a q^-1, 1 - a^-2 q^2 = (a^2 - q^2) / a^2,
            # ratio a^-4 q^(6-beta), weight a^(alpha-4) q^(2-beta)
            start = [_div(q, a, wp), _div(a, q, wp), _div(_sub(a2, q2, wp), a2, wp),
                     _div(_power(q, 6 - beta), _power(a, 4), wp)]
            weight = _div(_power(q, 2 - beta), _power(a, 4 - alpha), wp)
            muls = [q, qi]
        else:
            # m = 0: a^-1, a, 1 - a^2, ratio a^4 q^(2+beta), weight a^alpha
            start = [_div(_ONE, a, wp), a, _sub(_ONE, a2, wp),
                     _round(_times(_power(a, 4), _power(q, 2 + beta)), wp)]
            weight = _power(a, alpha)
            muls = [qi, q]
        muls += [_round(q2, wp), _round(_power(q, 4), wp)]
        adds = [None, None, _sub(_ONE, q2, wp), None]
        return [], weight, start, muls, adds
    return lanes


def _up_minus_down(v, backward: bool, wp: int) -> tuple[int, int]:
    """a^-1 q^-m - a q^m: up * gap for m >= 0, -(down * gap) for m < 0."""
    if backward:
        man, exp = _mul(v[1], v[2], wp)
        return -man, exp
    return _mul(v[0], v[2], wp)


def _above(x: tuple[int, int]) -> tuple[int, int]:
    """An upper bound of the positive pair x with a mantissa of 64 bits: x
    rounded to 64 bits and raised by one unit in its last bit."""
    m, e = _round(x, 64)
    shift = 64 - m.bit_length()
    return (m << shift) + 1, e - shift


def _q_power_above(q: tuple[int, int], k: int) -> tuple[int, int]:
    """An upper bound of q^k, k >= 0, with a mantissa of 64 bits, so a
    window's m_0 rule costs a few short products at any m and bits."""
    return _above(_power(_above(q), k))


def _extremal_settled(measure, N: int, m: int) -> bool:
    """Whether (1 - q) v (1 + 8N v) <= 1 holds, v = a^2 q^(2m) for m >= 0
    and a^-2 q^(-2m) for m <= -2: the extremal kinds' m_0 rule (module
    docstring, "Window"), decided exactly on an upper bound of q^(2|m|)."""
    q, a2 = _pair(measure.q), _power(_pair(measure.a), 2)
    big_q = _q_power_above(q, 2 * abs(m))
    if m >= 0:   # v = a^2 Q: (1 - q) a^2 Q (1 + 8N a^2 Q) <= 1
        v = _times(a2, big_q)
        left, right = _times(_times(_one_minus(q), v), _plus(_ONE, _times((8 * N, 0), v))), _ONE
    else:        # v = Q / a^2: (1 - q) Q (a^2 + 8N Q) <= a^4
        left = _times(_times(_one_minus(q), big_q), _plus(a2, _times((8 * N, 0), big_q)))
        right = _times(a2, a2)
    return not _abs_lt(right, left)


def _hermite_values(v, w, q, backward, wp):
    up_down = _up_minus_down(v, backward, wp)
    return ((up_down[0], up_down[1] - 1),
            _mul(w, _add(_ONE, _mul(v[1], v[1], wp), wp), wp))


def _qinv_values(v, w, q, backward, wp):
    up, down = v[0], v[1]
    return (_add(_mul(up, up, wp), _mul(down, down, wp), wp),
            _mul(w, _add(up, down, wp), wp))


def _q_values(v, w, q, backward, wp):
    up, down = v[0], v[1]
    up_down = _up_minus_down(v, backward, wp)
    return (_mul(q, _add(_mul(up, up, wp), _mul(down, down, wp), wp), wp),
            _mul(_mul(w, _add(_ONE, _mul(down, down, wp), wp), wp),
                 _mul(up_down, up_down, wp), wp))


def _base_lanes(parity: int):
    """Lanes [up, down, t, a1, a2, b1, b2, ratio] and weight of the base kind
    of that parity at its first j = 2m + parity >= 1, after a head at j = 0."""
    def lanes(measure, backward: bool, wp: int):
        s, q = _pair(measure.s), _pair(measure.q)
        q2, q4 = _power(q, 2), _power(q, 4)
        j = 2 - parity
        head = [] if parity else [(_add(_ONE, _times(s, q), wp), _ONE)]   # j = 0

        def one_minus(x):
            return _sub(_ONE, x, wp)

        ratio = _power(q, 2 * j + 1)   # q^(4m + 1 + 2 parity)
        start = [_div(_ONE, _power(q, j), wp), _round(_times(s, _power(q, j + 1)), wp),
                 one_minus(_times(s, ratio)),
                 one_minus(_times(s, _power(q, j + 1))), one_minus(_times(s, _power(q, j + 2))),
                 one_minus(_power(q, j + 1)), one_minus(_power(q, j + 2)),
                 _round(ratio, wp)]
        # (s q^2; q)_(j-1) q^(m(j-1+parity)) / (q; q)_j
        if parity:
            weight = _div(_ONE, one_minus(q), wp)
        else:
            weight = _div(_times(q, one_minus(_times(s, q2))),
                          _mul(one_minus(q), one_minus(q2), wp), wp)
        q2_r, q4_r, c2 = _round(q2, wp), _round(q4, wp), one_minus(q2)
        muls = [_div(_ONE, q2, wp), q2_r, q4_r, q2_r, q2_r, q2_r, q2_r, q4_r]
        adds = [None, None, one_minus(q4), c2, c2, c2, c2, None]
        return head, weight, start, muls, adds
    return lanes


def _base_settled(parity: int):
    """Whether (s - 1)^+ Q / ((1 - q^2 Q) (1 - s Q)) + 8N (1 - q) s Q^2 / q
    <= 1 holds, Q = q^(j+1), j = 2m + parity >= 1: the m_0 rule of the base
    kind of that parity (module docstring, "Window").  It is decided exactly
    on an upper bound Qh of Q, which bounds the left side above (1 - q^2 Qh
    and 1 - s Qh bound the factors it divides by below), multiplied through
    by q (1 - q^2 Qh) (1 - s Qh) when both are positive."""
    def settled(measure, N: int, m: int) -> bool:
        q, s = _pair(measure.q), _pair(measure.s)
        big_q = _q_power_above(q, 2 * m + 1 + parity)
        low_q, low_s = _one_minus(_times(_power(q, 2), big_q)), _one_minus(_times(s, big_q))
        if low_q[0] <= 0 or low_s[0] <= 0:
            return False
        below = _times(low_q, low_s)
        left = _times(_times((8 * N, 0), _times(_one_minus(q), s)),
                      _times(_power(big_q, 2), below))
        excess = _plus(s, (-1, 0))   # s - 1
        if excess[0] > 0:
            left = _plus(left, _times(q, _times(excess, big_q)))
        return not _abs_lt(_times(q, below), left)
    return settled


def _base_values(v, w, q, backward, wp):
    return _add(v[0], v[1], wp), _mul(v[2], w, wp)


def _hermite_diagonal(measure, ctx, wp):
    """d_0 = 1, the lanes [q^-(n+1), 1 - q^(n+1)] at n = 0 and their steps."""
    q = _pair(measure.q)
    qi, gap = _div(_ONE, q, wp), _sub(_ONE, q, wp)
    return _ONE, [qi, gap], [qi, q], [None, gap], ((0, 1), ())


def _dual_diagonal(start):
    """d_0 and the lanes [q^-1, 1 - q^(2n+2), 1 - x q^(2n+2)] at n = 0 of a
    dual kind whose start(measure, q, ctx, wp) gives d_0 and the exact x q^2."""
    def diagonal(measure, ctx, wp):
        q = _pair(measure.q)
        first, xq2 = start(measure, q, ctx, wp)
        q2 = _power(q, 2)
        q2_r, gap = _round(q2, wp), _sub(_ONE, q2, wp)
        lanes = [_div(_ONE, q, wp), gap, _sub(_ONE, xq2, wp)]
        return first, lanes, [_ONE, q2_r, q2_r], [None, gap, gap], ((0, 1), (2,))
    return diagonal


def _base_start(measure, q, ctx, wp):
    """d_0 = (s q^3;q^2)_inf / (q;q^2)_inf and s q^2; s q^3 and q^2 are
    rounded to ctx.bits, one rounding an operation."""
    s, q2 = _pair(measure.s), _mpf(_mul(q, q, ctx.bits))
    s_q3 = _mpf(_mul(s, _q_power(measure.q, 3, ctx.bits), ctx.bits))
    return (_div(_pair(qpochhammer_inf(s_q3, q2, ctx)),
                 _pair(qpochhammer_inf(measure.q, q2, ctx)), wp),
            _times(s, _power(q, 2)))


class _Kind(NamedTuple):
    """Everything that tells one measure kind from another; its callables
    run on pairs at the precision wp they are given (see _run)."""

    lanes: Callable          # (measure, backward, wp) -> (head, weight, lanes, muls, adds)
    ratio: tuple             # (lanes multiplied into, lanes dividing) the weight per step
    values: Callable         # (lanes, weight, q, backward, wp) -> (node, weight * normalization)
    diagonal: Callable       # (measure, ctx, wp) -> (d_0, lanes, muls, adds, ratio)
    settled: Callable        # (measure, N, m) -> whether m is past the window's m_0
    full_lattice: bool       # support m in Z, else m >= 0
    family: FamilyKind       # the paired family ...
    family_s: Callable       # (measure, bits) -> ... and its s, or None


_DUAL = FamilyKind.DUAL_DISCRETE_ULTRA
_GAUSSIAN = ((3,), ())                   # weight *= ratio
_BASE_RATIO = ((7, 3, 4), (5, 6))        # weight *= ratio a1 a2 / (b1 b2)

_KINDS = {
    MeasureKind.HERMITE_EXTREMAL: _Kind(
        _extremal_lanes(0, -1), _GAUSSIAN, _hermite_values, _hermite_diagonal, _extremal_settled,
        True, FamilyKind.QINV_HERMITE, lambda measure, bits: None),
    MeasureKind.DUAL_QINV_EXTREMAL: _Kind(
        _extremal_lanes(1, 0), _GAUSSIAN, _qinv_values,
        _dual_diagonal(lambda measure, q, ctx, wp: (_ONE, q)), _extremal_settled,
        True, _DUAL, lambda measure, bits: _mpf(_div(_ONE, _pair(measure.q), bits))),
    MeasureKind.DUAL_Q_EXTREMAL: _Kind(
        _extremal_lanes(0, -1), _GAUSSIAN, _q_values,
        _dual_diagonal(lambda measure, q, ctx, wp: (_div(_sub(_ONE, q, wp), q, wp),
                                                    _power(q, 3))),
        _extremal_settled, True, _DUAL, lambda measure, bits: measure.q),
    MeasureKind.DUAL_BASE_EVEN: _Kind(
        _base_lanes(0), _BASE_RATIO, _base_values, _dual_diagonal(_base_start), _base_settled(0),
        False, _DUAL, lambda measure, bits: measure.s),
    MeasureKind.DUAL_BASE_ODD: _Kind(
        _base_lanes(1), _BASE_RATIO, _base_values, _dual_diagonal(_base_start), _base_settled(1),
        False, _DUAL, lambda measure, bits: measure.s),
}


def _run(value, lanes, muls, adds, ratio, wp: int):
    """Yield (value, lanes) at steps 0, 1, 2, ...: a step multiplies value by
    the product of the ratio's lanes over that of its dividing lanes, then
    takes each lane v to v * mul, or v * mul + add, each rounded at wp."""
    (first, *num), den = ratio
    while True:
        yield value, lanes
        factor = lanes[first]
        for i in num:
            factor = _mul(factor, lanes[i], wp)
        if den:
            below = lanes[den[0]]
            for i in den[1:]:
                below = _mul(below, lanes[i], wp)
            factor = _div(factor, below, wp)
        value = _mul(value, factor, wp)
        lanes = [_mul(v, k, wp) if c is None else _add(_mul(v, k, wp), c, wp)
                 for v, k, c in zip(lanes, muls, adds)]


def _walk(measure: "DiscreteMeasure", backward: bool, ctx: PrecisionContext,
          z: tuple[int, int] | None):
    """Yield (node, weight) as pairs at m = 0, 1, 2, ..., or at m = -1, -2,
    ... when backward, each rounded once to ctx.bits, the weight divided by
    the pair z = Z(a) (None for 1).

    The kind's lanes and weight step by _run at wp = ctx.bits + 32.
    SignViolation on a negative weight.
    """
    kind = _KINDS[measure.kind]
    prec, wp = ctx.bits, ctx.bits + _RUN_GUARD
    head, weight, lanes, muls, adds = kind.lanes(measure, backward, wp)
    q = _pair(measure.q)
    m, step = (-1, -1) if backward else (0, 1)

    def rounded(node, numer):
        w = _round(numer if z is None else _div(numer, z, wp), prec)
        if w[0] < 0:
            raise SignViolation("negative weight %s at m=%d for %s"
                                % (mpmath.nstr(_mpf(w), 8), m, measure.kind.value))
        return _round(node, prec), w

    for node, numer in head:
        yield rounded(node, numer)
        m += step
    for weight, lanes in _run(weight, lanes, muls, adds, kind.ratio, wp):
        yield rounded(*kind.values(lanes, weight, q, backward, wp))
        m += step


def _diagonals(measure: "DiscreteMeasure", N: int, ctx: PrecisionContext) -> list:
    """[d_0, ..., d_N] as pairs of the kind's run at wp = ctx.bits + 32,
    each rounded once to ctx.bits; d_0 takes its products at _closed(ctx)."""
    wp = ctx.bits + _RUN_GUARD
    run = _run(*_KINDS[measure.kind].diagonal(measure, _closed(ctx), wp), wp)
    return [_round(d, ctx.bits) for d, _ in itertools.islice(run, N + 1)]


def _runs(measure: "DiscreteMeasure", ctx: PrecisionContext):
    """point(m), the measure's (node, weight) at m as pairs, read from its
    two runs, which are stepped out from m = 0 and m = -1 as far as asked
    and kept for the life of point only."""
    z = None
    if measure.is_full_lattice:
        z = _pair(lattice_normalization(measure.a, measure.q, _closed(ctx)))
    runs = {backward: ([], _walk(measure, backward, ctx, z))
            for backward in ((False, True) if measure.is_full_lattice else (False,))}

    def point(m: int) -> tuple[tuple[int, int], tuple[int, int]]:
        values, walk = runs[m < 0]
        k = ~m if m < 0 else m    # ~m = -1 - m
        while len(values) <= k:
            values.append(next(walk))
        return values[k]

    return point


class DiscreteMeasure(NamedTuple):
    kind: MeasureKind
    q: QReal
    a: QReal | None = None
    s: QReal | None = None

    @property
    def is_full_lattice(self) -> bool:
        return _KINDS[self.kind].full_lattice

    def family(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> FamilySpec:
        """The polynomial family this measure orthogonalizes, its s formed at ctx."""
        record = _KINDS[self.kind]
        return FamilySpec(record.family, self.q, record.family_s(self, ctx.bits))

    def normalization(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
        """Z(a) for the full-lattice kinds, 1 for the base kinds."""
        if self.is_full_lattice:
            return lattice_normalization(self.a, self.q, ctx)
        return mpmath.mpf(1)

    def points(self, lo: int, hi: int,
               ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[tuple[QReal, QReal]]:
        """[(node, weight) at m for m = lo, ..., hi], [] when lo > hi.

        The values come from the stepped runs of the module docstring, the
        same a Gram reads, so they are a Gram's to the last bit.  Z(a) is
        taken at tol raised to the rounding floor, as a Gram takes it.
        """
        if lo < 0 and not self.is_full_lattice:
            raise ValueError("support index must satisfy m >= 0")
        point = _runs(self, ctx)
        return [(_mpf(node), _mpf(w)) for node, w in map(point, range(lo, hi + 1))]

    def point(self, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> tuple[QReal, QReal]:
        """(node, weight) at support index m: points(m, m, ctx)[0]."""
        return self.points(m, m, ctx)[0]


def hermite_extremal(a, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> DiscreteMeasure:
    q, a = as_qparam(q, ctx), ctx.to_real(a)
    if not (q <= a < 1):
        raise ValueError("a must satisfy q <= a < 1 (got a=%s, q=%s)"
                         % (mpmath.nstr(a, 8), mpmath.nstr(q, 8)))
    return DiscreteMeasure(MeasureKind.HERMITE_EXTREMAL, q, a=a)


def dual_base(s, q, parity: str, ctx: PrecisionContext = DEFAULT_CONTEXT) -> DiscreteMeasure:
    spec = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s).validated(ctx)
    q, s = spec.q, spec.s
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    kind = MeasureKind.DUAL_BASE_EVEN if parity == "even" else MeasureKind.DUAL_BASE_ODD
    return DiscreteMeasure(kind, q, s=s)


def _default_a(q: QReal, ctx: PrecisionContext) -> QReal:
    """(1 + q) / 2 rounded to ctx.bits, the extremal parameter a of a run
    that names none."""
    m, e = _add(_ONE, _pair(q), ctx.bits)
    return _mpf((m, e - 1))


def _extremal(kind: MeasureKind, a, q, ctx: PrecisionContext) -> DiscreteMeasure:
    m = hermite_extremal(a, q, ctx)
    return DiscreteMeasure(kind, m.q, a=m.a)


def dual_qinv_extremal(a, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> DiscreteMeasure:
    return _extremal(MeasureKind.DUAL_QINV_EXTREMAL, a, q, ctx)


def dual_q_extremal(a, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> DiscreteMeasure:
    return _extremal(MeasureKind.DUAL_Q_EXTREMAL, a, q, ctx)


def expected_diagonal(measure: DiscreteMeasure, n: int,
                      ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """Closed form of the (n, n) Gram entry for the measure's own family,
    n >= 0: d_n of the run a Gram reads, to the last bit."""
    _check_degree("n", n)
    return _mpf(_diagonals(measure, n, ctx)[n])


class GramReport(NamedTuple):
    """A Gram matrix with its closed-form diagonal and certified window.

    gram is symmetric, entry for entry, as gram_matrix builds it, so each
    rendering formats one entry per pair n <= n' and mirrors it.  node_hash,
    which only sweep reads, is formed on each read.
    """

    family_kind: str
    measure_kind: str
    q: QReal
    s: QReal | None
    a: QReal | None
    N: int
    bits: int
    gram: list[list[QReal]]
    expected_diag: list[QReal]
    off_diag_max: QReal
    diag_rel_err_max: QReal
    m_lo: int
    m_hi: int
    tail_bound: QReal
    nodes: list[QReal]

    @property
    def node_hash(self) -> str:
        """The first 16 hex digits of the SHA-256 of the window nodes at 30 digits."""
        import hashlib
        text = "|".join(to_decimal(x, 30) for x in self.nodes)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def passed(self, tol) -> bool:
        """The verdict of kernel._verdict on the larger residual: both below
        tol, and tol not below the floor of bits-bit entries."""
        return _verdict(max(self.off_diag_max, self.diag_rel_err_max), tol, self.bits)

    def to_json(self, digits: int) -> str:
        """json.dumps(report, indent=2) + "\n", written out in one join: every
        value but the two kind names is a number or a rendering, whose
        characters need no escape.  The join stays because json.dumps was
        measured 1.0 % to 3.9 % slower per Gram on gram-sweep's shapes."""
        import json

        def text(value) -> str:
            return "null" if value is None else '"%s"' % to_decimal(value, digits)

        head = ",\n  ".join((
            '"family": ' + json.dumps(self.family_kind),
            '"measure": ' + json.dumps(self.measure_kind),
            '"q": ' + text(self.q), '"s": ' + text(self.s), '"a": ' + text(self.a),
            '"N": %d' % self.N, '"bits": %d' % self.bits))
        rows = _symmetric(self.N + 1, lambda n, np_: to_decimal(self.gram[n][np_], digits))
        gram = ",\n".join('    [\n      "%s"\n    ]' % '",\n      "'.join(row) for row in rows)
        tail = ",\n  ".join((
            '"off_diag_max": ' + text(self.off_diag_max),
            '"diag_rel_err_max": ' + text(self.diag_rel_err_max),
            '"m_window": [\n    %d,\n    %d\n  ]' % (self.m_lo, self.m_hi),
            '"tail_bound": ' + text(self.tail_bound)))
        return "{\n  %s,\n  \"gram\": [\n%s\n  ],\n  %s\n}\n" % (head, gram, tail)

    def to_csv(self, digits: int) -> str:
        lines = ["n,nprime,value,expected,residual"]
        zero = mpmath.mpf(0)
        res = _residuals([[_pair(v) for v in row] for row in self.gram],
                         [_pair(d) for d in self.expected_diag], self.bits)
        cells = _symmetric(self.N + 1, lambda n, np_: ",".join(
            to_decimal(x, digits) for x in (
                self.gram[n][np_], self.expected_diag[n] if n == np_ else zero,
                _mpf(res[n][np_]))))
        lines += ["%d,%d,%s" % (n, np_, cell)
                  for n, row in enumerate(cells) for np_, cell in enumerate(row)]
        return "\n".join(lines) + "\n"


def _residuals(gram: list[list[tuple[int, int]]], diag: list[tuple[int, int]],
               prec: int) -> list[list]:
    """_residual of every entry, each root formed once per degree."""
    roots = [_root(d, prec) for d in diag]
    return _symmetric(len(diag), lambda n, np_: _residual(gram, diag, roots, n, np_, prec))


def _residual(gram, diag, roots, n: int, np_: int, prec: int) -> tuple[int, int]:
    """The residual of entry (n, n') that the checks compare with tol, of
    the pairs gram and diag as a pair, by kernel._relative_residual:
    |G_nn - d_n| / |d_n| on the diagonal and |G_nn' - 0| / (sqrt|d_n| sqrt|d_n'|)
    off it, roots[n] holding sqrt|d_n| (_root).  Every operation rounds to
    prec bits, and the pair operations round as mpf's do on these operands
    (all of at most prec bits): the mpf expression's value."""
    if n == np_:
        return _relative_residual(gram[n][n], diag[n], (abs(diag[n][0]), diag[n][1]), prec)
    return _relative_residual(gram[n][np_], _ZERO, _mul(roots[n], roots[np_], prec), prec)


def _root(d: tuple[int, int], prec: int) -> tuple[int, int]:
    """sqrt|d| of a pair, correctly rounded to prec bits by mpf's sqrt."""
    return _pair(mpmath.sqrt(_mpf((abs(d[0]), d[1])), prec=prec))


def _log2(a: tuple[int, int]) -> tuple[int, float]:
    """(T, f) with log2|a| = T + f for a nonzero pair (m, e): T = e + bitlen(m)
    exactly, and f in [-1, 0] from the leading 53 bits of |m|, within 2^-45
    (the cut costs under 2^-51, libm's log2 a few units of 2^-47)."""
    m, e = a
    m = abs(m)
    b = m.bit_length()
    return e + b, math.log2(m >> (b - 53) if b > 53 else m) - min(b, 53)


def _residual_maxima(gram: list[list[tuple[int, int]]], diag: list[tuple[int, int]],
                     prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(diag_rel_err_max, off_diag_max): _largest of _residual over the
    diagonal, and over the entries n < n' in row-major order, forming the
    N + 1 diagonal quotients but only those off-diagonal ones that can be
    largest.  The ranking stays because forming every quotient was measured
    4.5 % to 9 % slower per Gram.

    Each nonzero G_nn' is ranked by E = log2|G_nn'| - (log2|d_n| + log2|d_n'|)/2,
    the log2 of the exact residual R = |G_nn'| / sqrt|d_n d_n'|, from _log2's
    (T, f): the integer parts are exact and the float parts, each within
    2^-45 and at most 2 in size, make E within 2^-43.  Only the entries whose
    E is within 2^-20 of the largest get _residual's quotient.  That quotient
    R' takes four roundings to prec >= 64 bits, two roots, their product and
    the division, each correctly rounded (the difference G_nn' - 0 that
    kernel._relative_residual forms first is exact, G_nn' having at most
    prec bits), so R' = R (1 + eps) with
    |log2(1 + eps)| <= 4 * 1.45 * 2^-64 < 2^-61.  If entry a has the largest
    R' and entry b the largest E, then E_a >= log2 R'_a - 2^-61 - 2^-43
    >= log2 R'_b - 2^-61 - 2^-43 >= E_b - 2^-60 - 2^-42 > E_b - 2^-20: every
    entry whose quotient is the largest is chosen, so the first of them in
    row-major order, which _largest returns, is the same among the chosen
    entries as among all.  A zero entry has residual 0, below any other;
    with every entry zero, or none (N = 0), both give _ZERO.  An entry whose
    integer part 2T_G - T_n - T_n' is 5 or more below the largest has E more
    than 1/4 below the largest (each float part is at most 2), so it is left
    out before any float is formed of the integer parts.
    """
    size = len(diag)
    logs = [_log2(d) for d in diag]
    ranked = []   # (2 T_G - T_n - T_n', 2 f_G - f_n - f_n', n, n')
    for n, (tn, fn) in enumerate(logs):
        for np_ in range(n + 1, size):
            g = gram[n][np_]
            if g[0]:
                tg, fg = _log2(g)
                tp, fp = logs[np_]
                ranked.append((2 * tg - tn - tp, 2 * fg - fn - fp, n, np_))
    chosen = []
    if ranked:
        top = max(k for k, _, _, _ in ranked)
        near = [((k - top + r) / 2, n, np_) for k, r, n, np_ in ranked if k >= top - 4]
        cut = max(est for est, _, _ in near) - 2.0 ** -20
        chosen = [(n, np_) for est, n, np_ in near if est >= cut]
    roots = {n: _root(diag[n], prec) for n in {n for pair in chosen for n in pair}}
    return (_largest(_residual(gram, diag, roots, n, n, prec) for n in range(size)),
            _largest(_residual(gram, diag, roots, n, np_, prec) for n, np_ in chosen))


def _symmetric(size: int, entry) -> list[list]:
    """[[entry(n, n') for n' < size] for n < size] of a symmetric entry,
    called once for each n <= n' and mirrored."""
    rows = [[None] * size for _ in range(size)]
    for n in range(size):
        for np_ in range(n, size):
            rows[n][np_] = rows[np_][n] = entry(n, np_)
    return rows


# Bits kept below the precision of the sums in each fixed-point column, on top
# of bitlen(M) for the M terms of a sum.
_PAIR_GUARD = 16


def _fixed_point(column: list[tuple[int, int]], bits: int) -> tuple[list[int], int]:
    """Integers F and e with F[i] * 2^e = m 2^x for the pair (m, x) of
    column[i], each rounded to nearest once (ties away from zero), with e
    set so the largest |F[i]| has `bits` bits.  An all-zero column gives
    zeros, e = 0."""
    top = max((exp + man.bit_length() for man, exp in column if man), default=None)
    if top is None:
        return [0] * len(column), 0
    low = top - bits
    ints = []
    for man, exp in column:
        if exp >= low:
            ints.append(man << (exp - low))
        else:
            v = ((abs(man) >> (low - exp - 1)) + 1) >> 1
            ints.append(-v if man < 0 else v)
    return ints, low


def _pair_sums(weights: list[tuple[int, int]], tables: list[list[tuple[int, int]]],
               N: int, prec: int) -> list[list[tuple[int, int]]]:
    """gram[n][n'] = sum_i weights[i] * tables[i][n] * tables[i][n'], each
    entry an exact integer dot product rounded once to prec bits.

    weights, tables and the entries are pairs.  Weights must be
    nonnegative, else ValueError; zero weights are skipped.  Node i's
    weight is split by the exact power 2^k_i, k_i half of w_i's binary
    exponent:
    a_n[i] = w_i t_n 2^-k_i (the exact product of the two mantissas) and
    b_n[i] = t_n 2^k_i, so a_n b_n' = w_i t_n t_n' exactly and
    |a_n|, |b_n| <= sqrt(2 G_nn).  Each column of a (and of b) gets one
    fixed-point scale that keeps prec + guard bits in its largest value,
    guard = 16 + bitlen(M) for the M nonzero weights, and each value is
    rounded to an integer once.  The integer sums are exact, so the result
    does not depend on the order of the nodes.  By Cauchy-Schwarz the integer sum is within
    4 (M+1) 2^-(prec+guard) sqrt(G_nn G_n'n') of the exact sum G_nn' of the
    given values, and with the final rounding each entry is within
    (2^-prec + 5 (M+1) 2^-(prec+guard)) sqrt(G_nn G_n'n').  Entry (n', n)
    is the mirror of (n, n') for n < n'.
    """
    rows = [(w, row) for w, row in zip(weights, tables) if w[0]]
    if any(wman < 0 for (wman, _), _ in rows):
        raise ValueError("pair sums need nonnegative weights")
    bits = prec + _PAIR_GUARD + len(rows).bit_length()
    splits = [(wman, wexp, (wexp + wman.bit_length()) >> 1) for (wman, wexp), _ in rows]
    a_cols, b_cols = [], []
    for n in range(N + 1):
        col = [row[n] for _, row in rows]
        a_cols.append(_fixed_point(
            [(wman * man, wexp + exp - k) for (wman, wexp, k), (man, exp) in zip(splits, col)],
            bits))
        b_cols.append(_fixed_point(
            [(man, exp + k) for (_, _, k), (man, exp) in zip(splits, col)], bits))

    def entry(n: int, np_: int) -> tuple[int, int]:
        (a, a_exp), (b, b_exp) = a_cols[n], b_cols[np_]
        return _rounded(sum(map(operator.mul, a, b)), a_exp + b_exp, prec)

    return _symmetric(N + 1, entry)


def _certified_window(measure: DiscreteMeasure, point, majorant, ctx: PrecisionContext,
                      diag: list[tuple[int, int]]) -> tuple[int, int, tuple[int, int]]:
    """Pick [m_lo, m_hi] so each omitted side sums to at most target =
    tol/8 * min(1, min_n d_n), by the ratio rule of the module docstring
    ("Window"), with one majorant run per side.

    point(m) gives the measure's (node, weight) at m, majorant(t) the
    family's A(t), diag the d_n and the tail bound returned, all pairs.
    Bh and the tests are formed on pairs at ctx.bits.
    """
    prec, N = ctx.bits, len(diag) - 1
    least = _ONE   # min(1, min_n |d_n|)
    for m, e in diag:
        least = (abs(m), e) if _abs_lt((m, e), least) else least
    tm, te = _round(_pair(ctx.tol), prec)
    target_p = _mul((tm, te - 3), least, prec)
    settled = _KINDS[measure.kind].settled

    def spread(m: int) -> tuple[int, int]:   # w_m t_m^(2N)
        x, w = point(m)
        return _mul(w, _power_rounded(x, 2 * N, prec), prec)

    def extend(edge: int, step: int) -> tuple[int, tuple[int, int]]:
        # the anchor: the first edge past m_0 whose ratio
        # r = spread(next) / spread(edge) has a reach c with 2^c w_next <= target
        here = spread(edge)
        for _ in range(ctx.max_terms):
            after = spread(edge + step)
            w = point(edge + step)[1]
            if ((c := _tail_reach(after, here, prec)) and not _abs_lt(target_p, (w[0], w[1] + c))
                    and settled(measure, N, edge)):
                break
            edge, here = edge + step, after
        else:
            raise TruncationFailure(
                "no window anchor (ratio below 1, next weight below the target over its"
                " geometric factor) within max_terms=%d (%s)"
                % (ctx.max_terms, measure.kind.value))
        # Bh(m) = spread(m) A(t0)^2 / t0^(2N) at t0 = |x_edge|, and
        # t0^(2N) = here / w_edge
        (xm, xe), w = point(edge)
        a0 = majorant((abs(xm), xe))
        scale = _div(_mul(_mul(a0, a0, prec), w, prec), here, prec)
        for _ in range(ctx.max_terms):
            # 2^c Bh(next), c from this edge's own ratio, at most the anchor's
            tail = _mul(scale, after, prec)
            tail = tail[0], tail[1] + c
            if not _abs_lt(target_p, tail):
                return edge, tail
            edge, here = edge + step, after
            after = spread(edge + step)
            # None only where rounding lifts r to the cap: the last c holds
            c = _tail_reach(after, here, prec) or c
        raise TruncationFailure(
            "tail bound %s did not reach %s within max_terms=%d (%s)"
            % (mpmath.nstr(_mpf(tail), 8), mpmath.nstr(_mpf(target_p), 8),
               ctx.max_terms, measure.kind.value))

    start = math.isqrt(ctx.bits) + 1
    m_hi, tail_hi = extend(start, 1)
    if measure.is_full_lattice:
        m_lo, tail_lo = extend(-start, -1)
    else:
        m_lo, tail_lo = 0, _ZERO
    return m_lo, m_hi, _add(tail_hi, tail_lo, prec)


def _power_rounded(x: tuple[int, int], k: int, prec: int) -> tuple[int, int]:
    """x^k of a pair for k >= 0 by repeated squaring, each product rounded
    to prec: within relative (k - 1) 2^-prec (1 + k 2^-prec), since the
    roundings' exponents in the result sum to k - 1 at most."""
    result = _ONE
    while k:
        if k & 1:
            result = _mul(result, x, prec)
        k >>= 1
        if k:
            x = _mul(x, x, prec)
    return result


def gram_matrix(measure: DiscreteMeasure, N: int,
                ctx: PrecisionContext = DEFAULT_CONTEXT) -> GramReport:
    """Gram matrix, degrees 0..N, of the family the measure orthogonalizes
    (DiscreteMeasure.family) under the measure; ValueError unless its q and s
    are in range.

    The lattice window carries a certified bound on the omitted tail.  Each
    entry is an exact integer sum over the window rounded once (see
    _pair_sums), so the result is reproducible bit for bit whatever the
    order of the nodes.  Assembly runs on one thread: a thread pool over
    the GIL-bound Gram loops was measured slower.
    """
    _check_degree("N", N)
    family = measure.family(ctx).validated(ctx)
    diag = _diagonals(measure, N, ctx)
    values, majorant, _ = _recurrence(family, N, ctx)
    point = _runs(measure, ctx)
    m_lo, m_hi, tail = _certified_window(measure, point, majorant, ctx, diag)
    nodes, weights = zip(*(point(m) for m in range(m_lo, m_hi + 1)))
    gram = _pair_sums(weights, [values(x) for x in nodes], N, ctx.bits)
    diag_err, off_max = _residual_maxima(gram, diag, ctx.bits)

    return GramReport(
        family_kind=family.kind.value,
        measure_kind=measure.kind.value,
        q=family.q,
        s=family.s,
        a=measure.a,
        N=N,
        bits=ctx.bits,
        gram=_symmetric(N + 1, lambda n, np_: _mpf(gram[n][np_])),
        expected_diag=[_mpf(d) for d in diag],
        off_diag_max=_mpf(off_max),
        diag_rel_err_max=_mpf(diag_err),
        m_lo=m_lo,
        m_hi=m_hi,
        tail_bound=_mpf(tail),
        nodes=[_mpf(x) for x in nodes],
    )


class NormalizationAdjudication(NamedTuple):
    """The lattice mass of an extremal dual measure against its one closed
    form, candidate_quadratic = (-a^2;q)_inf (-q/a^2;q)_inf (q;q)_inf,
    formed as the theta sum it equals, Z(a) (lattice_normalization).  It
    keeps its name, as adjudicate_normalization does, while perfbench names
    them (ROADMAP Direction 15).
    """
    measure_kind: str
    a: QReal
    q: QReal
    mass: QReal
    candidate_quadratic: QReal
    residual_quadratic: QReal


def adjudicate_normalization(kind: MeasureKind, a, q,
                             ctx: PrecisionContext = DEFAULT_CONTEXT) -> NormalizationAdjudication:
    """The Z(a) constant of an extremal dual measure, checked empirically.

    The unnormalized lattice mass is recomputed from the weights and
    compared against Z(a) * (expected degree-0 diagonal): the residual is
    |mass / (Z(a) d_0) - 1|.  Z(a) is taken at _closed(ctx), as the Gram
    takes it: below the rounding floor the check then fails on its residual
    rather than on an uncertifiable Z(a).  perfbench's tracer wraps this
    function by name, which it keeps until the normalization ids go
    (ROADMAP Direction 15).
    """
    if kind not in (MeasureKind.DUAL_QINV_EXTREMAL, MeasureKind.DUAL_Q_EXTREMAL):
        raise ValueError("adjudication applies to the extremal dual measures")
    measure, prec = _extremal(kind, a, q, ctx), ctx.bits
    z = lattice_normalization(measure.a, measure.q, _closed(ctx))
    # Degree-0 Gram entry; point() divides by z, so undo it.
    report = gram_matrix(measure, 0, ctx)
    d0, mass = _pair(report.expected_diag[0]), _mul(_pair(report.gram[0][0]), _pair(z), prec)
    # |mass / (z d0) - 1|
    residual = _relative_residual(_div(mass, _mul(_pair(z), d0, prec), prec), _ONE, _ONE, prec)
    return NormalizationAdjudication(
        measure_kind=kind.value, a=measure.a, q=measure.q, mass=_mpf(mass),
        candidate_quadratic=z, residual_quadratic=_mpf(residual))
