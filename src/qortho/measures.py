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
q-ultraspherical family, q <= a < 1, 0 < s < q^-2 and
Z(a) = (-a^2;q)_inf (-q/a^2;q)_inf (q;q)_inf.  The base weights are stated
with the common factor (1 - s q) cancelled, which keeps them finite at
s = q^-1.  The q-extremal weight vanishes at a single site exactly when a^2 q^{2m} = 1
(e.g. a = q, m = -1), which is allowed.

The closed form of Z(a) is settled by adjudicate_normalization, which compares
the two candidate third factors (-q/a^2;q)_inf and (-q/a;q)_inf against the
lattice mass; the (-q/a^2;q)_inf form wins and is the one used throughout.

Gram assembly truncates the lattice with a geometric tail bound: the
summand for degrees up to N is bounded by B(m) = w_m * A(|node_m|)^2, where
A(t) is the largest absolute-coefficient majorant of the polynomial family
up to degree N (families._recurrence gives it and says why it bounds the
family).  Once the first omitted term satisfies B(next)/B(last) <= 1/2,
each side's tail is taken to be at most 2*B(next).  That bound assumes B is
log-concave beyond the stop, and nothing checks it: log w_m is dominated by
a -2m^2 log(1/q) term, but log A(|node_m|) is convex in m, so B need not be
log-concave step by step.  The checks divide by the closed-form diagonals
d_n, so each side is driven below tol/8 * min(1, min_n d_n).

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
the Z(a) the kernel returns; so is every d_n, at k = n, of its closed form
(for the base kinds, with the two infinite products the kernel returns).
R u <= 1/200 holds for |m| < 2^(bits/2 + 10), past any run a list can
hold; at |m| = 600 the second term is below 2^-(bits+10).
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import math
import operator
from typing import Callable, NamedTuple

import mpmath

from .families import FamilyKind, FamilySpec, _recurrence
from .kernel import (_ONE, _ZERO, DEFAULT_CONTEXT, PrecisionContext, QReal,
                     TruncationFailure, _abs_lt, _add, _check_degree, _div, _largest, _mpf, _mul,
                     _pair, _round, _rounded, _sub, as_qparam, qpochhammer_inf, to_decimal)


class SignViolation(Exception):
    """A weight came out negative inside the declared support."""


class MeasureKind(enum.Enum):
    HERMITE_EXTREMAL = "hermite_extremal"
    DUAL_BASE_EVEN = "dual_base_even"
    DUAL_BASE_ODD = "dual_base_odd"
    DUAL_QINV_EXTREMAL = "dual_qinv_extremal"
    DUAL_Q_EXTREMAL = "dual_q_extremal"


def lattice_normalization(a, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """Z(a) = (-a^2;q)_inf (-q/a^2;q)_inf (q;q)_inf."""
    q = as_qparam(q, ctx)
    with ctx.workprec():
        a = mpmath.mpf(a)
        return (qpochhammer_inf(-a * a, q, ctx)
                * qpochhammer_inf(-q / (a * a), q, ctx)
                * qpochhammer_inf(q, q, ctx))


def _closed(ctx: PrecisionContext) -> PrecisionContext:
    """ctx with tol raised to its rounding floor, for Z(a) and the diagonals,
    which need no more accuracy than a Gram's own arithmetic carries: below
    the floor the residuals show the shortfall as a failed check rather than
    an uncertifiable product."""
    return dataclasses.replace(ctx, tol=max(ctx.tol, ctx.rounding_floor))


# Bits a run steps at beyond ctx.bits; the bound in the module docstring
# assumes them.
_RUN_GUARD = 32


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x * y of two pairs, exactly."""
    return x[0] * y[0], x[1] + y[1]


def _power(x: tuple[int, int], k: int) -> tuple[int, int]:
    """x^k of a pair for k >= 0, exactly."""
    return x[0] ** k, x[1] * k


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
    """d_0 = (s q^3;q^2)_inf / (q;q^2)_inf and s q^2."""
    qv, q2 = measure.q, measure.q * measure.q
    return (_div(_pair(qpochhammer_inf(measure.s * qv ** 3, q2, ctx)),
                 _pair(qpochhammer_inf(qv, q2, ctx)), wp),
            _times(_pair(measure.s), _power(q, 2)))


class _Kind(NamedTuple):
    """Everything that tells one measure kind from another; its callables
    run on pairs at the precision wp they are given (see _run)."""

    lanes: Callable          # (measure, backward, wp) -> (head, weight, lanes, muls, adds)
    ratio: tuple             # (lanes multiplied into, lanes dividing) the weight per step
    values: Callable         # (lanes, weight, q, backward, wp) -> (node, weight * normalization)
    diagonal: Callable       # (measure, ctx, wp) -> (d_0, lanes, muls, adds, ratio)
    full_lattice: bool       # support m in Z, else m >= 0
    family: FamilyKind       # the paired family ...
    family_s: Callable       # (measure) -> ... and its s, or None


_DUAL = FamilyKind.DUAL_DISCRETE_ULTRA
_GAUSSIAN = ((3,), ())                   # weight *= ratio
_BASE_RATIO = ((7, 3, 4), (5, 6))        # weight *= ratio a1 a2 / (b1 b2)

_KINDS = {
    MeasureKind.HERMITE_EXTREMAL: _Kind(
        _extremal_lanes(0, -1), _GAUSSIAN, _hermite_values, _hermite_diagonal, True,
        FamilyKind.QINV_HERMITE, lambda measure: None),
    MeasureKind.DUAL_QINV_EXTREMAL: _Kind(
        _extremal_lanes(1, 0), _GAUSSIAN, _qinv_values,
        _dual_diagonal(lambda measure, q, ctx, wp: (_ONE, q)),
        True, _DUAL, lambda measure: 1 / measure.q),
    MeasureKind.DUAL_Q_EXTREMAL: _Kind(
        _extremal_lanes(0, -1), _GAUSSIAN, _q_values,
        _dual_diagonal(lambda measure, q, ctx, wp: (_div(_sub(_ONE, q, wp), q, wp),
                                                    _power(q, 3))),
        True, _DUAL, lambda measure: measure.q),
    MeasureKind.DUAL_BASE_EVEN: _Kind(
        _base_lanes(0), _BASE_RATIO, _base_values, _dual_diagonal(_base_start),
        False, _DUAL, lambda measure: measure.s),
    MeasureKind.DUAL_BASE_ODD: _Kind(
        _base_lanes(1), _BASE_RATIO, _base_values, _dual_diagonal(_base_start),
        False, _DUAL, lambda measure: measure.s),
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
    with ctx.workprec():
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


@dataclasses.dataclass(frozen=True)
class DiscreteMeasure:
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
        with ctx.workprec():
            return FamilySpec(record.family, self.q, record.family_s(self))

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
    q = as_qparam(q, ctx)
    with ctx.workprec():
        a = mpmath.mpf(a)
        if not (q <= a < 1):
            raise ValueError(
                "a must satisfy q <= a < 1 (got a=%s, q=%s)"
                % (mpmath.nstr(a, 8), mpmath.nstr(q, 8)))
    return DiscreteMeasure(MeasureKind.HERMITE_EXTREMAL, q, a=a)


def dual_base(s, q, parity: str, ctx: PrecisionContext = DEFAULT_CONTEXT) -> DiscreteMeasure:
    spec = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s).validated(ctx)
    q, s = spec.q, spec.s
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    kind = MeasureKind.DUAL_BASE_EVEN if parity == "even" else MeasureKind.DUAL_BASE_ODD
    return DiscreteMeasure(kind, q, s=s)


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


@dataclasses.dataclass
class GramReport:
    """A Gram matrix with its closed-form diagonal and certified window.

    gram is symmetric, entry for entry, as gram_matrix builds it, so each
    rendering formats one entry per pair n <= n' and mirrors it.
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

    @functools.cached_property
    def node_hash(self) -> str:
        """The first 16 hex digits of the SHA-256 of the window nodes at 30 digits."""
        with mpmath.mp.workprec(self.bits):
            text = "|".join(to_decimal(x, 30) for x in self.nodes)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def passed(self, tol) -> bool:
        """Both residuals below tol, and tol not below the floor of bits-bit entries."""
        floor = PrecisionContext(bits=self.bits).rounding_floor
        return bool(tol >= floor and self.off_diag_max < tol and self.diag_rel_err_max < tol)

    def to_json(self, digits: int) -> str:
        # Rendering is pinned to the report's own precision so output bytes
        # do not depend on the caller's ambient mpmath state.
        with mpmath.mp.workprec(self.bits):
            obj = {
                "family": self.family_kind,
                "measure": self.measure_kind,
                "q": to_decimal(self.q, digits),
                "s": to_decimal(self.s, digits) if self.s is not None else None,
                "a": to_decimal(self.a, digits) if self.a is not None else None,
                "N": self.N,
                "bits": self.bits,
                "gram": _symmetric(self.N + 1,
                                   lambda n, np_: to_decimal(self.gram[n][np_], digits)),
                "off_diag_max": to_decimal(self.off_diag_max, digits),
                "diag_rel_err_max": to_decimal(self.diag_rel_err_max, digits),
                "m_window": [self.m_lo, self.m_hi],
                "tail_bound": to_decimal(self.tail_bound, digits),
            }
        return json.dumps(obj, indent=2) + "\n"

    def to_csv(self, digits: int) -> str:
        lines = ["n,nprime,value,expected,residual"]
        zero = mpmath.mpf(0)
        res = _residuals([[_pair(v) for v in row] for row in self.gram],
                         [_pair(d) for d in self.expected_diag], self.bits)
        with mpmath.mp.workprec(self.bits):
            cells = _symmetric(self.N + 1, lambda n, np_: ",".join(
                to_decimal(x, digits) for x in (
                    self.gram[n][np_], self.expected_diag[n] if n == np_ else zero,
                    _mpf(res[n][np_]))))
        lines += ["%d,%d,%s" % (n, np_, cell)
                  for n, row in enumerate(cells) for np_, cell in enumerate(row)]
        return "\n".join(lines) + "\n"


def _residuals(gram: list[list[tuple[int, int]]], diag: list[tuple[int, int]],
               prec: int) -> list[list]:
    """The residuals the checks compare with tol, of pairs as pairs:
    |G_nn - d_n| / |d_n| on the diagonal and |G_nn'| / (sqrt|d_n| sqrt|d_n'|)
    off it, each root formed once per degree in mpf.  Every operation rounds
    to prec bits, and the pair operations round as mpf's do on these
    operands (all of at most prec bits): the mpf expression's values."""
    roots = [_pair(mpmath.sqrt(_mpf((abs(m), e)), prec=prec)) for m, e in diag]

    def residual(n: int, np_: int) -> tuple[int, int]:
        if n == np_:
            (m, e), (dm, de) = _sub(gram[n][n], diag[n], prec), diag[n]
            return _div((abs(m), e), (abs(dm), de), prec)
        m, e = gram[n][np_]
        return _div((abs(m), e), _mul(roots[n], roots[np_], prec), prec)

    return _symmetric(len(diag), residual)


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
    gram = [[None] * (N + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        a, a_exp = a_cols[n]
        for np_ in range(n, N + 1):
            b, b_exp = b_cols[np_]
            total = sum(map(operator.mul, a, b))
            gram[n][np_] = gram[np_][n] = _rounded(total, a_exp + b_exp, prec)
    return gram


def _certified_window(measure: DiscreteMeasure, point, majorant, ctx: PrecisionContext,
                      diag: list[tuple[int, int]]) -> tuple[int, int, tuple[int, int]]:
    """Pick [m_lo, m_hi] so each omitted tail is below tol/8 * min(1, min_n d_n).

    point(m) gives the measure's (node, weight) at m, majorant(t) the
    family's A(t), diag the d_n and the tail bound returned, all pairs.
    The checks divide entry (n, n') by sqrt(d_n d_n'), so this keeps the
    truncation error of every relative residual below tol/4.  The tail
    test runs at ctx.bits, one rounding where the mpf expression w * A**2
    makes one (A**2 is mpf's correctly rounded A * A), so its decisions and
    the tail are those of that expression.
    """
    prec = ctx.bits
    least = _ONE   # min(1, min_n |d_n|)
    for m, e in diag:
        least = (abs(m), e) if _abs_lt((m, e), least) else least
    tm, te = _round(_pair(ctx.tol), prec)
    target_p = _mul((tm, te - 3), least, prec)

    def bound(m: int) -> tuple[int, int]:
        (xm, xe), w = point(m)
        a = majorant((abs(xm), xe))
        return _mul(w, _mul(a, a, prec), prec)

    def extend(edge: int, step: int) -> tuple[int, tuple[int, int]]:
        b_edge = bound(edge)
        for _ in range(ctx.max_terms):
            b_next = bound(edge + step)
            twice = b_next[0], b_next[1] + 1
            # b_next <= target and 2 b_next <= b_edge, all of them >= 0
            if not (_abs_lt(target_p, b_next) or _abs_lt(b_edge, twice)):
                return edge, twice
            edge += step
            b_edge = b_next
        raise TruncationFailure(
            "tail bound %s did not reach %s within max_terms=%d (%s)"
            % (mpmath.nstr(_mpf(b_edge), 8), mpmath.nstr(_mpf(target_p), 8),
               ctx.max_terms, measure.kind.value))

    start = math.isqrt(ctx.bits) + 1
    m_hi, tail_hi = extend(start, 1)
    if measure.is_full_lattice:
        m_lo, tail_lo = extend(-start, -1)
    else:
        m_lo, tail_lo = 0, _ZERO
    return m_lo, m_hi, _add(tail_hi, tail_lo, prec)


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
    res = _residuals(gram, diag, ctx.bits)
    diag_err = _largest(res[n][n] for n in range(N + 1))
    off_max = _largest(res[n][np_] for n in range(N + 1) for np_ in range(n + 1, N + 1))

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


@dataclasses.dataclass
class NormalizationAdjudication:
    """Which closed form of Z(a) matches the actual lattice mass.

    The two candidates differ in the third infinite product:
    quadratic = (-a^2;q)_inf (-q/a^2;q)_inf (q;q)_inf,
    linear    = (-a^2;q)_inf (-q/a;q)_inf  (q;q)_inf.
    """
    measure_kind: str
    a: QReal
    q: QReal
    mass: QReal
    candidate_quadratic: QReal
    candidate_linear: QReal
    residual_quadratic: QReal
    residual_linear: QReal
    winner: str

    def to_details(self, digits: int) -> dict[str, str]:
        return {
            "candidate (-q/a^2;q)_inf residual": to_decimal(self.residual_quadratic, digits),
            "candidate (-q/a;q)_inf residual": to_decimal(self.residual_linear, digits),
            "winner": self.winner,
        }


def adjudicate_normalization(kind: MeasureKind, a, q,
                             ctx: PrecisionContext = DEFAULT_CONTEXT) -> NormalizationAdjudication:
    """Settle the Z(a) constant for an extremal dual measure empirically.

    The unnormalized lattice mass is recomputed from the weights and compared
    against candidate * (expected degree-0 diagonal) for both candidate
    closed forms; the winner is the candidate whose relative residual falls
    below ctx.tol.
    """
    record = _KINDS.get(kind)
    if record is None or not (record.full_lattice and record.family is _DUAL):
        raise ValueError("adjudication applies to the extremal dual measures")
    measure = _extremal(kind, a, q, ctx)
    q = measure.q
    with ctx.workprec():
        a = measure.a
        z_quad = lattice_normalization(a, q, ctx)
        z_lin = (qpochhammer_inf(-a * a, q, ctx) * qpochhammer_inf(-q / a, q, ctx)
                 * qpochhammer_inf(q, q, ctx))
        # Degree-0 Gram entry; point() divides by z_quad, so undo it.
        report = gram_matrix(measure, 0, ctx)
        d0, mass = report.expected_diag[0], report.gram[0][0] * z_quad
        r_quad = abs(mass / (z_quad * d0) - 1)
        r_lin = abs(mass / (z_lin * d0) - 1)
        if r_quad < ctx.tol and r_quad < r_lin:
            winner = "(-q/a^2;q)_inf"
        elif r_lin < ctx.tol and r_lin < r_quad:
            winner = "(-q/a;q)_inf"
        else:
            winner = "none"
        return NormalizationAdjudication(
            measure_kind=kind.value, a=measure.a, q=q, mass=mass,
            candidate_quadratic=z_quad, candidate_linear=z_lin,
            residual_quadratic=r_quad, residual_linear=r_lin, winner=winner)
