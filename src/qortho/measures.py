"""Discrete orthogonality measures and certified Gram-matrix assembly.

A measure is a countable set of (node, weight) pairs.  Its five kinds follow
one pattern, so each kind is one record of the table _KINDS: the node and
weight at support index m, the closed-form diagonal d_n of the paired family,
whether the support is all of Z or m >= 0, and the paired family with its s.
The normalization follows the support: Z(a) on all of Z, 1 on m >= 0.

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
s = q^-1; their diagonals share the factor (s q^3;q^2)_inf / (q;q^2)_inf.
The q-extremal weight vanishes at a single site exactly when a^2 q^{2m} = 1
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
d_n, so each side is driven below tol/8 * min(1, min_n d_n).  The window
scan and the assembly share their (node, weight) values, so each lattice
point is evaluated once.

Assembly forms each quantity once: the family's recurrence coefficients
serve both the majorant and the values at the window nodes, which reach the
pair sums as pairs.  Each entry G_nn' = sum_m w_m P_n(x_m) P_n'(x_m) over
the M window nodes is an exact integer dot product of fixed-point columns,
rounded once to the working precision prec (_pair_sums).  Every diagonal
term w_m P_n(x_m)^2 is >= 0, so by Cauchy-Schwarz the rounding of an entry
is within (2^-prec + 5 (M+1) 2^-(prec+16+bitlen(M))) sqrt(G_nn G_n'n'), on
the scale the checks divide by, and it does not depend on the order of the
nodes.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import operator
from typing import Callable, NamedTuple

import mpmath

from .families import FamilyKind, FamilySpec, _recurrence, check_dual_s
from .kernel import (DEFAULT_CONTEXT, PrecisionContext, QReal,
                     TruncationFailure, _mpf, _pair, _rounded, as_qparam,
                     qpochhammer, qpochhammer_inf, to_decimal)


class IncompatiblePair(Exception):
    """The polynomial family and the measure do not orthogonalize each other."""


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


def _hermite_point(measure, m, q, ctx):
    a = measure.a
    up, down = a ** (-1) * q ** (-m), a * q ** m
    return (up - down) / 2, a ** (4 * m) * q ** (m * (2 * m - 1)) * (1 + down * down)


def _qinv_point(measure, m, q, ctx):
    a = measure.a
    up, down = a ** (-1) * q ** (-m), a * q ** m
    return up * up + down * down, a ** (4 * m + 1) * q ** (2 * m * m) * (up + down)


def _q_point(measure, m, q, ctx):
    a = measure.a
    up, down = a ** (-1) * q ** (-m), a * q ** m
    return ((up * up + down * down) * q, a ** (4 * m) * q ** (m * (2 * m - 1))
            * (1 + down * down) * (up - down) ** 2)


def _base_point(parity: int):
    """Node mu(j; s) and weight at j = 2m + parity, for the base kind of that parity."""
    def point(measure, m, q, ctx):
        s, j = measure.s, 2 * m + parity
        node = q ** (-j) + s * q ** (j + 1)
        if j == 0:
            return node, mpmath.mpf(1)
        return node, ((1 - s * q ** (2 * j + 1))
                      * qpochhammer(s * q ** 2, q, j - 1, ctx)
                      / qpochhammer(q, q, j, ctx)
                      * q ** (m * (j - 1 + parity)))
    return point


def _hermite_diagonal(measure, n, q, ctx):
    return q ** (mpmath.mpf(-n * (n + 1)) / 2) * qpochhammer(q, q, n, ctx)


def _qinv_diagonal(measure, n, q, ctx):
    return (q ** (-n) * qpochhammer(q, q, 2 * n, ctx)
            / qpochhammer(q, q * q, n, ctx) ** 2)


def _q_diagonal(measure, n, q, ctx):
    return (q ** (-(n + 1)) * qpochhammer(q, q, 2 * n + 1, ctx)
            / qpochhammer(q ** 3, q * q, n, ctx) ** 2)


def _base_diagonal(measure, n, q, ctx):
    q2 = q * q
    pre = qpochhammer_inf(measure.s * q ** 3, q2, ctx) / qpochhammer_inf(q, q2, ctx)
    return (pre * qpochhammer(q2, q2, n, ctx) * q ** (-n)
            / qpochhammer(measure.s * q2, q2, n, ctx))


class _Kind(NamedTuple):
    """Everything that tells one measure kind from another.

    Its functions run at the caller's working precision.
    """

    point: Callable          # (measure, m, q, ctx) -> (node, weight * normalization)
    diagonal: Callable       # (measure, n, q, ctx) -> d_n
    full_lattice: bool       # support m in Z, else m >= 0
    family: FamilyKind       # the paired family ...
    family_s: Callable       # (measure) -> ... and its s, or None


_DUAL = FamilyKind.DUAL_DISCRETE_ULTRA

_KINDS = {
    MeasureKind.HERMITE_EXTREMAL: _Kind(_hermite_point, _hermite_diagonal, True,
                                        FamilyKind.QINV_HERMITE, lambda measure: None),
    MeasureKind.DUAL_QINV_EXTREMAL: _Kind(_qinv_point, _qinv_diagonal, True,
                                          _DUAL, lambda measure: 1 / measure.q),
    MeasureKind.DUAL_Q_EXTREMAL: _Kind(_q_point, _q_diagonal, True,
                                       _DUAL, lambda measure: measure.q),
    MeasureKind.DUAL_BASE_EVEN: _Kind(_base_point(0), _base_diagonal, False,
                                      _DUAL, lambda measure: measure.s),
    MeasureKind.DUAL_BASE_ODD: _Kind(_base_point(1), _base_diagonal, False,
                                     _DUAL, lambda measure: measure.s),
}


@dataclasses.dataclass(frozen=True)
class DiscreteMeasure:
    kind: MeasureKind
    q: QReal
    a: QReal | None = None
    s: QReal | None = None

    @property
    def is_full_lattice(self) -> bool:
        return _KINDS[self.kind].full_lattice

    def family_s(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal | None:
        """The s value of the dual family this measure orthogonalizes."""
        with ctx.workprec():
            return _KINDS[self.kind].family_s(self)

    def family(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> FamilySpec:
        """The polynomial family this measure orthogonalizes."""
        return FamilySpec(_KINDS[self.kind].family, self.q, self.family_s(ctx))

    def normalization(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
        """Z(a) for the full-lattice kinds, 1 for the base kinds."""
        if self.is_full_lattice:
            return lattice_normalization(self.a, self.q, ctx)
        return mpmath.mpf(1)

    def point(self, m: int, ctx: PrecisionContext = DEFAULT_CONTEXT,
              norm: QReal | None = None) -> tuple[QReal, QReal]:
        """(node, weight) at support index m.

        norm, when given, must be self.normalization(ctx).  Its products are
        memoised, but forming Z(a) again still converts a and q and makes
        three lookups, which about doubles the cost of a point; a Gram
        passes norm so that Z(a) is formed once, not once per window node.
        """
        kind = _KINDS[self.kind]
        if m < 0 and not kind.full_lattice:
            raise ValueError("support index must satisfy m >= 0")
        with ctx.workprec():
            node, w = kind.point(self, m, self.q, ctx)
            w = w / (norm if norm is not None else self.normalization(ctx))
            if w < 0:
                raise SignViolation(
                    "negative weight %s at m=%d for %s"
                    % (mpmath.nstr(w, 8), m, self.kind.value))
            return node, w


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
    q = as_qparam(q, ctx)
    with ctx.workprec():
        s = mpmath.mpf(s)
        check_dual_s(s, q)
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
    """Closed form of the (n, n) Gram entry for the measure's own family."""
    with ctx.workprec():
        return _KINDS[measure.kind].diagonal(measure, n, measure.q, ctx)


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
        return bool(self.off_diag_max < tol and self.diag_rel_err_max < tol)

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
        with mpmath.mp.workprec(self.bits):
            cells = _symmetric(self.N + 1, lambda n, np_: self._csv_cells(n, np_, digits))
        lines += ["%d,%d,%s" % (n, np_, cell)
                  for n, row in enumerate(cells) for np_, cell in enumerate(row)]
        return "\n".join(lines) + "\n"

    def _csv_cells(self, n: int, np_: int, digits: int) -> str:
        """value,expected,residual of entry (n, n')."""
        exp = self.expected_diag[n] if n == np_ else mpmath.mpf(0)
        res = _residual(self.gram, self.expected_diag, n, np_)
        return ",".join(to_decimal(x, digits) for x in (self.gram[n][np_], exp, res))


def _residual(gram: list[list[QReal]], diag: list[QReal], n: int, np_: int) -> QReal:
    """The residual a check compares with tol: |G_nn - d_n| / |d_n| on the
    diagonal and |G_nn'| / sqrt(|d_n d_n'|) off it."""
    if n == np_:
        return abs(gram[n][n] - diag[n]) / abs(diag[n])
    return abs(gram[n][np_]) / mpmath.sqrt(abs(diag[n] * diag[np_]))


def _symmetric(size: int, entry) -> list[list]:
    """[[entry(n, n') for n' < size] for n < size] of a symmetric entry,
    called once for each n <= n' and mirrored."""
    rows = [[None] * size for _ in range(size)]
    for n in range(size):
        for np_ in range(n, size):
            rows[n][np_] = rows[np_][n] = entry(n, np_)
    return rows


_FAMILY_NAMES = {
    FamilyKind.QINV_HERMITE: "the q-inverse Hermite family",
    FamilyKind.DUAL_DISCRETE_ULTRA: "the dual discrete q-ultraspherical family",
}


def _check_compatible(family: FamilySpec, measure: DiscreteMeasure,
                      ctx: PrecisionContext) -> FamilySpec:
    family = family.validated(ctx)
    want = measure.family(ctx)
    with ctx.workprec():
        eps = mpmath.mpf(2) ** (8 - ctx.bits)
        if abs(family.q - measure.q) > eps * abs(measure.q):
            raise IncompatiblePair("family and measure disagree on q")
        if family.kind is not want.kind:
            raise IncompatiblePair(
                "%s pairs with %s, got %s"
                % (measure.kind.value, _FAMILY_NAMES[want.kind], family.kind.value))
        if want.s is not None and abs(family.s - want.s) > eps * abs(want.s):
            raise IncompatiblePair(
                "measure %s requires family s=%s, got s=%s"
                % (measure.kind.value, mpmath.nstr(want.s, 8),
                   mpmath.nstr(family.s, 8)))
    return family


# Bits kept below the working precision in each fixed-point column, on top
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


def _pair_sums(weights: list[QReal], tables: list[list[tuple[int, int]]],
               N: int) -> list[list[QReal]]:
    """gram[n][n'] = sum_i weights[i] * tables[i][n] * tables[i][n'], each
    entry an exact integer dot product rounded once to the working precision.

    tables holds pairs, as the family's recurrence tables give them.
    Weights must be finite and nonnegative, else ValueError; zero weights
    are skipped.  Node i's weight is split by the exact power 2^k_i, k_i
    half of w_i's binary exponent:
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
    prec = mpmath.mp.prec
    rows = [(_pair(w, "pair-sum weight"), row) for w, row in zip(weights, tables) if w]
    if any(wman < 0 for (wman, _), _ in rows):
        raise ValueError("pair sums need finite nonnegative weights")
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
            gram[n][np_] = gram[np_][n] = _mpf(_rounded(total, a_exp + b_exp, prec))
    return gram


def _certified_window(measure: DiscreteMeasure, point, majorant,
                      ctx: PrecisionContext,
                      diag: list[QReal]) -> tuple[int, int, QReal]:
    """Pick [m_lo, m_hi] so each omitted tail is below tol/8 * min(1, min_n d_n).

    point(m) gives the measure's (node, weight) at m, and majorant(t) the
    family's A(t).  The checks divide
    entry (n, n') by sqrt(d_n d_n'), so this keeps the truncation error of
    every relative residual below tol/4.
    """
    target = ctx.tol / 8 * min(mpmath.mpf(1), min(abs(d) for d in diag))

    def bound(m: int) -> QReal:
        node, w = point(m)
        return w * majorant(abs(node)) ** 2

    def extend(edge: int, step: int) -> tuple[int, QReal]:
        b_edge = bound(edge)
        for _ in range(ctx.max_terms):
            b_next = bound(edge + step)
            if b_next <= target and 2 * b_next <= b_edge:
                return edge, 2 * b_next
            edge += step
            b_edge = b_next
        raise TruncationFailure(
            "tail bound %s did not reach %s within max_terms=%d (%s)"
            % (mpmath.nstr(b_edge, 8), mpmath.nstr(target, 8),
               ctx.max_terms, measure.kind.value))

    start = math.isqrt(ctx.bits) + 1
    m_hi, tail_hi = extend(start, 1)
    if measure.is_full_lattice:
        m_lo, tail_lo = extend(-start, -1)
    else:
        m_lo, tail_lo = 0, mpmath.mpf(0)
    return m_lo, m_hi, tail_hi + tail_lo


def gram_matrix(family: FamilySpec, measure: DiscreteMeasure, N: int,
                ctx: PrecisionContext = DEFAULT_CONTEXT) -> GramReport:
    """Gram matrix of the family under the measure, degrees 0..N.

    The lattice window carries a certified bound on the omitted tail.  Each
    entry is an exact integer sum over the window rounded once (see
    _pair_sums), so the result is reproducible bit for bit whatever the
    order of the nodes.  Assembly runs on one thread: a thread pool over
    the GIL-bound Gram loops was measured slower.
    """
    if not isinstance(N, int) or N < 0:
        raise ValueError("N must be a nonnegative integer")
    family = _check_compatible(family, measure, ctx)
    # The closed forms need no more accuracy than this Gram's own arithmetic
    # carries: below the rounding floor the residuals show the shortfall as
    # a failed check rather than an uncertifiable product.
    closed = dataclasses.replace(ctx, tol=max(ctx.tol, ctx.rounding_floor))
    with ctx.workprec():
        norm = measure.normalization(closed)
        diagonal = _KINDS[measure.kind].diagonal
        diag = [diagonal(measure, n, measure.q, closed) for n in range(N + 1)]
        values, majorant, _ = _recurrence(family, N, ctx)
        points: dict[int, tuple[QReal, QReal]] = {}

        def point(m: int) -> tuple[QReal, QReal]:
            if m not in points:
                points[m] = measure.point(m, ctx, norm=norm)
            return points[m]

        m_lo, m_hi, tail = _certified_window(measure, point, majorant, ctx, diag)
        nodes, weights = zip(*(point(m) for m in range(m_lo, m_hi + 1)))
        gram = _pair_sums(weights, [values(x) for x in nodes], N)
        diag_err = max(_residual(gram, diag, n, n) for n in range(N + 1))
        off_max = max((_residual(gram, diag, n, np_)
                       for n in range(N + 1) for np_ in range(n + 1, N + 1)),
                      default=mpmath.mpf(0))

        return GramReport(
            family_kind=family.kind.value,
            measure_kind=measure.kind.value,
            q=family.q,
            s=family.s,
            a=measure.a,
            N=N,
            bits=ctx.bits,
            gram=gram,
            expected_diag=diag,
            off_diag_max=off_max,
            diag_rel_err_max=diag_err,
            m_lo=m_lo,
            m_hi=m_hi,
            tail_bound=tail,
            nodes=list(nodes),
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
        d0 = expected_diagonal(measure, 0, ctx)
        # Degree-0 Gram entry; point() divides by z_quad, so undo it.
        report = gram_matrix(measure.family(ctx), measure, 0, ctx)
        mass = report.gram[0][0] * z_quad
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
