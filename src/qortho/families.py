"""The q-orthogonal polynomial families evaluated by this package.

Three families, all real-valued for 0 < q < 1:

* q-inverse Hermite polynomials h_n(x|q), defined for x = sinh(phi) by

      h_n(sinh(phi)|q) = sum_{k=0}^n (-1)^k q^{k(k-n)} [n,k]_q e^{phi(n-2k)}

  with [n,k]_q = (q;q)_n / ((q;q)_k (q;q)_{n-k}); equivalently by the
  three-term recurrence h_{n+1} = 2x h_n - q^{-n}(1-q^n) h_{n-1}, h_0 = 1.
  h_{2k} is even and h_{2k+1} is odd; h_{2k+1}(x) = x * ht_{2k}(x) defines the
  even cofactor family ht.

* discrete q-ultraspherical polynomials
  C_n(x; s, q) = 3phi2(q^-n, -s q^{n+1}, x; sqrt(s) q, -sqrt(s) q; q, q).

* dual discrete q-ultraspherical polynomials D_n(mu; s, q), degree n in
  mu(x; s) = q^-x + s q^{x+1}, given on the grid by
  D_n = 3phi2(q^-x, s q^{x+1}, q^-n; sqrt(s) q, -sqrt(s) q; q, -q^{n+1})
  and everywhere by the recurrence

      mu D_n = -q^{-2n-1}(1 - s q^{2n+2}) D_{n+1}
               + q^{-2n-1}(1+q) D_n - q^{-2n}(1 - q^{2n}) D_{n-1}.

Series and recurrence evaluators are deliberately independent code paths so
each can serve as the other's cross-check.  The h_n series is folded on its
palindrome c_{n-k} = (-1)^n c_k and batched over degrees and phi:
qinv_hermite_series_tables builds each degree's phi-free half row
c_k = (-1)^k q^{k(k-n)} [n,k]_q, k <= n/2, once, from one power run of q,
and takes one exp(phi) and one run of its powers per phi, so a grid costs
one multiplication per pair of terms and phi past the rows;
qinv_hermite_series is its one-point call.

Each FamilyKind has one record in _FAMILIES (see _Family): its s rule (no
s for h and ht, s > 0 for C, 0 < s < q^-2 for D), evaluate's routes, and
for h and D the recurrence's steps, which FamilySpec.validated, evaluate
and _recurrence read in place of testing the kind.  FamilySpec.validated
is the front door for s: it is the only code that checks s, and every
public function that takes s (and measures.dual_base) passes through it
once, so each raises its ValueError.

The recurrence evaluators are batched: the *_tables functions run the
recurrence at every point of a list, and the *_coeff_rows functions give
every coefficient row up to n_max, from steps formed once.  The
single-point and single-degree functions (*_table, *_coeffs, qinv_hermite,
dual_ultra) take one point or row of these, so every route gives the same
value bit for bit.  h and D run in one loop, _three_term (one rounding a
step), on steps (c_mid, c_low, r), r the reciprocal of the lead: D's from
_dual_steps, h's from _hermite_steps.  _recurrence is the one handle on
the loop that the rest of the package reads: the values at any point, for
the tables and a Gram's pair sums; the majorant A(t) that certifies a
Gram's window, the same loop at |h_n(it)| and D_n(-t); and the coefficient
rows, the same step on coefficient lists.

Those passes, the h series' row and its sum run on the kernel's pair
arithmetic (README, "Precision model"; the kernel docstring has the
argument), and the public functions convert to mpf at the end, qinv_hermite
and dual_ultra only the value they return.  Each value of the h series is
that of the mpf operator expression.  Every power of q with a loop-indexed
exponent in them is read from one kernel.power_run per call (per pass for
the h series' rows), and the h series' factors E^j + (-1)^j E^-j from one
run of E^2 and E^-2 per pass and phi; the recurrences' steps read only
q^-k, k >= 0, and round each coefficient once.  The C and grid D series
share one loop, _ultra_series, at ctx.bits + _RUN_GUARD (32) with one
division a term: their denominators (sqrt(s) q; q)_k (-sqrt(s) q; q)_k are
the one product (s q^2; q^2)_k, stepped as the lane 1 - s q^(2k+2) from
the exact s q^2, and their few parameters are powers of q from
kernel._q_power (libmp's mpf_pow at the series' precision) and their
products with the exact s q, with no mpf object.  The kernel's basic_hypergeometric stays the
independent route the tests hold them to.
"""
from __future__ import annotations

import enum
from typing import Callable, NamedTuple

import mpmath
from mpmath.libmp import mpf_neg

from .kernel import (_ONE, _RUN_GUARD, _ZERO, DEFAULT_CONTEXT, PoleError, PrecisionContext,
                     QReal, TruncationFailure, _abs_lt, _add, _budget, _certified, _check_degree,
                     _check_floor, _div, _largest, _mpf, _mul, _pair, _q_power, _round,
                     _rounded, _sub, as_qparam, power_run)


class FamilyKind(enum.Enum):
    QINV_HERMITE = "qinv_hermite"
    DISCRETE_ULTRA = "discrete_ultra"
    DUAL_DISCRETE_ULTRA = "dual_discrete_ultra"
    EVEN_HERMITE_FACTOR = "even_hermite_factor"

    @property
    def takes_s(self) -> bool:
        """Whether the family has the parameter s: its record has an s rule."""
        return bool(_FAMILIES[self].s_rules)


class FamilySpec(NamedTuple):
    """A family selection: kind, base q, and the shape parameter s where used."""

    kind: FamilyKind
    q: QReal
    s: QReal | None = None

    def validated(self, ctx: PrecisionContext = DEFAULT_CONTEXT) -> "FamilySpec":
        """The spec with q and s formed at ctx; ValueError unless s meets the
        family's s rule, which includes no s for a family without one.  The
        package's only check of s."""
        q = as_qparam(self.q, ctx)
        if (self.s is None) == self.kind.takes_s:
            raise ValueError(("%s requires the parameter s" if self.kind.takes_s
                              else "%s takes no parameter s") % self.kind.value)
        s = None if self.s is None else ctx.to_real(self.s)
        for rule in _FAMILIES[self.kind].s_rules:
            rule(s, q, ctx)
        return FamilySpec(self.kind, q, s)


def _positive_s(s: QReal, q: QReal, ctx: PrecisionContext) -> None:
    """Raise ValueError unless s is finite and s > 0."""
    if _pair(s, "s")[0] <= 0:   # ValueError unless s is finite
        raise ValueError("s must satisfy s > 0 (got s=%s)" % mpmath.nstr(s, 8))


def check_dual_s(s: QReal, q: QReal, ctx: PrecisionContext) -> None:
    """Raise ValueError unless s < q^-2, for s > 0 (_positive_s): the dual
    family's range of s, tested exactly as s q^2 < 1, which is what the
    exact first lead 1 - s q^2 of _dual_steps and the majorant's sign
    argument in _recurrence need.  q^-2 is formed, at ctx.bits, only for
    the message."""
    (sm, se), (qm, qe) = _pair(s), _pair(q)
    if (sm * qm * qm).bit_length() + se + 2 * qe > 0:   # s q^2 >= 1
        raise ValueError("s must satisfy 0 < s < q^-2 (got s=%s, q^-2=%s)"
                         % (mpmath.nstr(s, 8), mpmath.nstr(_mpf(_q_power(q, -2, ctx.bits)), 8)))


class MuPoint(NamedTuple):
    """A point of the dual grid: label x, parameter s, and mu = q^-x + s q^{x+1}."""

    x: QReal
    s: QReal
    mu: QReal


def mu_point(x, s, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> MuPoint:
    """The grid point at label x of the dual family with this s and q."""
    spec = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s).validated(ctx)
    q, s = spec.q, spec.s
    x = ctx.to_real(x)
    prec, x_p = ctx.bits, _pair(x, "x")   # ValueError unless x is finite
    # q^-x + s q^(x+1), each operation rounded to bits
    up = _q_power(q, mpf_neg(x._mpf_), prec)
    down = _q_power(q, _mpf(_add(x_p, _ONE, prec))._mpf_, prec)
    return MuPoint(x=x, s=s, mu=_mpf(_add(up, _mul(_pair(s), down, prec), prec)))


# ---------------------------------------------------------------------------
# q-inverse Hermite family


def _hermite_sum(row, factors, tops, prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """sum_k row[k] factors[k] and max_k |row[k]| 2^tops[k], as pairs.

    row is a half row of _hermite_rows, factors holds pairs, and each
    tops[k] is an int with 2^tops[k] above the size its factor's error is
    bounded against (_hermite_factors).  Runs at prec bits:
    term = c * factor, total += term, tmax = max(tmax, |c| 2^top), the last
    exact, so tmax bounds every |c| size at no multiplication.
    """
    total = tmax = _ZERO
    for c, factor, top in zip(row, factors, tops):
        total = _add(total, _mul(c, factor, prec), prec)
        if _abs_lt(tmax, (c[0], c[1] + top)):
            tmax = abs(c[0]), c[1] + top
    return total, tmax


def _hermite_rows(ns, q: QReal, prec: int) -> dict[int, list[tuple[int, int]]]:
    """{n: the phi-free factors c_k = (-1)^k q^{k(k-n)} [n,k]_q, k = 0..n//2}
    for the degrees n of ns, each half row built once, as pairs at prec.

    The whole row is a palindrome up to sign, c_{n-k} = (-1)^n c_k, since
    [n,n-k]_q = [n,k]_q and (n-k)(n-k-n) = k(k-n); the half row k <= n/2
    thus carries the series, which _hermite_series_pass folds on it.
    The powers come from one power_run of q over [1-top, top] at prec + 32,
    top = max(ns); a run value does not depend on the run's length, so each
    row is bit for bit that of a run over [1-n, n], and each c_k that of
    the full row:
    - [n,k]_q steps from [n,k-1]_q by (1 - q^(n-k+1)) / (1 - q^k), with both
      powers rounded from the run to prec;
    - q^(k(k-n)) steps from q^((k-1)(k-1-n)) by its ratio q^(2k-1-n) at
      prec + 32 and is rounded once to prec.  It is a product of k run
      values, each within 1.01 2^-(prec+32), with k - 1 roundings at
      prec + 32, so power_run's product bound over 2k - 1 factors puts it
      within 2^-prec + 3k 2^-(prec+32) of the exact power.
    """
    top = max(ns, default=0)
    wp = prec + 32
    pw = power_run(_pair(q), 1 - top, top, wp)   # pw[k + top - 1] = q^k
    qk = [_round(v, prec) for v in pw[top - 1:]]   # qk[k] = q^k at prec
    rows = {}
    for n in dict.fromkeys(ns):
        row = [_ONE]
        binom = power = _ONE
        for k in range(1, n // 2 + 1):
            # binom *= (1 - q^(n-k+1)) / (1 - q^k); c = (-1)^k * power * binom
            binom = _mul(binom, _div(_sub(_ONE, qk[n - k + 1], prec),
                                     _sub(_ONE, qk[k], prec), prec), prec)
            power = _mul(power, pw[top - n + 2 * k - 2], wp)
            m, e = _mul(_round(power, prec), binom, prec)
            row.append((-m if k & 1 else m, e))
        rows[n] = row
    return rows


def _hermite_factors(phi, top: int, parities, prec: int):
    """(factors, tops) of the folded series at phi, for 0 <= j <= top of the
    parities given (0, 1 or both), as lists indexed by j, None at j of
    another parity: factors[j] = E^j + (-1)^j E^-j for E = exp(phi) and
    j >= 1, and factors[0] = 1, the middle term of an even degree, taken
    once; tops[j] an int with E^j + E^-j < 2^tops[j] (1 < 2^tops[0]).

    E is mpmath's exp at prec, within 2^(1-prec) (it keeps 14 or more guard
    bits and rounds once).  The powers of one parity are stepped at
    prec + 32 bits by E^2 and E^-2 = 1 / E^2, from 1 for even j and from E
    and 1 / E for odd j, so E^j and E^-j carry at most 1.5 j roundings at
    prec + 32; each factor is their exact sum or difference rounded once to
    prec (_add, _sub), and tops[j] is one more than the top bit of the
    larger power, so 2^tops[j] is at most 4 (E^j + E^-j).  A value does not
    depend on top or on the other parity, so a degree's factors are those
    of its own run.  At phi = 0, E = 1 and every factor is exact: 2 for
    even j and 0 for odd j.
    """
    wp = prec + _RUN_GUARD
    e = _pair(mpmath.exp(phi, prec=prec))
    e2 = _mul(e, e, wp)
    e2_inv = _div(_ONE, e2, wp)
    factors, tops = [None] * (top + 1), [None] * (top + 1)
    for parity in parities:
        up, down = (e, _div(_ONE, e, wp)) if parity else (e2, e2_inv)   # E^j, E^-j
        if not parity:
            factors[0], tops[0] = _ONE, 1
        for j in range(2 - parity, top + 1, 2):
            factors[j] = (_sub if parity else _add)(up, down, prec)
            tops[j] = max(up[1] + up[0].bit_length(), down[1] + down[0].bit_length()) + 1
            if j + 2 <= top:
                up, down = _mul(up, e2, wp), _mul(down, e2_inv, wp)
    return factors, tops


def _hermite_gap(q) -> tuple[int, int]:
    """A pair of at least 1.001 q / (1 - q), for _hermite_bound: the
    constant 1.00195 covers the three roundings at 53 bits."""
    q = _pair(q)
    return _mul((1026, -10), _div(q, _sub(_ONE, q, 53), 53), 53)


def _hermite_bound(n: int, total, tmax, units: int, gap, prec: int):
    """err / max(1, |total| - err) as a pair, or None when the pass at prec
    certifies no bit, for total = _hermite_sum of the half row of degree n
    at prec, and tmax the bound it returns.

    err bounds |total - S| for the exact sum S at the exact q and phi, so
    the bound is the error relative to a certified lower bound of
    max(1, |S|).  The sum has m = floor(n/2) + 1 terms c_k f_k, each
    factor f_k with a size g_k: E^j + E^-j for E^j + (-1)^j E^-j, j = n - 2k,
    1 for the middle term, and |f_k| for an integer factor.  With
    u = 2^-prec and each rounding a factor (1 + d), |d| <= u, the
    first-order count of the perturbations of a term, relative to
    |c_k| g_k, is:
    - c_k, k <= n/2, at most (2n + 2) u + gap bitlength(n) u +
      1.5 n 2^-(prec+32): the 2k differences 1 - q^i, each rounded, the 2k
      divisions and products of [n,k]_q, the power, within
      u + 3k 2^-(prec+32), and the last product (4k + 2 <= 2n + 2
      roundings).  A difference amplifies the error of its q^i, at most
      u + 1.01 i 2^-(prec+32) (power_run), by r_i = q^i / (1 - q^i).  As
      k <= n/2, the exponents i of one row, 1..k and n-k+1..n, are
      distinct, so the amplifications sum to at most
      sum_{i<=n} r_i (u + 1.01 i 2^-(prec+32))
      <= q / (1 - q) (H_n + 1.01 n 2^-32) u, since 1 - q^i >= i q^(i-1) (1 - q);
      that is at most gap bitlength(n) u for 1 <= n < 2^29, with
      gap = _hermite_gap(q) >= 1.001 q / (1 - q);
    - a factor E^j + (-1)^j E^-j, at most (2n + 1) u + 1.52 n 2^-(prec+32)
      of g_k: E is within 2^(1-prec) and raised to a power j <= n, the
      powers carry at most 1.5 j roundings at prec + 32, and the factor
      one at prec (_hermite_factors).  The difference cancels at small
      j phi, so its error is bounded against g_k, not against |f_k|; an
      integer factor is exact;
    - the product c_k f_k, u.
    The terms carry errors of at most a |c_k| g_k, a the sum of these, and
    the sum's m roundings add at most 1.001 m u sum|term| (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 4.2).  tmax bounds
    every computed |c_k| g_k (_hermite_sum), so both sum|term| and
    sum |c_k| g_k are at most 1.001 m tmax.  While a + m u <= 2^-10, a
    product of such factors, or of their inverses, is within 1.003 a of 1,
    so

        |total - S| <= 1.003 m tmax (a + m u) <= K tmax u,
        K = 33/32 m (units + m + gap * bitlength(n)),

    where units is 4n + 5 for the factors E^j + (-1)^j E^-j and 2n + 4 for
    the integer factors, each with 1 for the 2^-(prec+32) terms
    (3.02 n 2^-32 <= 1).  33/32 also covers the roundings of K, err and
    the bound.  When K u > 2^-10 the first-order count does not hold, and
    None is returned.
    """
    terms = n // 2 + 1
    k = _mul(_add((units + terms, 0), _mul(gap, (n.bit_length(), 0), 53), 53),
             (33 * terms, -5), 53)
    if k[1] + k[0].bit_length() > prec - 10:
        return None
    m, e = _mul(tmax, k, prec)
    err = m, e - prec
    scale = _sub((abs(total[0]), total[1]), err, prec)
    # max(1, |total| - err)
    scale = scale if scale[0] > 0 and _abs_lt(_ONE, scale) else _ONE
    return _div(err, scale, prec)


def _hermite_series_pass(ns, phis, q,
                         prec: int) -> list[list[tuple[tuple[int, int], tuple[int, int] | None]]]:
    """One summation pass at prec bits: for each phi of phis,
    (sum, bound) as pairs for each degree n of ns, bound being
    _hermite_bound's (None when the pass certifies no bit).

    The series is folded on its palindrome c_{n-k} = (-1)^n c_k
    (_hermite_rows): with j = n - 2k and E = e^phi,

        h_n(sinh(phi)|q) = sum_{k <= n/2} c_k (E^j + (-1)^n E^-j),

    the middle term of an even n taken once, so floor(n/2) + 1 terms from
    the half row, and (-1)^n = (-1)^j.  The half rows are built once for
    all of phis, and each phi takes one _hermite_factors run, up to max(ns)
    and for the parities of ns only; a run value does not depend on the
    run's length, so each degree's factors are those of its own run.
    """
    top = max(ns, default=0)
    rows = _hermite_rows(ns, q, prec)
    parities = {n % 2 for n in ns}
    gap = _hermite_gap(q)
    out = []
    for phi in phis:
        factors, tops = _hermite_factors(phi, top, parities, prec)
        sums = []
        for n in ns:
            # j = n, n - 2, ..., n % 2 for k = 0..n//2
            total, tmax = _hermite_sum(rows[n], factors[n::-2], tops[n::-2], prec)
            sums.append((total, _hermite_bound(n, total, tmax, 4 * n + 5, gap, prec)))
        out.append(sums)
    return out


def qinv_hermite_series_tables(ns, phis, q,
                               ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[list[QReal]]:
    """[[h_n(sinh(phi)|q) for n in ns] for phi in phis] by the explicit
    series in e^phi.

    One pass at ctx.bits serves every degree and phi: q and every phi are
    converted once, each degree's half row is built once, and each phi
    takes one exp(phi) and one run of its powers for every degree's folded
    factors E^j + (-1)^n E^-j (_hermite_series_pass), bit for bit those of
    the degree's own run.  Terms reach q^(-n^2/4) e^(n|phi|) while the sum
    can be exponentially smaller (exactly 0 at phi = 0 for odd n), so each
    value is certified to an absolute error of tol/4 * max(1, |h_n|) by
    _hermite_bound, which covers the roundings of the row, of the factors
    and of the sum.  A value whose first-pass bound, compared on pairs,
    meets that budget takes the pass's value; one whose bound misses it
    goes on, one (n, phi) at a time, to
    kernel._certified, the package's one escalation policy, which redoes
    that sum at the bits its bound asks for.  That meets the budget in one
    rerun as the bound scales like 2^-bits (h_801(0) at q = 0.5 and 256
    bits: one rerun, at 160,628 bits).  Rounding a rerun to ctx.bits adds
    at most 2^-bits |h_n| <= tol/64 |h_n|.  Raises TruncationFailure before
    any pass when tol is below ctx.rounding_floor, and when a rerun would
    need more than 1024 * ctx.bits bits (h_n(0) at q = 0.5 and 256 bits for
    odd n >= 1025).
    """
    ns = list(ns)
    for n in ns:
        _check_degree("n", n)
    q, phis = as_qparam(q, ctx), [ctx.to_real(phi) for phi in phis]
    for phi in phis:
        _pair(phi, "phi")   # ValueError unless phi is finite

    def what(degrees, at):
        return lambda: "h_%s series at phi=%s, q=%.8g" % (
            ",".join(map(str, degrees)), ",".join("%.8g" % float(phi) for phi in at), float(q))
    _check_floor(ctx, what(ns, phis))
    budget = _budget(ctx, 2)

    def value(n, phi, total, bound):
        if bound is not None and not _abs_lt(budget, bound):
            return _mpf(total)
        return _mpf(_certified(lambda prec: _hermite_series_pass([n], [phi], q, prec)[0][0],
                               budget, ctx, what([n], [phi]), first=(total, bound)))
    passes = _hermite_series_pass(ns, phis, q, ctx.bits)
    return [[value(n, phi, *pass_) for n, pass_ in zip(ns, sums)]
            for phi, sums in zip(phis, passes)]


def qinv_hermite_series(n: int, phi, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """h_n(sinh(phi)|q) by the explicit series in e^phi: the one-point call
    of qinv_hermite_series_tables, which has the certificate."""
    return qinv_hermite_series_tables([n], [phi], q, ctx)[0][0]


def qinv_hermite_tables(n_max: int, xs, q,
                        ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[list[QReal]]:
    """[h_0(x|q), ..., h_{n_max}(x|q)] for each x in xs, by the three-term
    recurrence, its steps formed once for all of xs.  ValueError when an x
    is inf or nan."""
    values = _recurrence(FamilySpec(FamilyKind.QINV_HERMITE, as_qparam(q, ctx)), n_max, ctx)[0]
    return [[_mpf(v) for v in values(_pair(ctx.to_real(x), "x"))] for x in xs]


def _hermite_steps(n_max: int, q: QReal, prec: int) -> list[tuple[tuple[int, int], ...]]:
    """The steps (0, -(q^-j - 1) / 2, -2) of _three_term for j < n_max, -2
    the reciprocal of the lead -1/2, which make its step
    h_{j+1} = 2x h_j - (q^-j - 1) h_{j-1}: negating and halving a pair are
    exact, pair exponents are unbounded, and scaling by -2 commutes with
    rounding, so for x of at most prec bits the step is that rounded once.
    q^0 - 1 = 0 is exact, and q^-1 - 1 = (1 - q) / q is the quotient of the
    exact 1 - q by q, rounded once.  For j >= 2, q^-j - 1 = q^-j (1 - q^j)
    is the difference of the run's q^-j at prec + 32 bits, within relative
    t = 2^-(prec+32) + 1.01 j 2^-(prec+64) <= 1.01 2^-(prec+32) (power_run),
    and the exact 1, rounded once to prec.  q^-j / (q^-j - 1) = 1 / (1 - q^j)
    amplifies the power's error, so the coefficient is within relative
    2^-prec + 1.02 2^-(prec+32) / (1 - q^j): below 1.01 2^-prec while
    1 - q^2 >= 2^-25.  No positive power of q is formed."""
    q_p = _pair(q)
    run = power_run(q_p, 1 - n_max, 0, prec + 32)[::-1]   # run[j] = q^-j
    lows = [_sub(v, _ONE, prec) for v in run]
    if n_max > 1:
        m, e = q_p   # q < 1, so e < 0 and 1 - q = (2^-e - m) 2^e exactly
        lows[1] = _div(((1 << -e) - m, e), q_p, prec)
    # halving a pair is exact, and (-1, 1) is -2
    return [(_ZERO, (-m, e - 1), (-1, 1)) for m, e in lows]


def qinv_hermite_table(n_max: int, x, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[QReal]:
    """[h_0(x|q), ..., h_{n_max}(x|q)] by the three-term recurrence."""
    return qinv_hermite_tables(n_max, [x], q, ctx)[0]


def qinv_hermite(n: int, x, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """h_n(x|q) by the three-term recurrence, the last of qinv_hermite_table."""
    _check_degree("n", n)
    values = _recurrence(FamilySpec(FamilyKind.QINV_HERMITE, as_qparam(q, ctx)), n, ctx)[0]
    return _mpf(values(_pair(ctx.to_real(x), "x"))[n])


def qinv_hermite_coeff_rows(n_max: int, q,
                            ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[list[QReal]]:
    """[coefficients of h_0, ..., coefficients of h_{n_max}], one recurrence pass.

    Row n is [c_0, ..., c_n] with h_n(x|q) = sum c_j x^j.
    """
    rows = _recurrence(FamilySpec(FamilyKind.QINV_HERMITE, as_qparam(q, ctx)), n_max, ctx)[2]
    return [[_mpf(c) for c in row] for row in rows()]


def qinv_hermite_coeffs(n: int, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[QReal]:
    """Coefficients [c_0, ..., c_n] of h_n(x|q) = sum c_j x^j, via the recurrence.

    Exposes the parity structure (c_j = 0 for j with j != n mod 2) and the
    linear coefficient needed for the even cofactor at x = 0.
    """
    _check_degree("n", n)
    return qinv_hermite_coeff_rows(n, q, ctx)[n]


def _linear_coefficient_pass(n: int, q, prec: int) -> tuple[tuple[int, int], tuple[int, int] | None]:
    """One pass at prec bits of the linear coefficient of h_n for odd n,
    sum_{j<=n/2} 2 c_j (n - 2j) on the half row (_hermite_rows): the full
    row's terms c_j (n - 2j) and c_{n-j} (2j - n) = -c_j (2j - n) folded.
    (value, bound) as pairs, bound being _hermite_bound's for the exact
    integer factors 2 (n - 2j)."""
    factors = [(2 * (n - 2 * j), 0) for j in range(n // 2 + 1)]
    total, tmax = _hermite_sum(_hermite_rows([n], q, prec)[n], factors,
                               [f.bit_length() for f, _ in factors], prec)
    return total, _hermite_bound(n, total, tmax, 2 * n + 4, _hermite_gap(q), prec)


def even_hermite_factor(k: int, x, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """ht_{2k}(x|q) = h_{2k+1}(x|q) / x, with the removable point at x = 0.

    At x = 0 the value is the linear coefficient of h_{2k+1}, computed from
    the series folded on its half row as
    sum_{j<=k} 2 (-1)^j q^{j(j-(2k+1))} [2k+1,j]_q (2k+1-2j) and certified
    as the h series is: kernel._certified sums it again at more
    bits while _hermite_bound may miss tol/4 * max(1, |ht_{2k}(0)|), and
    raises TruncationFailure when tol is below ctx.rounding_floor.
    """
    _check_degree("k", k)
    q, x = as_qparam(q, ctx), ctx.to_real(x)
    n = 2 * k + 1
    if x:   # x != 0; qinv_hermite refuses inf and nan
        return _mpf(_div(_pair(qinv_hermite(n, x, q, ctx)), _pair(x), ctx.bits))
    return _mpf(_certified(lambda prec: _linear_coefficient_pass(n, q, prec),
                           _budget(ctx, 2), ctx,
                           lambda: "ht_%d(0) at q=%.8g" % (2 * k, float(q))))


# ---------------------------------------------------------------------------
# discrete q-ultraspherical family


def _s_q_power(s: QReal, q: QReal, t, prec: int) -> tuple[int, int]:
    """s q^(t+1) for an int or raw exponent t as a pair: the exact s q (s and
    q have at most prec bits, so 2 prec bits hold it) times q^t
    (kernel._q_power), rounded once."""
    return _mul(_mul(_pair(s), _pair(q), 2 * prec), _q_power(q, t, prec), prec)


def _ultra_series(nums, z, s: QReal, q: QReal, stop: int, wp: int,
                  ctx: PrecisionContext) -> QReal:
    """sum_{k<=stop} t_k, rounded to ctx.bits, with t_0 = 1 and

        t_(k+1) = t_k z prod_i (1 - a_i q^k) / ((1 - q^(k+1)) g_k),

    g_k = 1 - s q^(2k+2): the 3phi2 of C and grid D, whose denominator
    parameters sqrt(s) q and -sqrt(s) q make (s q^2; q^2)_k = prod_(j<k) g_j
    (Koekoek-Lesky-Swarttouw, Hypergeometric Orthogonal Polynomials and
    Their q-Analogues, 2010, 14.5).  nums holds the three pairs a_i and z is
    a pair, formed at the precision wp = ctx.bits + _RUN_GUARD that the
    caller passes and the loop runs at; s and q are validated inputs.
    stop is the route's cutoff.  TruncationFailure when stop reaches
    ctx.max_terms, and PoleError, with C's message and index k, where g_k
    is exactly 0; D's rule s q^2 < 1 keeps every g_k positive.

    One division a term, and everything at wp: a step forms each 1 - a_i q^k
    from the exact product of a_i and q^k and rounds it once, multiplies z by
    them (three roundings), forms q^(k+1) = q q^k and 1 - q^(k+1) (one
    rounding each) and its product with g_k (one), and divides the exact
    product of the term and the numerator by it, rounded once.  g_k is the
    lane g_(k+1) = q^2 g_k + (1 - q^2), its product and sum exact and rounded
    once, from g_0 = 1 - s q^2, where q^2, 1 - q^2 and g_0 are formed from
    the exact q^2 and s q^2 and rounded once.  While s q^2 < 1 (D, and C on
    its positive-measure range) the lane adds nonnegative terms, so its
    error grows by one rounding a step however near s is to q^-2; a g_k
    formed from a rounded sqrt(s) q would cancel there.

    Bound.  Let u = 2^-wp, and give each value a count c: it is its exact
    value at the inputs s, q and x times e^d, |d| <= c u.  A rounding adds
    1, a product or quotient adds its operands' counts, and a sum a + b has
    count (|a| c_a + |b| c_b) / |a + b|, at most the larger count when a
    and b have one sign.  The inputs count 0.  mpf_pow at wp has count 2 or
    less for an integer exponent t (mpf_pow_int works at wp + 4 bitlength(t)
    + 4 bits, and inverts a power formed at wp + 5), and at most
    2 + |t| (1 + |ln q|) 2^-9 for any other t (a square root or logarithm
    at wp + 10 bits, then a power or exp); _s_q_power adds 1.  So, with p_i
    the count of a_i, p_z that of z, and q^j of count at most j, t_k has
    count c_k = sum_(j<k) r_j,

        r_j = p_z + sum_i (k_ij (p_i + j) + 1) + l_j j + y_j + 6,

    k_ij = |a_i q^j / (1 - a_i q^j)| and l_j = q^(j+1) / (1 - q^(j+1)) the
    amplifications of the differences, and y_j the count of g_j: y_0 = 1,
    y_(j+1) = (q^2 |g_j| (y_j + 1) + 1 - q^2) / |g_(j+1)| + 1, which is
    y_j + 2 while s q^2 < 1.  The K = stop additions of the sum put each
    term through at most K roundings (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 4.2), so the value is within

        2^-bits |S| + 1.01 u sum_(k<=K) (c_k + K) |t_k|

    of the exact sum S at the inputs, the t_k exact too.  The counts are
    first order; 1.01 covers the higher orders while every count is at
    most 2^-20 / u and K < 2^12.  A cutoff below n (a grid label x < n)
    drops terms that are exactly 0.
    """
    if stop >= ctx.max_terms:
        raise TruncationFailure("series not resolved within max_terms=%d (q=%s, z=%s)"
                                % (ctx.max_terms, mpmath.nstr(q, 8), mpmath.nstr(_mpf(z), 8)))
    q_p, (sm, se) = _pair(q), _pair(s)
    q2 = q_p[0] * q_p[0], 2 * q_p[1]   # q^2, exact
    lane_mul, lane_add = _round(q2, wp), _sub(_ONE, q2, wp)
    g = _sub(_ONE, (sm * q2[0], se + q2[1]), wp)   # g_0 = 1 - s q^2
    total = term = qk = _ONE
    for k in range(stop):
        if not g[0]:
            raise PoleError("discrete_ultra has a pole at s=%s: s q^(2k+2) = 1 at k=%d (q=%s)"
                            % (mpmath.nstr(s, 8), k, mpmath.nstr(q, 8)), k)
        # z prod_i (1 - a_i q^k), each 1 - a_i q^k from the exact a_i q^k
        num, (qm, qe) = z, qk
        for am, ae in nums:
            num = _mul(num, _sub(_ONE, (am * qm, ae + qe), wp), wp)
        qk = _mul(q_p, qk, wp)
        den = _mul(_sub(_ONE, qk, wp), g, wp)
        term = _div((term[0] * num[0], term[1] + num[1]), den, wp)
        if not term[0]:
            break
        total = _add(total, term, wp)
        g = _add((lane_mul[0] * g[0], lane_mul[1] + g[1]), lane_add, wp)
    return _mpf(_round(total, ctx.bits))


def discrete_ultra(n: int, x, s, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """C_n(x; s, q) as a terminating 3phi2 with argument q.

    The denominators (sqrt(s) q; q)_k (-sqrt(s) q; q)_k = (s q^2; q^2)_k
    vanish where s q^(2k+2) = 1, inside C's rule s > 0: PoleError, naming
    s and k, when the loop meets such a factor."""
    _check_degree("n", n)
    spec = FamilySpec(FamilyKind.DISCRETE_ULTRA, q, s).validated(ctx)
    q, s = spec.q, spec.s
    x = _pair(ctx.to_real(x), "x")   # ValueError unless x is finite
    wp = ctx.bits + _RUN_GUARD
    sm, se = _s_q_power(s, q, n, wp)
    return _ultra_series([_q_power(q, -n, wp), (-sm, se), x], _pair(q), s, q, n, wp, ctx)


# ---------------------------------------------------------------------------
# dual discrete q-ultraspherical family


def dual_ultra_series(n: int, x, s, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """D_n at the grid point mu(x; s) as a terminating 3phi2.

    The degree slot q^-n always terminates the sum after n+1 terms; when x is
    a nonnegative integer below n, the x slot terminates it sooner and the
    shorter cutoff drives the loop.
    """
    _check_degree("n", n)
    spec = FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s).validated(ctx)
    q, s = spec.q, spec.s
    x = ctx.to_real(x)
    xm, xe = _pair(x, "x")   # ValueError unless x is finite
    wp, x_raw = ctx.bits + _RUN_GUARD, x._mpf_
    # x's mantissa is odd or 0: x is an integer when xe >= 0, and one below
    # n has xe below n's bit length
    label = xm << xe if 0 <= xe < n.bit_length() else -1
    zm, ze = _q_power(q, n + 1, wp)
    return _ultra_series([_q_power(q, mpf_neg(x_raw), wp), _s_q_power(s, q, x_raw, wp),
                          _q_power(q, -n, wp)], (-zm, ze), s, q,
                         label if 0 <= label < n else n, wp, ctx)


def _dual_steps(n_max: int, s: QReal, q: QReal, prec: int) -> list[tuple[tuple[int, int], ...]]:
    """The mu-free factors of each step j < n_max of the D recurrence, as pairs:
    (c_mid, c_low, r) = (q^(-2j-1) + q^(-2j), q^(-2j) - 1, 1 / c_lead) and,
    for j >= 1, c_lead = q^(-2j-1) - s q, each rounded once to prec from the
    run of q^-k, and the reciprocal r rounded once to prec + 64 bits, so r
    adds relative 2^-(prec+64) to the rounded c_lead's error.

    s and q are of at most prec bits with s q^2 < 1 (FamilySpec.validated),
    and every lead is then positive.  At j = 0 the lead is q^-1 (1 - s q^2),
    s q^2 the exact product of s, q and q, and 1 - s q^2 > 0 is rounded once:
    it cancels without limit as s -> q^-2, and q^-1 - s q would amplify the
    error of q^-1 as much.  For j >= 1, s q is the exact product, and the
    run's q^(-2j-1) is within relative u + 1.01 (2j + 1) u 2^-32 <= 5u/4 of
    the exact power, u = 2^-prec (power_run; 2j + 1 < 2^29).  As
    s q < q^-1 = q^(-2j-1) q^(2j) and q^(2j) <= q^2 <= (1 - u)^2, the exact
    difference before its one rounding is at least
    q^(-2j-1) (1 - q^(2j) - 5u/4) >= q^(-2j-1) (3u/4 - u^2) > 0, and a
    positive pair rounds to a positive pair.  The difference amplifies the
    power's error by q^(-2j-1) / c_lead = 1 / (1 - s q^(2j+2)) < 1 / (1 - q^(2j)),
    as q^(-2j) - 1 does by 1 / (1 - q^(2j)).
    """
    q_p, s_p = _pair(q), _pair(s)
    run = power_run(q_p, 1 - 2 * n_max, 0, prec)[::-1]   # run[k] = q^-k
    s_q = s_p[0] * q_p[0], s_p[1] + q_p[1]   # s q, exact
    steps = []
    for j in range(n_max):
        odd, even = run[2 * j + 1], run[2 * j]
        if j:
            lead = _sub(odd, s_q, prec)
        else:
            lead = _mul(odd, _sub(_ONE, (s_q[0] * q_p[0], s_q[1] + q_p[1]), prec), prec)
        steps.append((_add(odd, even, prec), _sub(even, _ONE, prec), _div(_ONE, lead, prec + 64)))
    return steps


def dual_ultra_tables(n_max: int, mus, s, q,
                      ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[list[QReal]]:
    """[D_0(mu), ..., D_{n_max}(mu)] for each mu in mus, by the recurrence in
    n, its steps formed once for all of mus.  ValueError when a mu is inf or
    nan."""
    values = _recurrence(FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s).validated(ctx),
                         n_max, ctx)[0]
    return [[_mpf(v) for v in values(_pair(ctx.to_real(mu), "mu"))] for mu in mus]


def dual_ultra_table(n_max: int, mu, s, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[QReal]:
    """[D_0(mu), ..., D_{n_max}(mu)] by the three-term recurrence in n."""
    return dual_ultra_tables(n_max, [mu], s, q, ctx)[0]


def dual_ultra(n: int, mu, s, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """D_n(mu; s, q) by the recurrence (off the grid too), the last of dual_ultra_table."""
    _check_degree("n", n)
    values = _recurrence(FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s).validated(ctx), n, ctx)[0]
    return _mpf(values(_pair(ctx.to_real(mu), "mu"))[n])


def dual_ultra_coeff_rows(n_max: int, s, q,
                          ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[list[QReal]]:
    """[coefficients of D_0, ..., coefficients of D_{n_max}] in mu, one recurrence pass."""
    rows = _recurrence(FamilySpec(FamilyKind.DUAL_DISCRETE_ULTRA, q, s).validated(ctx),
                       n_max, ctx)[2]
    return [[_mpf(c) for c in row] for row in rows()]


def dual_ultra_coeffs(n: int, s, q, ctx: PrecisionContext = DEFAULT_CONTEXT) -> list[QReal]:
    """Coefficients of D_n as a polynomial in mu, via the recurrence."""
    _check_degree("n", n)
    return dual_ultra_coeff_rows(n, s, q, ctx)[n]


# ---------------------------------------------------------------------------
# the recurrence of h or D, for the tables and the Gram window's majorant


def _three_term(p: tuple[int, int], steps: list[tuple[tuple[int, int], ...]],
                prec: int, low_sign: int = 1) -> list[tuple[int, int]]:
    """[P_0, ..., P_n] at one point, n = len(steps), from the pair p and the
    steps (c_mid, c_low, r), r a reciprocal of c_lead:
    P_{j+1} = ((c_mid - p) P_j - low_sign c_low P_{j-1}) r.
    low_sign = -1 runs the steps with c_low negated (h's majorant).

    One rounding a step: c_mid - p, the two products and their difference
    are exact, and their product with r is rounded once to prec.  So each
    value is the exact step on the computed P_j and P_{j-1} and the steps'
    coefficients, times (1 + e) with |e| <= 2^-prec.  Where the exponents
    of c_mid and p, or of the two products, are more than 2 prec apart,
    _exact_sub rounds that difference once to 2 prec bits (through _sub's
    sticky path), which keeps every integer at O(prec) bits: the exact step
    then moves by at most 2^-(2 prec) |(c_mid - p) P_j r|, or by 2^-(2 prec)
    of itself, before its rounding.  The exact branch of _exact_sub is
    written out in the loop, which saves two calls a step.
    """
    vals = [_ONE]
    pm, pe = p
    wide = 2 * prec
    prev_m = prev_e = cur_e = 0
    cur_m = 1
    for (mm, em), (ml, el), (mr, er) in steps:
        # d = c_mid - p
        gap = em - pe
        if not mm:
            dm, de = -pm, pe
        elif 0 <= gap <= wide:
            dm, de = (mm << gap) - pm, pe
        elif -wide <= gap < 0:
            dm, de = mm - (pm << -gap), em
        else:
            dm, de = _exact_sub((mm, em), p, prec)
        # n = d P_j - low_sign c_low P_{j-1}
        um, ue = dm * cur_m, de + cur_e
        wm, we = (ml * prev_m if low_sign > 0 else -ml * prev_m), el + prev_e
        gap = ue - we
        if not wm:
            nm, ne = um, ue
        elif 0 <= gap <= wide:
            nm, ne = (um << gap) - wm, we
        elif -wide <= gap < 0:
            nm, ne = um - (wm << -gap), ue
        else:
            nm, ne = _exact_sub((um, ue), (wm, we), prec)
        prev_m, prev_e = cur_m, cur_e
        cur_m, cur_e = _rounded(nm * mr, ne + er, prec)
        vals.append((cur_m, cur_e))
    return vals


def _exact_sub(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """a - b for pairs, exactly when a or b is 0 or their exponents are at
    most 2 prec apart; else _sub's a - b rounded once to 2 prec bits, whose
    sticky path keeps the shift bounded."""
    (ma, ea), (mb, eb) = a, b
    if not mb:
        return a
    if not ma:
        return -mb, eb
    if ea < eb:
        if eb - ea > 2 * prec:
            return _sub(a, b, 2 * prec)
        return ma - (mb << (eb - ea)), ea
    if ea - eb > 2 * prec:
        return _sub(a, b, 2 * prec)
    return (ma << (ea - eb)) - mb, eb


def _recurrence(family: FamilySpec, n_max: int, ctx: PrecisionContext):
    """(values, majorant, rows) of h or D up to degree n_max, on pairs at
    ctx.bits, for a family whose q and s are as FamilySpec.validated forms
    them at ctx.

    The node-independent steps (_hermite_steps or _dual_steps), with the
    reciprocal of each lead, are formed once, and that one list serves all
    three closures, each of which runs _three_term's step, one rounding a
    step, with the reciprocal at bits + 64:
    - values(p) is [P_0(p), ..., P_{n_max}(p)] at a pair p of at most
      ctx.bits bits, x for h and mu for D;
    - majorant(t) is A(t) = max_n A_n(t) at a pair t >= 0, where
      A_n(t) = sum_j |c_nj| t^j for P_n = sum_j c_nj p^j, so that
      |P_n(p)| <= A(t) whenever |p| <= t;
    - rows() is [[c_00], ..., [c_{n_max}0, ..., c_{n_max}n_max]] as pairs,
      the step run on coefficient lists: multiplying by p moves a
      coefficient up one degree.

    The family's record gives the steps and the majorant's sign; the
    public callers convert at their edges (kernel module docstring).

    A_n(t) is the family's own recurrence at one point.  h_n and D_n are
    orthogonal under positive measures, so their zeros are real and simple
    (Szego, Orthogonal Polynomials, Thm 3.3.1).  The zeros of h_n are
    symmetric about 0 and its leading coefficient is 2^n, so
    h_n(x) = 2^n x^e prod_k (x^2 - z_k^2) with e = n mod 2, and at x = it
    every factor -(t^2 + z_k^2) has one sign: A_n(t) = |h_n(it|q)|.  With
    h_n(it) = i^n H_n(t) the h recurrence becomes
    H_{n+1} = 2t H_n + q^-n (1 - q^n) H_{n-1}, the h steps at p = t with
    c_low negated, which adds only nonnegative terms.  The zeros
    mu_k of D_n lie in the hull of its measure's support, where mu > 0, and
    each step of the D recurrence multiplies the leading coefficient by
    -1/c_lead with c_lead = q^(-2j-1) (1 - s q^(2j+2)) > 0 for s < q^-2, so
    that coefficient has the sign (-1)^n, D_n(mu) = |lead| prod_k (mu_k - mu)
    and A_n(t) = D_n(-t; s, q) > 0, the D steps at p = -t.  One pass of the
    loop gives A_0(t), ..., A_N(t), so a point costs n_max steps and no
    coefficient row is formed.  Measured against sums of |c_nj| t^j formed
    at four times the precision, over q in {0.05, 0.1, 0.2, 0.3, 0.5, 0.7,
    0.9, 0.99, 0.999}, s in {q, 1, 1/q, 0.45, 0.9 q^-2}, n_max <= 30, t in
    {2^k, 3 2^k} for k = -30, -25, ..., 300 and bits in {256, 1024}, A(t)
    is within relative 14 u for h and 355 u for D, u = 2^-bits (largest at
    q = 0.5 and at q = 0.999 with s = 1/q); that rounding is not yet part of
    the Gram window's tail certificate.
    """
    _check_degree("n_max", n_max)
    prec = ctx.bits
    record = _FAMILIES[family.kind]
    steps = record.steps(n_max, family.s, family.q, prec)

    def values(p: tuple[int, int]) -> list[tuple[int, int]]:
        return _three_term(p, steps, prec)

    def majorant(t: tuple[int, int]) -> tuple[int, int]:
        return _largest(_three_term((record.sign * t[0], t[1]), steps, prec, -record.sign))

    def term(step, a, b, c) -> tuple[int, int]:
        # [p^i] of ((c_mid - p) P_j - c_low P_{j-1}) r: c_mid a - b - c_low c
        # exact, its product with r rounded once, as in _three_term
        (mm, em), (ml, el), (mr, er) = step
        up = _exact_sub((mm * a[0], em + a[1]), b, prec)
        nm, ne = _exact_sub(up, (ml * c[0], el + c[1]), prec)
        return _rounded(nm * mr, ne + er, prec)

    def rows() -> list[list[tuple[int, int]]]:
        out, prev = [[_ONE]], []
        for step in steps:
            cur = out[-1]
            # a, b, c: the coefficients of p^i in P_j, of p^(i-1) in P_j and
            # of p^i in P_{j-1}, 0 past the ends of the rows
            out.append([term(step, a, b, c) for a, b, c in
                        zip(cur + [_ZERO], [_ZERO] + cur, prev + [_ZERO, _ZERO])])
            prev = cur
        return out

    return values, majorant, rows


class _Family(NamedTuple):
    """What tells one family kind from another (module docstring)."""
    s_rules: tuple           # checks (s, q, ctx) -> None of s, () for a family without s
    routes: dict             # evaluate's argument -> evaluator (n, value, [s,] q, ctx) ...
    refusal: str             # ... and its message for any other argument
    steps: Callable | None = None   # (n_max, s, q, prec) -> the steps of _three_term
    sign: int = 0            # the majorant's point is sign * t, and c_low is times -sign


_FAMILIES = {
    # H_n(t) = |h_n(it)|: the h steps at t with c_low negated
    FamilyKind.QINV_HERMITE: _Family(
        (), {"x": qinv_hermite, "phi": qinv_hermite_series},
        "qinv_hermite takes x or phi, not mu",
        lambda n_max, s, q, prec: _hermite_steps(n_max, q, prec), 1),
    FamilyKind.EVEN_HERMITE_FACTOR: _Family(
        (), {"x": even_hermite_factor}, "even_hermite_factor takes x"),
    FamilyKind.DISCRETE_ULTRA: _Family(
        (_positive_s,), {"x": discrete_ultra}, "discrete_ultra takes x"),
    # A_n(t) = D_n(-t)
    FamilyKind.DUAL_DISCRETE_ULTRA: _Family(
        (_positive_s, check_dual_s), {"mu": dual_ultra, "x": dual_ultra_series},
        "dual_discrete_ultra takes mu or x",
        lambda n_max, s, q, prec: _dual_steps(n_max, s, q, prec), -1),
}


def evaluate(spec: FamilySpec, n: int, *, x=None, phi=None, mu=None,
             ctx: PrecisionContext = DEFAULT_CONTEXT) -> QReal:
    """The value at the one point of x / phi / mu that is given, by the
    route of the family's record that the argument names: x or phi (series)
    for h, x for ht and C, mu or x (grid series) for D.  The C and D routes
    take spec's s to FamilySpec.validated; for h and ht, evaluate takes the
    spec there itself, which refuses an s."""
    args = (spec.s, spec.q) if spec.kind.takes_s else (spec.validated(ctx).q,)
    given = {name: v for name, v in (("x", x), ("phi", phi), ("mu", mu)) if v is not None}
    if len(given) != 1:
        raise ValueError("exactly one of x, phi, mu must be supplied (got %s)" % sorted(given))
    [(name, value)] = given.items()
    record = _FAMILIES[spec.kind]
    if name not in record.routes:
        raise ValueError(record.refusal)
    return record.routes[name](n, value, *args, ctx)
