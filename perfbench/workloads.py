"""Seeded op lists for the three benchmark workloads.

Every value an op needs (q, a, N, x, s, n, precision) is drawn here from the
workload seed, as an exact decimal string where the package takes one. The
op list depends only on (workload, seed, seconds), never on how fast the
machine is, so two runs with the same arguments make the same calls.

Costs grow steeply with q, so each round draws one q per stratum, afresh
for every op: the cost of a run then changes little from seed to seed.
"""
from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("suite", "gram-sweep", "points")

# Wall seconds one round adds to an untraced run (every timed pass plus the
# benchmark's own output checks) on a 2-CPU machine with mpmath's
# pure-Python backend. A run makes round(seconds / this) rounds, at least one.
SECONDS_PER_ROUND = {"suite": 10.0, "gram-sweep": 25.0, "points": 0.6}

# The suite's identity ids are part of the workload definition, so they are
# listed here rather than read from the package under test.
SUITE_IDS = (
    "even-connection",
    "odd-connection",
    "recurrence-chains",
    "product-chain",
    "inverted-parameter-recurrence",
    "base-even-orthogonality",
    "base-odd-orthogonality",
    "hermite-extremal-orthogonality",
    "qinv-extremal-orthogonality",
    "q-extremal-orthogonality",
    "qinv-extremal-normalization",
    "q-extremal-normalization",
    "half-to-full-lattice",
)

GRAM_MEASURES = ("hermite-extremal", "dual-qinv-extremal", "dual-q-extremal")

POINT_FUNCTIONS = ("qinv_hermite_series", "qinv_hermite", "even_hermite_factor",
                   "discrete_ultra", "dual_ultra_series", "dual_ultra")

# bits -> tol_exp; 1024-bit runs use the tighter tolerance 2^-800.
TOL_EXP = {256: 200, 1024: 800}

MICRO = 10 ** 6  # decimals are drawn as integers in units of 1e-6


def _decimal(micro: int) -> str:
    """Exact decimal string for micro / 1e6 (may be negative)."""
    sign = "-" if micro < 0 else ""
    whole, frac = divmod(abs(micro), MICRO)
    return "%s%d.%06d" % (sign, whole, frac)


# Suite strata are equal in log(1 - q) across [0.20, 0.96): a suite's cost
# grows like 1/(1 - q), so each stratum costs about the same and the slow
# tail that sets op_p90_s comes from a narrow band of q.
SUITE_Q_EDGES = [round(MICRO * (1 - 0.8 * 0.05 ** (i / 8))) for i in range(9)]


def _stratum(rng: random.Random, lo: int, hi: int, i: int, k: int) -> int:
    """A draw from the i-th of k equal strata of [lo, hi), in micro units."""
    return rng.randrange(lo + (hi - lo) * i // k, lo + (hi - lo) * (i + 1) // k)


def _suite_round(rng: random.Random) -> list[dict]:
    ops = []
    for ident in SUITE_IDS:
        for i in range(8):
            q = _decimal(_stratum(rng, 200000, 960000, i, 8))
            ops.append({"kind": "cli", "tol_exp": 200, "argv": [
                "verify", "--only", ident, "--q", q, "--bits", "256",
                "--tol-exp", "200", "--N", "8", "--k-max", "6"]})
    return ops


def _gram_round(rng: random.Random) -> list[dict]:
    ops = []
    for measure in GRAM_MEASURES:
        for i in range(6):
            # five 256-bit Grams, with a stratified over [q, 0.95) and N over
            # [12, 24] in a Latin square so a and N do not rise together; one
            # 1024-bit Gram
            for j, bits in enumerate((256,) * 5 + (1024,)):
                q = _stratum(rng, 250000, 650000, i, 6)
                if bits == 256:
                    a = _stratum(rng, q, 950000, j, 5)
                    N = _stratum(rng, 12, 25, (i + j) % 5, 5)
                else:
                    a, N = rng.randrange(q, 950000), rng.randint(8, 12)
                ops.append({"kind": "cli", "tol_exp": TOL_EXP[bits], "argv": [
                    "gram", "--measure", measure, "--a", _decimal(a),
                    "--q", _decimal(q), "--bits", str(bits),
                    "--tol-exp", str(TOL_EXP[bits]), "--N", str(N)]})
    return ops


def _point_round(rng: random.Random) -> list[dict]:
    ops = []
    for fn in POINT_FUNCTIONS:
        for bits in (256, 1024):
            for i in range(8):
                op = {"kind": "point", "fn": fn, "bits": bits,
                      "q": _decimal(_stratum(rng, 200001, 950000, i, 8)),
                      "n": rng.randint(0, 30), "s": None}
                if fn == "qinv_hermite_series":
                    op["arg"] = _decimal(rng.randrange(-2 * MICRO, 2 * MICRO))  # phi
                elif fn in ("qinv_hermite", "even_hermite_factor"):
                    op["arg"] = _decimal(rng.randrange(-3500000, 3500000))  # x
                    if fn == "even_hermite_factor":
                        op["n"] //= 2  # the index k of ht_{2k}
                        if i % 4 == 0:
                            op["arg"] = "0"  # the removable point
                elif fn == "discrete_ultra":
                    op["arg"] = _decimal(rng.randrange(-MICRO, MICRO))  # x
                elif fn == "dual_ultra_series":
                    op["arg"] = str(rng.randint(0, 30))  # integer grid slot x
                else:
                    op["arg"] = _decimal(rng.randrange(0, 30 * MICRO))  # real x of mu(x; s)
                if fn in ("discrete_ultra", "dual_ultra_series", "dual_ultra"):
                    # 1.1 < q^-2 for every q < 0.95, as the dual family requires
                    op["s"] = _decimal(rng.randrange(100000, 1100000))
                ops.append(op)
    return ops


_ROUNDS = {"suite": _suite_round, "gram-sweep": _gram_round, "points": _point_round}


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / SECONDS_PER_ROUND[workload]))


def make_ops(workload: str, seed: int, seconds: int) -> list[dict]:
    """The op list of one run: whole rounds, each drawn from the seeded stream."""
    if workload not in _ROUNDS:
        raise ValueError("unknown workload %r (known: %s)" % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d" % (workload, seed))
    ops = []
    for _ in range(rounds_for(workload, seconds)):
        ops.extend(_ROUNDS[workload](rng))
    return ops


def ops_digest(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
