"""Command-line surface: evaluate, gram, verify, sweep.

All numeric input is decimal strings (reproducible at any precision); all
numeric output goes through the same deterministic decimal rendering, so
identical flags produce identical bytes.  Settings resolve as
flags > environment (QORTHO_BITS, QORTHO_TOL_EXP) > --config JSON > defaults
(q=0.5, bits=256, tol_exp=200, N=8).

Exit codes: 0 success / all checks passed, 1 a residual check failed,
2 invalid input or a computation could not be certified.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import mpmath

from .families import DegenerateCoefficient, FamilyKind, FamilySpec, evaluate
from .identities import SUITE_IDS, run_suite
from .kernel import (KernelError, PrecisionContext, TruncationFailure,
                     as_qparam, to_decimal)
from .measures import (IncompatiblePair, SignViolation, dual_base,
                       dual_q_extremal, dual_qinv_extremal, gram_matrix,
                       hermite_extremal)

_MEASURES = ("hermite-extremal", "dual-base", "dual-qinv-extremal",
             "dual-q-extremal")
_FAMILIES = {"h": FamilyKind.QINV_HERMITE, "C": FamilyKind.DISCRETE_ULTRA,
             "D": FamilyKind.DUAL_DISCRETE_ULTRA}
_ENV_KEYS = {"bits": "QORTHO_BITS", "tol_exp": "QORTHO_TOL_EXP"}
_INT_KEYS = ("bits", "tol_exp", "N", "k_max", "n", "steps")
_DECIMAL_KEYS = ("q", "s", "a", "x", "phi", "mu", "a_from", "a_to")


@dataclasses.dataclass
class RunConfig:
    """Resolved settings for one invocation; decimals stay strings here."""
    command: str
    q: str = "0.5"
    s: str | None = None
    s_mode: str | None = None
    a: str | None = None
    N: int = 8
    k_max: int = 6
    n: int | None = None
    x: str | None = None
    phi: str | None = None
    mu: str | None = None
    family: str | None = None
    measure: str = "hermite-extremal"
    parity: str = "even"
    a_from: str | None = None
    a_to: str | None = None
    steps: int = 10
    only: str | None = None
    list_ids: bool = False
    bits: int = 256
    tol_exp: int = 200
    output: str | None = None
    out_path: str | None = None

    def context(self) -> PrecisionContext:
        return PrecisionContext.create(bits=self.bits, tol_exp=self.tol_exp)


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        # parse_float=str keeps decimal values exact for re-rounding at
        # working precision instead of through a binary double.
        data = json.load(fh, parse_float=str)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    out = {}
    known = {f.name for f in dataclasses.fields(RunConfig)} - {"command", "list_ids"}
    for key, value in data.items():
        name = key.replace("-", "_")
        if name == "out":
            name = "out_path"
        if name not in known:
            raise ValueError("unknown config key %r (known: %s)"
                             % (key, ", ".join(sorted(known))))
        out[name] = value
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags, environment and config file into a RunConfig."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    kwargs = {}
    for field in dataclasses.fields(RunConfig):
        if field.name == "command":
            continue
        value = getattr(args, field.name, None)
        if value is None and field.name in _ENV_KEYS:
            value = os.environ.get(_ENV_KEYS[field.name])
        if value is None and field.name in file_cfg:
            value = file_cfg[field.name]
        if value is None or value is False:
            continue
        if field.name in _INT_KEYS:
            value = int(value)
        elif field.name in _DECIMAL_KEYS and not isinstance(value, str):
            value = str(value)
        kwargs[field.name] = value
    return RunConfig(command=args.command, **kwargs)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _decimal_or_q(token: str, q, what: str):
    if token.strip() == "q":
        return q
    try:
        return mpmath.mpf(token)
    except ValueError:
        raise ValueError("%s must be a decimal string or 'q' (got %r)"
                         % (what, token)) from None


def _family_s(config: RunConfig, q, required: bool = True):
    if config.s is not None and config.s_mode is not None:
        raise ValueError("give either --s or --s-mode, not both")
    if config.s_mode == "qinv":
        return 1 / q
    if config.s_mode == "q":
        return q
    if config.s is not None:
        try:
            return mpmath.mpf(config.s)
        except ValueError:
            raise ValueError("s must be a decimal string (got %r)"
                             % (config.s,)) from None
    if required:
        raise ValueError("--s or --s-mode is required here")
    return None


def _measure_for(name: str, config: RunConfig, q, ctx: PrecisionContext,
                 a_value=None):
    """The DiscreteMeasure for a measure name; a_value overrides --a."""
    if name == "dual-base":
        s = _family_s(config, q, required=False)
        if s is None:
            s = mpmath.mpf(1)
        return dual_base(s, q, config.parity, ctx)
    a = a_value
    if a is None:
        a = (_decimal_or_q(config.a, q, "a") if config.a is not None
             else (1 + q) / 2)
    if name == "hermite-extremal":
        return hermite_extremal(a, q, ctx)
    if name == "dual-qinv-extremal":
        return dual_qinv_extremal(a, q, ctx)
    if name == "dual-q-extremal":
        return dual_q_extremal(a, q, ctx)
    raise ValueError("unknown measure %r" % (name,))


def cmd_eval(config: RunConfig) -> int:
    ctx = config.context()
    q = as_qparam(config.q, ctx)
    kind = _FAMILIES.get(config.family)
    if kind is None:
        raise ValueError("eval needs --family, one of %s (got %r)"
                         % (", ".join(_FAMILIES), config.family))
    if config.n is None or config.n < 0:
        raise ValueError("--n must be a nonnegative integer")
    with ctx.workprec():
        point = {}
        for name in ("x", "phi", "mu"):
            raw = getattr(config, name)
            if raw is not None:
                try:
                    point[name] = mpmath.mpf(raw)
                except ValueError:
                    raise ValueError("%s must be a decimal string (got %r)"
                                     % (name, raw)) from None
        s = None if kind is FamilyKind.QINV_HERMITE else _family_s(config, q)
        value = evaluate(FamilySpec(kind, q, s), config.n, ctx=ctx, **point)
        _emit(to_decimal(value, ctx.digits) + "\n", config.out_path)
    return 0


def cmd_gram(config: RunConfig) -> int:
    ctx = config.context()
    q = as_qparam(config.q, ctx)
    with ctx.workprec():
        measure = _measure_for(config.measure, config, q, ctx)
    report = gram_matrix(measure.family(ctx), measure, config.N, ctx)
    if (config.output or "json") == "json":
        text = report.to_json(ctx.digits)
    else:
        text = report.to_csv(ctx.digits)
    _emit(text, config.out_path)
    return 0 if report.passed(ctx.tol) else 1


def cmd_verify(config: RunConfig) -> int:
    if config.list_ids:
        _emit("\n".join(SUITE_IDS) + "\n", config.out_path)
        return 0
    ctx = config.context()
    only = None
    if config.only:
        only = [token.strip() for token in config.only.split(",") if token.strip()]
    reports = run_suite(
        config.q, ctx, only=only, k_max=config.k_max, N=config.N,
        s=config.s, a=config.a)
    if (config.output or "pretty") == "json":
        text = json.dumps([r.to_dict(ctx.digits) for r in reports],
                          indent=2) + "\n"
    else:
        lines = []
        for r in reports:
            verdict = "PASS" if r.passed else "FAIL"
            if "error" in r.details:
                tail = "error: %s" % r.details["error"]
            else:
                tail = "max_residual=%s" % to_decimal(r.max_residual, 8)
            lines.append("%s  %-32s %s" % (verdict, r.identity_id, tail))
        npass = sum(1 for r in reports if r.passed)
        lines.append("%d/%d identities passed" % (npass, len(reports)))
        text = "\n".join(lines) + "\n"
    _emit(text, config.out_path)
    if any("error" in r.details for r in reports):
        return 2
    return 0 if all(r.passed for r in reports) else 1


def cmd_sweep(config: RunConfig) -> int:
    ctx = config.context()
    q = as_qparam(config.q, ctx)
    name = config.measure
    if name == "dual-base":
        raise ValueError("sweep varies a; --measure dual-base has no a parameter")
    if config.a_from is None:
        raise ValueError("--a-from is required for sweep")
    if config.steps < 1:
        raise ValueError("--steps must be >= 1")
    with ctx.workprec():
        a_lo = _decimal_or_q(config.a_from, q, "a-from")
        if config.steps == 1:
            values = [a_lo]
        else:
            if config.a_to is None:
                raise ValueError("--a-to is required when steps > 1")
            a_hi = _decimal_or_q(config.a_to, q, "a-to")
            span = a_hi - a_lo
            values = [a_lo + span * i / (config.steps - 1)
                      for i in range(config.steps)]
    all_pass = True
    rows = ["a,off_diag_max,diag_rel_err_max,node_hash"]
    for a in values:
        with ctx.workprec():
            measure = _measure_for(name, config, q, ctx, a_value=a)
        report = gram_matrix(measure.family(ctx), measure, config.N, ctx)
        rows.append("%s,%s,%s,%s" % (
            to_decimal(a, ctx.digits),
            to_decimal(report.off_diag_max, ctx.digits),
            to_decimal(report.diag_rel_err_max, ctx.digits),
            report.node_hash))
        all_pass = all_pass and report.passed(ctx.tol)
    _emit("\n".join(rows) + "\n", config.out_path)
    return 0 if all_pass else 1


def _add_common(parser: argparse.ArgumentParser,
                output_choices: tuple[str, ...] | None) -> None:
    parser.add_argument("--q", help="base parameter in (0,1), decimal string (default: 0.5)")
    parser.add_argument("--bits", type=int,
                        help="working precision in bits (default: 256; env QORTHO_BITS)")
    parser.add_argument("--tol-exp", type=int, dest="tol_exp",
                        help="tolerance exponent, tol = 2^-tol_exp (default: 200; env QORTHO_TOL_EXP)")
    parser.add_argument("--config", help="JSON file of flag defaults (flags and env win)")
    parser.add_argument("--out", dest="out_path",
                        help="write output to this path instead of stdout")
    if output_choices:
        parser.add_argument("--output", choices=list(output_choices),
                            help="output format (default: %s)" % output_choices[0])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qortho",
        description="Evaluate q-orthogonal polynomial families and verify "
                    "their discrete orthogonality relations at certified "
                    "precision.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one polynomial value")
    p.add_argument("--family", choices=list(_FAMILIES),
                   help="h: q-inverse Hermite; C: discrete q-ultraspherical; "
                        "D: dual discrete q-ultraspherical")
    p.add_argument("--n", type=int, help="polynomial degree / index")
    p.add_argument("--s", help="family parameter s, decimal string")
    p.add_argument("--s-mode", dest="s_mode", choices=["qinv", "q"],
                   help="set s to exactly q^-1 or q")
    p.add_argument("--x", help="argument x (h recurrence, C, or D grid index)")
    p.add_argument("--phi", help="argument phi with x = sinh(phi) (h series)")
    p.add_argument("--mu", help="argument mu = q^-x + s q^{x+1} (D recurrence)")
    _add_common(p, None)

    p = sub.add_parser("gram", help="compute and check a Gram matrix")
    p.add_argument("--measure", choices=list(_MEASURES),
                   help="orthogonality measure (default: hermite-extremal)")
    p.add_argument("--a", help="measure parameter a in [q,1), decimal or 'q'")
    p.add_argument("--s", help="base-measure parameter s, decimal string")
    p.add_argument("--s-mode", dest="s_mode", choices=["qinv", "q"],
                   help="set s to exactly q^-1 or q")
    p.add_argument("--parity", choices=["even", "odd"],
                   help="base-measure lattice parity (default: even)")
    p.add_argument("--N", type=int, help="maximum degree (default: 8)")
    _add_common(p, ("json", "csv"))

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--list", dest="list_ids", action="store_true",
                   help="print identity ids without running")
    p.add_argument("--only", help="comma-separated identity ids to run")
    p.add_argument("--k-max", type=int, dest="k_max",
                   help="max degree index for the connection checks (default: 6)")
    p.add_argument("--N", type=int,
                   help="max degree for the Gram-based checks (default: 8)")
    p.add_argument("--s", help="base-measure parameter s (default: 1)")
    p.add_argument("--a", help="extremal parameter a (default: (1+q)/2)")
    _add_common(p, ("pretty", "json"))

    p = sub.add_parser("sweep", help="Gram residuals over a range of a values")
    p.add_argument("--measure",
                   choices=[m for m in _MEASURES if m != "dual-base"],
                   help="one-parameter measure family (default: hermite-extremal)")
    p.add_argument("--a-from", dest="a_from", help="first a value, decimal or 'q'")
    p.add_argument("--a-to", dest="a_to", help="last a value, decimal or 'q'")
    p.add_argument("--steps", type=int, help="number of a values (default: 10)")
    p.add_argument("--N", type=int, help="maximum degree (default: 8)")
    _add_common(p, ("csv",))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        handler = {"eval": cmd_eval, "gram": cmd_gram,
                   "verify": cmd_verify, "sweep": cmd_sweep}[config.command]
        return handler(config)
    except TruncationFailure as exc:
        print("error: certified truncation unattainable: %s" % exc,
              file=sys.stderr)
        return 2
    except (KernelError, DegenerateCoefficient, IncompatiblePair,
            SignViolation, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
