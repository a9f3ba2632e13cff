"""Command-line surface: evaluate, gram, verify, sweep.

All numeric input is decimal strings (reproducible at any precision); all
numeric output goes through the same deterministic decimal rendering, so
identical flags produce identical bytes.  Every setting is declared once, in
_SETTINGS: the parser is generated from it, and a value from the environment
or the --config JSON file is checked against the same entry as its flag.
Each setting resolves as flag > environment (where the entry names a
variable) > --config file > default; `qortho COMMAND --help` shows them.

A check passes by one rule, for gram, sweep and every verify id alike
(kernel._verdict): tol is at or above the rounding floor 2^(6-bits), the
smallest tol a bits-bit result can certify, and the residual is below tol.
Exit codes, from those verdicts (_exit_code): 0 success / all checks passed,
1 a check failed, 2 invalid input or a computation could not be certified.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import NamedTuple

import mpmath

from .families import FamilyKind, FamilySpec, evaluate
from .identities import SUITE_IDS, run_suite
from .kernel import (_ONE, KernelError, PrecisionContext, TruncationFailure, _add, _div, _mpf,
                     _mul, _pair, _sub, as_qparam, to_decimal)
from .measures import (SignViolation, _default_a, dual_base, dual_q_extremal,
                       dual_qinv_extremal, gram_matrix, hermite_extremal)

_MEASURES = {"hermite-extremal": hermite_extremal, "dual-base": dual_base,
             "dual-qinv-extremal": dual_qinv_extremal,
             "dual-q-extremal": dual_q_extremal}
_FAMILIES = {"h": FamilyKind.QINV_HERMITE, "C": FamilyKind.DISCRETE_ULTRA,
             "D": FamilyKind.DUAL_DISCRETE_ULTRA}
_FIRST_CHOICE = object()  # default: the first of the command's choices


class _Setting(NamedTuple):
    """One setting.  Its flag is --NAME with dashes for underscores unless
    `flag` names another; a config file may use either spelling."""
    type: type  # a bool is a flag only
    default: object
    commands: dict  # command -> the choices it accepts, or None for any
    help: str
    flag: str | None = None
    env: str | None = None  # the environment variable that sets it


def _on(commands: str = "eval gram verify sweep",
        choices: tuple[str, ...] | None = None) -> dict:
    return dict.fromkeys(commands.split(), choices)


_SETTINGS = {
    "family": _Setting(str, None, _on("eval", tuple(_FAMILIES)),
                       "h: q-inverse Hermite; C: discrete q-ultraspherical; "
                       "D: dual discrete q-ultraspherical"),
    "n": _Setting(int, None, _on("eval"), "polynomial degree / index"),
    "x": _Setting(str, None, _on("eval"),
                  "argument x (h recurrence, C, or D grid index)"),
    "phi": _Setting(str, None, _on("eval"),
                    "argument phi with x = sinh(phi) (h series)"),
    "mu": _Setting(str, None, _on("eval"),
                   "argument mu = q^-x + s q^{x+1} (D recurrence)"),
    "measure": _Setting(str, "hermite-extremal", _on("gram sweep", tuple(_MEASURES)),
                        "orthogonality measure; sweep needs one with a parameter a"),
    "s": _Setting(str, None, _on("eval gram verify"),
                  "parameter s of family C or D (eval) or of the base measure "
                  "(1 when unset), decimal string"),
    "s_mode": _Setting(str, None, _on("eval gram", ("qinv", "q")),
                       "set s to exactly q^-1 or q"),
    "a": _Setting(str, None, _on("gram verify"),
                  "extremal-measure parameter a in [q,1), decimal string or 'q'; "
                  "(1+q)/2 when unset"),
    "parity": _Setting(str, "even", _on("gram", ("even", "odd")),
                       "base-measure lattice parity"),
    "list_ids": _Setting(bool, False, _on("verify"),
                         "print identity ids without running", flag="--list"),
    "only": _Setting(str, None, _on("verify"), "comma-separated identity ids to run"),
    "k_max": _Setting(int, 6, _on("verify"),
                      "max degree index for the connection checks"),
    "N": _Setting(int, 8, _on("gram verify sweep"),
                  "maximum degree of each Gram matrix"),
    "a_from": _Setting(str, None, _on("sweep"), "first a value, decimal or 'q'"),
    "a_to": _Setting(str, None, _on("sweep"), "last a value, decimal or 'q'"),
    "steps": _Setting(int, 10, _on("sweep"), "number of a values"),
    "q": _Setting(str, "0.5", _on(), "base parameter in (0,1), decimal string"),
    "bits": _Setting(int, 256, _on(), "working precision in bits",
                     env="QORTHO_BITS"),
    "tol_exp": _Setting(int, 200, _on(), "tolerance exponent, tol = 2^-tol_exp",
                        env="QORTHO_TOL_EXP"),
    "out_path": _Setting(str, None, _on(),
                         "write output to this path instead of stdout", flag="--out"),
    "output": _Setting(str, _FIRST_CHOICE, {"gram": ("json", "csv"),
                                            "verify": ("pretty", "json"),
                                            "sweep": ("csv",)}, "output format"),
}


def _flag(name: str) -> str:
    return _SETTINGS[name].flag or "--" + name.replace("_", "-")


def _default(setting: _Setting, command: str):
    if setting.default is _FIRST_CHOICE:
        return setting.commands.get(command, (None,))[0]
    return setting.default


def _checked(name: str, value, where: str, command: str):
    """A value from the environment or a config file, held to its flag's type
    and choices (any command's, if this command does not take it)."""
    setting = _SETTINGS[name]
    try:
        if isinstance(value, (bool, list, dict)):
            raise ValueError
        value = setting.type(value)
    except ValueError:
        import json
        raise ValueError("%s must be %s (got %s)" % (
            where, "an integer" if setting.type is int else "a string or number",
            json.dumps(value))) from None
    choices = setting.commands.get(command, [
        c for cs in setting.commands.values() for c in cs or ()])
    if choices and value not in choices:
        raise ValueError("%s must be one of %s (got %r)" % (
            where, ", ".join(dict.fromkeys(choices)), value))
    return value


def _load_config_file(path: str, command: str) -> dict:
    import json
    with open(path) as fh:
        # parse_float=str keeps decimal values exact for re-rounding at
        # working precision instead of through a binary double.
        data = json.load(fh, parse_float=str)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    keys = {key: name for name, setting in _SETTINGS.items()
            if setting.type is not bool
            for key in (name, _flag(name)[2:].replace("-", "_"))}
    out = {}
    for key, value in data.items():
        name = keys.get(key.replace("-", "_"))
        if name is None:
            raise ValueError("unknown config key %r (known: %s)"
                             % (key, ", ".join(sorted(keys))))
        if value is not None:
            out[name] = _checked(name, value, "config key %r" % key, command)
    return out


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge flags, environment and config file into one value per setting."""
    command = args.command
    file_cfg = _load_config_file(args.config, command) if args.config else {}
    config = argparse.Namespace(command=command)
    for name, setting in _SETTINGS.items():
        value = getattr(args, name, None)
        if value is None and setting.env and setting.env in os.environ:
            value = _checked(name, os.environ[setting.env],
                             "environment variable " + setting.env, command)
        if value is None:
            value = file_cfg.get(name, _default(setting, command))
        setattr(config, name, value)
    chooser, unread = _unread(config)
    for name in unread:
        if getattr(args, name, None) is not None:
            raise ValueError("%s has no effect with %s %s" % (
                _flag(name), _flag(chooser), getattr(config, chooser)))
    return config


def _unread(config: argparse.Namespace) -> tuple[str, tuple[str, ...]]:
    """The setting that picks what the command reads, and the settings its
    value leaves unread: as flags, those are errors rather than ignored."""
    if config.command == "gram":
        return "measure", ("a",) if config.measure == "dual-base" else ("s", "s_mode", "parity")
    kind = _FAMILIES.get(config.family) if config.command == "eval" else None
    return "family", ("s", "s_mode") if kind and not kind.takes_s else ()


def _context(config: argparse.Namespace) -> PrecisionContext:
    return PrecisionContext.create(bits=config.bits, tol_exp=config.tol_exp)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _decimal(token: str, what: str, ctx: PrecisionContext, q=None):
    """token as a finite mpf (ctx.to_real); where q is given, the token 'q'
    stands for it."""
    if q is not None and token.strip() == "q":
        return q
    try:
        value = ctx.to_real(token)
    except ValueError:
        value = None
    if value is None or not mpmath.isfinite(value):
        raise ValueError("%s must be a %sdecimal string%s (got %r)" % (
            what, "" if value is None else "finite ", "" if q is None else " or 'q'", token))
    return value


def _family_s(config: argparse.Namespace, q, ctx: PrecisionContext, default=None):
    """s from --s or --s-mode, else default; with no default, one is required."""
    if config.s is not None and config.s_mode is not None:
        raise ValueError("give either --s or --s-mode, not both")
    if config.s_mode is not None:   # 1/q rounded to ctx.bits, or q
        return _mpf(_div(_ONE, _pair(q), ctx.bits)) if config.s_mode == "qinv" else q
    if config.s is not None:
        return _decimal(config.s, "s", ctx)
    if default is None:
        raise ValueError("--s or --s-mode is required here")
    return default


def _measure_for(config: argparse.Namespace, q, ctx: PrecisionContext, a_value=None):
    """The DiscreteMeasure that --measure names; a_value overrides --a."""
    if config.measure == "dual-base":
        return dual_base(_family_s(config, q, ctx, mpmath.mpf(1)), q, config.parity, ctx)
    a = a_value
    if a is None:
        a = _decimal(config.a, "a", ctx, q) if config.a is not None else _default_a(q, ctx)
    return _MEASURES[config.measure](a, q, ctx)


def _exit_code(verdicts) -> int:
    """0 when every verdict passed (True), else 1 when one failed (False),
    else 2 when one could not be certified (None): the worst of them."""
    return max(2 if verdict is None else 0 if verdict else 1 for verdict in verdicts)


def cmd_eval(config: argparse.Namespace) -> int:
    ctx = _context(config)
    q = as_qparam(config.q, ctx)
    kind = _FAMILIES.get(config.family)
    if kind is None:
        raise ValueError("eval needs --family, one of %s (got %r)"
                         % (", ".join(_FAMILIES), config.family))
    if config.n is None or config.n < 0:
        raise ValueError("--n must be a nonnegative integer")
    point = {name: _decimal(getattr(config, name), name, ctx)
             for name in ("x", "phi", "mu") if getattr(config, name) is not None}
    s = _family_s(config, q, ctx) if kind.takes_s else None
    value = evaluate(FamilySpec(kind, q, s), config.n, ctx=ctx, **point)
    _emit(to_decimal(value, ctx.digits) + "\n", config.out_path)
    return 0


def cmd_gram(config: argparse.Namespace) -> int:
    ctx = _context(config)
    q = as_qparam(config.q, ctx)
    report = gram_matrix(_measure_for(config, q, ctx), config.N, ctx)
    text = (report.to_json if config.output == "json" else report.to_csv)(ctx.digits)
    _emit(text, config.out_path)
    return _exit_code([report.passed(ctx.tol)])


def cmd_verify(config: argparse.Namespace) -> int:
    if config.list_ids:
        _emit("\n".join(SUITE_IDS) + "\n", config.out_path)
        return 0
    ctx = _context(config)
    only = None
    if config.only is not None:
        only = [token.strip() for token in config.only.split(",") if token.strip()]
        if not only:
            raise ValueError("--only names no identity id (got %r)" % config.only)
    q = as_qparam(config.q, ctx)
    s = None if config.s is None else _decimal(config.s, "s", ctx)
    a = None if config.a is None else _decimal(config.a, "a", ctx, q)
    reports = run_suite(q, ctx, only=only, k_max=config.k_max, N=config.N,
                        s=s, a=a)
    if config.output == "json":
        import json
        text = json.dumps([r.to_dict(ctx.digits) for r in reports],
                          indent=2) + "\n"
    else:
        lines = []
        for r in reports:
            tail = ("error: %s" % r.details["error"] if "error" in r.details
                    else "max_residual=%s" % to_decimal(r.max_residual, 8))
            lines.append("%s  %-32s %s" % ("PASS" if r.passed else "FAIL",
                                           r.identity_id, tail))
        npass = sum(1 for r in reports if r.passed)
        lines.append("%d/%d identities passed" % (npass, len(reports)))
        text = "\n".join(lines) + "\n"
    _emit(text, config.out_path)
    return _exit_code(None if "error" in r.details else r.passed for r in reports)


def cmd_sweep(config: argparse.Namespace) -> int:
    ctx = _context(config)
    q = as_qparam(config.q, ctx)
    if config.measure == "dual-base":
        raise ValueError("sweep varies a; --measure dual-base has no a parameter")
    if config.a_from is None:
        raise ValueError("--a-from is required for sweep")
    if config.steps < 1:
        raise ValueError("--steps must be >= 1")
    a_lo = _decimal(config.a_from, "a-from", ctx, q)
    if config.steps == 1:
        values = [a_lo]
    else:
        if config.a_to is None:
            raise ValueError("--a-to is required when steps > 1")
        # a_lo + (a_hi - a_lo) i / (steps - 1), each operation rounded to bits
        prec, lo = ctx.bits, _pair(a_lo)
        span = _sub(_pair(_decimal(config.a_to, "a-to", ctx, q)), lo, prec)
        values = [_mpf(_add(lo, _div(_mul(span, (i, 0), prec), (config.steps - 1, 0), prec), prec))
                  for i in range(config.steps)]
    verdicts, rows = [], ["a,off_diag_max,diag_rel_err_max,node_hash"]
    for a in values:
        report = gram_matrix(_measure_for(config, q, ctx, a_value=a), config.N, ctx)
        rows.append("%s,%s,%s,%s" % (
            to_decimal(a, ctx.digits),
            to_decimal(report.off_diag_max, ctx.digits),
            to_decimal(report.diag_rel_err_max, ctx.digits),
            report.node_hash))
        verdicts.append(report.passed(ctx.tol))
    _emit("\n".join(rows) + "\n", config.out_path)
    return _exit_code(verdicts)


_COMMANDS = {
    "eval": ("evaluate one polynomial value", cmd_eval),
    "gram": ("compute and check a Gram matrix", cmd_gram),
    "verify": ("run the identity suite", cmd_verify),
    "sweep": ("Gram residuals over a range of a values", cmd_sweep),
}


def _help(name: str, command: str) -> str:
    setting = _SETTINGS[name]
    default = _default(setting, command)
    notes = [] if default is None or setting.type is bool else ["default: %s" % default]
    if setting.env:
        notes.append("env " + setting.env)
    return setting.help + (" (%s)" % "; ".join(notes) if notes else "")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qortho",
        description="Evaluate q-orthogonal polynomial families and verify "
                    "their discrete orthogonality relations at certified "
                    "precision.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, setting in _SETTINGS.items():
            if command not in setting.commands:
                continue
            kind = ({"action": "store_true"} if setting.type is bool else
                    {"type": setting.type, "choices": setting.commands[command]})
            p.add_argument(_flag(name), dest=name, default=None,
                           help=_help(name, command), **kind)
        p.add_argument("--config",
                       help="JSON file of settings (flags and environment win)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return _COMMANDS[config.command][1](config)
    except TruncationFailure as exc:
        print("error: certified truncation unattainable: %s" % exc,
              file=sys.stderr)
        return 2
    except (KernelError, SignViolation, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
