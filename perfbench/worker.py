"""Run one workload in this process; print its raw results as one JSON line.

run.py starts this script once per run, so each workload gets a fresh
process. Ops enter the package as a user does: suite and Gram ops through
`qortho.cli.main([...])` with stdout captured, point ops through the public
evaluators. Only the call itself is timed; checking and rendering the
outputs happens outside the timed region, with tracing paused.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import reference_seconds  # noqa: E402

# Op seconds between two timings of the reference loop.
REFERENCE_EVERY_S = 0.25


def import_package():
    """Import qortho from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qortho
    import qortho.cli  # noqa: F401  (the CLI module must be loaded before wrapping)
    if Path(qortho.__file__).resolve().parent != (src / "qortho").resolve():
        raise ImportError("qortho was imported from %s, not from %s" % (qortho.__file__, src))
    return qortho


def parse_verify(ident: str, code, text: str, err: str, tol: Decimal):
    """(failure class or None, problem or None) for one `verify --only` op."""
    lines = text.splitlines()
    if code == 2 and not text and err.startswith("error:"):
        return "exit2", None
    if len(lines) != 2 or ident not in lines[0].split():
        return None, "unexpected verify output: %r" % text[:200]
    head = lines[0].split(None, 2)
    if len(head) == 3 and code == 2 and head[0] == "FAIL" and head[2].startswith("error: "):
        return head[2][len("error: "):].split(":", 1)[0], None
    try:
        residual = Decimal(head[2].split("max_residual=", 1)[1])
    except (IndexError, ArithmeticError):
        return None, "verify line has no residual: %r" % lines[0]
    if code == 0 and head[0] == "PASS" and lines[1] == "1/1 identities passed":
        if residual < tol:
            return None, None
        return None, "PASS with residual %s >= tol: %r" % (residual, lines[0])
    if code == 1 and head[0] == "FAIL" and lines[1] == "0/1 identities passed":
        return "FAIL", None
    return None, "exit code %r does not match output %r" % (code, text[:200])


def parse_gram(argv: list[str], code, text: str, err: str, tol: Decimal):
    """(failure class or None, problem or None) for one `gram` op."""
    if code == 2 and not text and err.startswith("error:"):
        return "exit2", None
    flag = dict(zip(argv[1::2], argv[2::2]))
    try:
        obj = json.loads(text)
        N, gram = int(flag["--N"]), obj["gram"]
        checks = {
            "measure": obj["measure"] == flag["--measure"].replace("-", "_"),
            "N": obj["N"] == N,
            "bits": obj["bits"] == int(flag["--bits"]),
            "q": abs(Decimal(obj["q"]) - Decimal(flag["--q"])) < Decimal("1e-50"),
            "a": abs(Decimal(obj["a"]) - Decimal(flag["--a"])) < Decimal("1e-50"),
            "shape": len(gram) == N + 1 and all(len(row) == N + 1 for row in gram),
            "symmetric": all(gram[i][j] == gram[j][i]
                             for i in range(N + 1) for j in range(i)),
            "diagonal": all(Decimal(gram[i][i]) > 0 for i in range(N + 1)),
        }
        passed = Decimal(obj["off_diag_max"]) < tol and Decimal(obj["diag_rel_err_max"]) < tol
    except (ValueError, KeyError, TypeError, ArithmeticError, IndexError) as exc:
        return None, "unreadable gram output (%s): %r" % (exc, text[:200])
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        return None, "gram output fails %s: %s" % (", ".join(bad), " ".join(argv))
    if code == 0 and passed:
        return None, None
    if code == 1 and not passed:
        return "FAIL", None
    return None, "exit code %r does not match the reported residuals: %s" % (code, " ".join(argv))


class Runner:
    """Runs ops, checks outputs and folds them into one SHA-256."""

    def __init__(self, qortho, tracer: tracing.Tracer | None):
        import mpmath
        self.mp = mpmath
        self.qortho = qortho
        self.tracer = tracer
        self.contexts = {bits: qortho.PrecisionContext.create(bits=bits, tol_exp=tol_exp)
                         for bits, tol_exp in workloads.TOL_EXP.items()}
        self.digest = hashlib.sha256()
        self.problems: list[str] = []
        self.examples: dict[str, str] = {}

    def run(self, op: dict) -> tuple[float, str | None]:
        """(wall seconds of the call, failure class or None)."""
        runner = self.run_cli if op["kind"] == "cli" else self.run_point
        elapsed, failure, problem = runner(op)
        if problem is not None:
            self.problems.append(problem)
        return elapsed, failure

    def _tracing(self, on: bool) -> None:
        """Trace only the timed call, not argument set-up or output checks."""
        if self.tracer is not None:
            self.tracer.active = on

    def run_cli(self, op: dict):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self._tracing(True)
            start = time.perf_counter()
            try:
                code = self.qortho.cli.main(op["argv"])
            except (Exception, SystemExit) as exc:
                # A raising op is counted by class; the run goes on.
                elapsed = time.perf_counter() - start
                self._tracing(False)
                self.examples.setdefault(type(exc).__name__, "%s: %s" % (" ".join(op["argv"]), exc))
                return elapsed, type(exc).__name__, None
            elapsed = time.perf_counter() - start
        self._tracing(False)
        text = out.getvalue()
        self.digest.update(text.encode())
        tol = Decimal(2) ** -op["tol_exp"]
        argv = op["argv"]
        if argv[0] == "verify":
            failure, problem = parse_verify(argv[2], code, text, err.getvalue(), tol)
        else:
            failure, problem = parse_gram(argv, code, text, err.getvalue(), tol)
        if failure is not None:
            self.examples.setdefault(failure, " ".join(argv) + ": " + (text or err.getvalue())[:300])
        return elapsed, failure, problem

    def point_args(self, op: dict, ctx) -> tuple:
        """Call arguments, prepared before the timed region."""
        fn, n, arg, s, q = op["fn"], op["n"], op["arg"], op["s"], op["q"]
        if fn == "dual_ultra":
            return n, self.qortho.mu_point(arg, s, q, ctx).mu, s, q, ctx
        if s is not None:
            return n, arg, s, q, ctx
        return n, arg, q, ctx

    def independent_value(self, op: dict, ctx):
        """The same value by the package's independent route."""
        Q, mp = self.qortho, self.mp
        fn, n, arg, s, q = op["fn"], op["n"], op["arg"], op["s"], op["q"]
        with ctx.workprec():
            if fn == "qinv_hermite_series":
                return Q.qinv_hermite(n, mp.sinh(mp.mpf(arg)), q, ctx)
            if fn == "qinv_hermite":
                return Q.qinv_hermite_series(n, mp.asinh(mp.mpf(arg)), q, ctx)
            if fn == "even_hermite_factor":
                x = mp.mpf(arg)
                if x == 0:
                    return Q.qinv_hermite_coeffs(2 * n + 1, q, ctx)[1]
                return Q.qinv_hermite_series(2 * n + 1, mp.asinh(x), q, ctx) / x
            if fn == "discrete_ultra":  # a single route: compare at twice the precision
                return Q.discrete_ultra(n, arg, s, q, ctx.doubled())
            if fn == "dual_ultra_series":
                return Q.dual_ultra(n, Q.mu_point(arg, s, q, ctx).mu, s, q, ctx)
            return Q.dual_ultra_series(n, arg, s, q, ctx)

    def run_point(self, op: dict):
        ctx = self.contexts[op["bits"]]
        fn = getattr(self.qortho, op["fn"])
        args = self.point_args(op, ctx)
        self._tracing(True)
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            self._tracing(False)
            self.examples.setdefault(type(exc).__name__, "%r: %s" % (op, exc))
            return elapsed, type(exc).__name__, None
        elapsed = time.perf_counter() - start
        self._tracing(False)
        if not isinstance(value, self.mp.mpf):
            return elapsed, None, "%s returned %r, not an mpf" % (op["fn"], type(value).__name__)
        self.digest.update(self.qortho.to_decimal(value, ctx.digits).encode() + b"\n")
        ref = self.independent_value(op, ctx)
        with ctx.workprec():
            hit = abs(value - ref) <= ctx.tol * max(1, abs(ref))
        if not hit:
            self.examples.setdefault("crossmiss", "%r: value %s, reference %s" % (
                op, self.mp.nstr(value, 20), self.mp.nstr(ref, 20)))
            return elapsed, "crossmiss", None
        return elapsed, None, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="write the traced spans here (tsv.gz)")
    args = parser.parse_args()

    qortho = import_package()
    import mpmath
    ops = workloads.make_ops(args.workload, args.seed, args.seconds)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
        tracer.active = False
    runner = Runner(qortho, tracer)

    records, refs = [], []
    since_ref = REFERENCE_EVERY_S
    for index, op in enumerate(ops):
        if since_ref >= REFERENCE_EVERY_S:
            refs.append([index, reference_seconds()])
            since_ref = 0.0
        if tracer is not None:
            tracer.op = index
        records.append(runner.run(op))
        since_ref += records[-1][0]
    refs.append([len(ops), reference_seconds()])

    summary = {
        "records": records,
        "refs": refs,
        "digest": runner.digest.hexdigest(),
        "ops_digest": workloads.ops_digest(ops),
        "rounds": workloads.rounds_for(args.workload, args.seconds),
        "problems": runner.problems,
        "examples": runner.examples,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
    }
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics()
        summary["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
