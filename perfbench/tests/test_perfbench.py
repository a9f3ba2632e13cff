"""Tests of the benchmark's own ranking, span arithmetic and determinism.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
import contextlib
import io
import json
import math
import sys
from decimal import Decimal
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_rescaling_uses_the_median_of_the_five_nearest_reference_timings():
    nominal = run.NOMINAL_S
    refs = [[0, nominal], [2, 2 * nominal], [3, 9 * nominal], [4, 2 * nominal], [5, 2 * nominal]]
    records = [[1.0, None], [1.0, None], [1.0, "FAIL"], [4.0, None], [1.0, None]]
    # ops 0-1 see refs 0..2 (median 2x), op 2 refs 0..3 (2x), op 3 refs 0..4,
    # op 4 refs 1..4: the one 9x timing never sets the scale
    assert run.rescaled(records, refs) == [[0.5, None], [0.5, None], [0.5, "FAIL"],
                                           [2.0, None], [0.5, None]]


def test_failed_ops_rank_above_every_finite_time():
    records = [(0.5, None), (0.1, "FAIL"), (0.2, None), (9.0, None), (0.3, "IncompatiblePair")]
    ranked = run.ranked_times(records)
    assert run.percentile(ranked, 20) == 0.2
    assert run.percentile(ranked, 60) == 9.0
    assert run.percentile(ranked, 80) == math.inf  # a 0.1 s failure outranks 9 s
    assert run.percentile(ranked, 100) == math.inf


def test_p90_of_100_ops_leaves_ten_beyond_it():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values, 50) == 50.0


def test_end_to_end_percentiles_and_throughput_count_ok_ops():
    records = [(1.0, None), (2.0, None), (3.0, None), (4.0, "FAIL")]
    e2e = run.end_to_end(records, [0.3, 0.1, 0.2], 2048)
    assert e2e["op_p50_s"] == (2.0, "s")
    assert e2e["op_p90_s"] == (3.0, "s")
    assert e2e["ops_per_s"] == (3 / 10.0, "1/s")
    assert e2e["ok_ratio"] == (0.75, "ratio")
    assert e2e["setup_s"] == (0.2, "s")
    assert e2e["peak_rss_mb"] == (2.0, "MiB")


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 4.0, 0, 0),    # child of root
        (2, 2.0, 3.0, 1, 0),    # grandchild: not subtracted from root
        (1, 5.0, 6.0, 0, 0),    # second child of root
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_counts_nested_calls_and_conserves_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("kernel.inner", lambda x: x + 1)
    outer = tracer.wrap("kernel.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    tracer.active = False
    assert outer(1) == 3  # paused: not recorded
    calls = {name: sum(1 for s in tracer.spans if tracer.names[s[0]] == name)
             for name in tracer.names}
    assert calls == {"kernel.outer": 1, "kernel.inner": 2}
    root = tracer.spans[0]
    assert math.isclose(sum(tracing.self_times(tracer.spans)), root[2] - root[1])
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_install_wraps_names_imported_into_other_modules():
    worker.import_package()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import qortho.cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert qortho.cli.main(["verify", "--only", "product-chain", "--q", "0.5"]) == 0
    assert out.getvalue().startswith("PASS")
    layers = tracer.layer_metrics()
    assert layers["cli.main.calls"] == 1
    assert layers["identities.run_suite.calls"] == 1
    assert layers["identities.check_product_chain.calls"] == 1
    # seven products and five rendered details in identities, one rendered
    # residual in cli: each module calls through the name it imported
    assert layers["kernel.qpochhammer_inf.calls"] == 7
    assert layers["kernel.to_decimal.calls"] == 6
    assert set(layers) == set(tracing.metric_names())
    tracer.active = False


def test_same_seed_gives_same_ops_other_seed_other_q_same_count():
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, 7, 30)
        assert ops == workloads.make_ops(name, 7, 30)
        other = workloads.make_ops(name, 8, 30)
        assert len(other) == len(ops) >= 100
        assert workloads.ops_digest(other) != workloads.ops_digest(ops)
        q_of = (lambda op: op["argv"][op["argv"].index("--q") + 1]) if ops[0]["kind"] == "cli" \
            else (lambda op: op["q"])
        assert [q_of(op) for op in ops] != [q_of(op) for op in other]


def test_draws_stay_inside_their_ranges():
    for op in workloads.make_ops("gram-sweep", 3, 30):
        flag = dict(zip(op["argv"][1::2], op["argv"][2::2]))
        q, a, N = Decimal(flag["--q"]), Decimal(flag["--a"]), int(flag["--N"])
        assert Decimal("0.25") <= q < Decimal("0.65") and q <= a < Decimal("0.95")
        assert 12 <= N <= 24 if flag["--bits"] == "256" else 8 <= N <= 12
    suite_q = sorted(Decimal(op["argv"][4]) for op in workloads.make_ops("suite", 3, 30))
    assert Decimal("0.20") <= suite_q[0] and suite_q[-1] < Decimal("0.96")
    points = workloads.make_ops("points", 3, 1)
    assert all(Decimal("0.2") < Decimal(op["q"]) < Decimal("0.95") for op in points)
    assert any(op["fn"] == "even_hermite_factor" and op["arg"] == "0" for op in points)


def test_same_seed_gives_same_point_digest():
    qortho = worker.import_package()
    ops = workloads.make_ops("points", 5, 1)[::8]
    digests = []
    for _ in range(2):
        runner = worker.Runner(qortho, None)
        records = [runner.run(op) for op in ops]
        assert not runner.problems
        digests.append(runner.digest.hexdigest())
    assert digests[0] == digests[1]
    assert len(records) == len(ops)


def test_verify_output_parsing():
    tol = Decimal(2) ** -200
    ok = "PASS  product-chain                    max_residual=0\n1/1 identities passed\n"
    assert worker.parse_verify("product-chain", 0, ok, "", tol) == (None, None)
    fail = ("FAIL  inverted-parameter-recurrence    max_residual=7.4e-58\n"
            "0/1 identities passed\n")
    assert worker.parse_verify("inverted-parameter-recurrence", 1, fail, "", tol) == ("FAIL", None)
    err = ("FAIL  qinv-extremal-orthogonality      error: IncompatiblePair: s differs\n"
           "0/1 identities passed\n")
    assert worker.parse_verify("qinv-extremal-orthogonality", 2, err, "", tol) == (
        "IncompatiblePair", None)
    failure, problem = worker.parse_verify("product-chain", 1, ok, "", tol)
    assert failure is None and "does not match" in problem


def test_gram_output_check_recomputes_the_verdict():
    argv = ["gram", "--measure", "hermite-extremal", "--a", "0.75", "--q", "0.5",
            "--bits", "256", "--tol-exp", "200", "--N", "1"]
    obj = {"measure": "hermite_extremal", "N": 1, "bits": 256, "q": "0.5", "a": "0.75",
           "gram": [["1.0", "1e-70"], ["1e-70", "2.0"]],
           "off_diag_max": "1e-70", "diag_rel_err_max": "0"}
    tol = Decimal(2) ** -200
    assert worker.parse_gram(argv, 0, json.dumps(obj), "", tol) == (None, None)
    assert worker.parse_gram(argv, 1, json.dumps(obj), "", tol)[1] is not None
    obj["gram"][1][0] = "2e-70"
    assert "symmetric" in worker.parse_gram(argv, 0, json.dumps(obj), "", tol)[1]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([(1.0, None)], [0.1], 1024)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in e2e.values()]
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == [tracing.unit(n) for n in tracing.metric_names()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
