"""End-to-end command-line behavior: output bytes, exit codes, precedence."""
import json

import mpmath
import pytest

from qortho import (SUITE_IDS, PrecisionContext, discrete_ultra, gram_matrix,
                    hermite_extremal, qinv_hermite_series, to_decimal)
from qortho.cli import build_parser, main

CTX = PrecisionContext.create()
Q = mpmath.mpf("0.5")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QORTHO_BITS", raising=False)
    monkeypatch.delenv("QORTHO_TOL_EXP", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ----------------------------------------------------------------------


def test_eval_hermite_values(capsys):
    code, out, _ = run(capsys, "eval", "--family", "h", "--n", "2", "--x", "0")
    assert code == 0 and out == "-1\n"
    code, out, _ = run(capsys, "eval", "--family", "h", "--n", "0",
                       "--x", "0.3")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "eval", "--family", "h", "--n", "2",
                       "--phi", "0")
    assert code == 0 and out == "-1\n"


def test_eval_dual_recurrence_route(capsys):
    code, out, _ = run(capsys, "eval", "--family", "D", "--s-mode", "qinv",
                       "--n", "1", "--mu", "2.0")
    assert code == 0 and out == "1\n"


def test_eval_ultra_matches_library(capsys):
    code, out, _ = run(capsys, "eval", "--family", "C", "--s", "1",
                       "--n", "1", "--x", "0")
    assert code == 0
    assert out == to_decimal(discrete_ultra(1, 0, 1, Q, CTX), CTX.digits) + "\n"


@pytest.mark.parametrize("argv, message", [
    (("--family", "h", "--x", "inf"), "x must be a finite decimal string (got 'inf')"),
    (("--family", "h", "--x", "nan"), "x must be a finite decimal string (got 'nan')"),
    (("--family", "D", "--mu", "inf", "--s", "1"),
     "mu must be a finite decimal string (got 'inf')"),
    (("--family", "C", "--x", "inf", "--s", "1"),
     "x must be a finite decimal string (got 'inf')"),
    (("--family", "h", "--phi", "inf"), "phi must be a finite decimal string (got 'inf')"),
])
def test_eval_non_finite_token_exits_two_naming_it(capsys, argv, message):
    code, out, err = run(capsys, "eval", "--n", "3", *argv)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_eval_prints_an_integer_past_the_int_to_str_digit_limit(capsys):
    # h_5(sinh(3000)) is an integer-valued mpf of about 6,500 digits, more
    # than Python's default limit of 4,300 for str(int) and than the 256
    # bits carry: it prints to the context's digits, like any other value.
    code, out, _ = run(capsys, "eval", "--family", "h", "--n", "5", "--phi", "3e3")
    assert code == 0
    value = qinv_hermite_series(5, 3000, Q, CTX)
    assert out == mpmath.nstr(value, CTX.digits) + "\n"


def test_eval_input_errors(capsys):
    code, _, err = run(capsys, "eval", "--family", "h", "--n", "2",
                       "--x", "0", "--q", "1.5")
    assert code == 2 and "0 < q < 1" in err
    code, _, err = run(capsys, "eval", "--family", "C", "--n", "1", "--x", "0")
    assert code == 2 and "--s or --s-mode" in err
    code, _, err = run(capsys, "eval", "--family", "h", "--n", "2",
                       "--x", "0", "--phi", "1")
    assert code == 2 and "exactly one" in err


def test_eval_family_from_config_is_checked(capsys, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"family": "X", "s": "1"}))
    code, _, err = run(capsys, "eval", "--n", "1", "--x", "0", "--config", str(cfg))
    assert code == 2 and "one of h, C, D" in err
    code, _, err = run(capsys, "eval", "--n", "1", "--x", "0")
    assert code == 2 and "--family" in err


# -- gram ----------------------------------------------------------------------


def test_gram_default_json_schema(capsys):
    code, out, _ = run(capsys, "gram", "--N", "2")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"family", "measure", "q", "s", "a", "N", "bits", "gram",
                        "off_diag_max", "diag_rel_err_max", "m_window",
                        "tail_bound"}
    assert obj["measure"] == "hermite_extremal"
    assert obj["q"] == "0.5" and obj["a"] == "0.75"
    assert obj["N"] == 2 and obj["bits"] == 256


def test_gram_csv_output(capsys):
    code, out, _ = run(capsys, "gram", "--N", "1", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,nprime,value,expected,residual"
    assert len(lines) == 5


def test_gram_every_measure(capsys):
    for extra in (["--measure", "hermite-extremal", "--a", "q"],
                  ["--measure", "dual-base", "--parity", "odd", "--s", "0.5"],
                  ["--measure", "dual-qinv-extremal"],
                  ["--measure", "dual-q-extremal", "--a", "0.9"]):
        code, out, _ = run(capsys, "gram", "--N", "2", *extra)
        assert code == 0, extra
        json.loads(out)


@pytest.mark.parametrize("q", ["0.9", "0.95"])
def test_gram_passes_with_small_diagonals(capsys, q):
    # Diagonals fall to about 1e-3 (q = 0.9) and 1e-6 (q = 0.95); the window
    # certificate must be relative to them.
    code, out, _ = run(capsys, "gram", "--q", q)
    assert code == 0
    obj = json.loads(out)
    assert mpmath.mpf(obj["diag_rel_err_max"]) < CTX.tol


_MEASURE_ARGS = {
    "hermite-extremal": ["--measure", "hermite-extremal"],
    "dual-qinv-extremal": ["--measure", "dual-qinv-extremal"],
    "dual-q-extremal": ["--measure", "dual-q-extremal"],
    "dual-base-even": ["--measure", "dual-base", "--parity", "even"],
    "dual-base-odd": ["--measure", "dual-base", "--parity", "odd"],
}


@pytest.mark.parametrize("q", ["1e-4", "0.01", "0.5", "0.99"])
@pytest.mark.parametrize("measure", sorted(_MEASURE_ARGS))
def test_gram_passes_over_the_domain(capsys, measure, q):
    # Each measure with its default parameter and with a = q (s = 1/q for
    # the base measures, where the cancelled factor 1 - s q vanishes), at
    # both ends of 0 < q < 1.
    edge = ["--s-mode", "qinv"] if measure.startswith("dual-base") else ["--a", "q"]
    for extra in ([], edge):
        code, out, _ = run(capsys, "gram", "--N", "8", "--q", q,
                           *_MEASURE_ARGS[measure], *extra)
        assert code == 0, extra
        json.loads(out)


def test_gram_fails_below_rounding_floor(capsys):
    # 2^-300 is under the 256-bit arithmetic floor: residuals cannot reach it.
    code, out, _ = run(capsys, "gram", "--N", "2", "--tol-exp", "300")
    assert code == 1
    json.loads(out)


def test_gram_never_passes_below_rounding_floor(capsys):
    # At 256 bits the floor is 2^-250.  Both residuals of this Gram lie
    # below 2^-260, but its entries are rounded to 256 bits, so nothing
    # certifies agreement to 2^-260.
    code, out, _ = run(capsys, "gram", "--measure", "dual-base", "--tol-exp", "260")
    obj = json.loads(out)
    tol = mpmath.ldexp(1, -260)
    assert mpmath.mpf(obj["off_diag_max"]) < tol and mpmath.mpf(obj["diag_rel_err_max"]) < tol
    assert code == 1
    assert run(capsys, "gram", "--measure", "dual-base", "--tol-exp", "250")[0] == 0
    code, out, _ = run(capsys, "sweep", "--a-from", "0.7", "--steps", "1", "--tol-exp", "260")
    assert code == 1 and len(out.splitlines()) == 2


@pytest.mark.parametrize("argv", [
    ("gram", "--measure", "hermite-extremal", "--parity", "odd"),
    ("gram", "--measure", "dual-qinv-extremal", "--s", "0.3"),
    ("gram", "--measure", "dual-qinv-extremal", "--s-mode", "q"),
    ("gram", "--measure", "dual-base", "--a", "0.7"),
    ("eval", "--family", "h", "--n", "3", "--x", "0.5", "--s", "2"),
])
def test_flag_the_choice_does_not_read_is_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    flag = argv[-2]
    assert code == 2 and out == ""
    assert err == "error: %s has no effect with %s %s\n" % (flag, argv[1], argv[2])


def test_unread_config_keys_stay_shared(capsys, tmp_path):
    # A config file may hold settings for other measures and families.
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"parity": "odd", "s": "2", "a": "0.7"}))
    assert run(capsys, "gram", "--N", "2", "--config", str(cfg))[0] == 0
    assert run(capsys, "gram", "--N", "2", "--measure", "dual-base",
               "--config", str(cfg))[0] == 0
    assert run(capsys, "eval", "--family", "h", "--n", "3", "--x", "0.5",
               "--config", str(cfg))[0] == 0


def test_gram_determinism(capsys):
    first = run(capsys, "gram", "--N", "2", "--a", "0.7")
    second = run(capsys, "gram", "--N", "2", "--a", "0.7")
    assert first == second


# -- verify ---------------------------------------------------------------------


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert out.splitlines() == list(SUITE_IDS)


def test_verify_subset_pretty(capsys):
    code, out, _ = run(capsys, "verify", "--only",
                       "product-chain,even-connection", "--k-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS") and "product-chain" in lines[0]
    assert lines[1].startswith("PASS") and "even-connection" in lines[1]
    assert lines[-1] == "2/2 identities passed"


def test_verify_subset_json(capsys):
    code, out, _ = run(capsys, "verify", "--only",
                       "product-chain,qinv-extremal-normalization",
                       "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert [entry["id"] for entry in data] == [
        "product-chain", "qinv-extremal-normalization"]
    assert all(entry["pass"] is True for entry in data)


def test_verify_normalization_passes_at_tiny_q(capsys):
    # At q = 1e-40 Z(a) matches the lattice mass exactly, and the other
    # candidate misses it by about 2q, far below sqrt(tol): shown, not counted.
    code, out, _ = run(capsys, "verify", "--only",
                       "qinv-extremal-normalization,q-extremal-normalization", "--q", "1e-40")
    assert code == 0
    assert out.splitlines()[-1] == "2/2 identities passed"


def test_verify_residual_failure_is_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--only",
                       "hermite-extremal-orthogonality", "--N", "2",
                       "--tol-exp", "300")
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL")
    assert "0/1 identities passed" in out


@pytest.mark.parametrize("identity, q, tol_exp", [
    ("base-even-orthogonality", "0.5", 260),
    ("base-odd-orthogonality", "0.5", 260),
    ("inverted-parameter-recurrence", "0.3", 254),
    ("inverted-parameter-recurrence", "0.5", 254),
    ("recurrence-chains", "0.9", 251),
])
def test_verify_fails_below_rounding_floor_on_a_residual_below_tol(capsys, identity, q, tol_exp):
    # Each residual is below tol = 2^-tol_exp, under the 256-bit floor 2^-250,
    # where no 256-bit result certifies agreement: a Gram id and an identity
    # id fail alike.
    code, out, _ = run(capsys, "verify", "--only", identity, "--q", q,
                       "--tol-exp", str(tol_exp))
    first = out.splitlines()[0]
    assert mpmath.mpf(first.split("max_residual=")[1]) < mpmath.ldexp(1, -tol_exp)
    assert code == 1 and first.startswith("FAIL")
    assert out.splitlines()[-1] == "0/1 identities passed"


# The ids whose certified evaluations refuse a tol below the rounding floor
# (exit 2): the h series of the two connections, and the products that
# product-chain and half-to-full-lattice check.  Every other id takes its
# products at the floor, as a Gram takes Z(a), and fails on its residual.
_REFUSED_BELOW_FLOOR = {"even-connection", "odd-connection", "product-chain",
                        "half-to-full-lattice"}


@pytest.mark.parametrize("identity", SUITE_IDS)
def test_no_identity_passes_below_rounding_floor(capsys, identity):
    # tol = 2^-252 is under the 256-bit floor 2^-250: each id fails on its
    # residual (exit 1) or reports the TruncationFailure of a certified
    # evaluation (exit 2).
    code, out, _ = run(capsys, "verify", "--only", identity, "--tol-exp", "252")
    first = out.splitlines()[0]
    assert first.startswith("FAIL") and out.splitlines()[-1] == "0/1 identities passed"
    refused = identity in _REFUSED_BELOW_FLOOR
    assert code == (2 if refused else 1)
    assert ("max_residual=" in first) != refused
    assert not refused or ("error: TruncationFailure" in first
                           and "is below the rounding floor" in first)


def test_verify_uncertifiable_is_exit_two(capsys):
    code, out, _ = run(capsys, "verify", "--q", "0.999", "--bits", "128",
                       "--only", "product-chain")
    assert code == 2
    assert "error: TruncationFailure" in out


# -- certification failures exit 2 with the bound and the budget -------------


def test_eval_series_below_its_rounding_floor_is_exit_two(capsys):
    # A 128-bit value carries up to 2^-128 relatively: tol = 2^-200 cannot be met.
    code, out, err = run(capsys, "eval", "--family", "h", "--n", "5", "--phi", "0.4",
                         "--q", "0.7", "--bits", "128", "--tol-exp", "200")
    assert code == 2 and out == ""
    assert "h_5 series at phi=0.4, q=0.7: tol=6.2230153e-61 is below the rounding floor" in err


def test_eval_series_past_the_precision_cap_is_exit_two(capsys):
    # h_2001(0) cancels terms up to 2^1000000; the cap at 256 bits is 262,144.
    code, _, err = run(capsys, "eval", "--family", "h", "--n", "2001", "--phi", "0", "--q", "0.5")
    assert code == 2
    assert "misses the budget 1.5557538e-61 at 256 bits" in err
    assert "next pass: 1001230 bits; cap: 1024 * bits = 262144" in err


def test_verify_series_context_gains_bits_only_below_the_floor(capsys):
    # At q = 0.01 the check asks the series for tol / (1 + 2 * 3 + q^-10),
    # below the 256-bit floor, so the series runs at more bits and passes.
    code, out, _ = run(capsys, "verify", "--q", "0.01", "--only",
                       "inverted-parameter-recurrence")
    assert code == 0 and out.startswith("PASS")


def test_eval_and_verify_exit_two_when_a_bound_does_not_shrink(capsys, monkeypatch):
    from qortho import families, kernel
    # every pass bounds the error of each degree by 1, whatever its precision
    monkeypatch.setattr(families, "_hermite_series_pass",
                        lambda ns, phis, q, prec: [[((0, 0), (1, 0)) for _ in ns] for _ in phis])
    code, _, err = run(capsys, "eval", "--family", "h", "--n", "3", "--phi", "0.5")
    assert code == 2
    assert ("error bound 1.0 misses the budget 1.5557538e-61 at 459 bits, and a rerun "
            "cannot meet it (bound before: 1.0;") in err
    # value 1 and a bound of 1/2 at every pass
    monkeypatch.setattr(kernel, "_product_pass", lambda *args: ((1, 0), (1, -1)))
    kernel._qpochhammer_inf_memo.cache_clear()
    try:
        code, out, _ = run(capsys, "verify", "--only", "product-chain")
    finally:
        kernel._qpochhammer_inf_memo.cache_clear()
    assert code == 2
    assert "error: TruncationFailure: (a;q)_inf" in out
    assert "error bound 0.5 misses the budget 9.7234614e-63 at 471 bits" in out


@pytest.mark.parametrize("check", ["recurrence-chains", "even-connection", "odd-connection"])
def test_verify_negative_k_max_is_exit_two(capsys, check):
    # Below 0 the check would compare nothing and pass.
    code, out, _ = run(capsys, "verify", "--k-max", "-1", "--only", check)
    assert code == 2
    assert "k_max must be a nonnegative integer (got -1)" in out
    assert out.splitlines()[-1] == "0/1 identities passed"


def test_verify_accepts_q_token_for_a(capsys):
    argv = ["verify", "--q", "0.7", "--only", "hermite-extremal-orthogonality",
            "--output", "json"]
    code, out, _ = run(capsys, *argv, "--a", "q")
    assert code == 0
    assert json.loads(out)[0]["grid"].endswith("a=0.7")
    assert (code, out) == run(capsys, *argv, "--a", "0.7")[:2]


def test_verify_runs_a_repeated_id_once(capsys):
    code, out, _ = run(capsys, "verify", "--only",
                       "product-chain,even-connection,product-chain", "--k-max", "4")
    assert code == 0
    assert (code, out) == run(capsys, "verify", "--only",
                              "product-chain,even-connection", "--k-max", "4")[:2]
    assert out.splitlines()[-1] == "2/2 identities passed"


@pytest.mark.parametrize("flag, token, message", [
    ("--a", "0.7x", "a must be a decimal string or 'q' (got '0.7x')"),
    ("--s", "abc", "s must be a decimal string (got 'abc')"),
    ("--a", "inf", "a must be a finite decimal string or 'q' (got 'inf')"),
    ("--s", "nan", "s must be a finite decimal string (got 'nan')"),
])
def test_verify_bad_decimal_names_the_flag(capsys, flag, token, message):
    code, out, err = run(capsys, "verify", "--only", "product-chain", flag, token)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


# -- sweep ----------------------------------------------------------------------


def test_sweep_rows_and_hashes(capsys):
    code, out, _ = run(capsys, "sweep", "--a-from", "0.55", "--a-to", "0.95",
                       "--steps", "10", "--N", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,off_diag_max,diag_rel_err_max,node_hash"
    assert len(lines) == 11
    hashes = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert len(set(hashes)) == 10


def test_sweep_single_step_matches_library(capsys):
    code, out, _ = run(capsys, "sweep", "--a-from", "0.7", "--steps", "1",
                       "--N", "3")
    assert code == 0
    row = out.splitlines()[1].split(",")
    report = gram_matrix(hermite_extremal("0.7", Q, CTX), 3, CTX)
    with mpmath.mp.workprec(256):
        assert row[0] == to_decimal(mpmath.mpf("0.7"), CTX.digits)
        assert row[1] == to_decimal(report.off_diag_max, CTX.digits)
        assert row[2] == to_decimal(report.diag_rel_err_max, CTX.digits)
        assert row[3] == report.node_hash


def test_sweep_accepts_q_token(capsys):
    code, out, _ = run(capsys, "sweep", "--a-from", "q", "--steps", "1",
                       "--N", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("0.5,")


def test_sweep_has_no_output_flag(capsys):
    # sweep prints CSV rows only; its --output, whose one choice was csv,
    # is gone, so the flag is an unknown argument.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--a-from", "0.7", "--steps", "1", "--output", "csv"])
    assert exc.value.code == 2
    assert "--output" in capsys.readouterr().err


def test_sweep_range_errors(capsys):
    code, _, err = run(capsys, "sweep", "--a-from", "0.3", "--steps", "1",
                       "--N", "1")
    assert code == 2 and "q <= a < 1" in err
    code, _, err = run(capsys, "sweep", "--a-from", "0.6", "--steps", "3",
                       "--N", "1")
    assert code == 2 and "--a-to" in err
    code, _, err = run(capsys, "sweep", "--a-from", "0.6", "--steps", "0",
                       "--N", "1")
    assert code == 2 and "--steps" in err


# -- configuration resolution ----------------------------------------------------


def test_config_file_and_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"bits": 128, "q": "0.7", "tol-exp": 90}))

    code, out, _ = run(capsys, "gram", "--N", "0", "--config", str(cfg))
    assert code == 0
    obj = json.loads(out)
    # 0.7 is not dyadic: the rendering is the 128-bit binary value's decimals.
    assert obj["bits"] == 128
    assert abs(float(obj["q"]) - 0.7) < 1e-15

    monkeypatch.setenv("QORTHO_BITS", "192")
    code, out, _ = run(capsys, "gram", "--N", "0", "--config", str(cfg))
    assert json.loads(out)["bits"] == 192

    code, out, _ = run(capsys, "gram", "--N", "0", "--config", str(cfg),
                       "--bits", "256")
    assert json.loads(out)["bits"] == 256


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"bitz": 128}))
    code, _, err = run(capsys, "gram", "--N", "0", "--config", str(cfg))
    assert code == 2 and "unknown config key" in err


def test_workers_flag_and_config_key_are_gone(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--N", "0", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"workers": 2}))
    code, _, err = run(capsys, "gram", "--N", "0", "--config", str(cfg))
    assert code == 2 and "unknown config key 'workers'" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_env_override_without_config(capsys, monkeypatch):
    # The tolerance must come down with the precision or the check cannot
    # pass; both knobs have environment forms.
    monkeypatch.setenv("QORTHO_BITS", "128")
    monkeypatch.setenv("QORTHO_TOL_EXP", "90")
    code, out, _ = run(capsys, "gram", "--N", "0")
    assert code == 0 and json.loads(out)["bits"] == 128


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "gram", "--N", "1", "--out", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["N"] == 1


def test_out_flag_bad_path(capsys, tmp_path):
    code, _, err = run(capsys, "gram", "--N", "0", "--out",
                       str(tmp_path / "missing" / "report.json"))
    assert code == 2 and "error" in err


# -- environment and config-file values get the flags' checks -------------------


@pytest.mark.parametrize("argv, settings, key", [
    (("gram", "--N", "1"), {"output": "xml"}, "'output'"),
    (("gram", "--N", "1", "--measure", "dual-base"), {"s_mode": "bogus"},
     "'s_mode'"),
    (("verify", "--only", "product-chain"), {"output": "csv"}, "'output'"),
    (("gram",), {"N": True}, "'N'"),
], ids=["gram-output-xml", "gram-dual-base-s-mode-bogus", "verify-output-csv",
        "gram-N-true"])
def test_bad_config_value_exits_two_naming_the_key(capsys, tmp_path, argv,
                                                   settings, key):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps(settings))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert key in err


def test_bad_env_value_exits_two_naming_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("QORTHO_BITS", "abc")
    code, out, err = run(capsys, "gram", "--N", "0")
    assert code == 2 and out == ""
    assert "QORTHO_BITS" in err


def test_non_integer_config_value_exits_two(capsys, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"k_max": "abc"}))
    code, _, _ = run(capsys, "gram", "--N", "0", "--config", str(cfg))
    assert code == 2


def test_verify_only_naming_no_id_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--only", ",")
    assert code == 2 and out == ""
    assert "--only" in err
