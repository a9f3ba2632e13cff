"""Pinned SHA-256 digests of CLI stdout, so a refactor cannot move a byte.

The digests were recorded with mpmath 1.3.0 on its pure-Python backend; the
CI workflow pins that version.  inverted-parameter-recurrence is left out of
the verify runs of GOLDEN: its residual depends on the accuracy the check
requests for its series values, which is the check's own choice, not a
result.  VERIFY pins the whole suite with its exit code, that check
included, so a change of what it requests moves those digests on purpose.
The same Grams check that the two residual maxima a Gram reports are the
largest of all its residuals.
"""
import hashlib

import pytest

from qortho import SUITE_IDS, families, measures
from qortho.cli import main
from qortho.kernel import PrecisionContext, _largest

_ONLY = ",".join(i for i in SUITE_IDS if i != "inverted-parameter-recurrence")


_BASIC = {
    "gram-hermite": ("gram", "--measure", "hermite-extremal"),
    "gram-qinv": ("gram", "--measure", "dual-qinv-extremal"),
    "gram-q": ("gram", "--measure", "dual-q-extremal"),
    "gram-base-even": ("gram", "--measure", "dual-base", "--parity", "even",
                       "--s", "1"),
    "gram-base-odd": ("gram", "--measure", "dual-base", "--parity", "odd",
                      "--s", "1"),
    "sweep": ("sweep", "--a-from", "q", "--a-to", "0.9", "--steps", "3"),
    "verify": ("verify", "--output", "json", "--only", _ONLY),
}

# Wider Grams: 1024 bits, and a base Gram past the default degree.
_WIDE = {
    "gram-hermite-1024": ("gram", "--measure", "hermite-extremal", "--bits", "1024",
                          "--tol-exp", "800", "--N", "12"),
    "gram-qinv-1024": ("gram", "--measure", "dual-qinv-extremal", "--bits", "1024",
                       "--tol-exp", "800", "--N", "12"),
    "gram-q-1024": ("gram", "--measure", "dual-q-extremal", "--bits", "1024",
                    "--tol-exp", "800", "--N", "12"),
    "gram-base-even-N16": ("gram", "--measure", "dual-base", "--parity", "even",
                           "--s", "1", "--N", "16"),
}

# Base Grams nearer q = 1 and past the default degree: at q = 0.9 and
# N = 24 a window of 52 nodes, and diagonal runs stepped to n = 24.
_LONG = {
    "gram-base-even-N24": ("gram", "--measure", "dual-base", "--parity", "even",
                           "--s", "1", "--N", "24"),
    "gram-base-odd-N24": ("gram", "--measure", "dual-base", "--parity", "odd",
                          "--s", "1", "--N", "24"),
    "verify": _BASIC["verify"],
}

# Extremal Grams past the default a and N: longer windows, each node bounded
# by the majorant at degree 24.
_EXTREMAL_N24 = {
    "gram-hermite-N24": ("gram", "--measure", "hermite-extremal", "--a", "0.9",
                         "--N", "24"),
    "gram-qinv-N24": ("gram", "--measure", "dual-qinv-extremal", "--a", "0.9",
                      "--N", "24"),
    "gram-q-N24": ("gram", "--measure", "dual-q-extremal", "--a", "0.9",
                   "--N", "24"),
}

# The CSV rendering, whose expected column prints each diagonal d_n.
_CSV = {
    "gram-base-odd-csv-N16": ("gram", "--output", "csv", "--measure", "dual-base",
                              "--parity", "odd", "--s", "1", "--N", "16"),
}

# Past the renderer's hand-off to nstr: at 4096 bits the residuals lie near
# 2^-4096 (1e-1233), beyond |exp + bc| = 3500.
_HAND_OFF = {
    "gram-hermite-4096": ("gram", "--measure", "hermite-extremal", "--bits", "4096",
                          "--tol-exp", "3900", "--N", "4"),
}

# One value per eval route: h by recurrence and by series, C, D by recurrence
# and by grid series.
_EVAL = {
    "eval-h-x": ("eval", "--family", "h", "--n", "5", "--x", "0.3"),
    "eval-h-phi": ("eval", "--family", "h", "--n", "5", "--phi", "0.4"),
    "eval-C": ("eval", "--family", "C", "--s", "0.8", "--n", "3", "--x", "0.6"),
    "eval-D-mu": ("eval", "--family", "D", "--s-mode", "qinv", "--n", "4",
                  "--mu", "2.5"),
    "eval-D-x": ("eval", "--family", "D", "--s", "0.9", "--n", "4", "--x", "2"),
}

# Values near 2^(+-10^9), which only nstr renders.
_HUGE = {
    "eval-D-mu-huge": ("eval", "--family", "D", "--s", "1", "--n", "30", "--mu", "3e300000000"),
    "eval-h-x-tiny": ("eval", "--family", "h", "--n", "30", "--x=-3e-300000000"),
}

# At q = 0.5 every power of q is exact in binary, so however the recurrence
# steps are formed from those powers, these bytes stay: every eval route at
# 256 and 1024 bits, and the two base Grams at 1024 bits (_BASIC and _WIDE
# hold the other Grams at q = 0.5).
_1024 = ("--bits", "1024", "--tol-exp", "800")
_EXACT_POWERS = {**_EVAL, **{name + "-1024": argv + _1024 for name, argv in _EVAL.items()},
                 "gram-base-even-1024": _BASIC["gram-base-even"] + _1024,
                 "gram-base-odd-1024": _BASIC["gram-base-odd"] + _1024}


def _runs(argvs, q, digests):
    assert len(argvs) == len(digests)
    return [pytest.param(argv + ("--q", q), digest, id="%s-q%s" % (name, q))
            for (name, argv), digest in zip(argvs.items(), digests)]


GOLDEN = _runs(_BASIC, "0.5", (
    "1d0397fe9030a810a075bc47b2be3db8f7497b8b702d59972d8ddc2c0b0d9672",
    "13806f5162bc5a5369f248d3d1f33ec103c53bb131ff22362e1d702dcc9e1457",
    "9aa53f5438193fdcc8e78e14a22900ce44a221d06fe05e8e4f80418887160c2a",
    "419d43539f6bc72e956762e66f48ac2cf416dbf7079720a771780649a0d5bbec",
    "cb783b5ec8b9ad48161628f72f28b20be49b80fdb94ddf4022680fdacee87a3e",
    "69606b0b3819b7ac92cd128bbf7ac16a9bdf84885d869ae6efb79b4fb2789834",
    "17d36227d5cebe90eda3aa3bb03403aa838f357068594dcfa877702f9b4a750c",
)) + _runs(_BASIC, "0.7", (
    "96e861bc3633fb7ecab2ea5fa67b58b5991d6eaa722215dd6bfb97538591463c",
    "ddbd2ebf47e5fdffc22bc256d1584480d5986255352447947cab3d967218d414",
    "c302dc66b8bc9205afbdd5bcb4a288e8c051d4e8e1366b06e67477f0fc1e69f7",
    "a6942abee58446cc1e39f49a3d7af571d7a066f22f3308b1ca3ec6706d413292",
    "1d9d1519e44c307f5083d11281065e76ec8f9ce88689100d72dd63db54f74221",
    "e3f1502ec363682f43275e1625ca6587b9efcf7ed9c0358c0a10b06e1c8a6498",
    "a3898fd92562e5328f053ace1f5346a3e80c2b075e3a5897962502027737d8db",
)) + _runs(_WIDE, "0.5", (
    "0b356d4518342fbed8a21e1a7e9a18dad3ae03a8d2bc0873d4fae1316f896a42",
    "b6006b848623f0ab64e59957d6064828ead3f37e6d711f100313c89f0ec39168",
    "0b12bedae5bb0b29294ba5bbe5885ffd7b91aeac9218b3c769a4fbb5d86f64a7",
    "7c08d2368d1e1a48f2aef3e5769703ee4b69c519da6fcd03bbae2f250eebfa97",
)) + _runs(_WIDE, "0.7", (
    "5c6896b6438508fe917fe89c508b427c79463411005eeeeaef81ac3c94b71457",
    "e64d5736222ef9ad74c69701ba53d8a5813207a78d8febe7b34c2fe937fd9c42",
    "50bc9903403a52cf4ab177046935c41a0dd736844a649da7436c063897cd8cfe",
    "c9c731ac9fd314429589ee448f147e5bc23892658ccf9c37e68fd0313016c9eb",
)) + _runs(_EVAL, "0.7", (
    "1d799c17db0c45eaf515b1ce148dba1c7dcfd0c2b0721bd42dd1583022b4af5d",
    "8d7fc7b7ef117d18bd6563c8fa31af412f0a62e960c983b541ee67112a52e4f0",
    "9735df6b48664d5e6f70d922e4017badf7e9e1cbe36162ac6a2d0da8adde7d51",
    "3e57bfd1cb63e4ec00367f4a5bffc2efc9e190cea0c65d8aff7cf44682b1e2d8",
    "5da819f4e99ae01138fc12e732c71d78db3ea86abf0282937fd773d815cf1c6a",
)) + _runs(_LONG, "0.9", (
    "2a779d5663849c11936a9096ccc87dc74b7c12050e5fd1edacc95a2051e0afa2",
    "61ade5951fca8d1542194e263720487ce6b535a58c7db5d5a55b3bc2c26a8235",
    "420d8b30044f0958846edaf42e3c11699a59c1ba29dad82f86f7f623d2a19b64",
)) + _runs(_EXTREMAL_N24, "0.3", (
    "4e26852bf7296def260adc8532b95e5edfa3ea67ecaf1ebe56e3a5ad127a54b2",
    "fbdb6afd2b4588694fb79dc707df8c3b82d8d9198634304dd5e4b243817e7114",
    "fc6273565ebb939cf47017df47283800f66fd29ef5a7594baff662f7e218938f",
)) + _runs(_CSV, "0.7", (
    "35a47decf129325240e1320c965ca72d30443cf0283b3b21419ba350dbd0cfc2",
)) + _runs(_EXACT_POWERS, "0.5", (
    "5e2caea9749bba4d5031aa2a302b5112ca6ff61d0c10c0d5b8bee245a520141c",
    "0c78e8c0d040d8a46143bdf7b0708b31d584f4c7feee773d167269846e8ca4de",
    "eba2ef17427645e7bbbd470d817bbbc835589e632dbe9bf63ca701d78098a5be",
    "d761d81c77b883f486b727260211eccef4dfe90a4be9f8ba3f5f3b8a9e32857c",
    "b4c06d239a465b015470db1050a9617f7006609b8b408f617d243ca7764489eb",
    "2481d5d7ca0d6e890e91d423e8624c963008c70b9498166b2e1844057ff4f74f",
    "c56dbd5763d24dbc50f2085dd6b27e59f0509095cd5934f23fd74ea49c12a7bc",
    "67fc1645e1cb2ac44896657e9bf38a8ff8d2845d430bc4a52500b297c86f228f",
    "d761d81c77b883f486b727260211eccef4dfe90a4be9f8ba3f5f3b8a9e32857c",
    "07940bbbe759a860054fb1651872db490c5303a130dc1dcf429e732c03381fab",
    "bcb56e1e20a5a6ba7ccfaf36edd9a673bbb3a029cb7bfeffbd3fef6813ab74e8",
    "46b2485f4d8dd6b2c7667bf93426cfa9d8e3844c0a869b78573666c38b87f599",
)) + _runs(_HAND_OFF, "0.5", (
    "7981666147c8d6107a15f91f9b655473d3b6c074cd19553bb9f7c5c630612231",
)) + _runs(_HUGE, "0.5", (
    "1cf6391d3cd87a46f8b3394419300ddc8d7ef969846ab68fe4b1816c35a128f2",
    "4ad3e2bba2559e24c6d9c8e31d98d54fe215985376e29ff837aee928032bffce",
))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QORTHO_BITS", raising=False)
    monkeypatch.delenv("QORTHO_TOL_EXP", raising=False)


@pytest.mark.parametrize("argv,digest", GOLDEN)
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The whole suite at 256 bits (tol 2^-200) and 1024 bits (tol 2^-800), from
# q = 1e-4, where inverted-parameter-recurrence runs its series at 339 bits
# (wider than the residual loop's), to q = 0.99.  At q <= 0.05 the terms of
# recurrence-chains cancel, which its scale, a power of two above every
# term, allows for.
VERIFY = [pytest.param(q, bits, code, digest, id="verify-q%s-%d" % (q, bits))
          for q, bits, code, digest in (
    ("1e-4", 256, 0, "34177dfa0d0decbc95159d10b5d2bad42ea438725730d4b27fdede21bfaabdd6"),
    ("0.01", 256, 0, "097a7298bcb20ac934442886af9b7966100e06f08d8d637f02105a0a6957ec30"),
    ("0.05", 256, 0, "18f5d4c8ff154ff61b77725b81a1897159e30f55764ac90f03ed172d780bb322"),
    ("0.3", 256, 0, "0de8c3ada0e7577b5446a15699f7fea96dd5f8af74c8eaf9ab2ce696c59ae133"),
    ("0.99", 256, 0, "3a5c3a455fa3fbc876cfb5292d82888390c8857f1a0972bfee43d7d53c5af9b8"),
    ("1e-4", 1024, 0, "e30105a2892627bf6c738de49904be4972891147daf723250629af898dd1fb8a"),
    ("0.01", 1024, 0, "973b5759f01fc157387dbd84dbe6bb7735836f1321df25a1e48f5bdf2d06d0c1"),
    ("0.05", 1024, 0, "2d5d8ec700f896998839e41b58c2ce30059f7a21611e6e14729e4f2a9f6ceccd"),
    ("0.3", 1024, 0, "54decefe22ae05fdaad06c4ebc9141ea00db86f3a0d538ff0be5c1236bda028a"),
    ("0.99", 1024, 0, "984ce5b04cffe26a7b9036fb233f37a68912d77d757566a8c2c8d814a597372d"),
)]


_TOL_EXP = {256: "200", 1024: "800"}


@pytest.mark.parametrize("q,bits,code,digest", VERIFY)
def test_verify_bytes_and_exit_code_are_pinned(capsys, q, bits, code, digest):
    got = main(["verify", "--output", "json", "--q", q, "--bits", str(bits),
                "--tol-exp", _TOL_EXP[bits]])
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Every Gram of the grids above, the suite runs included, takes its two
# residual maxima from the quotients of the entries that can hold them
# (measures._residual_maxima): they must be _largest over all the residuals.
_GRAMS = ([pytest.param(p.values[0], id=p.id) for p in GOLDEN if p.values[0][0] != "eval"]
          + [pytest.param(("verify", "--q", p.values[0], "--bits", str(p.values[1]),
                           "--tol-exp", _TOL_EXP[p.values[1]]), id=p.id) for p in VERIFY])


@pytest.mark.parametrize("argv", _GRAMS)
def test_residual_maxima_are_the_largest_residuals(monkeypatch, capsys, argv):
    maxima, seen = measures._residual_maxima, []

    def checked(gram, diag, prec):
        res = measures._residuals(gram, diag, prec)
        size = len(diag)
        want = (_largest(res[n][n] for n in range(size)),
                _largest(res[n][np_] for n in range(size) for np_ in range(n + 1, size)))
        got = maxima(gram, diag, prec)
        assert got == want
        seen.append(size)
        return got

    monkeypatch.setattr(measures, "_residual_maxima", checked)
    main(list(argv))
    capsys.readouterr()
    assert seen


# The raw value of each public evaluator, called on decimal strings: h by
# recurrence and by series, ht off and at x = 0, C, D by recurrence and by
# grid series at integer labels below, at and past n, a negative label and
# a label that is not an integer.  The digest pins every mantissa and
# exponent, so any change of how the evaluators form their inputs and
# parameters shows here.
def _evaluator_values():
    out = []
    for q in ("0.3", "0.7", "0.93"):
        for bits, tol_exp in ((256, 200), (1024, 800)):
            ctx = PrecisionContext.create(bits, tol_exp)
            for n in (0, 1, 7, 30):
                out.append(families.qinv_hermite(n, "0.3", q, ctx))
                out.append(families.qinv_hermite_series(n, "0.4", q, ctx))
                out.append(families.even_hermite_factor(n, "0", q, ctx))
                out.append(families.even_hermite_factor(n, "0.6", q, ctx))
                out.append(families.discrete_ultra(n, "0.6", "0.8", q, ctx))
                out.append(families.dual_ultra(n, "2.5", "0.8", q, ctx))
                for x in ("0", "3", "29", "31", "-2", "2.5"):
                    out.append(families.dual_ultra_series(n, x, "0.8", q, ctx))
    return [v._mpf_ for v in out]


def test_evaluator_values_are_pinned():
    digest = hashlib.sha256(repr(_evaluator_values()).encode()).hexdigest()
    assert digest == "adddd14b7a72a8ada9004efcbddb7fe84850e2fdebc2921f35f00fc1fa746790"
