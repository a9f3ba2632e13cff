"""Pinned SHA-256 digests of CLI stdout, so a refactor cannot move a byte.

The digests were recorded with mpmath 1.3.0 on its pure-Python backend; the
CI workflow pins that version.  inverted-parameter-recurrence is left out of
the verify runs: its residual depends on the accuracy the check requests for
its series values, which is the check's own choice, not a result.
"""
import hashlib

import pytest

from qortho import SUITE_IDS
from qortho.cli import main

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

# Long finite-product prefixes: at q = 0.9 a base Gram at N = 24 asks for
# products of up to 105 factors and verify for up to 72; the runs above ask
# for at most 62.
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


def _runs(argvs, q, digests):
    assert len(argvs) == len(digests)
    return [pytest.param(argv + ("--q", q), digest, id="%s-q%s" % (name, q))
            for (name, argv), digest in zip(argvs.items(), digests)]


GOLDEN = _runs(_BASIC, "0.5", (
    "c2d50db426ddc1f5843d8b9b1d6ff909bee9bbdb699a98dc68b99b13955c2683",
    "0d9430cef6fef38e5a11e8c9572f7f3de4b1d9c9956d9a147fa4d23f05a6f849",
    "f60f64e5c11b7bbb36fbda8a1668ca0e6ad6be3a28cc03ffab7ad3cff5f5f82c",
    "12daccbe5aef029ba8d5e61cf440d302975499484a11a60461283603e33f8b15",
    "6da47bfe57239ad98a910d3233922269d925ec043efdab09bcc459561187b8e5",
    "f8ad261412f5c959686eda58353136581bd7ed97212ca18f6cdd4ebd8d7e6af5",
    "3a8f376a2a2ce9f19fad8ff78b3105afed214636a219925130c3acdc30c73663",
)) + _runs(_BASIC, "0.7", (
    "d3cea245db4bfe7a84281b14e5b0057872159d62f5ea050369a440bc508c6c3f",
    "956c09fa065405a11c9d4436f8dd94cba24e182882e082e59e36eea46cbe6341",
    "69984224ad05dde398463eec04ffc4cce33a490cf8d07bbd04f3ab8c189d39bd",
    "50cde737c055c1b304056bbea0f7c5fbe4e2fd5ff9bc97fdeeb14a3d5f1d0208",
    "5ce590bf56a39da8e716539eb8bdf48ace92844bf59d7426dae208d67ec959a0",
    "d6a6eb1aba19a481a5405a4f7bd40095dce752254594ec0569c7ce35c3e25e73",
    "3706a605220bdad0c949ff20dba3aff204e35f1cfa0b6b9dfbed1434b3730c09",
)) + _runs(_WIDE, "0.5", (
    "29f78f8cd35da4624f0b1826a10156ee277ba607457ce5502c7b390d3e720da6",
    "be608316edb9e4173b65257933a101138dca68d524d5dc0e5d7a0f7a9ce027cc",
    "71646170b2648347d0e6441c0524b26bb8236df341bf7fdf2d5ed7180b1e8462",
    "e6cf15b38d370ec51a8682bd24cde5666923477b69949160e0e24fadb18e8bb5",
)) + _runs(_WIDE, "0.7", (
    "e9093cc16977d582861cee5dbee3ed4caed27d89496b4112079c4c31f812ed6e",
    "bb267b32bb60237b254ebe41c44f768f251cd8abd662eded9c528e7765345524",
    "baee6b0e73b9b62126cde5e2f03e7c08853bd086e0d98de52f83bb94af6e1823",
    "2fa9301c438bbd1bc92c801026bc9a329ecb1aff0075a59825bfbc993d6d8abb",
)) + _runs(_EVAL, "0.7", (
    "1d799c17db0c45eaf515b1ce148dba1c7dcfd0c2b0721bd42dd1583022b4af5d",
    "b898706368a3ccadeb7b9b4e7abf7e9c13da40f63d1e0ced658de61f154f9e6d",
    "6c3afff2024afd2fbef58592aa64f9cbd0b9357c83d82cf624301cf25091b117",
    "67973b456bf28b5e598ce18554b7af5c70ee222832fe20bc731b9239e51cb981",
    "1d148a64d76ad17219735c0522d17bee488930512521222dedfb1f483cdf0130",
)) + _runs(_LONG, "0.9", (
    "b8da8603046bf1d6c370040094ac8bfd0b6cb408cf8d40c5ed1c32a1e9a72b6e",
    "b7ae100cbbbd84e0a9b3e1b18bd9b9b9653551dbe77151b1b8bdd65e8a5056d3",
    "690fdebbf208e7b20849248932c7e2b76e331fff3312ef00e62ab71bc2765470",
)) + _runs(_EXTREMAL_N24, "0.3", (
    "75b1ffbdd899c8202de0e207f353f9529896f7413649ef345f605134eb1946dc",
    "fdf309f06134d8e315eb82dec30c82ddd473099f46b64ff8a81a422bd713596f",
    "88b8b763f56795aa3393cd9cea0e185bdf294b512e591f63d6c86de93f97b6f3",
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
