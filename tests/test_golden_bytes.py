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

# Extremal Grams past the default a and N, where the window scan's majorant
# evaluates only the coefficient rows that can attain its max.
_FILTER = {
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
    "0d1fde92351e9104fabe2d0258c692c5afc243d4016e748f8d83b2a3713b4e83",
    "c0fd1b63cbda1baa04f196524aafb678b3394de4de962611dbfd33a848ccdb73",
    "44d40e5d6e5f7f9fb5600a4ea9013b10817df4ebeb5379ee37ae6f94dc9fad23",
    "cbad1af90bd74a64f83f018d13d887a92f96726470c87b36f9707032038722ac",
    "d37cca6adce608be519e28cfe8307998248d941da54f03fde7395e703d19ee78",
    "f8ad261412f5c959686eda58353136581bd7ed97212ca18f6cdd4ebd8d7e6af5",
    "d6a026e95c19c2bbe466a782659e8ffc2056748e57c1862a3734b1a5b874a871",
)) + _runs(_BASIC, "0.7", (
    "d3cea245db4bfe7a84281b14e5b0057872159d62f5ea050369a440bc508c6c3f",
    "3dcf361da00bca8427b23c962a759c0070a76f9d79b5d998592572a1cb5dce74",
    "2ad504033f8974c3c85a7ef1d81deacd852a0e6bc54c11a09e516b8bdc4ad5bf",
    "50cde737c055c1b304056bbea0f7c5fbe4e2fd5ff9bc97fdeeb14a3d5f1d0208",
    "aaa0f511947da73cb1e67f36b1727c66842a07b97d6628a8a233fdd358c083e3",
    "d6a6eb1aba19a481a5405a4f7bd40095dce752254594ec0569c7ce35c3e25e73",
    "e05a57f6e25cd4bdfc1971f75f5b3a01bc2030c3c9e3e8d3e8f02fe5199aaa11",
)) + _runs(_WIDE, "0.5", (
    "29f78f8cd35da4624f0b1826a10156ee277ba607457ce5502c7b390d3e720da6",
    "410f7a06b8d98974e121e43908edc3c8ae47b307fdc533d7b82474ba86bbdace",
    "fae43c8bf8377e7c892b11d308a015cf534a026dbe717827430789361d7b8658",
    "067d5ea7937a4422abd219802d3b61f04894cedb86f182acca330a0035a36331",
)) + _runs(_WIDE, "0.7", (
    "e9093cc16977d582861cee5dbee3ed4caed27d89496b4112079c4c31f812ed6e",
    "fddbf682f388aaa547883fad3e018d47e43057f9dcf064c051fded3369954f68",
    "4ac2778b64083dfc83152c63e03ac80e77715cf9ac58670cbd4991089a1ee9d6",
    "2f7362a2231c396c5dc5305776a8f4a78007e2258d7700aa79104c512e19d0c6",
)) + _runs(_EVAL, "0.7", (
    "1d799c17db0c45eaf515b1ce148dba1c7dcfd0c2b0721bd42dd1583022b4af5d",
    "b898706368a3ccadeb7b9b4e7abf7e9c13da40f63d1e0ced658de61f154f9e6d",
    "6c3afff2024afd2fbef58592aa64f9cbd0b9357c83d82cf624301cf25091b117",
    "67973b456bf28b5e598ce18554b7af5c70ee222832fe20bc731b9239e51cb981",
    "1d148a64d76ad17219735c0522d17bee488930512521222dedfb1f483cdf0130",
)) + _runs(_LONG, "0.9", (
    "bc62860f67b54cb71e705ae313b416db4c42a00c56442323f0cdffb6e17023c6",
    "1a7cf84ee445e315c0db1f770d95936d75970d2b3444a8ea8dd383e1e2642094",
    "f80877b27dc52e4f68403d945678ae69c632603250e668b4cc4fb26a3b9302ff",
)) + _runs(_FILTER, "0.3", (
    "9c86c82696acaf6300e028c98074b75ea21e0c4b1baa8339e0e9caecc067ed6a",
    "fdf309f06134d8e315eb82dec30c82ddd473099f46b64ff8a81a422bd713596f",
    "13666a1e018931786e82e01cdea8d6f73d40d90045eff4f1e10440b884d315a1",
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
