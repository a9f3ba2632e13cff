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
    "5a70f96ae4dbb8ca7d829899536b5f1d4e22db1adc941db87dc332ded60cc50f",
    "d6000d95a089a4b4f75aebd0d85447454378e8bd554183ffae87fbf3919773fa",
    "02ff1618a0637196d748f4b96e5c2c828b052dcbe53b8ff59000653a6cea8161",
    "1948e3ca45abf2e33b6e6955137a9628b6fee00159bc42809d6fbfc8ab64c5c4",
    "6b2000d100d45cd392240431de49eb6249073de2931462018069993f260eacfd",
    "393c901d8bf1d229fddcd7a3bb7d5222733d7244a211a45cc82283044f26c0c7",
    "ebd677496ef28399a858839c0e9b7a2846f8e68e1ad8578083ae7ede33ab7814",
)) + _runs(_BASIC, "0.7", (
    "54f978c23af11523e265c8fb715092c01d4634ed34ff13c0aa3f2ce88e1f5b77",
    "6da6d4f4364678f0138fc89dee2a409e333d3105e06102338e364b5b99504ffb",
    "6593e9d06ac3d3131822fe304728223fbcdda2418a1292f602a3ad5782429eff",
    "4da7b782fd4414869f299b13699c7bd654edd1a78dc125a85c075870710e65cf",
    "a2004098250a05c298db44170084efe3d0fca048104bc8ecc88378eedf263169",
    "9077fccc9ee9a7bbbaf9e836c7645fab9b9d99db190edf8548ab8ecf039d070f",
    "b03142c084d9e24d08504a73f79cf0a11e3e36b1d034f833bd693383e30c1289",
)) + _runs(_WIDE, "0.5", (
    "797285835bd6593173bb0bd15de869b98cfea260445efb73ff03a109cb43cb07",
    "3c7215fcc570e2b1a18ec4deb146c5bd5a899cf277d7b7409b05a39b6c7e4ce8",
    "1dc91899362e674f63c63bced5e2fff19b0961a2cad55fe7e3693cc3edaececa",
    "0effded6123b1e4eb88f3e9b7302c82e6e42dfa1bb8d5dfa9f231b403175e403",
)) + _runs(_WIDE, "0.7", (
    "8e56b6d1046ae520255b8b75550aac0d71ac1aacb75e79fc6585f8a45655c329",
    "f152781036c1b3001be70084c79c9c956633756565dac05f7761bb1cb40b2864",
    "03986eccc5a88182d72e020ddcf481d14f2bc360fbffc35163675399b08ad3c7",
    "881f6bfb5ac73f55ddb9f50001b7f826aa16e2d250e3cadb7e6422cc13d4c333",
)) + _runs(_EVAL, "0.7", (
    "1d799c17db0c45eaf515b1ce148dba1c7dcfd0c2b0721bd42dd1583022b4af5d",
    "b898706368a3ccadeb7b9b4e7abf7e9c13da40f63d1e0ced658de61f154f9e6d",
    "6c3afff2024afd2fbef58592aa64f9cbd0b9357c83d82cf624301cf25091b117",
    "51759cb473d8cb471478826ea7cfaab47fd43759decd76029a969715d3fc0d4c",
    "1d148a64d76ad17219735c0522d17bee488930512521222dedfb1f483cdf0130",
)) + _runs(_LONG, "0.9", (
    "c4426209531ac1f54ce25f54e3293b4a96cdc04a5c0729ea26e22b6c6c4c3370",
    "8d48a9cb16d09ca93853e74b4491436837f292eb633d6442f19fb545e5bff38b",
    "89159e69877780b6e009268de894fd1a9647944aae9ed98a29ff932c6563dba3",
)) + _runs(_EXTREMAL_N24, "0.3", (
    "b477e4ebd85699241fe9d3961f2f7de3d50d81cafce8d6db3b3c9bd6297f63e9",
    "b28b661575c44509183ddd9db3f68d91bb883690e42e5dad65c58e7a21851bb7",
    "f9ca87c58561011dec503a9989fefdda708954a6434ed06fadf01e98104a969a",
)) + _runs(_CSV, "0.7", (
    "349cfb638c45109c57ea2b3ec6abbe821f13009b50b33c4a42039674210ddc0c",
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
