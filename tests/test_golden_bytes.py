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
    "e3f81dde5b6f4a5592538a5d182f3e89259ac99c156891ecfb2339aba2c9b817",
    "251e4afc8cd20524070c50facb16dcae3c08acd49bb0289dc838f97fcda547b8",
    "e79e2477e4f9b874a48f36ff912b4f9409875339c035d7c5de9c9182a647b08d",
    "a807ae8432e9cef0ea13b1323a1f0957866be3a0396b6d29c8aa2d69231a7196",
    "6b2000d100d45cd392240431de49eb6249073de2931462018069993f260eacfd",
    "b290a8dfa8ff2284186bd665f79b4347d74a03477dd8e875c6815401e187134c",
    "9d437bfa047803a6aa0221edfdd7fd6bb20cfef718c5c3e8973af77e126ff23b",
)) + _runs(_BASIC, "0.7", (
    "418849f09b11c8a7defa8975f4a2598eee544cf67cf3f91fe3a6ca4490a187f0",
    "8834f59b55d763c6c7f81204273f1d45334a9b05381664b224d9bbd1b7c8d37b",
    "2b59a8c6a2027445403bde59d9bf5356c3f065dc4df4c4802584f182624ce6be",
    "eecdbe6ce8c67cf993e1f4ce217b6a44f4ab9e2724f65f002d79daa0fed78ac3",
    "fec8e23f1d05095679cb43efe29b4521b64f13402410828bb0f25d96d2331558",
    "466de5f046a51b9b64eaaebbb4a0ce8c673b1c629ee82e44f997f08ec869c3db",
    "3fa7f1698135fb574eeaef0926cd924f204a769d782f1f229af901a769c111e7",
)) + _runs(_WIDE, "0.5", (
    "9823f7e85cafd991bd3f28d36dadac1b19a97ed9ccb926c8041bd33957c79248",
    "5e5bbc4acf6eea1c339dc0c5f59f28c237c2d03dcefe1dc38c4a6b4a5f8ac16f",
    "0d4da152d71acb1cf269d13bc7769dafd36f792d424f324d8e6c48cacaebfc59",
    "dc53fc24d9edb69176155d08d6aa5b38613d8c1325f324b1c0ca39e48013e394",
)) + _runs(_WIDE, "0.7", (
    "3993829d6304572e158fc0fc89a268031c3aeb014ec8d980ddebb7fd82bedc56",
    "9e9c6bf55da5ce1c2dd58e291dc1357a3ba71a2f42f3281d6c458e62fd617a72",
    "0a85c51af30208101773716d95ffa08ca5c61c7c6172ad9d260f7716923fb8a3",
    "705c01cb69e1eced205fe0456f26a540235c348f232a6001bfae1ec5764ec15c",
)) + _runs(_EVAL, "0.7", (
    "1d799c17db0c45eaf515b1ce148dba1c7dcfd0c2b0721bd42dd1583022b4af5d",
    "b898706368a3ccadeb7b9b4e7abf7e9c13da40f63d1e0ced658de61f154f9e6d",
    "6c3afff2024afd2fbef58592aa64f9cbd0b9357c83d82cf624301cf25091b117",
    "67973b456bf28b5e598ce18554b7af5c70ee222832fe20bc731b9239e51cb981",
    "1d148a64d76ad17219735c0522d17bee488930512521222dedfb1f483cdf0130",
)) + _runs(_LONG, "0.9", (
    "3277bbead0b275366d214eff1a20e12ad1301ff2258fcea70333862463d67020",
    "8a877fb5b6c2736d4aaa3b79d296ec812fbe3882a195a47946b06af754c7659e",
    "d10b12c2699f087813475239cb2c06a38bc17babb4f3569766a0aadfb614a823",
)) + _runs(_EXTREMAL_N24, "0.3", (
    "0e4d06b7ed80b40847a79ad932b316c2ec2a4f31f614a16594df7d379eb34276",
    "eaf5d5513223eb3dbcc3b9a69fbab39b71e2311413141c061239a8935e927a04",
    "2ea9601f9d411ff30def7a3497594f88137452bdd5f5847375cedbfd0b96c461",
)) + _runs(_CSV, "0.7", (
    "fbc5e5724ba65be0b5a8b856305923a7f6e02432d9e62f7d1ed0708f910b0985",
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
