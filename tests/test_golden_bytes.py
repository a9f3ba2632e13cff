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
    "e3f81dde5b6f4a5592538a5d182f3e89259ac99c156891ecfb2339aba2c9b817",
    "251e4afc8cd20524070c50facb16dcae3c08acd49bb0289dc838f97fcda547b8",
    "e79e2477e4f9b874a48f36ff912b4f9409875339c035d7c5de9c9182a647b08d",
    "a807ae8432e9cef0ea13b1323a1f0957866be3a0396b6d29c8aa2d69231a7196",
    "6b2000d100d45cd392240431de49eb6249073de2931462018069993f260eacfd",
    "b290a8dfa8ff2284186bd665f79b4347d74a03477dd8e875c6815401e187134c",
    "9d437bfa047803a6aa0221edfdd7fd6bb20cfef718c5c3e8973af77e126ff23b",
)) + _runs(_BASIC, "0.7", (
    "5c439635dfb97092c8c3ffad1fb1b1c4728e41b159f0806651309b63d87d7764",
    "0f6421d0755e08da50d2c3316d2ba268ebb13c411cd68837d5f0899d09ae4ea2",
    "3c9bc7641cee8d436f3863f27509dfd91018f25885a1c34b2579b74a17ff9d3f",
    "eecdbe6ce8c67cf993e1f4ce217b6a44f4ab9e2724f65f002d79daa0fed78ac3",
    "fec8e23f1d05095679cb43efe29b4521b64f13402410828bb0f25d96d2331558",
    "466de5f046a51b9b64eaaebbb4a0ce8c673b1c629ee82e44f997f08ec869c3db",
    "4c3f42b62c3ec8cd376e55f64eeeafba0523555e6d038ca8033dad36deb34925",
)) + _runs(_WIDE, "0.5", (
    "9823f7e85cafd991bd3f28d36dadac1b19a97ed9ccb926c8041bd33957c79248",
    "5e5bbc4acf6eea1c339dc0c5f59f28c237c2d03dcefe1dc38c4a6b4a5f8ac16f",
    "0d4da152d71acb1cf269d13bc7769dafd36f792d424f324d8e6c48cacaebfc59",
    "dc53fc24d9edb69176155d08d6aa5b38613d8c1325f324b1c0ca39e48013e394",
)) + _runs(_WIDE, "0.7", (
    "6b1c638b87bab882a6c790212d506aab1cabc6b2edb6c5975dc7ffc880a5159c",
    "471eb08ae4f94a7f459fc93fae1b5ed479b5163d19fdda7d9904cdf25e33c03f",
    "6ac3c4116576f54980465c0ca1086a50586083b09af3652ecf411bc4fcc138e7",
    "56812aed67b625100fb9664344b9df97f7c341d2b78752876d590e4683be4e62",
)) + _runs(_EVAL, "0.7", (
    "1d799c17db0c45eaf515b1ce148dba1c7dcfd0c2b0721bd42dd1583022b4af5d",
    "b898706368a3ccadeb7b9b4e7abf7e9c13da40f63d1e0ced658de61f154f9e6d",
    "6c3afff2024afd2fbef58592aa64f9cbd0b9357c83d82cf624301cf25091b117",
    "67973b456bf28b5e598ce18554b7af5c70ee222832fe20bc731b9239e51cb981",
    "1d148a64d76ad17219735c0522d17bee488930512521222dedfb1f483cdf0130",
)) + _runs(_LONG, "0.9", (
    "c771c553ac39264ab208443463f0197d01fa3faae9ef95b1a0c3a659859e52fd",
    "ded0531575676a42de15be077c1b0eb2e942b668837ac620173bc0e5220094f8",
    "05833c7e9cbb1af65e618d10f3e68dbcee277f869340e91c9d95601185ff0caa",
)) + _runs(_EXTREMAL_N24, "0.3", (
    "2318c42a15efaa983641e496c54cc3de152273044dc4d26eb2001dfc53833981",
    "7d78b2a55bea62baf46182a207d2c0988efe6e528b63d0dbd382122aec8fbcee",
    "d69c4cbfd2e42c5168c89b8e06118732fc4af88af471cd4df23b18bf77cd088e",
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
