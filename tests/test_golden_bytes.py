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
    "b21375a2e7ebac5f1fca668aecf3b224f9750ba37c677a90e1be771430e88904",
    "c0033b3c17c74e6ae3d306ede8e9cd55dc47cfe03ae4a5912bc754b9897f0fa3",
    "7b253064b5d9e53f597cb78573d85eff4d683950793c65a2da0c347a860d6f5c",
    "736a18835cb84e37992c139e3a49a16d182240b8e64dd7565a9780b9405655b7",
    "5840d754574209f4861bcf2d715d21c429bd07000411125cdfeeefb20b3e03e1",
    "7efdee2110dcbe8ee239d2e378d067112192631d5539e0977a381ce9c5a1b266",
    "c47e8575b3a35aa829ac586da8a0a1045512f5e93773649dec29d66ab64bdd80",
)) + _runs(_BASIC, "0.7", (
    "507dc9bb9e8ae5adc7a998826a8585456de5fae2a96cb9fe12d1b182da5c6111",
    "7488c9a3f9ed6b3dda85f80c3cdba3ca15b6b941d7c6cacce0644eba23d4d116",
    "2018aa4d8ff15118f7808227ee5971ab32f56f384271a60b1f86f104d4218fb2",
    "bec85feb5558013da15eddd94eac96e49a5f2d880f3b28e9786e107d3c9620ef",
    "387b876f50d48dca4c96749a4dd11347f86e3e82e00ac74961c9877ea0148b5f",
    "0c83db4571196b500439286633541451f96a8ff85ce4b1f592342ebf43702636",
    "e84dbd44503ded7f788ec839efb9a8251da297b457ef932025ab04e7e551ade4",
)) + _runs(_WIDE, "0.5", (
    "0d6f86346f1d91a5f645a861cd530e408f7d2f8412cd373fc8a17c0a13f0a0e5",
    "74e88cb772e51aa8d44b5b7530f4a12b7354d9d4c31c15b4e93a1230b8507bca",
    "cd1e22ada92fd7e43d75c70dc1e31dd801ad14b399269cf77b45e7de744dd40b",
    "6d95395d8c69463a3574add9154175e8cfe4c89d86b53d0a839c74c702b7d4a9",
)) + _runs(_WIDE, "0.7", (
    "41473295a58cf4a77026a6f61c156074abfed4a8264dfa99e1ad719b1b8b42ff",
    "263f1afb7d1597f3d3e2029761f5c00f28185b4732a0a040d6060da746a22224",
    "1785e55803805439ce7904deb1eb1926d1762ae4a76f7a38c177b678ecd10a12",
    "9d047d1d9ba1c73acd665632684d040d92c12d328f7b8b641a503813163d692f",
)) + _runs(_EVAL, "0.7", (
    "1d799c17db0c45eaf515b1ce148dba1c7dcfd0c2b0721bd42dd1583022b4af5d",
    "b898706368a3ccadeb7b9b4e7abf7e9c13da40f63d1e0ced658de61f154f9e6d",
    "6c3afff2024afd2fbef58592aa64f9cbd0b9357c83d82cf624301cf25091b117",
    "67973b456bf28b5e598ce18554b7af5c70ee222832fe20bc731b9239e51cb981",
    "1d148a64d76ad17219735c0522d17bee488930512521222dedfb1f483cdf0130",
)) + _runs(_LONG, "0.9", (
    "d7999bde81ad9d2675b0608d744dce448c85a98b68c22f1c65ecbec8ade3868a",
    "a96b5bc1f4a7051b3818bf650862d1aed7e36e06be534464b1f7d7160f226e1d",
    "198dabb11b986683d6709814e4c4aa047f119febb633a9b2ec483266da6ae5a6",
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
