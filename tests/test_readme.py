"""The README stays true: its CLI examples run, and its JSON sample has the
keys and the names that `gram --output json` emits."""
import json
import pathlib
import re
import shlex

import pytest

from qortho.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title):
    """The text of the README section `## title`, up to the next one."""
    return re.search(r"^## %s\n(.*?)(?=^## |\Z)" % re.escape(title), README,
                     re.M | re.S).group(1)


def _blocks(title, lang):
    """The fenced `lang` code blocks of a README section."""
    return re.findall(r"^```%s\n(.*?)^```" % lang, _section(title), re.M | re.S)


_COMMANDS = [shlex.split(line, comments=True)[1:]
             for block in _blocks("CLI", "sh") for line in block.splitlines()
             if line.startswith("qortho ")]
_SAMPLE = json.loads(_blocks("Output formats", "json")[0])


@pytest.fixture(autouse=True)
def clean_env(monkeypatch, tmp_path):
    monkeypatch.delenv("QORTHO_BITS", raising=False)
    monkeypatch.delenv("QORTHO_TOL_EXP", raising=False)
    monkeypatch.chdir(tmp_path)


def test_the_cli_section_has_examples():
    assert len(_COMMANDS) >= 10


@pytest.mark.parametrize("argv", _COMMANDS, ids=" ".join)
def test_cli_example_exits_zero(capsys, argv):
    assert main(argv) == 0


def _gram(capsys, *argv):
    assert main(["gram", "--N", "1", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_json_sample_has_the_emitted_keys(capsys):
    assert list(_SAMPLE) == list(_gram(capsys))


def test_json_sample_names_are_the_emitted_names(capsys):
    # Every measure the CLI offers, the base one in both parities.
    runs = [("--measure", "hermite-extremal")]
    runs += [("--measure", "dual-base", "--parity", p) for p in ("even", "odd")]
    runs += [("--measure", m) for m in ("dual-qinv-extremal", "dual-q-extremal")]
    reports = [_gram(capsys, *argv) for argv in runs]
    for key in ("family", "measure"):
        assert _SAMPLE[key].split(" | ") == list(dict.fromkeys(r[key] for r in reports))


def test_library_example_runs(capsys):
    # It sets no precision of its own: every function reads its context.
    [block] = _blocks("Library", "python")
    exec(block, {})
    assert capsys.readouterr().out.startswith("7.0\nTrue ")
