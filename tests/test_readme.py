"""README examples run as written: its command lines exit 0 and its python blocks execute."""

import re
import shlex
from pathlib import Path

import pytest

from heispde import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def _command_lines():
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    joined = "\n".join(_blocks(section, "sh")).replace("\\\n", " ")
    return [" ".join(line.split()) for line in joined.splitlines() if line.strip().startswith("heispde ")]


def test_the_readme_has_examples():
    assert len(_command_lines()) >= 7 and len(_blocks(README, "python")) >= 2


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_exits_0(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    # One namespace, as a reader going down the page would have.
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for k, block in enumerate(_blocks(README, "python")):
        exec(compile(block, f"README python block {k}", "exec"), namespace)
