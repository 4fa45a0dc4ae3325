"""The README's library example and command lines run as printed, and
its family table states the brouwer size guard."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from etfforge import cli
from etfforge.construct import BROUWER_SIZE_GUARD

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
    # the example's last line prints the coherence, the Welch bound 1/4
    assert abs(float(out.getvalue().split()[-1]) - 0.25) < 1e-12


def test_readme_states_the_brouwer_size_guard():
    table = re.compile(r"^\| `brouwer` +\| `--q` prime power ≤ (\d+) ", re.M)
    rows = table.findall(README.read_text(encoding="utf-8"))
    assert rows == [str(BROUWER_SIZE_GUARD)]


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch):
    # every etfforge line of the "Command line" block, in order, in one
    # fresh directory: the verify and export lines read what construct wrote
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("etfforge ")]
    assert len(lines) == 11
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(shlex.split(line)[1:]) == 0, line
