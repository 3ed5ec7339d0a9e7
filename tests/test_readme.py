"""The README's examples run as written: each Python block on its own, and
the CLI lines of its shell blocks in order, in one empty directory."""

import pathlib
import re
import shlex

from rayfields import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_cli_lines_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("rayfields ")]
    assert [line.split()[1] for line in lines] == ["generate", "render", "fit", "bias-demo", "eval"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        try:
            code = cli.main(shlex.split(line)[1:])
        except SystemExit as exc:  # argparse rejects unknown flags this way
            code = exc.code
        assert code == 0, line
