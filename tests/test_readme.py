"""The README's Python API and command-line examples run against the package as it is."""

import re
import shlex
from pathlib import Path

from symqfi import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    assert [r.error for r in names["rows"]] == [None, None, None]
    assert isinstance(names["alpha_opt"], float) and isinstance(names["f_opt"], float)


def command_line_examples():
    """The lines of the sh block under "## Command line", continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", text, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def test_command_line_examples_run_clean(tmp_path, monkeypatch, capsys):
    # each symqfi command exits 0 with an empty stderr, as CI runs the block
    # with the installed command; the printf line writes the config file
    monkeypatch.chdir(tmp_path)
    commands = set()
    for line in command_line_examples():
        printf = re.fullmatch(r"printf '(.*)' > (\S+)", line)
        if printf:
            Path(printf.group(2)).write_text(printf.group(1).replace("\\n", "\n"))
            continue
        argv = shlex.split(line)
        assert argv[0] == "symqfi", line
        assert cli.main(argv[1:]) == 0, line
        assert capsys.readouterr().err == "", line
        commands.add(argv[1])
    assert commands == {"scan-time", "scan-rotation", "steady-map", "verify"}
