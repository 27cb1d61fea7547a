"""The README's Python API example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    assert [r.error for r in names["rows"]] == [None, None, None]
    assert isinstance(names["alpha_opt"], float) and isinstance(names["f_opt"], float)
