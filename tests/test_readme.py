"""The README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    snippet = re.search(r"```python\n(.*?)```", text, flags=re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    error = float(capsys.readouterr().out.strip())
    assert 0.0 <= error <= 1.0
