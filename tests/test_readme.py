"""The README's library example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)  # the example opens a bundled benchmark by its relative path
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("sat (define-fun reva ")
