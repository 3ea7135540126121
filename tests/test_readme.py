"""The README's library example runs as written, and it names every
operator of the SMT-LIB syntax table."""

import re
from pathlib import Path

from stpchc.formulas import SYNTAX

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)  # the example opens a bundled benchmark by its relative path
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("sat (define-fun reva ")


def test_printed_models_paragraph_names_every_head():
    text = (ROOT / "README.md").read_text()
    paragraph = re.search(r"^Printed models\..*?(?=\n\n)", text, re.S | re.M).group(0)
    for head, _, _ in SYNTAX.values():
        assert f"`{head}`" in paragraph, head
