"""The README's Library example runs as written, so a renamed public name
cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = library_blocks()
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()
    assert (tmp_path / "edges.csv").read_text().startswith("i,j,count\n")
    assert (tmp_path / "binary.csv").read_text().startswith("i,j\n")
