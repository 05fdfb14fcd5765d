"""The README's Library example runs as written, and its config.json is the
desk profile, so a renamed public name or a changed default cannot leave it
stale."""

import re
from pathlib import Path

from crmgraph.experiment import DESK_PROFILE, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def section_blocks(heading: str, language: str) -> list[str]:
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = section_blocks("Library", "python")
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()
    assert (tmp_path / "edges.csv").read_text().startswith("i,j,count\n")
    assert (tmp_path / "binary.csv").read_text().startswith("i,j\n")


def test_config_block_is_the_desk_profile(tmp_path):
    [block] = section_blocks("Sweep configuration", "json")
    path = tmp_path / "config.json"
    path.write_text(block)
    assert load_config(path) == DESK_PROFILE
