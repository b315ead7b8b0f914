"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_readme_library_use_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "readme"})
    assert (tmp_path / "out" / "report.json").is_file()
    assert len(capsys.readouterr().out.splitlines()) == 3
