"""The ```python examples of README.md run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_example_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # examples that write files write them here
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
