"""The README's "Library" example runs as written and gives the values its comments state."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_matches_its_comments():
    names: dict = {}
    exec(compile(_library_example(), "README.md", "exec"), names)
    assert names["growth"].dims == (1, 2)
    assert names["weights"] == (1, 2)
    A = names["A"]
    assert (A.k, A.m) == (1, 2)
    assert len(names["L"]) == 3
    assert len(names["G"]) == 2
    assert names["labels"] == ("invariant", "linear")
    assert names["det"].format(names["frame"].var_names) == "x"
