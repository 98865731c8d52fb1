"""The README's "Library" section: its example runs as written, and its public list is ``ars.__all__``."""

from __future__ import annotations

import re
from pathlib import Path

import ars

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    return README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]


def _library_example() -> str:
    return re.search(r"```python\n(.*?)```", _library_section(), re.DOTALL).group(1)


def _public_list() -> list[str]:
    """The names in the bullet list that follows "The public names are these"."""
    bullets = _library_section().split("The public names are these", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"`(\w+)`", bullets)


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


def test_public_list_is_ars_all():
    listed = _public_list()
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(ars.__all__)
    assert all(hasattr(ars, name) for name in listed)
