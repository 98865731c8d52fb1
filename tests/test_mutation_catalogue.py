"""The mutation catalogue of tests/mutations.py still applies to the tree it tests."""

from __future__ import annotations

import re

import pytest

import mutations


def test_catalogue_ids_are_unique():
    ids = [entry[0] for entry in mutations.ENTRIES]
    assert len(ids) == len(set(ids)) >= 12


@pytest.mark.parametrize("entry", mutations.ENTRIES, ids=[entry[0] for entry in mutations.ENTRIES])
def test_mutation_applies_exactly_once(entry):
    # a mutation whose text has moved would run its tests on the unmutated code
    _, file, old, new, tests = entry
    assert old != new and (mutations.ROOT / file).read_text(encoding="utf-8").count(old) == 1
    # each named test exists, so a renamed test cannot leave a mutant unrun
    assert tests
    for node in tests:
        path, _, name = node.partition("::")
        assert re.search(rf"^def {re.escape(name)}\(", (mutations.ROOT / path).read_text(encoding="utf-8"), re.M)
