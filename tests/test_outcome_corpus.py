"""Every outcome of the committed corpus keeps its bytes (see ``outcome_corpus.py``)."""

from __future__ import annotations

import json
from collections import Counter

from conftest import time_limit
from outcome_corpus import CORPUS_PATH, outcomes

# each class of outcome the corpus must keep covering
MINIMUMS = {
    "report": 500,
    "RankConditionFailure": 130,
    "NotPrivileged": 75,
    "DegreeBoundExceeded": 8,
    "degenerate": 12,
    "affine label": 24,
    "non-origin point": 116,
}


def test_outcome_corpus_bytes_are_unchanged():
    expected = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    digests = {}
    counts = Counter()
    with time_limit(5):
        for outcome_id, kind, digest, payload in outcomes():
            digests[outcome_id] = digest
            counts[kind] += 1
            if payload is None:
                continue
            labels = payload.get("lie_algebra", {}).get("classification", {}).get("labels", [])
            counts["affine label"] += "affine" in labels
            counts["non-origin point"] += any(c != "0" for c in payload["base_point"])
    moved = sorted(i for i in expected.keys() | digests.keys() if expected.get(i) != digests.get(i))
    assert not moved, f"{len(moved)} outcomes moved, e.g. {moved[:5]}"
    assert all(counts[kind] >= n for kind, n in MINIMUMS.items()), counts
