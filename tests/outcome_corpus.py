"""The outcome corpus: a few hundred frames, each analysed under four option sets.

An outcome is the report JSON of ``analyze``, or, when it raises an
``ArsError``, the error's class, message and partial report.
``tests/data/outcome_corpus.json`` maps each outcome's id, which names the
frame and the option set, to the sha256 of its bytes, and
``test_outcome_corpus.py`` checks every digest.  Run this file to rewrite
the JSON and print the ids whose outcome moved::

    PYTHONPATH=src python tests/outcome_corpus.py

Regenerate only in a change that moves report bytes on purpose, and list
the moved ids and the reason with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

from ars.parser import parse_frame
from ars.pipeline import AnalyzeOptions, analyze, json_text
from ars.symcore import ArsError

import conftest

CORPUS_PATH = Path(__file__).resolve().parent / "data" / "outcome_corpus.json"
OFF_LOCUS_POINT = ("9/8", "-7/9")
RANDOM_FRAMES = 150
RANDOM_DEPTH = 4
STRATIFY_SAMPLES = 3
# the default cap of 64 gives no degree-cap outcome on these frames
LOW_DEGREE_CAP = "20"


def _text(names: list[str], fields: list[str], point=None) -> str:
    lines = ["vars " + " ".join(names)] + [f"field X{i + 1} = {f}" for i, f in enumerate(fields)]
    if point is not None:
        lines.append("point " + " ".join(point))
    return "\n".join(lines) + "\n"


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _family_text(n: int, rng: random.Random, chain: bool) -> str:
    """grushin_pow(n) (Xi = c_i x1^(i-1) d/dxi) or chain(n) (Xi = c_i x(i-1) d/dxi), X1 = d/dx1."""
    monomial = (lambda i: f"x{i - 1}") if chain else (lambda i: f"x1^{i - 1}")
    fields = ["d/dx1"] + [f"{_coefficient(rng)} {monomial(i)} d/dx{i}" for i in range(2, n + 1)]
    return _text([f"x{i}" for i in range(1, n + 1)], fields)


def _random_text(rng: random.Random, every_direction: bool) -> str:
    """n fields on R^n, n = 2..4, each a sum of terms of degree 0 to 2.

    With every_direction, field j also has a term along d/dx_j, so every
    direction is reached by some field and reports are not rare.
    """
    dim = rng.randint(2, 4)
    names = [f"x{j}" for j in range(dim)]

    def term(direction: int) -> str:
        exponents = [0] * dim
        for _ in range(rng.choice((0, 0, 1, 2))):
            exponents[rng.randrange(dim)] += 1
        factors = [names[j] if e == 1 else f"{names[j]}^{e}" for j, e in enumerate(exponents) if e]
        return " ".join([str(_coefficient(rng))] + factors + [f"d/d{names[direction]}"])

    fields = []
    for j in range(dim):
        directions = [j] if every_direction else []
        directions += [rng.randrange(dim) for _ in range(rng.randint(0 if every_direction else 1, 3))]
        fields.append(" + ".join(term(d) for d in directions))
    return _text(names, fields)


def frames() -> dict[str, tuple[str, int | None]]:
    """Frame id -> (frame text, max_bracket_depth)."""
    out: dict[str, tuple[str, int | None]] = {
        name: (getattr(conftest, name), None) for name in sorted(dir(conftest)) if name.endswith("_TEXT")
    }
    rng = random.Random(15)
    for n in range(3, 9):
        for chain in (False, True):
            out[f"{'chain' if chain else 'grushin_pow'}({n})"] = (_family_text(n, rng, chain), None)
    for k in range(1, 30):
        out[f"3/7 x^{k} d/dy"] = (_text(["x", "y"], ["d/dx", f"3/7 x^{k} d/dy"]), None)
        point = _text(["x", "y"], ["d/dx", f"3/7 x^{k} d/dy"], OFF_LOCUS_POINT)
        out[f"3/7 x^{k} d/dy @({', '.join(OFF_LOCUS_POINT)})"] = (point, None)
    rng = random.Random(150)
    for i in range(RANDOM_FRAMES):
        out[f"random({i})"] = (_random_text(rng, every_direction=i % 2 == 0), RANDOM_DEPTH)
    return out


# option set name -> (AnalyzeOptions keywords, ARS_MAX_DEGREE or None)
OPTION_SETS = {
    "default": ({}, None),
    "probe_flows": ({"probe_flows": True}, None),
    "stratify": ({"stratify": True, "samples": STRATIFY_SAMPLES, "seed": 0}, None),
    f"ARS_MAX_DEGREE={LOW_DEGREE_CAP}": ({}, LOW_DEGREE_CAP),
}


def outcome(text: str, options: AnalyzeOptions, degree_cap: str | None) -> tuple[str, bytes, dict | None]:
    """(class, bytes, report JSON dict or None) of one analysis.

    The class is "report", "degenerate" or the name of the ArsError raised.
    """
    with patch.dict(os.environ, {"ARS_MAX_DEGREE": degree_cap} if degree_cap else {}):
        try:
            report = analyze(parse_frame(text), options)
        except ArsError as exc:
            partial = exc.report.to_json_dict() if exc.report is not None else None
            payload = {"error": type(exc).__name__, "message": str(exc), "partial": partial}
            return type(exc).__name__, json_text(payload).encode(), partial
    degenerate = report.approximation is not None and report.approximation.degenerate
    payload = report.to_json_dict()
    return "degenerate" if degenerate else "report", json_text(payload).encode(), payload


def outcomes():
    """Yield (id, class, sha256, report JSON dict or None) for every frame and option set."""
    for frame_id, (text, depth) in frames().items():
        for set_name, (keywords, degree_cap) in OPTION_SETS.items():
            # a random frame's fields have degree <= 2 and its words length
            # <= RANDOM_DEPTH + 1, so the low cap cannot bind there
            if degree_cap is not None and depth == RANDOM_DEPTH:
                continue
            options = AnalyzeOptions(max_bracket_depth=depth, **keywords)
            kind, data, payload = outcome(text, options, degree_cap)
            yield f"{frame_id} / {set_name}", kind, hashlib.sha256(data).hexdigest(), payload


def main() -> int:
    old = json.loads(CORPUS_PATH.read_text(encoding="utf-8")) if CORPUS_PATH.exists() else {}
    new = {}
    classes: dict[str, int] = {}
    for outcome_id, kind, digest, _ in outcomes():
        new[outcome_id] = digest
        classes[kind] = classes.get(kind, 0) + 1
    for outcome_id in sorted(old.keys() | new.keys()):
        if old.get(outcome_id) != new.get(outcome_id):
            print("moved:", outcome_id)
    print("classes:", json.dumps(classes, sort_keys=True))
    CORPUS_PATH.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
