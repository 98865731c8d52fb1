"""Self-test of the benchmark; run with ``python3 bench/selftest.py``.

It checks that
- the smoke mode passes: one pass of every workload with all output
  checks, and the traced bracket counts of E3 and grushin_pow(9) equal the
  ROADMAP baseline;
- a short measuring run prints, as its last line, a result with exactly the
  end-to-end metrics of BENCHMARK.json (``--trace 0``) or exactly its
  per-layer metrics (``--trace 1``);
- per-layer counts repeat exactly across traced runs, also under another
  string hash seed;
- in a directory that holds only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, *args: str, hash_seed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    return result


def check_smoke() -> None:
    proc = bench(ROOT, "--smoke")
    print(proc.stdout, end="")
    assert proc.returncode == 0 and "smoke: PASS" in proc.stdout, proc.stderr[-2000:]


def check_result_shape() -> None:
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = result_of(bench(ROOT, "--workload", "paper_frames", "--seed", "3",
                                 "--seconds", "2", "--trace", trace))
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == want, (section, sorted(set(got) ^ set(want)))
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
            if section == "end_to_end":
                assert m["value"] > 0, name


def check_counts_repeat() -> None:
    runs = [result_of(bench(ROOT, "--workload", "paper_frames", "--seed", "5", "--seconds", "1",
                            "--trace", "1", hash_seed=h))["metrics"] for h in ("0", "1")]
    for name, m in runs[0].items():
        if m["unit"] != "ms":
            assert runs[1][name] == m, (name, runs[1][name], m)


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "paper_frames", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    for check in (check_smoke, check_result_shape, check_counts_repeat, check_bare_directory):
        check()
        print(f"selftest {check.__name__}: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
