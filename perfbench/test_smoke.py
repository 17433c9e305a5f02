"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs on two games in both modes; every metric named in
``BENCHMARK.json`` must come out, and a deliberately wrong reference value
must show up as a failed operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "0", "--seconds", "1",
         "--games", "2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted(workload, trace, section):
    result = bench("--workload", workload, "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_wrong_reference_value_fails_the_operation(tmp_path):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["exact_lp"]["fixed"]["example_4x2/ce"] = "12345/7"
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference), encoding="utf-8")
    result = bench("--workload", "exact_lp", "--trace", "0", "--reference", str(wrong))
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
