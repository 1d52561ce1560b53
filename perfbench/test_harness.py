"""Self-test of the benchmark harness, at test scale.

    python3 -m pytest perfbench/test_harness.py -q

It runs every workload through ``run.py --scale fast`` (catalog fast
specs and test inputs) in both modes and checks that each metric named
in BENCHMARK.json appears with its unit, and that a corrupted payload
is counted as a failed operation instead of passing.  About two
minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "fast"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_named_metric_appears_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def _report(capsys, *argv: str) -> dict:
    assert child.main(["run", "--workload", "replay", "--scale", "fast",
                       "--digests", str(HERE / "digests.json"), *argv]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture()
def program_env(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "cache"))


def test_intact_payload_passes(program_env, capsys):
    assert run.tally(_report(capsys)) == (2, 0)


def test_corrupted_payload_is_counted_as_an_error(program_env, capsys, monkeypatch):
    real = child.run_unit

    def corrupted(unit, args):
        body, view = real(unit, args)
        payload = json.loads(body)
        row = payload["rows"][0]
        field = next(key for key, value in row.items() if isinstance(value, float))
        row[field] += 0.5
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(), view

    monkeypatch.setattr(child, "run_unit", corrupted)
    report = _report(capsys)
    assert [unit["ok"] for unit in report["units"]] == [False, False]
    assert run.tally(report) == (2, 2)
