"""Smoke test of the benchmark itself, at its tiny input sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that every workload runs through the real command in both modes and
emits exactly the metric names and units BENCHMARK.json declares, and that
the correctness checks turn a corrupted verify digest and a failing cdf_cf
into failed operations.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from quadconc import oracle  # noqa: E402
from quadconc.errors import NumericalError  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _in_process(workload, traced, tmp_path):
    spec = dict(workload=workload, seed=workloads.DEFAULT_SEED, tiny=True, tmpdir=str(tmp_path),
                traced=traced, offset=0, ops=1, seconds=None,
                spans_out=str(tmp_path / "spans.json"), t_spawn=0.0)
    return worker.run(spec)


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_declaration(workload, trace, section):
    summary = _bench(workload, trace)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in DECLARED[section]}


def test_corrupted_verify_digest_fails(tmp_path, monkeypatch):
    key = ("verify-wide", True)
    monkeypatch.setitem(workloads.EXPECTED_DIGESTS, key, "0" * 64)
    result = _in_process("verify-wide", False, tmp_path)
    assert result["failed"] / result["attempted"] > 0
    assert "recorded" in result["failures"][0]


def test_cdf_cf_failure_counts(tmp_path, monkeypatch):
    def broken(form, t):
        raise NumericalError("forced failure", accuracy=1.0)

    monkeypatch.setattr(oracle, "cdf_cf", broken)
    result = _in_process("matrix-exact", True, tmp_path)
    assert result["failed"] / result["attempted"] > 0
    assert result["layers"]["oracle.cdf_cf"]["failed"] == result["layers"]["oracle.cdf_cf"]["calls"]


def test_untouched_checkout_is_refused():
    with tempfile.TemporaryDirectory() as bare:
        (Path(bare) / "bench").mkdir()
        for path in BENCH.glob("*.py"):
            (Path(bare) / "bench" / path.name).write_text(path.read_text())
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    assert proc.returncode != 0 and proc.stdout == ""
