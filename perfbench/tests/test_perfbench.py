"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench/tests -q

Each workload runs once per trace mode in ``--quick`` form: tiny inputs
through the same code paths as a full run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"

sys.path.insert(0, str(BENCH_DIR))
from spans import Patcher, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = {m["name"]: m for m in
          json.loads((BENCH_DIR / "layers.json").read_text())["metrics"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
E2E = {m["name"] for m in BENCH["end_to_end"]}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN if cwd == ROOT else
                                               cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def quick_results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", workload, "--seed", "5",
                        "--seconds", "30", "--trace", str(trace), "--quick")
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200


def test_layer_map_matches_benchmark_json():
    """Every per-layer metric says which end-to-end metric it should move
    and where, with the unit and direction BENCHMARK.json gives it."""
    assert [m["name"] for m in BENCH["per_layer"]] == list(LAYERS)
    for m in BENCH["per_layer"]:
        layer = LAYERS[m["name"]]
        assert (layer["unit"], layer["better"]) == (m["unit"], m["better"])
        assert set(layer["moves"]) <= E2E
        assert set(layer["large_on"]) | set(layer["small_on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_run_emits_every_metric(quick_results, workload, trace):
    result = quick_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_traced_wall(quick_results, workload):
    metrics = quick_results[workload, 1]["metrics"]
    parts = [metrics[n]["value"] for n, layer in LAYERS.items()
             if layer["kind"] in ("self", "residual")]
    assert all(p >= -1e-9 for p in parts)
    assert math.isclose(sum(parts), metrics["bench.traced_wall_s"]["value"],
                        rel_tol=1e-9)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_exclude_nested_spans():
    tracer = Tracer()
    for name in ("outer", "inner", "outer"):
        tracer.push(name)
    for _ in range(3):
        tracer.pop()
    total = sum(tracer.self_s.values())
    assert math.isclose(total, tracer.root_s, rel_tol=1e-12)
    assert tracer.calls == {"outer": 2, "inner": 1}
    assert tracer.incl_s["outer"] == pytest.approx(tracer.root_s)


def test_patcher_restores_originals():
    class Thing:
        def own(self):
            return "own"

    class Child(Thing):
        pass

    tracer = Tracer()
    with Patcher(tracer) as p:
        p.wrap(Child, "own", "child.own")
        assert Child().own() == "own"
        assert "own" in vars(Child)
    assert "own" not in vars(Child)
    assert tracer.calls["child.own"] == 1
