"""Tests of the benchmark itself: every workload end to end at a tiny size,
traced and untraced, and wrong program outputs caught by the checks."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import inputs  # noqa: E402
from relcr import cli, homcount  # noqa: E402

TINY = 0.05


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_workload_runs_and_checks_out(tmp_path, workload, trace):
    doc = harness.run(workload, seed=3, seconds=0, trace=trace,
                      workdir=tmp_path / "work", scale=TINY)
    assert doc["errors"] == [] and doc["failures"] == []
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(doc["metrics"]) == list(expected)
    for name, m in doc["metrics"].items():
        assert m["unit"] == expected[name]
        if not trace:
            assert m["value"] > 0, name
    assert not (tmp_path / "work").exists()
    assert (tmp_path / ("trace-%s-s3.json" % workload)).exists() == trace


def test_same_seed_same_inputs():
    for make in inputs.WORKLOADS.values():
        a, b = make(11, TINY), make(11, TINY)
        assert [s.text() for s in a.structures()] == [s.text() for s in b.structures()]


def test_wrong_verdict_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "rcr_distinguishes", lambda A, B: None)
    doc = harness.run("random-sparse", seed=3, seconds=0, trace=False,
                      workdir=tmp_path / "work", scale=TINY)
    assert not doc["correct"]
    assert any("size pair decided" in e for e in doc["errors"])
    assert any("rewired pair decided" in e for e in doc["errors"])


def test_wrong_count_is_rejected(tmp_path, monkeypatch):
    real = homcount.hom_acyclic
    monkeypatch.setattr(homcount, "hom_acyclic",
                        lambda C, J, A: real(C, J, A) + 1)
    doc = harness.run("oracles", seed=3, seconds=0, trace=False,
                      workdir=tmp_path / "work", scale=TINY)
    assert not doc["correct"]
    assert any(e.startswith("homcount") for e in doc["errors"])


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
