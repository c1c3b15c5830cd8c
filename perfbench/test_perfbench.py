"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run the real workloads for their shortest time, so they take a few
minutes.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from melformer import harness, model  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_once(capsys, workload, trace, seconds=0):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_matches_metric_specs():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [spec[:3] for spec in metrics.PER_LAYER]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert ("setup_s", "s", "lower") in [(m["name"], m["unit"], m["better"])
                                         for m in doc["end_to_end"]]
    assert max(m["bound"] for m in doc["end_to_end"]) <= 0.25


def test_declared_ops_are_the_ops_the_engine_defines():
    assert set(metrics.OPS) <= set(tracing.op_names())


def test_self_time_subtracts_children_of_the_same_kind():
    L, O = tracing.LAYER, tracing.OP
    records = [
        ["step", L, 0.0, 10.0, -1, 0, None],
        ["attention", L, 1.0, 5.0, 0, 0, None],
        ["matmul.fwd", O, 2.0, 4.0, -1, 0, None],   # inside attention, but an op
        ["linear", L, 6.0, 9.0, 0, 0, None],
    ]
    self_s, dur = tracing.self_times(records)
    assert dur == [10.0, 4.0, 2.0, 3.0]
    assert self_s == [3.0, 4.0, 2.0, 3.0]


def test_untraced_run_emits_every_end_to_end_metric(capsys):
    for workload in workloads.WORKLOADS:
        report, result = run_once(capsys, workload, trace=0)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == {n: u for n, u, _, _ in metrics.END_TO_END}
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert report["samples"]["requests"] >= 120     # twelve beyond p90
        assert report["environment"]["nproc"] >= 1


def test_traced_run_emits_every_layer_metric_and_repeats_counts(capsys):
    counts = []
    for _ in range(2):
        report, result = run_once(capsys, "train-quick", trace=1)
        assert result["correct"]
        assert list(result["metrics"]) == [spec[0] for spec in metrics.PER_LAYER]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["autograd.graph_nodes_per_step"] > m["autograd.const_nodes_per_step"] > 0
        assert m["harness.step.ms_p50"] > 0 and m["model.forward.ms_per_step"] > 0
        counts.append({k: v for k, v in m.items() if "calls" in k or "nodes" in k
                       or "share" in k or "graph_mb" in k})
    assert counts[0] == counts[1]


def test_same_seed_same_inputs_and_outputs(capsys):
    first, _ = run_once(capsys, "infer-long", trace=0)
    second, _ = run_once(capsys, "infer-long", trace=0)
    assert first["inputs"] == second["inputs"]
    assert first["digest"] == second["digest"]


def test_corrupted_predictions_count_as_failed(capsys, monkeypatch):
    monkeypatch.setattr(model.MultilevelTransformer, "predict_probs",
                        lambda self, enc: np.full(4, np.nan))
    _, result = run_once(capsys, "infer-long", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_unreadable_checkpoints_count_as_failed(capsys, monkeypatch):
    save = harness.save_checkpoint

    def truncated(path, *args, **kwargs):
        save(path, *args, **kwargs)
        Path(path).write_bytes(Path(path).read_bytes()[:100])

    monkeypatch.setattr(harness, "save_checkpoint", truncated)
    report, result = run_once(capsys, "train-quick", trace=0)
    assert not result["correct"]
    assert result["failed"] == 5    # every fold; the predict requests still pass
    assert result["attempted"] == 5 + report["samples"]["requests"]


def test_fold_and_probability_checks():
    plan = harness.FoldPlan(fold=0, train_ids=[], dev_ids=[], test_ids=["a", "b"])
    result = harness.TrainResult(
        fold=0, seed=0, dev_history=[], best_epoch=1, epochs_run=1, checkpoint_path="/nonexistent",
        test=harness.metrics_from_confusion(np.array([[1, 0], [1, 1]])))
    problems = checks.check_fold(result, plan)
    assert len(problems) == 2   # confusion sums to 3, and no checkpoint
    assert checks.check_probs([0.25, 0.75], 2) == []
    assert checks.check_probs([0.5, 0.6], 2)
    assert checks.check_probs([np.inf, 0.0], 2)
    assert checks.check_probs([1.0], 2)
