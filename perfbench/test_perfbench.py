"""Tests of the benchmark's own code: span arithmetic, harness smoke runs and
which wrapped sites fire on which workload.

The smoke runs shorten the recipe to 60 iterations (20 bootstrap) so each
workload goes through the real harness, child processes and output checks
in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

ROOT = Path(__file__).resolve().parent.parent
SHORT = ("--total-iters", "60", "--bootstrap-iters", "20")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

ALWAYS = {"trainer.train_step", "trainer.forward_backward", "trainer.SGD.step",
          "nn.encoder_forward", "nn.classifier_forward",
          "nn.discriminator_forward", "nn.MLP.backward",
          "datasets.batch_sampler", "losses.supervised_loss",
          "losses.multilinear_map", "losses.multilinear_map_vjp"}
BANK = {"losses.sample_consistency_memory", "losses.consistency_from_similarity",
        "similarity.pairwise_similarity", "similarity.assign_pseudo_labels",
        "similarity.pairwise_similarity_vjp", "bank.enqueue",
        "metrics.mean_similarity_both", "metrics.pseudo_label_accuracy"}
FIRES = {
    "bank-cosine": ALWAYS | BANK,
    "no-consistency": ALWAYS,
    "bank-gaussian-churn": ALWAYS | BANK | {"bank.momentum_update"},
}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "PROBES", 2)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_synthetic_call_tree():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    # step [0, 10] holds fwd [1, 4] (which holds mm [2, 3]) and sgd [5, 9]
    timeline = [(0, "enter", "step"), (1, "enter", "fwd"), (2, "enter", "mm"),
                (3, "exit", None), (4, "exit", None), (5, "enter", "sgd"),
                (9, "exit", None), (10, "exit", None),
                (12, "enter", "after"), (13, "exit", None)]
    open_spans = []
    for t, what, name in timeline:
        clock.now = float(t)
        if what == "enter":
            open_spans.append(tracer.enter(name))
        else:
            tracer.exit(open_spans.pop())
    rows = spans.summarize(tracer.spans, window=(0.0, 10.0))
    self_s = {name: row["self_s"] for name, row in rows.items()}
    assert self_s == {"step": 3.0, "fwd": 2.0, "mm": 1.0, "sgd": 4.0}
    assert rows["fwd"]["total_s"] == 3.0
    assert sum(self_s.values()) == 10.0  # self times tile the window
    assert "after" in spans.summarize(tracer.spans)


def test_counts_come_from_call_arguments():
    tracer = spans.Tracer()
    site = spans.Site("pairs", "memda.similarity", "pairwise_similarity",
                      count=spans._count_pairs)

    def pairwise(targets, references, kind):
        return None

    tracer.wrap(site, pairwise)([1, 2, 3], references=[1, 2], kind=None)
    assert tracer.spans[0].counts == {"pairs_scored": 6}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_untraced(workload, tmp_path):
    runs, metrics, problems = run.measure(workload, 0, 0.0, False, tmp_path,
                                          SHORT)
    assert [r.problems for r in runs if not r.ok] == [] and problems == []
    assert [r.mode for r in runs] == ["probe", "probe", "plain"]
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert set(metrics) == declared
    assert all(value > 0 for value in metrics.values())
    assert len(runs[-1].result["iter_s"]) == 60


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_sites_fire_where_expected(workload, tmp_path):
    runs, metrics, problems = run.measure(workload, 0, 0.0, True, tmp_path,
                                          SHORT)
    assert [r.problems for r in runs if not r.ok] == [] and problems == []
    traced = runs[1].result
    fired = {name for name, row in traced["layers"].items() if row["calls"]}
    assert fired == FIRES[workload]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert 0.9 <= run.span_coverage(runs[1]) <= 1.0  # full runs: ~0.98
    assert traced["resolve_datasets_s"] > 0 and traced["artifacts_s"] > 0

    # another seed repeats every exact count; the repeat record checks that
    _, again, problems = run.measure(workload, 1, 0.0, True, tmp_path, SHORT)
    assert problems == []
    assert {k: again[k] for k in run.EXACT_COUNTS} == \
        {k: metrics[k] for k in run.EXACT_COUNTS}


def test_repeat_record_flags_a_changed_value(tmp_path):
    record = tmp_path / "repeats.json"
    assert run.check_repeats({"w/0/metrics.csv": "a"}, record) == []
    assert run.check_repeats({"w/0/metrics.csv": "a", "w/counts": {"n": 1}},
                             record) == []
    assert run.check_repeats({"w/0/metrics.csv": "b"}, record) != []
    assert run.check_repeats({"w/counts": {"n": 2}}, record) != []
    assert json.loads(record.read_text())["w/0/metrics.csv"] == "a"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bank-cosine",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
