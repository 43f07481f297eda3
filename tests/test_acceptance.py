"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The three trend criteria share a session-scoped set of benchmark runs
(4 configurations x 5 seeds on the default synthetic benchmark), which takes
a few minutes; everything else is fast.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import (
    brute_force_knn,
    component_closure,
    finite_difference_check,
    naive_consistency,
    tiny_problem,
)
from memda.bank import MemoryBank, momentum_update
from memda.cli import main as cli_main
from memda.datasets import ShiftSpec, apply_domain_shift, gen_gaussian_mixture
from memda.losses import consistency_from_similarity, sample_consistency_memory
from memda.nn import build_model
from memda.similarity import COSINE, EUCLIDEAN, SimilarityKind, assign_pseudo_labels
from memda.trainer import TrainConfig, run_training

COS = SimilarityKind(COSINE)
EUC = SimilarityKind(EUCLIDEAN)

# the desk-scale benchmark is fixed by the data defaults; the training recipe
# below was calibrated once against these baselines (from-scratch encoder
# wants rate parity with the heads, and a milder temperature with a stronger
# consistency weight than the full-scale defaults)
RECIPE = dict(
    total_iters=2000,
    bootstrap_iters=500,
    lr_encoder=0.03,
    lambda_adv=1.0,
    lambda_sc=1.0,
    tau=0.2,
)
SEEDS = (0, 1, 2, 3, 4)
MIN_FULL_MINUS_ADV = 2.0  # accuracy points, median over seeds


def verdict(num, name, ok, detail=""):
    print(f"[ACCEPTANCE] criterion {num:2d} ({name}): "
          f"{'PASS' if ok else 'FAIL'}{'  ' + detail if detail else ''}")
    return ok


def benchmark_domains(seed):
    source = gen_gaussian_mixture(50, 16, 200, 4.0, 1.0, seed=seed)
    base = gen_gaussian_mixture(50, 16, 200, 4.0, 1.0, seed=seed + 1)
    target = apply_domain_shift(
        base, ShiftSpec.from_degrees(30.0, noise=0.1, seed=seed + 2))
    return source, target


@pytest.fixture(scope="session")
def benchmark_runs():
    """full / adversarial-only / source-only / batch-sized-bank runs, 5 seeds."""
    runs = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        source, target = benchmark_domains(seed)
        variants = {
            "full": TrainConfig(seed=seed, **RECIPE),
            "adv": TrainConfig(seed=seed, **{**RECIPE, "lambda_sc": 0.0,
                                             "diagnostics": "on"}),
            "src": TrainConfig(seed=seed, **{**RECIPE, "lambda_adv": 0.0,
                                             "lambda_sc": 0.0,
                                             "consistency": "off"}),
            "bank32": TrainConfig(seed=seed, **{**RECIPE, "bank_capacity": 32}),
        }
        runs[seed] = {
            name: run_training(cfg, source, target)
            for name, cfg in variants.items()
        }
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def median_acc(runs, name):
    return float(np.median(
        [runs[s][name].evaluation.overall_accuracy for s in SEEDS]))


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        model, cfg, x_s, y_s, x_t, bank = tiny_problem(
            seed, input_dim=6, embed_dim=8, num_classes=5, batch=4,
            bank_entries=32)
        for component, side in (("sup", "theta"), ("adv", "theta"),
                                ("adv", "omega"), ("sc", "theta")):
            loss_fn, params = component_closure(
                model, cfg, x_s, y_s, x_t, bank, component, side)
            worst = max(worst, finite_difference_check(loss_fn, params, 1e-6))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    assert verdict(1, "gradient correctness", ok,
                   f"max rel err {worst:.2e}, {elapsed:.1f}s"), worst


def test_criterion_2_consistency_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    taus = (0.07, 0.5, 1.0)
    for trial in range(500):
        n_t = int(rng.integers(1, 9))
        n_m = int(rng.integers(4, 65))
        tau = taus[trial % 3]
        sim = rng.uniform(-1.0, 1.0, size=(n_t, n_m))
        pos = rng.uniform(size=(n_t, n_m)) < 0.25
        value, _, _, _ = consistency_from_similarity(sim, np.flatnonzero(pos), tau)
        expect = naive_consistency(sim, pos, tau)
        worst = max(worst, abs(value - expect))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert verdict(2, "consistency-loss oracle", ok,
                   f"max |diff| {worst:.2e}, {elapsed:.1f}s"), worst


def test_criterion_3_analytic_spot_values():
    bank = MemoryBank(8, 2, COS)
    bank.enqueue(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
    targets = np.array([[1.0, 0.0]])
    errs = []
    for tau in (1.0, 0.5):
        got = sample_consistency_memory(targets, bank, tau, COS, 1, 2).value
        errs.append(abs(got - float(np.log1p(np.exp(-1.0 / tau)))))
    one_class = MemoryBank(8, 2, COS)
    one_class.enqueue(np.array([[1.0, 0.0], [0.5, 0.5]]), [1, 1])
    zero = sample_consistency_memory(targets, one_class, 0.07, COS, 1, 2).value
    ok = max(errs) <= 1e-9 and zero == 0.0
    assert verdict(3, "analytic spot values", ok,
                   f"softplus errs {errs[0]:.1e}/{errs[1]:.1e}, "
                   f"all-positive loss {zero!r}"), (errs, zero)


def test_criterion_4_knn_oracle_agreement():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    agree = True
    for trial in range(1000):
        k = (1, 3, 5, 11)[trial % 4]
        m = int(rng.integers(k, 50))
        c = int(rng.integers(2, 8))
        n = int(rng.integers(1, 5))
        sim = rng.normal(size=(n, m))
        if trial % 4 == 0:
            sim = np.round(sim, 1)  # exercise exact ties
        labels = rng.integers(0, c, size=m)
        got = assign_pseudo_labels(sim, labels, k, c)
        for j in range(n):
            want_label, want_nbrs = brute_force_knn(list(sim[j]), list(labels), k, c)
            agree &= (got.labels[j] == want_label
                      and list(got.neighbors[j]) == want_nbrs)
    # constructed vote tie resolved by cumulative similarity
    tie = assign_pseudo_labels(np.array([[0.9, 0.2, 0.8, 0.7]]), [0, 0, 1, 1], 4, 2)
    agree &= tie.labels[0] == 1
    elapsed = time.perf_counter() - t0
    ok = agree and elapsed < 10.0
    assert verdict(4, "kNN pseudo-labeling oracle", ok, f"{elapsed:.1f}s")


def test_criterion_5_fifo_and_momentum():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        capacity = int(rng.integers(1, 20))
        bank = MemoryBank(capacity, 2, EUC)
        oracle = []
        next_id = 0
        for _ in range(int(rng.integers(1, 8))):
            size = int(rng.integers(1, 7))
            ids = list(range(next_id, next_id + size))
            next_id += size
            bank.enqueue(np.array([[float(i)] * 2 for i in ids]),
                         [i % 5 for i in ids])
            oracle.extend(ids)
            kept = oracle[-capacity:]
            ok &= list(bank.references.rows[:, 0]) == [float(i) for i in kept]
            ok &= list(bank.labels()) == [i % 5 for i in kept]
            ok &= len(bank) <= capacity

    bank4 = MemoryBank(4, 1, EUC)
    bank4.enqueue(np.array([[1.0], [2.0], [3.0]]), [0, 0, 0])
    bank4.enqueue(np.array([[4.0], [5.0], [6.0]]), [0, 0, 0])
    ok &= list(bank4.references.rows[:, 0]) == [3.0, 4.0, 5.0, 6.0]

    fast = build_model(input_dim=3, embed_dim=4, num_classes=2, seed=1).encoder
    slow = build_model(input_dim=3, embed_dim=4, num_classes=2, seed=2).encoder
    before = [p.copy() for p in slow.parameters()]
    momentum_update(slow, fast, 1.0)
    ok &= all(np.array_equal(a, b) for a, b in zip(slow.parameters(), before))
    momentum_update(slow, fast, 0.0)
    ok &= all(np.array_equal(a, b)
              for a, b in zip(slow.parameters(), fast.parameters()))
    assert verdict(5, "FIFO and momentum update", ok)


def test_criterion_6_adaptation_trend(benchmark_runs):
    full = median_acc(benchmark_runs, "full")
    adv = median_acc(benchmark_runs, "adv")
    src = median_acc(benchmark_runs, "src")
    margin = 100.0 * (full - adv)
    ok = full > adv > src and margin >= MIN_FULL_MINUS_ADV
    assert verdict(
        6, "adaptation trend", ok,
        f"full {full:.4f} > adv {adv:.4f} > src {src:.4f}, "
        f"margin {margin:.2f}pts, {benchmark_runs['elapsed'] / 60:.1f} min total",
    ), (full, adv, src)


def test_criterion_7_memory_size_trend(benchmark_runs):
    big = median_acc(benchmark_runs, "full")
    small = median_acc(benchmark_runs, "bank32")
    ok = big >= small
    assert verdict(7, "memory-size trend", ok,
                   f"bank 4096 {big:.4f} >= bank 32 {small:.4f}"), (big, small)


def test_criterion_8_similarity_score_trend(benchmark_runs):
    rising = beats = 0
    for seed in SEEDS:
        full = benchmark_runs[seed]["full"]
        adv = benchmark_runs[seed]["adv"]
        active = [r for r in full.history if r.mean_sim_avg != 0.0]
        window = max(1, len(active) // 10)
        first = np.mean([r.mean_sim_avg for r in active[:window]])
        last = np.mean([r.mean_sim_avg for r in active[-window:]])
        rising += last > first
        adv_scores = {r.iteration: r.mean_sim_avg
                      for r in adv.history if r.mean_sim_avg != 0.0}
        matched = [r.iteration for r in active if r.iteration in adv_scores]
        full_mean = np.mean([full.history[i].mean_sim_avg for i in matched])
        adv_mean = np.mean([adv_scores[i] for i in matched])
        beats += full_mean > adv_mean
    ok = rising >= 4 and beats >= 4
    assert verdict(8, "similarity-score trend", ok,
                   f"rising {rising}/5, above-ablation {beats}/5"), (rising, beats)


def test_criterion_9_cli_determinism(tmp_path):
    flags = [
        "--classes", "10", "--input-dim", "8", "--per-class", "40",
        "--total-iters", "250", "--bootstrap-iters", "50",
        "--bank-capacity", "256", "--embed-dim", "8",
        "--encoder-hidden", "16", "--encoder-layers", "1",
        "--disc-hidden", "16", "--seed", "11",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    rc1 = cli_main(["train", "--outdir", str(a)] + flags)
    rc2 = cli_main(["train", "--outdir", str(b)] + flags)
    identical = (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    assert verdict(9, "CLI determinism", ok,
                   f"byte-identical CSVs: {identical}")


def test_criterion_10_ablation_identity():
    source, target = benchmark_domains(3)
    shared = dict(total_iters=300, bootstrap_iters=60, seed=3,
                  lambda_sc=0.0, diagnostics="off")
    gated = run_training(
        TrainConfig(consistency="memory", **shared), source, target)
    absent = run_training(
        TrainConfig(consistency="off", **shared), source, target)
    worst = 0.0
    for ra, rb in zip(gated.history, absent.history):
        worst = max(worst, abs(ra.l_sup - rb.l_sup), abs(ra.l_d - rb.l_d),
                    abs(ra.l_sc - rb.l_sc), abs(ra.total - rb.total))
    ok = worst <= 1e-12 and len(gated.history) == len(absent.history)
    assert verdict(10, "ablation identity", ok,
                   f"max per-iteration deviation {worst:.2e}"), worst
