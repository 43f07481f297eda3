"""Shared helpers: tiny fixture problems, oracles and gradient-check closures."""

from __future__ import annotations

import numpy as np

from memda.bank import MemoryBank
from memda.nn import build_model
from memda.trainer import ALL_COMPONENTS, TrainConfig, forward_backward


def naive_consistency(sim, pos_mask, tau):
    """Direct-summation oracle for the consistency loss (no log-sum-exp)."""
    terms = []
    for j in range(sim.shape[0]):
        if not pos_mask[j].any():
            terms.append(0.0)
            continue
        e = np.exp(sim[j] / tau)
        terms.append(-np.log(e[pos_mask[j]].sum() / e.sum()))
    return sum(terms) / sim.shape[0]


def brute_force_knn(sim_row, labels, k, num_classes):
    """Full-sort pseudo-label oracle with the documented tie rules."""
    order = sorted(range(len(sim_row)), key=lambda i: (-sim_row[i], i))
    nbrs = order[:k]
    votes = [0] * num_classes
    cumsim = [0.0] * num_classes
    for i in nbrs:
        votes[labels[i]] += 1
        cumsim[labels[i]] += sim_row[i]
    best = max(votes)
    tied = [c for c in range(num_classes) if votes[c] == best]
    top = max(cumsim[c] for c in tied)
    tied = [c for c in tied if cumsim[c] == top]
    return min(tied), nbrs


def tiny_problem(seed, *, input_dim=6, embed_dim=8, num_classes=5, batch=4,
                 bank_entries=32, consistency="memory", **cfg_kwargs):
    """A small random model, batches and a prefilled bank for gradient checks.

    Gradient checks run with condition_backprop="both": that is the exact
    whole-graph gradient. The "feature" mode deliberately treats the
    conditioning vector as a constant, so central differences through the
    full graph would not (and should not) match it.
    """
    rng = np.random.default_rng(seed)
    cfg_kwargs.setdefault("condition_backprop", "both")
    cfg = TrainConfig(
        batch_size=batch,
        total_iters=10,
        bootstrap_iters=1,
        embed_dim=embed_dim,
        encoder_hidden=10,
        encoder_layers=1,
        disc_hidden=8,
        consistency=consistency,
        seed=seed,
        **cfg_kwargs,
    )
    model = build_model(
        input_dim=input_dim,
        embed_dim=embed_dim,
        num_classes=num_classes,
        encoder_hidden=10,
        encoder_layers=1,
        disc_hidden=8,
        seed=seed,
    )
    x_s = rng.normal(size=(batch, input_dim))
    y_s = rng.integers(0, num_classes, size=batch)
    x_t = rng.normal(size=(batch, input_dim))
    bank = MemoryBank(bank_entries, embed_dim, cfg.similarity_kind)
    bank.enqueue(rng.normal(size=(bank_entries, embed_dim)),
                 rng.integers(0, num_classes, size=bank_entries))
    return model, cfg, x_s, y_s, x_t, bank


def component_closure(model, cfg, x_s, y_s, x_t, bank, component, side):
    """Build (loss_fn, params) for finite_difference_check.

    ``side`` selects the parameter group: "theta" checks encoder+classifier
    against the term's weighted contribution to the objective, "omega"
    checks the discriminator against the raw domain loss.
    """
    components = ALL_COMPONENTS if component == "all" else frozenset({component})
    sc_active = "sc" in components

    if side == "theta":
        params = model.encoder.parameters() + model.classifier.parameters()
        grad_src = lambda: model.encoder.gradients() + model.classifier.gradients()
    else:
        params = model.discriminator.parameters()
        grad_src = model.discriminator.gradients

    def loss_fn():
        out = forward_backward(model, x_s, y_s, x_t, cfg, bank=bank,
                               sc_active=sc_active, components=components)
        value = out.report.l_d if side == "omega" else out.report.total
        return value, [g.copy() for g in grad_src()]

    return loss_fn, params
