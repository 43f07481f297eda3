"""Shared helpers: tiny fixture problems, oracles and gradient-check closures."""

from __future__ import annotations

import numpy as np

from memda import losses
from memda.bank import MemoryBank
from memda.nn import (
    build_model,
    classifier_forward,
    discriminator_forward,
    encoder_forward,
    gradient_reversal,
    softmax_vjp,
)
from memda.trainer import (
    ALL_COMPONENTS,
    CLASSIFIER,
    MEMORY,
    OFF,
    TrainConfig,
    forward_backward,
)


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


def two_pass_forward_backward(model, x_source, y_source, x_target, config,
                              bank=None, sc_active=False, lambda_adv=None,
                              components=ALL_COMPONENTS):
    """Reference for ``trainer.forward_backward``: every network runs once
    on the source batch and once on the target batch, forward and backward,
    and the domains' gradients are kept apart until the parameters sum them.
    Returns the loss report."""
    if lambda_adv is None:
        lambda_adv = config.lambda_adv
    model.zero_grads()
    f_s, tape_es = encoder_forward(x_source, model.encoder)
    f_t, tape_et = encoder_forward(x_target, model.encoder)
    g_s, _, tape_cs = classifier_forward(f_s, model.classifier)
    g_t, _, tape_ct = classifier_forward(f_t, model.classifier)
    report = losses.LossReport()
    dprobs_s, dprobs_t = np.zeros_like(g_s), np.zeros_like(g_t)
    df_s, df_t = np.zeros_like(f_s), np.zeros_like(f_t)

    if "sup" in components:
        report.l_sup, dsup = losses.supervised_loss(g_s, y_source)
        dprobs_s += dsup
    if "adv" in components and lambda_adv > 0:
        if model.multilinear:
            h_s = losses.multilinear_map(f_s, g_s)
            h_t = losses.multilinear_map(f_t, g_t)
        else:
            h_s, h_t = f_s, f_t
        p_s, tape_gs = discriminator_forward(h_s, model.discriminator)
        p_t, tape_gt = discriminator_forward(h_t, model.discriminator)
        report.l_d, dps, dpt = losses.discriminator_loss(p_s, p_t)
        report.l_adv = -report.l_d
        dh_s = model.discriminator.backward(
            tape_gs, (dps * p_s * (1.0 - p_s))[:, None])
        dh_t = model.discriminator.backward(
            tape_gt, (dpt * p_t * (1.0 - p_t))[:, None])
        gradient_reversal(dh_s, lambda_adv, out=dh_s)
        gradient_reversal(dh_t, lambda_adv, out=dh_t)
        if model.multilinear:
            dfa_s, dga_s = losses.multilinear_map_vjp(f_s, g_s, dh_s)
            dfa_t, dga_t = losses.multilinear_map_vjp(f_t, g_t, dh_t)
            if config.condition_backprop == "both":
                dprobs_s += dga_s
                dprobs_t += dga_t
            df_s += dfa_s
            df_t += dfa_t
        else:
            df_s += dh_s
            df_t += dh_t
    if "sc" in components and sc_active and config.consistency != OFF:
        pseudo = (np.argmax(g_t, axis=1)
                  if config.pseudo_labels == CLASSIFIER else None)
        kind = config.similarity_kind
        if config.consistency == MEMORY:
            cons = losses.sample_consistency_memory(
                f_t, bank, config.tau, kind, config.k, model.num_classes,
                pseudo_labels=pseudo)
        else:
            cons = losses.sample_consistency_batch(
                f_t, f_s, np.asarray(y_source), config.tau, kind, config.k,
                model.num_classes, pseudo_labels=pseudo)
        report.l_sc = cons.value
        if config.lambda_sc > 0:
            df_t += config.lambda_sc * cons.grad_targets
    df_s += model.classifier.backward(tape_cs, softmax_vjp(g_s, dprobs_s))
    df_t += model.classifier.backward(tape_ct, softmax_vjp(g_t, dprobs_t))
    model.encoder.backward(tape_es, df_s)
    model.encoder.backward(tape_et, df_t)
    report.total = losses.total_loss(report.l_sup, report.l_adv, report.l_sc,
                                     lambda_adv, config.lambda_sc)
    return report


def tiny_problem(seed, *, input_dim=6, embed_dim=8, num_classes=5, batch=4,
                 target_batch=None, bank_entries=32, consistency="memory",
                 **cfg_kwargs):
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
        multilinear=cfg.multilinear,
        seed=seed,
    )
    x_s = rng.normal(size=(batch, input_dim))
    y_s = rng.integers(0, num_classes, size=batch)
    x_t = rng.normal(size=(batch if target_batch is None else target_batch,
                           input_dim))
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
