"""Shared helpers: tiny fixture problems, oracles and gradient-check closures."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from memda import losses
from memda.bank import MemoryBank
from memda.errors import ConfigurationError, NumericalError
from memda.nn import (
    build_model,
    classifier_forward,
    discriminator_forward,
    encoder_forward,
    gradient_reversal,
    softmax_vjp,
)
from memda.trainer import BATCH, CLASSIFIER, TrainConfig, forward_backward


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


def filled_bank(rows, kind, labels=None):
    """A bank of capacity ``len(rows)`` holding exactly ``rows``, oldest
    first, under the kernel ``kind``; labels default to class 0."""
    rows = np.asarray(rows, dtype=np.float64)
    bank = MemoryBank(len(rows), rows.shape[1], kind)
    bank.enqueue(rows, np.zeros(len(rows), dtype=np.int64)
                 if labels is None else labels)
    return bank


def two_pass_forward_backward(model, x_source, y_source, x_target, config,
                              bank=None, sc_active=False, lambda_adv=None):
    """Reference for ``trainer.forward_backward``: every network runs once
    on the source batch and once on the target batch, forward and backward,
    and the domains' gradients are kept apart until the parameters sum them.
    Each backward overwrites its network's gradients, so the harness adds
    the two calls' gradients itself. Batch-mode consistency scores against a
    bank of the source batch, as the trainer does. Returns the four losses
    as the attributes ``l_sup``, ``l_d``, ``l_sc`` and ``total``."""
    if lambda_adv is None:
        lambda_adv = config.lambda_adv
    for net in (model.encoder, model.classifier, model.discriminator):
        net.zero_grads()  # a network that runs no backward steps with zeros
    f_s, tape_es = encoder_forward(x_source, model.encoder)
    f_t, tape_et = encoder_forward(x_target, model.encoder)
    g_s, _, tape_cs = classifier_forward(f_s, model.classifier)
    g_t, _, tape_ct = classifier_forward(f_t, model.classifier)
    report = SimpleNamespace(l_sup=0.0, l_d=0.0, l_sc=0.0, total=0.0)
    dprobs_s, dprobs_t = np.zeros_like(g_s), np.zeros_like(g_t)
    df_s, df_t = np.zeros_like(f_s), np.zeros_like(f_t)

    report.l_sup, dsup = losses.supervised_loss(g_s, y_source)
    dprobs_s += dsup
    if lambda_adv > 0:
        if model.multilinear:
            h_s = losses.multilinear_map(f_s, g_s)
            h_t = losses.multilinear_map(f_t, g_t)
        else:
            h_s, h_t = f_s, f_t
        p_s, tape_gs = discriminator_forward(h_s, model.discriminator)
        p_t, tape_gt = discriminator_forward(h_t, model.discriminator)
        report.l_d, dps, dpt = losses.discriminator_loss(p_s, p_t)
        dh_s, dh_t = summed_backward(
            model.discriminator, tape_gs, (dps * p_s * (1.0 - p_s))[:, None],
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
    if sc_active:
        pseudo = (np.argmax(g_t, axis=1)
                  if config.pseudo_labels == CLASSIFIER else None)
        if config.consistency == BATCH:
            bank = filled_bank(f_s, config.similarity_kind, y_source)
        cons = losses.sample_consistency_memory(
            f_t, bank, config.tau, config.k, model.num_classes,
            pseudo_labels=pseudo)
        report.l_sc = cons.value
        if config.lambda_sc > 0:
            df_t += config.lambda_sc * cons.grad_targets
    dc_s, dc_t = summed_backward(model.classifier,
                                 tape_cs, softmax_vjp(g_s, dprobs_s),
                                 tape_ct, softmax_vjp(g_t, dprobs_t))
    df_s += dc_s
    df_t += dc_t
    summed_backward(model.encoder, tape_es, df_s, tape_et, df_t)
    report.total = (report.l_sup - lambda_adv * report.l_d
                    + config.lambda_sc * report.l_sc)
    return report


def summed_backward(net, tape_a, dy_a, tape_b, dy_b):
    """Two backward calls through ``net``, leaving the sum of their
    parameter gradients; returns both input gradients."""
    dx_a = net.backward(tape_a, dy_a)
    first = net.flat_grads.copy()
    dx_b = net.backward(tape_b, dy_b)
    net.flat_grads += first
    return dx_a, dx_b


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


# term -> (lambda_adv, sc_active) of the objective that isolates it; None
# keeps the config's lambda_adv
TERM_COEFFICIENTS = {"sup": (0.0, False), "adv": (None, False), "sc": (0.0, True)}


def component_closure(model, cfg, x_s, y_s, x_t, bank, component, side):
    """Build (loss_fn, params) for finite_difference_check.

    Each term is isolated through the objective's own coefficients: "sup"
    is l_sup alone, "adv" is l_sup - lambda_adv * l_d and "sc" is l_sup +
    lambda_sc * l_sc. ``side`` selects the parameter group: "theta" checks
    encoder+classifier against that objective, "omega" checks the
    discriminator against the raw domain loss.
    """
    lambda_adv, sc_active = TERM_COEFFICIENTS[component]

    # every layer tensor is a view into its network's flat vectors
    nets = ((model.encoder, model.classifier) if side == "theta"
            else (model.discriminator,))
    params = [net.flat_params for net in nets]

    def loss_fn():
        out = forward_backward(model, x_s, y_s, x_t, cfg, bank=bank,
                               sc_active=sc_active, lambda_adv=lambda_adv)
        value = out.l_d if side == "omega" else out.total
        return value, [net.flat_grads.copy() for net in nets]

    return loss_fn, params


def finite_difference_check(loss_fn, params, h_step: float = 1e-6, names=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn()`` must return ``(value, grads)`` where ``grads`` aligns with
    ``params`` elementwise; the analytic gradients are read once at the
    current point, then every parameter entry is probed at +/- h_step. The
    relative error is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (1e-7 <= h_step <= 1e-4):
        raise ConfigurationError(f"h_step {h_step} outside [1e-7, 1e-4]")
    params = list(params)
    if names is None:
        names = [f"param[{i}]{p.shape}" for i, p in enumerate(params)]
    value, grads = loss_fn()
    if not np.isfinite(value):
        raise NumericalError("non-finite loss at the expansion point")
    grads = [np.array(g, dtype=np.float64, copy=True) for g in grads]
    if len(grads) != len(params):
        raise ConfigurationError("loss_fn returned a gradient list of the wrong length")

    worst = 0.0
    for p, g, name in zip(params, grads, names):
        if p.shape != g.shape:
            raise ConfigurationError(f"gradient shape mismatch for {name}")
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h_step
            up, _ = loss_fn()
            flat_p[i] = orig - h_step
            down, _ = loss_fn()
            flat_p[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericalError(f"non-finite loss while probing {name}[{i}]")
            numeric = (up - down) / (2.0 * h_step)
            err = abs(flat_g[i] - numeric) / max(1.0, abs(flat_g[i]), abs(numeric))
            worst = max(worst, err)
    return worst
