"""Objective terms with exact analytic gradients.

Three terms combine into the training objective

    total = l_sup - lambda_adv * l_d + lambda_sc * l_sc

where l_sup is source cross-entropy, l_d the domain discriminator loss fed
through the multilinear conditioning map, and l_sc the temperature-scaled
sample consistency loss over pseudo-labeled positives. Every function here
returns both the scalar value and the gradient w.r.t. its direct inputs;
the trainer chains those through the networks.

The reference set of l_sc is always a ``bank.MemoryBank``: the memory bank
itself, or, for the batch variant, a bank holding just the source batch.
Its entries are constants in l_sc: gradients flow only to the target
anchors. ``sample_consistency_memory`` is the one consistency entry. The
bank's score, work and mask matrices are reused by every call on it: a
``ConsistencyResult``'s ``sim`` and the ``dsim`` of
``consistency_from_similarity`` alias those buffers until the next call on
the same bank, while ``value``, ``grad_targets``, ``labels``, ``positives``
and ``per_anchor`` are the caller's own; ``grad_targets`` is None unless
the call asks for it with ``need_grad``. Each step finds the positive pairs
once, as ascending flat row-major indices into the score matrix; the loss,
its gradient and the similarity diagnostics take them in that form only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import similarity as simmod
from .errors import ConfigurationError
from .nn import PROB_EPS


def supervised_loss(probs, labels):
    """Mean -log p[y] over the batch; returns (value, dprobs).

    Probabilities are clamped at PROB_EPS before the log; where the clamp is
    active the gradient is 0 (the clamp is a real part of the function).
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if p.shape[0] != y.shape[0]:
        raise ConfigurationError(f"{p.shape[0]} rows vs {y.shape[0]} labels")
    if y.size and (y.min() < 0 or y.max() >= p.shape[1]):
        raise ConfigurationError("label out of range")
    n = p.shape[0]
    rows = np.arange(n)
    py = p[rows, y]
    clamped = np.clip(py, PROB_EPS, None)
    value = float(-np.log(clamped).mean())
    dprobs = np.zeros_like(p)
    dprobs[rows, y] = np.where(py > PROB_EPS, -1.0 / (n * clamped), 0.0)
    return value, dprobs


def multilinear_map(f, g, out=None):
    """Flattened outer product h[:, i*C + c] = f[:, i] * g[:, c], batched,
    written into ``out`` (a contiguous n x d*C array) if given."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    n, d = f.shape
    c = g.shape[1]
    h = np.empty((n, d * c)) if out is None else out
    np.einsum("nd,nc->ndc", f, g, out=h.reshape(n, d, c))
    return h


def multilinear_map_vjp(f, g, dh, need_dg: bool = True):
    """Backward through the outer product: returns (df, dg), with dg None
    unless ``need_dg``."""
    n, d = f.shape
    c = g.shape[1]
    dh3 = dh.reshape(n, d, c)
    df = np.einsum("ndc,nc->nd", dh3, g)
    dg = np.einsum("ndc,nd->nc", dh3, f) if need_dg else None
    return df, dg


def discriminator_loss(p_source, p_target):
    """Domain classification loss and its gradients w.r.t. the probabilities.

    l_d = mean(-log p_s) + mean(-log(1 - p_t)); the adversarial loss is its
    negation, realized in the trainer by gradient reversal at the
    conditioned input. Inputs must already be clamped to (0, 1).
    """
    ps = np.asarray(p_source, dtype=np.float64).reshape(-1)
    pt = np.asarray(p_target, dtype=np.float64).reshape(-1)
    ns, nt = ps.size, pt.size
    value = float(-np.log(ps).mean() - np.log(1.0 - pt).mean())
    inside_s = (ps > PROB_EPS) & (ps < 1.0 - PROB_EPS)
    inside_t = (pt > PROB_EPS) & (pt < 1.0 - PROB_EPS)
    dps = np.where(inside_s, -1.0 / (ns * ps), 0.0)
    dpt = np.where(inside_t, 1.0 / (nt * (1.0 - pt)), 0.0)
    return value, dps, dpt


LSE_SPAN = 300.0  # |row max| / tau within which exp(sim / tau) needs no shift


@dataclass
class ConsistencyResult:
    """One consistency pass; ``positives`` are the ascending flat row-major
    indices into ``sim`` of the pairs labeled like their anchor."""

    value: float
    grad_targets: np.ndarray | None  # d l_sc / d target features
    labels: np.ndarray               # the anchors' pseudo-labels
    positives: np.ndarray            # read by the diagnostics too
    sim: np.ndarray                  # the scores used; aliases the bank's buffer
    per_anchor: np.ndarray           # (n_targets,) individual -log terms
    skipped: int                     # anchors with an empty positive set


def consistency_from_similarity(sim, positives, tau: float, work=None):
    """Core of the consistency loss, in log-sum-exp form.

    Per anchor j:  loss_j = LSE(sim_j / tau) - LSE(sim_j[positives] / tau),
    i.e. -log of the total softmax mass on the positive set. ``positives``
    holds the ascending flat row-major indices into ``sim`` of the positive
    pairs (``np.flatnonzero`` of an n x m mask). Anchors with no positives
    contribute 0 and are tallied; anchors whose positive set covers every
    reference contribute exactly 0.0, and so does their gradient row.
    Returns (value, dsim, per_anchor, skipped).

    The n x m passes: a row max of ``sim``, ``exp(sim * (1/tau))`` into
    ``work``, a row sum, and one per-row scale folding the softmax
    normalisation, 1/(tau n) and the zeroing of inactive anchors; the
    positive term is scattered through the flat indices. A row whose max
    lies within +-LSE_SPAN * tau of 0 needs no shift (its largest term lies
    in [e^-300, e^300]); any other row (Euclidean scores far from every
    reference, a tiny tau) is shifted by its max in an extra pass. The
    gathered positives are always shifted by their max. ``work``, a
    C-contiguous array shaped like ``sim`` (fresh when None), comes back as
    ``dsim``.
    """
    if not tau > 0:
        raise ConfigurationError("temperature must be > 0")
    if work is not None and not work.flags.c_contiguous:
        raise ConfigurationError("the work array must be C-contiguous")
    sim = np.asarray(sim, dtype=np.float64)
    n, m = sim.shape
    flat = np.asarray(positives)
    rows = flat // m
    counts = np.bincount(rows, minlength=n)
    has_pos = counts > 0
    active = has_pos & (counts < m)  # anchors whose term is not identically 0
    skipped = int(n - np.count_nonzero(has_pos))

    inv_tau = 1.0 / tau
    shift = sim.max(axis=1) * inv_tau
    shift[np.abs(shift) <= LSE_SPAN] = 0.0
    work = np.multiply(sim, inv_tau, out=work)
    if shift.any():
        np.subtract(work, shift[:, None], out=work)
    np.exp(work, out=work)
    sum_all = work.sum(axis=1)

    s_vals = sim.ravel()[flat] * inv_tau
    m_pos = np.zeros(n)
    if flat.size:
        m_pos[has_pos] = np.maximum.reduceat(
            s_vals, (np.cumsum(counts) - counts)[has_pos])
    e_vals = np.exp(s_vals - m_pos[rows])
    sum_pos = np.bincount(rows, weights=e_vals, minlength=n)

    lse_all = shift + np.log(sum_all)
    per_anchor = np.zeros(n)
    per_anchor[active] = lse_all[active] - (m_pos[active]
                                            + np.log(sum_pos[active]))

    coef = np.where(active, 1.0 / (tau * n), 0.0)
    np.multiply(work, (coef / sum_all)[:, None], out=work)
    work.reshape(-1)[flat] -= e_vals * (coef[rows] / sum_pos[rows])
    return float(per_anchor.sum() / n), work, per_anchor, skipped


def sample_consistency_memory(targets, bank, tau: float, k: int,
                              num_classes: int,
                              pseudo_labels=None,
                              need_grad: bool = True) -> ConsistencyResult:
    """The consistency loss of ``targets`` against the constant entries of
    ``bank``, a ``bank.MemoryBank``, under the bank's own kernel.

    Pseudo-labels default to a kNN vote over the bank, whose positive set
    is nonempty by construction (the winning class has at least one
    neighbour in the bank); the vote raises ``GatingError`` for a bank of
    fewer than k entries. Pass ``pseudo_labels`` explicitly for the
    classifier-based ablation, which never reads k. Without ``need_grad``
    the similarity VJP is skipped and ``grad_targets`` is None.
    """
    sim = simmod.pairwise_similarity(targets, bank)
    _, work, mask = bank.buffers(sim.shape[0])
    ref_labels = bank.labels()
    if pseudo_labels is None:
        pseudo_labels = simmod.assign_pseudo_labels(
            sim, ref_labels, k, num_classes, scratch=mask).labels
    labels = np.asarray(pseudo_labels)
    np.equal(ref_labels[None, :], labels[:, None], out=mask)
    positives = np.flatnonzero(mask)
    value, dsim, per_anchor, skipped = consistency_from_similarity(
        sim, positives, tau, work=work)
    grad = (simmod.pairwise_similarity_vjp(targets, bank, dsim, sim)
            if need_grad else None)
    return ConsistencyResult(value, grad, labels, positives, sim,
                             per_anchor, skipped)
