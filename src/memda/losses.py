"""Objective terms with exact analytic gradients.

Four ingredients combine into the training objective

    total = l_sup + lambda_adv * l_adv + lambda_sc * l_sc,    l_adv = -l_d

where l_sup is source cross-entropy, l_d the domain discriminator loss fed
through the multilinear conditioning map, and l_sc the temperature-scaled
sample consistency loss over pseudo-labeled positives. Every function here
returns both the scalar value and the gradient w.r.t. its direct inputs;
the trainer chains those through the networks.

Reference features (memory bank or detached source batch) are constants in
l_sc: gradients flow only to the target anchors. The consistency loss runs
on a ``similarity.ReferenceSet``: the bank's own set, whose rows were
prepared once at enqueue in the layout of the bank's kernel (unit rows for
cosine, raw rows and squared norms otherwise), or a transient set wrapping
the source batch. Its score matrix and its work matrix are reused by every
call on the set: a ``ConsistencyResult``'s ``sim`` and the ``dsim`` of
``consistency_from_similarity`` alias those buffers until the next call on
the same set, while ``value``, ``grad_targets`` and ``per_anchor`` are the
caller's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import similarity as simmod
from .errors import ConfigurationError, GatingError
from .nn import PROB_EPS


@dataclass
class LossReport:
    """Per-iteration loss summary; ``total`` is assembled by the trainer."""

    l_sup: float = 0.0
    l_d: float = 0.0
    l_adv: float = 0.0
    l_sc: float = 0.0
    total: float = 0.0
    skipped_anchors: int = 0


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
    np.multiply(f[:, :, None], g[:, None, :], out=h.reshape(n, d, c))
    return h


def multilinear_map_vjp(f, g, dh):
    """Backward through the outer product: returns (df, dg)."""
    n, d = f.shape
    c = g.shape[1]
    dh3 = dh.reshape(n, d, c)
    df = np.einsum("ndc,nc->nd", dh3, g)
    dg = np.einsum("ndc,nd->nc", dh3, f)
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


@dataclass
class ConsistencyResult:
    value: float
    grad_targets: np.ndarray        # d l_sc / d target features
    assignment: simmod.PseudoLabelAssignment | None
    positive_mask: np.ndarray       # (n_targets, n_refs) boolean
    sim: np.ndarray                 # the scores used; aliases the set's buffer
    per_anchor: np.ndarray          # (n_targets,) individual -log terms
    skipped: int                    # anchors with an empty positive set


def consistency_from_similarity(sim, positive_mask, tau: float, work=None):
    """Core of the consistency loss, in log-sum-exp form.

    Per anchor j:  loss_j = LSE(sim_j / tau) - LSE(sim_j[positives] / tau),
    i.e. -log of the total softmax mass on the positive set. Anchors with no
    positives contribute 0 and are tallied; anchors whose positive set covers
    every reference contribute exactly 0.0. Returns
    (value, dsim, per_anchor, skipped). The pass runs in ``work``, a
    C-contiguous array shaped like ``sim`` (fresh when None), which comes
    back as ``dsim``.
    """
    if not tau > 0:
        raise ConfigurationError("temperature must be > 0")
    if work is not None and not work.flags.c_contiguous:
        raise ConfigurationError("the work array must be C-contiguous")
    sim = np.asarray(sim, dtype=np.float64)
    pos = np.asarray(positive_mask, dtype=bool)
    n, m = sim.shape

    # positives are sparse (a batch rarely covers many bank classes), so the
    # positive-side sums run on entries gathered by flat index, in row-major
    # order; the dense buffer is reused in place to keep full-matrix passes
    # to a minimum
    flat = np.flatnonzero(pos)
    rows = flat // m
    work = np.divide(sim, tau, out=work)
    work_flat = work.reshape(-1)  # a view of the contiguous buffer
    s_vals = work_flat[flat]
    counts = np.bincount(rows, minlength=n)
    has_pos = counts > 0
    full = counts == m  # every reference positive: the term is exactly 0
    skipped = int(n - has_pos.sum())

    m_all = work.max(axis=1)
    np.subtract(work, m_all[:, None], out=work)
    np.exp(work, out=work)  # work is now exp(s - max) rowwise
    sum_all = work.sum(axis=1)
    lse_all = m_all + np.log(sum_all)

    m_pos = np.zeros(n)
    if rows.size:
        starts = (np.cumsum(counts) - counts)[has_pos]
        m_pos[has_pos] = np.maximum.reduceat(s_vals, starts)
    e_vals = np.exp(s_vals - m_pos[rows])
    sum_pos = np.bincount(rows, weights=e_vals, minlength=n)
    sum_pos_safe = np.where(has_pos, sum_pos, 1.0)
    lse_pos = m_pos + np.log(sum_pos_safe)

    per_anchor = np.where(full, 0.0, np.where(has_pos, lse_all - lse_pos, 0.0))

    np.divide(work, sum_all[:, None], out=work)  # softmax over all references
    work_flat[flat] -= e_vals / sum_pos_safe[rows]
    work /= tau * n
    work[~has_pos] = 0.0
    return float(per_anchor.sum() / n), work, per_anchor, skipped


def _consistency(targets, references, ref_labels, tau, k, kind, num_classes,
                 pseudo_labels=None) -> ConsistencyResult:
    refs = simmod.reference_set(references, kind)
    sim = simmod.pairwise_similarity(targets, refs, kind)
    assignment = None
    if pseudo_labels is None:
        assignment = simmod.assign_pseudo_labels(sim, ref_labels, k, num_classes)
        pseudo_labels = assignment.labels
    pos = np.asarray(ref_labels)[None, :] == np.asarray(pseudo_labels)[:, None]
    _, work = refs.buffers(sim.shape[0])
    value, dsim, per_anchor, skipped = consistency_from_similarity(
        sim, pos, tau, work=work)
    grad = simmod.pairwise_similarity_vjp(targets, refs, kind, dsim, sim=sim)
    return ConsistencyResult(value, grad, assignment, pos, sim, per_anchor,
                             skipped)


def sample_consistency_batch(targets, source_feats, source_labels, tau: float,
                             kind: simmod.SimilarityKind, k: int,
                             num_classes: int,
                             pseudo_labels=None) -> ConsistencyResult:
    """Batch form: positives drawn from the current source mini-batch.

    Pseudo-labels default to a kNN vote over the source batch itself; pass
    ``pseudo_labels`` explicitly for the classifier-based ablation. Source
    features are constants, wrapped in a transient reference set.
    """
    return _consistency(targets, source_feats, source_labels, tau, k, kind,
                        num_classes, pseudo_labels)


def sample_consistency_memory(targets, bank, tau: float,
                              kind: simmod.SimilarityKind, k: int,
                              num_classes: int,
                              pseudo_labels=None) -> ConsistencyResult:
    """Memory form: the bank replaces the source batch as the reference set.

    The bank's own reference set is used as is; ``kind`` must be the kernel
    the bank was built for. With kNN pseudo-labels the positive set is
    nonempty by construction (the winning class has at least one neighbour
    in the bank)."""
    if len(bank) < k:
        raise GatingError(f"bank holds {len(bank)} entries, k={k}")
    return _consistency(targets, bank.references, bank.labels(), tau, k, kind,
                        num_classes, pseudo_labels)


def total_loss(l_sup: float, l_adv: float, l_sc: float,
               lambda_adv: float, lambda_sc: float) -> float:
    if lambda_adv < 0 or lambda_sc < 0:
        raise ConfigurationError("loss coefficients must be >= 0")
    return l_sup + lambda_adv * l_adv + lambda_sc * l_sc
