"""Similarity kernels, pairwise score matrices and pseudo-labeling.

All kernels follow the "larger is more similar" contract: cosine in [-1, 1],
Euclidean as negated L2 distance, Gaussian as exp(-d^2 / (2 sigma^2)).
Targets are always scored against a ``bank.MemoryBank``, the one reference
type: the bank carries its kernel (``kind``), holds its rows in that
kernel's layout (``prepare_rows``) and owns the buffers the score matrices
live in. Pseudo-labels come from a k-nearest-neighbour majority vote over
the bank's entries. The backward pass, ``pairwise_similarity_vjp``, takes
the forward's score matrix and never recomputes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, DegenerateInputError

if TYPE_CHECKING:
    from .bank import MemoryBank

ZERO_NORM_TOL = 1e-12

COSINE = "cosine"
EUCLIDEAN = "euclidean"
GAUSSIAN = "gaussian"
_KINDS = (COSINE, EUCLIDEAN, GAUSSIAN)


@dataclass(frozen=True)
class SimilarityKind:
    name: str
    sigma: float = 1.0  # Gaussian bandwidth, ignored by the other kernels

    def __post_init__(self):
        if self.name not in _KINDS:
            raise ConfigurationError(f"unknown similarity kind {self.name!r}")
        if self.name == GAUSSIAN and not 0.0 < 2.0 * (self.sigma * self.sigma) < np.inf:
            raise ConfigurationError(f"key 'gaussian_sigma': 2 sigma^2 is not a "
                                     f"positive finite float at sigma = {self.sigma}")


def _check_norms(x: np.ndarray, who: str) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    bad = np.where(norms <= ZERO_NORM_TOL)[0]
    if bad.size:
        raise DegenerateInputError(
            f"cosine similarity on (near-)zero {who} vector at row {bad[0]}"
        )
    return norms


def prepare_rows(rows: np.ndarray, unit: bool, who: str):
    """The (rows, norms) pair a memory bank holds for feature rows r.

    unit: (r / |r|, |r|), rejecting (near-)zero rows; otherwise (r, |r|^2).
    Row by row, these are the values the kernels would compute from r.
    """
    if unit:
        norms = _check_norms(rows, who)
        return rows / norms[:, None], norms
    return rows, np.sum(rows * rows, axis=1)


def pairwise_similarity(targets, references: MemoryBank) -> np.ndarray:
    """Score matrix with entry (j, i) = the score of target j vs reference i,
    under the bank's own kernel.

    The result is the bank's score buffer (see ``MemoryBank.buffers``).
    """
    t = np.asarray(targets, dtype=np.float64)
    if len(references) == 0:
        raise ConfigurationError("reference set is empty")
    if t.shape[1] != references.rows.shape[1]:
        raise ConfigurationError(
            f"widths differ: {t.shape[1]} vs {references.rows.shape[1]}")
    score, work, _ = references.buffers(t.shape[0])
    if references.unit:
        tn = _check_norms(t, "target")
        return np.matmul(t / tn[:, None], references.rows.T, out=score)
    _sq_dists(t, references, score, work)
    if references.kind.name == EUCLIDEAN:
        np.sqrt(score, out=score)
        return np.negative(score, out=score)
    np.negative(score, out=score)
    np.divide(score, 2.0 * references.kind.sigma**2, out=score)
    return np.exp(score, out=score)


def _sq_dists(t: np.ndarray, bank: MemoryBank, out: np.ndarray,
              work: np.ndarray) -> np.ndarray:
    """max(|t|^2 + |r|^2 - 2 t.r, 0) into ``out``; ``work`` is scratch."""
    np.matmul(t, bank.rows.T, out=out)
    out *= 2.0
    np.add(np.sum(t * t, axis=1)[:, None], bank.norms[None, :], out=work)
    np.subtract(work, out, out=out)
    return np.maximum(out, 0.0, out=out)


def pairwise_similarity_vjp(targets, references: MemoryBank,
                            upstream: np.ndarray, sim: np.ndarray) -> np.ndarray:
    """Gradient of sum(upstream * scores) w.r.t. the target rows.

    Bank entries are constants, so no gradient is returned for them.
    ``sim`` is the score matrix of ``targets`` against the same bank, as
    ``pairwise_similarity`` returned it; it is read, never recomputed. For
    the Gaussian kernel the bank's work buffer receives the
    upstream-weighted scores; ``upstream`` may be that buffer itself and is
    then overwritten. The returned gradient is a fresh array.
    """
    t = np.asarray(targets, dtype=np.float64)
    up = np.asarray(upstream, dtype=np.float64)
    if references.unit:
        tn = _check_norms(t, "target")
        that = t / tn[:, None]
        # d phi_i / dt = (rhat_i - phi_i * that) / |t|
        grad = up @ references.rows
        grad -= np.einsum("ij,ij->i", up, sim)[:, None] * that
        grad /= tn[:, None]
        return grad
    if references.kind.name == EUCLIDEAN:
        d = -sim
        coef = np.where(d > ZERO_NORM_TOL, up / np.maximum(d, ZERO_NORM_TOL), 0.0)
    else:
        _, work, _ = references.buffers(t.shape[0])
        coef = np.multiply(up, sim, out=work)
        coef /= references.kind.sigma**2
    # sum_i coef_ji * (r_i - t_j)
    return coef @ references.rows - coef.sum(axis=1, keepdims=True) * t


@dataclass
class PseudoLabelAssignment:
    """kNN pseudo-labels: one row per anchor."""

    labels: np.ndarray     # (n,) winning classes
    neighbors: np.ndarray  # (n, k) reference positions, most similar first


KNN_GROUPS = 64  # column groups whose maxima bound each row's k-th score


def assign_pseudo_labels(sim: np.ndarray, ref_labels, k: int,
                         num_classes: int, scratch=None) -> PseudoLabelAssignment:
    """Majority vote among the k most similar references, for every row of
    a similarity matrix; ``scratch``, a boolean array shaped like ``sim``,
    receives the candidate mask (fresh when None).

    Ties in similarity resolve to the smallest reference position; ties in
    the vote resolve by largest cumulative similarity, then smallest class.
    Every reference label must lie in [0, num_classes).
    """
    ref_labels = np.asarray(ref_labels, dtype=np.int64).reshape(-1)
    n, m = sim.shape
    if m < k:
        raise ConfigurationError(f"reference set of size {m} smaller than k={k}")
    if ref_labels.size != m:
        raise ConfigurationError(f"{ref_labels.size} labels for {m} references")
    bad = (ref_labels < 0) | (ref_labels >= num_classes)
    if bad.any():
        raise ConfigurationError(
            f"reference label {ref_labels[bad][0]} outside [0, {num_classes})")
    # Exact pruning: the maxima of g disjoint column groups are g entries of
    # the row at distinct positions, so their k-th largest is at most the
    # row's k-th largest score. Every entry that can be among the k nearest,
    # ties included, is at or above it. Group i holds columns i, i + g, ...
    # of the first m - m % g (a reshape view); the rest need no group.
    g = min(m, max(KNN_GROUPS, k))
    gmax = sim[:, :m - m % g].reshape(n, m // g, g).max(axis=1)
    thr = np.partition(gmax, g - k, axis=1)[:, g - k]
    cand = np.greater_equal(sim, thr[:, None], out=scratch)
    rows, cols = np.divmod(np.flatnonzero(cand), m)
    vals = sim[rows, cols]
    # candidates come in (row, position) order and lexsort is stable, so
    # sorting by (row, -score) keeps the smallest positions first among ties
    order = np.lexsort((-vals, rows))
    counts = np.bincount(rows, minlength=n)
    pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    neighbors = cols[pick]
    flat = (np.arange(n)[:, None] * num_classes + ref_labels[neighbors]).ravel()
    votes = np.bincount(flat, minlength=n * num_classes).reshape(n, num_classes)
    cumsim = np.zeros(n * num_classes)
    np.add.at(cumsim, flat, vals[pick].ravel())  # in neighbour order
    tied = np.where(votes == votes.max(axis=1, keepdims=True),
                    cumsim.reshape(n, num_classes), -np.inf)
    return PseudoLabelAssignment(tied.argmax(axis=1), neighbors)
