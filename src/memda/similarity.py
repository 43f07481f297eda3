"""Similarity kernels, pairwise score matrices and pseudo-labeling.

All kernels follow the "larger is more similar" contract: cosine in [-1, 1],
Euclidean as negated L2 distance, Gaussian as exp(-d^2 / (2 sigma^2)).
Pseudo-labels come from a k-nearest-neighbour majority vote over a
reference set (the memory bank or the source batch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, GatingError

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
        if self.name == GAUSSIAN and not self.sigma > 0:
            raise ConfigurationError("Gaussian similarity needs sigma > 0")


def _check_norms(x: np.ndarray, who: str) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    bad = np.where(norms <= ZERO_NORM_TOL)[0]
    if bad.size:
        raise DegenerateInputError(
            f"cosine similarity on (near-)zero {who} vector at row {bad[0]}"
        )
    return norms


def prepare_rows(rows: np.ndarray, unit: bool, who: str = "reference"):
    """The (rows, norms) pair a reference set holds for raw feature rows.

    unit: (r / |r|, |r|), rejecting (near-)zero rows; otherwise (r, |r|^2).
    Row by row, these are the values the kernels would compute from r.
    """
    if unit:
        norms = _check_norms(rows, who)
        return rows / norms[:, None], norms
    return rows, np.sum(rows * rows, axis=1)


class ReferenceSet:
    """Reference rows in the form the kernels consume, plus reused buffers.

    ``unit`` sets the layout: a cosine set holds unit rows r/|r| and
    ``norms`` = |r|; a Euclidean or Gaussian set holds the raw rows and
    ``norms`` = |r|^2. A set serves only the kernels of its layout. The
    memory bank keeps one set over its ring, written once per row at
    enqueue; other reference rows (the source batch, a plain array) are
    wrapped in a transient set per call.

    The set owns one score matrix and one work matrix of n x len(self)
    entries, reused by every call on it: the scores ``pairwise_similarity``
    returns and the work ``pairwise_similarity_vjp`` and the consistency loss
    write alias these buffers and stay valid until the next call on the set.
    """

    def __init__(self, unit: bool, rows: np.ndarray, norms: np.ndarray):
        self.unit = unit
        self.rows = rows
        self.norms = norms
        self._flat = None  # (2, size): flat score and work storage

    def __len__(self) -> int:
        return self.rows.shape[0]

    def buffers(self, n: int):
        """(score, work): two contiguous n x len(self) matrices.

        The storage only grows, so once a bank is full every call reuses it.
        """
        size = n * len(self)
        if self._flat is None or self._flat.shape[1] < size:
            self._flat = np.empty((2, size))
        shape = (n, len(self))
        return self._flat[0, :size].reshape(shape), self._flat[1, :size].reshape(shape)


def reference_set(references, kind: SimilarityKind) -> ReferenceSet:
    """``references`` as a set laid out for ``kind``: a set must already
    have that layout; raw rows are wrapped in a transient set."""
    unit = kind.name == COSINE
    if isinstance(references, ReferenceSet):
        if references.unit != unit:
            raise ConfigurationError(
                f"a reference set of {'unit' if references.unit else 'raw'} "
                f"rows cannot serve the {kind.name} kernel")
        return references
    rows = np.asarray(references, dtype=np.float64)
    return ReferenceSet(unit, *prepare_rows(rows, unit))


def pairwise_similarity(targets, references, kind: SimilarityKind) -> np.ndarray:
    """Score matrix with entry (j, i) = the score of target j vs reference i.

    ``references`` is a ``ReferenceSet`` or an array of raw rows. The result
    is the set's score buffer (see ``ReferenceSet``).
    """
    t = np.asarray(targets, dtype=np.float64)
    refs = reference_set(references, kind)
    if len(refs) == 0:
        raise ConfigurationError("reference set is empty")
    if t.shape[1] != refs.rows.shape[1]:
        raise ConfigurationError(
            f"widths differ: {t.shape[1]} vs {refs.rows.shape[1]}")
    score, work = refs.buffers(t.shape[0])
    if refs.unit:
        tn = _check_norms(t, "target")
        return np.matmul(t / tn[:, None], refs.rows.T, out=score)
    _sq_dists(t, refs, score, work)
    if kind.name == EUCLIDEAN:
        np.sqrt(score, out=score)
        return np.negative(score, out=score)
    np.negative(score, out=score)
    np.divide(score, 2.0 * kind.sigma**2, out=score)
    return np.exp(score, out=score)


def _sq_dists(t: np.ndarray, refs: ReferenceSet, out: np.ndarray,
              work: np.ndarray) -> np.ndarray:
    """max(|t|^2 + |r|^2 - 2 t.r, 0) into ``out``; ``work`` is scratch."""
    np.matmul(t, refs.rows.T, out=out)
    out *= 2.0
    np.add(np.sum(t * t, axis=1)[:, None], refs.norms[None, :], out=work)
    np.subtract(work, out, out=out)
    return np.maximum(out, 0.0, out=out)


def pairwise_similarity_vjp(targets, references, kind: SimilarityKind,
                            upstream: np.ndarray,
                            sim: np.ndarray | None = None) -> np.ndarray:
    """Gradient of sum(upstream * scores) w.r.t. the target rows.

    References are constants (bank entries or detached source features), so
    no gradient is returned for them. Pass the score matrix already computed
    on the same set as ``sim`` to skip recomputing it. The set's work buffer
    receives the upstream-weighted scores; ``upstream`` may be that buffer
    itself (when ``sim`` is given) and is then overwritten. The returned
    gradient is a fresh array.
    """
    t = np.asarray(targets, dtype=np.float64)
    refs = reference_set(references, kind)
    up = np.asarray(upstream, dtype=np.float64)
    phi = sim if sim is not None else pairwise_similarity(t, refs, kind)
    _, work = refs.buffers(t.shape[0])
    if refs.unit:
        tn = _check_norms(t, "target")
        that = t / tn[:, None]
        # d phi_i / dt = (rhat_i - phi_i * that) / |t|
        grad = up @ refs.rows
        np.multiply(up, phi, out=work)
        grad -= work.sum(axis=1, keepdims=True) * that
        grad /= tn[:, None]
        return grad
    if kind.name == EUCLIDEAN:
        d = -phi
        coef = np.where(d > ZERO_NORM_TOL, up / np.maximum(d, ZERO_NORM_TOL), 0.0)
    else:
        coef = np.multiply(up, phi, out=work)
        coef /= kind.sigma**2
    # sum_i coef_ji * (r_i - t_j)
    return coef @ refs.rows - coef.sum(axis=1, keepdims=True) * t


@dataclass
class PseudoLabelAssignment:
    """kNN pseudo-labels: one row per anchor."""

    labels: np.ndarray     # (n,) winning classes
    neighbors: np.ndarray  # (n, k) reference positions, most similar first
    votes: np.ndarray      # (n, num_classes) per-class neighbour counts


def _top_k(sim_row: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest scores, most similar first.

    Exactly reproduces a full stable sort by (-score, position): among equal
    scores the smallest positions win, without the O(m log m) full sort.
    """
    m = sim_row.size
    if k >= m:
        candidates = np.arange(m)
    else:
        kth = np.partition(sim_row, m - k)[m - k]
        above = np.flatnonzero(sim_row > kth)
        ties = np.flatnonzero(sim_row == kth)[: k - above.size]
        candidates = np.concatenate((above, ties))
    return candidates[np.argsort(-sim_row[candidates], kind="stable")]


def _vote(nbrs: np.ndarray, sim_row: np.ndarray, ref_labels: np.ndarray,
          num_classes: int):
    """(winning class, per-class vote counts) among the neighbours."""
    votes = np.zeros(num_classes, dtype=np.int64)
    cumsim = np.zeros(num_classes)
    for idx in nbrs:
        c = ref_labels[idx]
        votes[c] += 1
        cumsim[c] += sim_row[idx]
    best = votes.max()
    tied = np.where(votes == best)[0]
    if tied.size > 1:
        # break by largest cumulative similarity, then smallest class index
        tied = tied[cumsim[tied] == cumsim[tied].max()]
    return int(tied[0]), votes


def assign_pseudo_labels(sim: np.ndarray, ref_labels, k: int,
                         num_classes: int) -> PseudoLabelAssignment:
    """Majority vote among the k most similar references, for every row of
    a similarity matrix.

    Ties in similarity resolve to the smallest reference position; ties in
    the vote resolve by largest cumulative similarity, then smallest class.
    """
    ref_labels = np.asarray(ref_labels, dtype=np.int64).reshape(-1)
    if sim.shape[1] < k:
        raise GatingError(f"reference set of size {sim.shape[1]} smaller than k={k}")
    n = sim.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    neighbors = np.zeros((n, k), dtype=np.int64)
    votes = np.zeros((n, num_classes), dtype=np.int64)
    for j in range(n):
        neighbors[j] = _top_k(sim[j], k)
        labels[j], votes[j] = _vote(neighbors[j], sim[j], ref_labels,
                                    num_classes)
    return PseudoLabelAssignment(labels, neighbors, votes)
