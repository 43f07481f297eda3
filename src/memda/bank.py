"""Fixed-capacity FIFO store of past source features and labels.

The bank is the large proxy for the source mini-batch in the consistency
loss: each training iteration appends the fresh source batch and, once full,
drops exactly the oldest entries. Stored features are detached copies; no
gradient ever flows back into them.

A bank stores one representation per row, chosen by the similarity kind it
serves and written once, at enqueue, for the new rows only:

    cosine               unit rows r/|r| and norms |r|; a (near-)zero row
                         is rejected at enqueue with its row index
    euclidean, gaussian  raw rows r and squared norms |r|^2
    no kind (default)    raw rows r and squared norms |r|^2

``references`` is the ``similarity.ReferenceSet`` over the stored rows,
oldest first. It owns the score and work buffers the consistency loss
reuses on every call, so what that loss returns aliases them until its next
call on this bank.
"""

from __future__ import annotations

import numpy as np

from . import similarity as simmod
from .errors import ConfigurationError
from .nn import MLP


class MemoryBank:
    """FIFO ring of (feature, label) pairs, oldest first."""

    def __init__(self, capacity: int, feature_dim: int | None = None,
                 kind: simmod.SimilarityKind | None = None):
        if capacity < 1:
            raise ConfigurationError("bank capacity must be >= 1")
        self.capacity = int(capacity)
        self.feature_dim = feature_dim
        # storage is mirrored (2x capacity, every row written twice) so the
        # oldest-to-newest window is always one contiguous zero-copy slice
        self._features = None  # allocated lazily on first enqueue
        self._norms = None
        self._labels = None
        self._head = 0  # ring position of the oldest entry once full
        self._size = 0
        self.references = simmod.ReferenceSet(
            kind is not None and kind.name == simmod.COSINE,
            np.zeros((0, feature_dim or 0)), np.zeros(0))

    def __len__(self) -> int:
        return self._size

    @property
    def size(self) -> int:
        return self._size

    def ready(self, min_entries: int) -> bool:
        return self._size >= min_entries

    def enqueue(self, features, labels) -> None:
        """Append a batch, evicting the oldest overflow entries if needed."""
        feats = np.array(features, dtype=np.float64, copy=True)
        if feats.ndim == 1:
            feats = feats[None, :]
        labs = np.array(labels, dtype=np.int64, copy=True).reshape(-1)
        if feats.shape[0] != labs.shape[0]:
            raise ConfigurationError(
                f"{feats.shape[0]} features vs {labs.shape[0]} labels"
            )
        if self._features is None:
            dim = self.feature_dim if self.feature_dim is not None else feats.shape[1]
            self.feature_dim = dim
            self._features = np.zeros((2 * self.capacity, dim))
            self._norms = np.zeros(2 * self.capacity)
            self._labels = np.zeros(2 * self.capacity, dtype=np.int64)
        if feats.shape[1] != self.feature_dim:
            raise ConfigurationError(
                f"feature width {feats.shape[1]} != bank width {self.feature_dim}"
            )

        # a batch larger than the whole ring keeps only its newest entries
        if feats.shape[0] > self.capacity:
            feats = feats[-self.capacity:]
            labs = labs[-self.capacity:]
        rows, norms = simmod.prepare_rows(feats, self.references.unit,
                                          "enqueued")
        n = feats.shape[0]
        write = (self._head + self._size) % self.capacity
        tail = min(n, self.capacity - write)
        for offset in (0, self.capacity):  # mirror every write
            lo = write + offset
            self._features[lo:lo + tail] = rows[:tail]
            self._norms[lo:lo + tail] = norms[:tail]
            self._labels[lo:lo + tail] = labs[:tail]
            if tail < n:
                self._features[offset:offset + n - tail] = rows[tail:]
                self._norms[offset:offset + n - tail] = norms[tail:]
                self._labels[offset:offset + n - tail] = labs[tail:]
        overflow = max(0, self._size + n - self.capacity)
        self._head = (self._head + overflow) % self.capacity
        self._size = min(self._size + n, self.capacity)
        window = slice(self._head, self._head + self._size)
        self.references.rows = self._features[window]
        self.references.norms = self._norms[window]

    def features(self) -> np.ndarray:
        """Stored rows, oldest to newest (zero-copy view): unit rows for a
        cosine bank, raw rows otherwise."""
        return self.references.rows

    def labels(self) -> np.ndarray:
        if self._size == 0:
            return np.zeros(0, dtype=np.int64)
        return self._labels[self._head:self._head + self._size]


def momentum_update(slow: MLP, fast: MLP, mu: float) -> None:
    """In-place slow-encoder update: theta_slow <- (1-mu)*theta_fast + mu*theta_slow."""
    if not 0.0 <= mu <= 1.0:
        raise ConfigurationError(f"momentum coefficient {mu} outside [0, 1]")
    slow_params = slow.parameters()
    fast_params = fast.parameters()
    if len(slow_params) != len(fast_params):
        raise ConfigurationError("encoder copies have different layouts")
    for ps, pf in zip(slow_params, fast_params):
        if ps.shape != pf.shape:
            raise ConfigurationError("encoder copies have different shapes")
        if mu == 0.0:
            ps[...] = pf  # bitwise copy
        elif mu != 1.0:  # mu == 1 is the identity
            ps *= mu
            ps += (1.0 - mu) * pf
