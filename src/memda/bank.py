"""Fixed-capacity FIFO store of past source features and labels.

The bank is the consistency loss's reference set, and the only one: each
training iteration appends the fresh source batch and, once full, drops
exactly the oldest entries. The batch variant of the loss, which scores
targets against the current source batch alone, is a bank whose capacity is
the batch size, filled once per step. Stored features are detached copies;
no gradient ever flows back into them.

A bank serves one similarity kernel, its ``kind``, fixed when it is built
with the capacity and the feature width. It stores one representation per
row, chosen by that kernel and written once, at enqueue, for the new rows
only:

    cosine               unit rows r/|r| and norms |r|; a (near-)zero row
                         is rejected at enqueue with its row index
    euclidean, gaussian  raw rows r and squared norms |r|^2

``rows`` and ``norms`` are that representation over the stored entries,
oldest first. The bank also owns the score, work and mask buffers
(``buffers``) that the kernels and the consistency loss reuse on every
call, so what that loss returns aliases them until its next call on this
bank.
"""

from __future__ import annotations

import numpy as np

from . import similarity as simmod
from .errors import ConfigurationError
from .nn import MLP, as_batch


class MemoryBank:
    """FIFO ring of (feature, label) pairs, oldest first, laid out for the
    kernel ``kind``."""

    def __init__(self, capacity: int, feature_dim: int,
                 kind: simmod.SimilarityKind):
        if capacity < 1:
            raise ConfigurationError("bank capacity must be >= 1")
        self.capacity = int(capacity)
        self.feature_dim = int(feature_dim)
        # storage is mirrored (2x capacity, every row written twice) so the
        # oldest-to-newest window is always one contiguous zero-copy slice
        self._features = np.zeros((2 * self.capacity, self.feature_dim))
        self._norms = np.zeros(2 * self.capacity)
        self._labels = np.zeros(2 * self.capacity, dtype=np.int64)
        self._head = 0  # ring position of the oldest entry once full
        self._size = 0
        self.kind = kind
        self.unit = kind.name == simmod.COSINE
        self.rows = self._features[:0]  # the stored window, oldest first
        self.norms = self._norms[:0]
        self._flat = None  # (2, size): flat score and work storage
        self._mask = None  # (size,): flat mask storage

    def __len__(self) -> int:
        return self._size

    def buffers(self, n: int):
        """(score, work, mask): contiguous n x len(self) matrices, the first
        two of floats, the last of bools.

        The storage is sized for n rows against a full bank the first time
        it must grow, so filling the bank reuses it and only a larger n
        replaces it.
        """
        size = n * self._size
        if self._flat is None or self._flat.shape[1] < size:
            self._flat = np.empty((2, n * self.capacity))
            self._mask = np.empty(n * self.capacity, dtype=bool)
        flat, shape = self._flat[:, :size], (n, self._size)
        mask = self._mask[:size].reshape(shape)
        return flat[0].reshape(shape), flat[1].reshape(shape), mask

    def enqueue(self, features, labels) -> None:
        """Append a 2-D batch, evicting the oldest overflow entries if needed."""
        feats = as_batch(features)
        labs = np.asarray(labels, dtype=np.int64).reshape(-1)
        if feats.shape[0] != labs.shape[0]:
            raise ConfigurationError(
                f"{feats.shape[0]} features vs {labs.shape[0]} labels"
            )
        if feats.shape[1] != self.feature_dim:
            raise ConfigurationError(
                f"feature width {feats.shape[1]} != bank width {self.feature_dim}"
            )

        # a batch larger than the whole ring keeps only its newest entries
        if feats.shape[0] > self.capacity:
            feats = feats[-self.capacity:]
            labs = labs[-self.capacity:]
        rows, norms = simmod.prepare_rows(feats, self.unit, "enqueued")
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
        self.rows = self._features[window]
        self.norms = self._norms[window]

    def labels(self) -> np.ndarray:
        """Stored labels, oldest to newest (zero-copy view)."""
        return self._labels[self._head:self._head + self._size]


def momentum_update(slow: MLP, fast: MLP, mu: float) -> None:
    """In-place slow-encoder update over the flat parameter vectors:
    theta_slow <- (1-mu)*theta_fast + mu*theta_slow."""
    if not 0.0 <= mu <= 1.0:
        raise ConfigurationError(f"momentum coefficient {mu} outside [0, 1]")
    if slow.sizes != fast.sizes:
        raise ConfigurationError("encoder copies have different layouts")
    ps, pf = slow.flat_params, fast.flat_params
    if mu == 0.0:
        ps[...] = pf  # bitwise copy
    elif mu != 1.0:  # mu == 1 is the identity
        ps *= mu
        ps += (1.0 - mu) * pf
