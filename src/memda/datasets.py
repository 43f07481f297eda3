"""Synthetic covariate-shift datasets and the feature-table file format.

The generators are pure functions of their seeds. Domain shift never touches
labels: the target is the source distribution pushed through a fixed
orthonormal rotation plus translation and noise, so the true labeling
function is carried over unchanged.

Target labels exist for evaluation only. ``DomainDataset.train_labels``
raises on a target-tagged dataset; the trainer's loss path uses that
accessor, evaluation code uses ``eval_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .errors import ConfigurationError, DataFormatError

SOURCE = "source"
TARGET = "target"


@dataclass
class DomainDataset:
    features: np.ndarray      # (n, d) float64
    domain: str               # "source" or "target"
    num_classes: int
    _labels: np.ndarray       # class indices; -1 marks unlabeled rows

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def train_labels(self) -> np.ndarray:
        """Labels for the training loss; forbidden on the target domain."""
        if self.domain != SOURCE:
            raise ConfigurationError(
                "target labels are evaluation-only and not exposed to training"
            )
        return self._labels

    def eval_labels(self) -> np.ndarray:
        return self._labels


@dataclass(frozen=True)
class ShiftSpec:
    """Deterministic covariate shift: block rotations + translation + noise."""

    rotation: float = 0.0           # radians, applied in every (2i, 2i+1) plane
    translation: np.ndarray | None = None
    noise: float = 0.0
    seed: int = 0

    @staticmethod
    def from_degrees(degrees: float, translation=None, noise: float = 0.0,
                     seed: int = 0) -> "ShiftSpec":
        return ShiftSpec(np.deg2rad(degrees), translation, noise, seed)


def _halton_column(n: int, base: int) -> np.ndarray:
    # radical inverse of 1..n in the given base, values strictly inside (0, 1)
    out = np.zeros(n)
    for row in range(n):
        i, f, x = row + 1, 1.0, 0.0
        while i > 0:
            f /= base
            x += f * (i % base)
            i //= base
        out[row] = x
    return out


def _primes(count: int) -> list[int]:
    primes, cand = [], 2
    while len(primes) < count:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


def mixture_means(num_classes: int, dim: int, spread: float) -> np.ndarray:
    """Deterministic class centres: low-discrepancy points pushed to the
    sphere of radius ``spread`` (Halton sequence through the inverse normal
    CDF, then normalized)."""
    cols = [_halton_column(num_classes, b) for b in _primes(dim)]
    z = ndtri(np.stack(cols, axis=1))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return spread * z / norms


def gen_gaussian_mixture(num_classes: int, dim: int, n_per_class: int,
                         class_spread: float, within_class_std: float,
                         seed: int) -> DomainDataset:
    """Isotropic Gaussian blobs around deterministically placed class means."""
    if num_classes < 2 or dim < 2:
        raise ConfigurationError("need at least 2 classes and 2 dimensions")
    if n_per_class < 1:
        raise ConfigurationError("n_per_class must be >= 1 (empty dataset)")
    if class_spread <= 0 or within_class_std < 0:
        raise ConfigurationError("degenerate spread/std")
    means = mixture_means(num_classes, dim, class_spread)
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), n_per_class)
    noise = rng.normal(0.0, within_class_std, size=(labels.size, dim))
    feats = means[labels] + noise
    return DomainDataset(feats, SOURCE, num_classes, labels)


def rotation_matrix(dim: int, angle: float) -> np.ndarray:
    """Block-diagonal rotation by ``angle`` in each consecutive 2-plane."""
    r = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for i in range(0, dim - 1, 2):
        r[i, i], r[i, i + 1] = c, -s
        r[i + 1, i], r[i + 1, i + 1] = s, c
    return r


def apply_domain_shift(dataset: DomainDataset, spec: ShiftSpec) -> DomainDataset:
    """x <- R x + t + noise; labels copied verbatim, domain tag set to target."""
    r = rotation_matrix(dataset.dim, spec.rotation)
    x = dataset.features @ r.T
    if spec.translation is not None:
        t = np.asarray(spec.translation, dtype=np.float64)
        if t.shape != (dataset.dim,):
            raise ConfigurationError("translation width mismatch")
        x = x + t
    if spec.noise > 0:
        rng = np.random.default_rng(spec.seed)
        x = x + rng.normal(0.0, spec.noise, size=x.shape)
    return DomainDataset(x, TARGET, dataset.num_classes, dataset._labels.copy())


def gen_two_moons(n: int, noise: float, rotation: float, seed: int):
    """Interleaved half-circles; target is an independent draw rotated by
    ``rotation`` radians. Returns (source, target)."""
    if n < 2:
        raise ConfigurationError("need n >= 2")

    def draw(s):
        rng = np.random.default_rng(s)
        n_up = n // 2
        n_lo = n - n_up
        t_up = rng.uniform(0.0, np.pi, n_up)
        t_lo = rng.uniform(0.0, np.pi, n_lo)
        upper = np.column_stack((np.cos(t_up), np.sin(t_up)))
        lower = np.column_stack((1.0 - np.cos(t_lo), 0.5 - np.sin(t_lo)))
        x = np.vstack((upper, lower))
        y = np.concatenate((np.zeros(n_up, dtype=np.int64),
                            np.ones(n_lo, dtype=np.int64)))
        if noise > 0:
            x = x + rng.normal(0.0, noise, size=x.shape)
        return x, y

    xs, ys = draw(seed)
    xt, yt = draw(seed + 1)
    source = DomainDataset(xs, SOURCE, 2, ys)
    r = rotation_matrix(2, rotation)
    target = DomainDataset(xt @ r.T, TARGET, 2, yt)
    return source, target


# ---------------------------------------------------------------------------
# feature-table files: UTF-8, comma-delimited, '#' comments; the first
# non-comment line is the header "dim,num_classes", every following line is
# "label,f1,...,fdim" with label -1 for unlabeled rows.


def save_feature_table(path, dataset: DomainDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# domain: {dataset.domain}\n")
        fh.write(f"{dataset.dim},{dataset.num_classes}\n")
        for label, row in zip(dataset._labels, dataset.features):
            fh.write(f"{int(label)}," + ",".join(repr(float(v)) for v in row) + "\n")


def load_feature_table(path, domain: str = SOURCE) -> DomainDataset:
    if domain not in (SOURCE, TARGET):
        raise ConfigurationError(f"unknown domain tag {domain!r}")
    dim = num_classes = None
    feats, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if dim is None:
                if len(parts) != 2:
                    raise DataFormatError(
                        f"{path}:{lineno}: header must be 'dim,num_classes'"
                    )
                try:
                    dim, num_classes = int(parts[0]), int(parts[1])
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{lineno}: bad header: {exc}") from exc
                if dim < 1 or num_classes < 1:
                    raise DataFormatError(f"{path}:{lineno}: non-positive header")
                continue
            if len(parts) != dim + 1:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {dim + 1} fields, got {len(parts)}"
                )
            try:
                label = int(parts[0])
                row = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if not np.all(np.isfinite(row)):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
            if label >= num_classes or label < -1:
                raise DataFormatError(f"{path}:{lineno}: label {label} out of range")
            if label == -1 and domain == SOURCE:
                raise DataFormatError(
                    f"{path}:{lineno}: unlabeled row in a source table"
                )
            labels.append(label)
            feats.append(row)
    if dim is None:
        raise DataFormatError(f"{path}: no header line")
    if not feats:
        raise DataFormatError(f"{path}: no data rows")
    return DomainDataset(np.array(feats), domain, num_classes,
                         np.array(labels, dtype=np.int64))


@lru_cache(maxsize=16)
def _epoch_perm(n: int, seed: int, epoch: int) -> np.ndarray:
    perm = np.random.default_rng([seed, epoch]).permutation(n)
    perm.flags.writeable = False  # cached; callers only index it
    return perm


def batch_sampler(dataset: DomainDataset, batch_size: int, seed: int,
                  iteration: int) -> np.ndarray:
    """Indices of the mini-batch at ``iteration``.

    Reshuffle-per-epoch semantics: conceptually the epoch permutations are
    concatenated into one infinite stream and the batch is a contiguous
    slice, so over any aligned epoch every sample appears exactly once.
    Pure function of (seed, iteration).
    """
    n = len(dataset)
    if n == 0:
        raise ConfigurationError("empty dataset")
    positions = np.arange(iteration * batch_size, (iteration + 1) * batch_size)
    out = np.empty(batch_size, dtype=np.int64)
    for epoch in np.unique(positions // n):
        mask = positions // n == epoch
        out[mask] = _epoch_perm(n, seed, int(epoch))[positions[mask] % n]
    return out
