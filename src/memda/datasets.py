"""Synthetic covariate-shift datasets and the feature-table file format.

The generators are pure functions of their seeds. Domain shift never touches
labels: the target is the source distribution pushed through a fixed
orthonormal rotation plus noise, so the true labeling function is carried
over unchanged.

Target labels exist for evaluation only. ``DomainDataset.train_labels``
raises on a target-tagged dataset; the trainer's loss path uses that
accessor, evaluation code uses ``eval_labels``.

Class means use ``ndtri``, a Cephes port pinned bitwise to scipy by a test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import default_rng  # loaded with the module, not on first use

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
    """Deterministic covariate shift: block rotations + noise."""

    rotation: float = 0.0           # radians, applied in every (2i, 2i+1) plane
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.noise >= 0:  # written this way round to reject NaN too
            raise ConfigurationError(f"shift_noise must be >= 0, got {self.noise}")

    @staticmethod
    def from_degrees(degrees: float, noise: float = 0.0,
                     seed: int = 0) -> "ShiftSpec":
        return ShiftSpec(np.deg2rad(degrees), noise, seed)


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


# Cephes ndtri: a rational function of y - 1/2 in the centre, of 1/x with
# x = sqrt(-2 log y) in the tails. Highest power first; the Q polynomials'
# leading 1 (implicit in Cephes' p1evl) is written out, and 1.0 * x is exact.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef):
    ans = coef[0]  # Horner form
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(p) -> np.ndarray:
    """Inverse standard normal CDF on (0, 1), elementwise, with Cephes'
    operation order; tail logs and square roots round as libm's."""
    p = np.asarray(p, dtype=np.float64)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = np.array([math.sqrt(-2.0 * math.log(v)) for v in y[~mid].tolist()])
    x0 = x - np.array([math.log(v) for v in x.tolist()]) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    out[~mid] = np.where(upper[~mid], x0 - x1, x1 - x0)
    return out


def mixture_means(num_classes: int, dim: int, spread: float) -> np.ndarray:
    """Deterministic class centres: low-discrepancy points pushed to the
    sphere of radius ``spread`` (Halton sequence through ``ndtri``, the Cephes
    inverse normal CDF port a test pins bitwise to scipy, then normalized)."""
    cols = [_halton_column(num_classes, b) for b in _primes(dim)]
    z = ndtri(np.stack(cols, axis=1))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return spread * z / norms


def check_mixture(num_classes: int, dim: int, n_per_class: int,
                  class_spread: float, within_class_std: float) -> None:
    """Raise ``ConfigurationError`` for settings no mixture can be drawn from."""
    if num_classes < 2 or dim < 2:
        raise ConfigurationError("need at least 2 classes and 2 dimensions")
    if n_per_class < 1:
        raise ConfigurationError("n_per_class must be >= 1 (empty dataset)")
    if class_spread <= 0 or within_class_std < 0:
        raise ConfigurationError("degenerate spread/std")


def gen_gaussian_mixture(num_classes: int, dim: int, n_per_class: int,
                         class_spread: float, within_class_std: float,
                         seed: int) -> DomainDataset:
    """Isotropic Gaussian blobs around deterministically placed class means."""
    check_mixture(num_classes, dim, n_per_class, class_spread, within_class_std)
    means = mixture_means(num_classes, dim, class_spread)
    rng = default_rng(seed)
    labels = np.repeat(np.arange(num_classes), n_per_class)
    feats = rng.normal(0.0, within_class_std, size=(labels.size, dim))
    feats += means[labels]  # in place; addition commutes, so bits are equal
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
    """x <- R x + noise; labels copied verbatim, domain tag set to target."""
    r = rotation_matrix(dataset.dim, spec.rotation)
    x = dataset.features @ r.T
    if spec.noise > 0:
        rng = default_rng(spec.seed)
        x += rng.normal(0.0, spec.noise, size=x.shape)
    return DomainDataset(x, TARGET, dataset.num_classes, dataset._labels.copy())


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


# a run samples two domains, and a batch of at most n rows straddles at most
# two epochs, so 4 entries serve every call; larger batches only recompute
@lru_cache(maxsize=4)
def _epoch_perm(n: int, seed: int, epoch: int) -> np.ndarray:
    perm = default_rng([seed, epoch]).permutation(n)
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
    out = np.empty(batch_size, dtype=np.int64)
    first, pos = divmod(iteration * batch_size, n)
    # epoch e fills out[lo:lo + n], its start lo < 0 for the epoch under way
    for epoch, lo in enumerate(range(-pos, batch_size, n), start=first):
        out[max(lo, 0):lo + n] = _epoch_perm(n, seed, epoch)[max(-lo, 0):batch_size - lo]
    return out
