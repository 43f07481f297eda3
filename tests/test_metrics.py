import numpy as np
import pytest

from memda.bank import MemoryBank
from memda.errors import ConfigurationError
from memda.metrics import (
    accuracy,
    macro_accuracy,
    mean_similarity_both,
    per_class_accuracy,
    pseudo_label_accuracy,
)
from memda.similarity import COSINE, SimilarityKind, assign_pseudo_labels, pairwise_similarity

COS = SimilarityKind(COSINE)


def test_accuracy_basic():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2, 3, 4], [1, 2, 0, 0]) == 0.5
    with pytest.raises(ConfigurationError):
        accuracy([], [])
    rng = np.random.default_rng(0)
    p = rng.integers(0, 4, size=200)
    t = rng.integers(0, 4, size=200)
    assert accuracy(p, t) == sum(int(a == b) for a, b in zip(p, t)) / 200


def test_per_class_accuracy():
    assert per_class_accuracy([0, 0], [0, 0], 1).tolist() == [1.0]
    out = per_class_accuracy([0, 1], [0, 1], 3)
    assert out[0] == 1.0 and out[1] == 1.0 and np.isnan(out[2])
    # 3-class handcrafted confusion: class0 2/3 right, class1 0/2, class2 1/1
    preds = [0, 0, 1, 0, 0, 2]
    truth = [0, 0, 0, 1, 1, 2]
    out = per_class_accuracy(preds, truth, 3)
    assert out.tolist() == pytest.approx([2 / 3, 0.0, 1.0])


def test_macro_average_on_balanced_sets_equals_accuracy():
    preds = [0, 1, 1, 0, 2, 2]
    truth = [0, 1, 0, 1, 2, 2]
    per = per_class_accuracy(preds, truth, 3)
    assert macro_accuracy(per) == pytest.approx(accuracy(preds, truth))


def test_mean_similarity_modes():
    # (averaged, literal): mean vs sum over each anchor's positives
    # positives come as flat row-major indices into sim
    sim = np.array([[0.8, -0.5]])
    assert mean_similarity_both(sim, np.array([0])) == pytest.approx((0.8, 0.8))
    sim = np.array([[0.5, 0.7, 0.0]])
    assert mean_similarity_both(sim, np.array([0, 1])) == pytest.approx((0.6, 1.2))
    sim = np.array([[0.5, 0.7, 0.0], [0.1, 0.2, 0.3]])
    assert mean_similarity_both(sim, np.array([1, 3, 5])) == pytest.approx(
        ((0.7 + 0.2) / 2, (0.7 + 0.4) / 2))


def test_mean_similarity_all_identical_anchors():
    bank = MemoryBank(8, 2, COS)
    bank.enqueue(np.array([[2.0, 0.0], [4.0, 0.0]]), [1, 1])
    targets = np.array([[1.0, 0.0]])
    sim = pairwise_similarity(targets, bank.references, COS)
    assignment = assign_pseudo_labels(sim, bank.labels(), 1, 2)
    pos = bank.labels()[None, :] == assignment.labels[:, None]
    averaged, _ = mean_similarity_both(sim, np.flatnonzero(pos))
    assert averaged == pytest.approx(1.0, abs=1e-12)


def test_mean_similarity_excludes_empty_anchors():
    sim = np.array([[0.9, 0.9], [0.1, 0.1]])
    assert mean_similarity_both(sim, np.array([0]))[0] == pytest.approx(0.9)
    none = np.array([], dtype=np.int64)
    assert mean_similarity_both(sim, none) == (0.0, 0.0)


def test_averaged_mode_bounded_for_cosine():
    rng = np.random.default_rng(1)
    sim = np.clip(rng.normal(size=(6, 30)), -1.0, 1.0)
    pos = rng.uniform(size=(6, 30)) < 0.3
    v, _ = mean_similarity_both(sim, np.flatnonzero(pos))
    assert -1.0 <= v <= 1.0


def test_pseudo_label_accuracy():
    assert pseudo_label_accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert pseudo_label_accuracy([1, 2, 3], [0, 0, 0]) == 0.0
    assert pseudo_label_accuracy([1, 2, 3, 4], [1, 0, 3, 0]) == 0.5
    # unlabeled target rows are excluded
    assert pseudo_label_accuracy([1, 2], [1, -1]) == 1.0
    assert np.isnan(pseudo_label_accuracy([1, 2], [-1, -1]))


def test_metrics_are_pure():
    rng = np.random.default_rng(2)
    p = rng.integers(0, 3, size=50)
    t = rng.integers(0, 3, size=50)
    assert accuracy(p, t) == accuracy(p, t)
    assert np.array_equal(
        per_class_accuracy(p, t, 3), per_class_accuracy(p, t, 3), equal_nan=True)
