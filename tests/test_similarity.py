import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_knn
from memda.errors import ConfigurationError, DegenerateInputError, GatingError
from memda.similarity import (
    COSINE,
    EUCLIDEAN,
    GAUSSIAN,
    ReferenceSet,
    SimilarityKind,
    assign_pseudo_labels,
    pairwise_similarity,
    pairwise_similarity_vjp,
)

COS = SimilarityKind(COSINE)
EUC = SimilarityKind(EUCLIDEAN)
GAU = SimilarityKind(GAUSSIAN, sigma=1.0)


def pair_oracle(a, b, kind):
    """Closed-form score of one pair, computed directly from its definition."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if kind.name == COSINE:
        return float(a @ b) / (np.sqrt(a @ a) * np.sqrt(b @ b))
    d2 = float((a - b) @ (a - b))
    if kind.name == EUCLIDEAN:
        return -np.sqrt(d2)
    return np.exp(-d2 / (2.0 * kind.sigma**2))


def score(a, b, kind):
    """Entry (0, 0) of the score matrix of one target against one reference."""
    return pairwise_similarity(np.array([a], dtype=float),
                               np.array([b], dtype=float), kind)[0, 0]


def knn_row(sim_row, labels, k, num_classes):
    """(label, neighbours, votes) of a single anchor's kNN assignment."""
    a = assign_pseudo_labels(np.array([sim_row], dtype=float), labels, k,
                             num_classes)
    return int(a.labels[0]), list(a.neighbors[0]), list(a.votes[0])


def test_cosine_identical_directions():
    t = np.array([[1.0, 0.0], [2.0, 2.0], [-3.0, 1.0]])
    m = pairwise_similarity(t, np.array([[5.0, 0.0], [0.5, 0.5], [-6.0, 2.0]]), COS)
    assert np.diag(m) == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)


def test_cosine_hand_value():
    expected = 11.0 / (np.sqrt(5.0) * 5.0)  # dot / (|a| |b|) computed directly
    got = score([1.0, 2.0], [3.0, 4.0], COS)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.98387, abs=1e-4)


def test_euclidean_three_four_five():
    assert score([0.0, 0.0], [3.0, 4.0], EUC) == pytest.approx(-5.0, abs=1e-12)


def test_gaussian_is_exp_of_half_square_distance():
    d2 = 25.0
    assert score([0.0, 0.0], [3.0, 4.0], GAU) == pytest.approx(np.exp(-d2 / 2.0))
    wide = SimilarityKind(GAUSSIAN, sigma=5.0)
    assert score([0.0, 0.0], [3.0, 4.0], wide) == pytest.approx(np.exp(-d2 / 50.0))


def test_gaussian_sigma_must_be_positive():
    with pytest.raises(ConfigurationError):
        SimilarityKind(GAUSSIAN, sigma=0.0)


def test_cosine_zero_vector_is_degenerate():
    with pytest.raises(DegenerateInputError, match="target vector at row 0"):
        score([0.0, 0.0], [1.0, 0.0], COS)
    with pytest.raises(DegenerateInputError, match="reference vector at row 1"):
        pairwise_similarity(np.ones((1, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]), COS)
    targets = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError, match="target vector at row 1"):
        pairwise_similarity(targets, np.eye(2), COS)


def test_pairwise_single_identical_pair():
    m = pairwise_similarity(np.array([[0.4, 0.3]]), np.array([[0.4, 0.3]]), COS)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_pairwise_orthonormal_entries():
    targets = np.array([[1.0, 0.0]])
    refs = np.array([[1.0, 0.0], [0.0, 1.0]])
    row = pairwise_similarity(targets, refs, COS)[0]
    assert row == pytest.approx([1.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("kind", [COS, EUC, GAU])
def test_pairwise_matches_per_pair_oracle(kind):
    rng = np.random.default_rng(3)
    t = rng.normal(size=(4, 5))
    r = rng.normal(size=(16, 5))
    m = pairwise_similarity(t, r, kind)
    for j in range(4):
        for i in range(16):
            assert m[j, i] == pytest.approx(pair_oracle(t[j], r[i], kind), abs=1e-12)


def test_empty_reference_set_rejected():
    with pytest.raises(ConfigurationError):
        pairwise_similarity(np.ones((1, 2)), np.zeros((0, 2)), EUC)


def test_knn_k1_takes_most_similar():
    assert knn_row([0.1, 0.9, 0.5], [2, 0, 1], k=1, num_classes=3) == (0, [1], [1, 0, 0])


def test_knn_majority():
    sim = [0.9, 0.8, 0.7, 0.6, 0.5]
    labels = [0, 0, 0, 1, 1]
    label, _, votes = knn_row(sim, labels, k=5, num_classes=2)
    assert label == 0
    assert votes == [3, 2]


def test_knn_vote_tie_broken_by_cumulative_similarity():
    # A: 0.9 + 0.2 = 1.1 < B: 0.8 + 0.7 = 1.5
    sim = [0.9, 0.2, 0.8, 0.7]
    labels = [0, 0, 1, 1]
    assert knn_row(sim, labels, k=4, num_classes=2)[0] == 1


def test_knn_full_tie_falls_back_to_class_index():
    sim = [0.5, 0.5, 0.5, 0.5]
    labels = [3, 1, 3, 1]
    assert knn_row(sim, labels, k=4, num_classes=4)[0] == 1


def test_knn_similarity_ties_use_bank_position():
    # equal scores everywhere: the k lowest positions are the neighbours
    sim = [0.7] * 6
    labels = [2, 2, 1, 1, 0, 0]
    label, neighbors, _ = knn_row(sim, labels, k=3, num_classes=3)
    assert neighbors == [0, 1, 2]
    assert label == 2


def test_knn_bank_smaller_than_k():
    with pytest.raises(GatingError):
        knn_row([0.1, 0.2], [0, 1], k=3, num_classes=2)


def test_knn_unanimous_neighbors():
    assert knn_row([0.9, 0.8, 0.7], [4, 4, 4], k=3, num_classes=5)[0] == 4


def assert_knn_matches_oracle(sim, labels, k, num_classes):
    """Labels, neighbours and votes of every row against the full-sort oracle."""
    got = assign_pseudo_labels(sim, labels, k, num_classes)
    for j in range(sim.shape[0]):
        want_label, want_nbrs = brute_force_knn(list(sim[j]), list(labels),
                                                k, num_classes)
        assert got.labels[j] == want_label
        assert list(got.neighbors[j]) == want_nbrs
        assert list(got.votes[j]) == list(
            np.bincount(labels[want_nbrs], minlength=num_classes))


def test_knn_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(12)
    for trial in range(1000):
        k = int(rng.choice([1, 3, 5, 11]))
        m = int(rng.integers(k, 40))
        n = int(rng.integers(1, 4))
        num_classes = int(rng.integers(2, 7))
        sim = rng.normal(size=(n, m))
        if trial % 3 == 0:
            sim = np.round(sim, 1)  # force plenty of exact ties
        labels = rng.integers(0, num_classes, size=m)
        assert_knn_matches_oracle(sim, labels, k, num_classes)
    # bank widths, where the column-group bound prunes: one column per group
    # with columns left outside every group (64, 65, 127), many columns per
    # group (512, 4096), k above 64; ties from rounding and constant rows
    for m in (64, 65, 127, 512, 4096):
        for k in (1, 5, 63, 64, 65, 70):
            if k > m:
                continue
            for ties in ("none", "1 decimal", "0 decimals", "constant"):
                n = int(rng.integers(1, 65 if m < 4096 else 9))
                num_classes = int(rng.integers(2, 51))
                sim = rng.normal(size=(n, m))
                if ties == "1 decimal":
                    sim = np.round(sim, 1)
                elif ties == "0 decimals":
                    sim = np.round(sim, 0)
                elif ties == "constant":
                    sim[: (n + 1) // 2] = 0.25
                labels = rng.integers(0, num_classes, size=m)
                assert_knn_matches_oracle(sim, labels, k, num_classes)


@pytest.mark.parametrize("bad", [-1, 3, 5])
def test_knn_rejects_out_of_range_reference_labels(bad):
    with pytest.raises(ConfigurationError, match=rf"label {bad} .*\b3\b"):
        assign_pseudo_labels(np.array([[0.9, 0.1, 0.2]]), [bad, 0, 1], 1, 3)


def test_knn_rejects_label_count_mismatch():
    with pytest.raises(ConfigurationError, match="2 labels for 3 references"):
        assign_pseudo_labels(np.array([[0.9, 0.1, 0.2]]), [0, 1], 1, 3)


def test_assign_matches_per_row_op():
    rng = np.random.default_rng(5)
    sim = rng.normal(size=(6, 20))
    labels = rng.integers(0, 4, size=20)
    batch = assign_pseudo_labels(sim, labels, k=5, num_classes=4)
    for j in range(6):
        want_label, want_nbrs = brute_force_knn(list(sim[j]), list(labels), 5, 4)
        assert batch.labels[j] == want_label
        assert list(batch.neighbors[j]) == want_nbrs
        assert list(batch.votes[j]) == list(np.bincount(labels[want_nbrs], minlength=4))


def test_knn_candidate_mask_goes_to_the_sets_scratch():
    # recipe shapes: 32 anchors against a 4096-entry bank of 50 classes; a
    # fresh 32 x 4096 candidate mask alone would take 128 KiB
    rng = np.random.default_rng(8)
    refs = ReferenceSet(True, np.eye(4096, 8), np.ones(4096))
    score, _, mask = refs.buffers(32)
    score[...] = rng.uniform(-1.0, 1.0, size=score.shape)
    labels = rng.integers(0, 50, size=4096)
    fresh = assign_pseudo_labels(score, labels, 5, 50)
    assign_pseudo_labels(score, labels, 5, 50, scratch=mask)  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reused = assign_pseudo_labels(score, labels, 5, 50, scratch=mask)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(reused.labels, fresh.labels)
    assert np.array_equal(reused.neighbors, fresh.neighbors)
    assert peak < 128 * 2**10, f"transient peak {peak / 2**10:.1f} KiB"


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_cosine_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(3, 4)) + 0.1
    g = rng.normal(size=(5, 4)) + 0.1
    a = rng.uniform(0.1, 10.0, size=(3, 1))
    b = rng.uniform(0.1, 10.0, size=(5, 1))
    base = pairwise_similarity(f, g, COS)
    scaled = pairwise_similarity(a * f, b * g, COS)
    assert np.max(np.abs(base - scaled)) <= 1e-12


def test_knn_invariant_to_positive_rescaling():
    rng = np.random.default_rng(8)
    t = rng.normal(size=(3, 6))
    r = rng.normal(size=(25, 6))
    labels = rng.integers(0, 5, size=25)
    scales = rng.uniform(0.2, 5.0, size=(25, 1))
    base = assign_pseudo_labels(pairwise_similarity(t, r, COS), labels, 5, 5)
    scaled = assign_pseudo_labels(
        pairwise_similarity(2.5 * t, scales * r, COS), labels, 5, 5)
    assert np.array_equal(base.labels, scaled.labels)


@pytest.mark.parametrize("kind", [COS, EUC, GAU])
def test_pairwise_vjp_matches_finite_differences(kind):
    rng = np.random.default_rng(21)
    t = rng.normal(size=(3, 4))
    r = rng.normal(size=(7, 4))
    up = rng.normal(size=(3, 7))
    grad = pairwise_similarity_vjp(t, r, kind, up,
                                   pairwise_similarity(t, r, kind))
    h = 1e-6
    for j in range(3):
        for d in range(4):
            t[j, d] += h
            up_val = float((up * pairwise_similarity(t, r, kind)).sum())
            t[j, d] -= 2 * h
            dn_val = float((up * pairwise_similarity(t, r, kind)).sum())
            t[j, d] += h
            numeric = (up_val - dn_val) / (2 * h)
            assert grad[j, d] == pytest.approx(numeric, abs=5e-8)
