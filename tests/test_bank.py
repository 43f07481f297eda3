import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import filled_bank
from memda.bank import MemoryBank, momentum_update
from memda.errors import ConfigurationError, DegenerateInputError
from memda.nn import build_model, encoder_forward
from memda.similarity import (
    COSINE,
    EUCLIDEAN,
    GAUSSIAN,
    SimilarityKind,
    pairwise_similarity,
    pairwise_similarity_vjp,
)
from memda.trainer import TrainConfig

KINDS = [SimilarityKind(COSINE), SimilarityKind(EUCLIDEAN),
         SimilarityKind(GAUSSIAN, sigma=2.0)]
EUC = SimilarityKind(EUCLIDEAN)  # raw rows: the FIFO tests read them back


def ids_as_features(ids, dim=3):
    # feature rows tagged by id so FIFO order is visible
    return np.array([[float(i)] * dim for i in ids])


def test_new_bank_is_empty():
    for capacity in (48000, 24000, 1):
        bank = MemoryBank(capacity, 3, EUC)
        assert len(bank) == 0
        assert bank.capacity == capacity
        assert bank.rows.shape == (0, 3)
        assert len(bank.labels()) == 0


def test_zero_capacity_rejected():
    with pytest.raises(ConfigurationError):
        MemoryBank(0, 3, EUC)


def test_fifo_example_capacity_four():
    bank = MemoryBank(4, 3, EUC)
    bank.enqueue(ids_as_features([1, 2, 3]), [0, 0, 0])
    bank.enqueue(ids_as_features([4, 5, 6]), [1, 1, 1])
    assert list(bank.rows[:, 0]) == [3.0, 4.0, 5.0, 6.0]
    assert list(bank.labels()) == [0, 1, 1, 1]


def test_enqueue_into_empty_bank():
    bank = MemoryBank(4096, 8, EUC)
    bank.enqueue(np.ones((32, 8)), np.zeros(32, dtype=int))
    assert len(bank) == 32


def test_full_batch_twice_keeps_second():
    bank = MemoryBank(3, 3, EUC)
    bank.enqueue(ids_as_features([1, 2, 3]), [0, 1, 2])
    bank.enqueue(ids_as_features([4, 5, 6]), [3, 4, 5])
    assert list(bank.rows[:, 0]) == [4.0, 5.0, 6.0]
    assert list(bank.labels()) == [3, 4, 5]


def test_width_mismatch_rejected():
    bank = MemoryBank(8, 4, EUC)
    bank.enqueue(np.ones((2, 4)), [0, 1])
    with pytest.raises(ConfigurationError):
        bank.enqueue(np.ones((2, 5)), [0, 1])
    with pytest.raises(ConfigurationError):
        bank.enqueue(np.ones((2, 4)), [0, 1, 2])


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=17),
    batch_sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12),
)
def test_fifo_law_against_list_oracle(capacity, batch_sizes):
    bank = MemoryBank(capacity, 2, EUC)
    oracle = []
    next_id = 0
    for size in batch_sizes:
        ids = list(range(next_id, next_id + size))
        next_id += size
        bank.enqueue(ids_as_features(ids, dim=2), [i % 7 for i in ids])
        oracle.extend(ids)
        kept = oracle[-capacity:]
        assert len(bank) == len(kept) <= capacity
        assert list(bank.rows[:, 0]) == [float(i) for i in kept]
        assert list(bank.labels()) == [i % 7 for i in kept]


def test_stored_features_are_detached_copies():
    model = build_model(TrainConfig(embed_dim=4, seed=1), 3, 2)
    x = np.random.default_rng(0).normal(size=(5, 3))
    f, _ = encoder_forward(x, model.encoder)
    bank = MemoryBank(16, 4, EUC)
    bank.enqueue(f, np.zeros(5, dtype=int))
    before = bank.rows.copy()
    model.encoder.flat_params += 10.0
    f[...] = -1.0  # mutating the enqueued array must not leak either
    assert np.array_equal(bank.rows, before)


def test_momentum_update_mu_zero_is_bitwise_copy():
    fast = build_model(TrainConfig(embed_dim=4, seed=1), 3, 2).encoder
    slow = build_model(TrainConfig(embed_dim=4, seed=2), 3, 2).encoder
    momentum_update(slow, fast, 0.0)
    assert np.array_equal(slow.flat_params, fast.flat_params)


def test_momentum_update_mu_one_is_identity():
    fast = build_model(TrainConfig(embed_dim=4, seed=1), 3, 2).encoder
    slow = build_model(TrainConfig(embed_dim=4, seed=2), 3, 2).encoder
    before = slow.flat_params.copy()
    momentum_update(slow, fast, 1.0)
    assert np.array_equal(slow.flat_params, before)


def test_momentum_update_halfway():
    fast = build_model(TrainConfig(embed_dim=2, seed=1), 2, 2).encoder
    slow = fast.clone()
    fast.flat_params[...] = 2.0
    slow.flat_params[...] = 4.0
    momentum_update(slow, fast, 0.5)
    assert np.all(slow.flat_params == 3.0)


def test_momentum_update_moves_only_the_slow_copy():
    fast = build_model(TrainConfig(embed_dim=4, seed=1), 3, 2).encoder
    slow = fast.clone()
    slow.flat_params += 1.0
    fast_before, slow_before = fast.flat_params.copy(), slow.flat_params.copy()
    momentum_update(slow, fast, 0.9)
    assert np.array_equal(fast.flat_params, fast_before)
    assert np.array_equal(slow.flat_params,
                          0.9 * slow_before + (1.0 - 0.9) * fast_before)
    # the per-tensor views see the update
    assert np.array_equal(np.concatenate([p.ravel() for w, b, _, _ in slow.layers
                                          for p in (w, b)]),
                          slow.flat_params)


def test_momentum_update_shape_mismatch():
    fast = build_model(TrainConfig(embed_dim=4, seed=1), 3, 2).encoder
    slow = build_model(TrainConfig(embed_dim=5, seed=1), 3, 2).encoder
    with pytest.raises(ConfigurationError):
        momentum_update(slow, fast, 0.5)


def test_oversized_batch_keeps_newest_entries():
    bank = MemoryBank(4, 3, EUC)
    bank.enqueue(ids_as_features(range(10)), list(range(10)))
    assert list(bank.rows[:, 0]) == [6.0, 7.0, 8.0, 9.0]
    assert len(bank) == 4


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_bank_rows_score_bitwise_like_raw_rows(kind):
    # capacity 40 with batches of 12 wraps the ring twice; after every
    # enqueue the ring's window must give the very bits that a fresh,
    # unwrapped bank holding exactly the same rows gives
    rng = np.random.default_rng(11)
    bank = MemoryBank(40, 8, kind)
    raw = np.zeros((0, 8))
    for _ in range(8):
        batch = rng.normal(size=(12, 8))
        bank.enqueue(batch, rng.integers(0, 4, size=12))
        raw = np.vstack([raw, batch])[-40:]
        fresh = filled_bank(raw, kind)
        targets = rng.normal(size=(6, 8))
        up = rng.normal(size=(6, len(raw)))
        want = pairwise_similarity(targets, fresh)
        got = pairwise_similarity(targets, bank)
        assert len(bank) == len(raw)
        assert np.array_equal(got, want)
        want_grad = pairwise_similarity_vjp(targets, fresh, up, want)
        got_grad = pairwise_similarity_vjp(targets, bank, up, sim=got)
        assert np.array_equal(got_grad, want_grad)


def test_cosine_bank_stores_unit_rows_and_norms():
    bank = MemoryBank(4, 2, SimilarityKind(COSINE))
    bank.enqueue(np.array([[3.0, 4.0], [0.0, 2.0]]), [0, 1])
    assert np.allclose(bank.rows, [[0.6, 0.8], [0.0, 1.0]])
    assert np.array_equal(bank.norms, [5.0, 2.0])
    raw = MemoryBank(4, 2, SimilarityKind(GAUSSIAN))
    raw.enqueue(np.array([[3.0, 4.0], [0.0, 2.0]]), [0, 1])
    assert np.array_equal(raw.rows, [[3.0, 4.0], [0.0, 2.0]])
    assert np.array_equal(raw.norms, [25.0, 4.0])


def test_zero_norm_enqueued_row_raises_with_its_index():
    bank = MemoryBank(8, 3, SimilarityKind(COSINE))
    bank.enqueue(np.ones((2, 3)), [0, 1])
    batch = np.ones((4, 3))
    batch[2] = 0.0
    with pytest.raises(DegenerateInputError, match="row 2"):
        bank.enqueue(batch, [0, 1, 2, 3])
    assert len(bank) == 2  # the rejected batch left the ring untouched
    assert list(bank.labels()) == [0, 1]


def test_buffers_are_sized_for_a_full_bank_when_first_grown():
    bank = MemoryBank(4096, 4, EUC)
    rng = np.random.default_rng(0)
    first = None
    for _ in range(4096 // 32 + 2):  # fill, then two steps of turnover
        bank.enqueue(rng.normal(size=(32, 4)), np.zeros(32, dtype=int))
        got = bank.buffers(32)
        assert [a.shape for a in got] == [(32, len(bank))] * 3
        first = first or got
        assert all(np.shares_memory(a, b) for a, b in zip(got, first))
