import math

import numpy as np
import pytest

from conftest import (
    component_closure,
    filled_bank,
    finite_difference_check,
    naive_consistency,
    tiny_problem,
)
from memda.errors import ConfigurationError, GatingError
from memda.losses import (
    LSE_SPAN,
    consistency_from_similarity,
    discriminator_loss,
    multilinear_map,
    multilinear_map_vjp,
    sample_consistency_memory,
    supervised_loss,
    total_loss,
)
from memda.nn import PROB_EPS
from memda.similarity import COSINE, GAUSSIAN, SimilarityKind

COS = SimilarityKind(COSINE)


# ---------------------------------------------------------------------------
# supervised cross-entropy


def test_supervised_perfect_prediction_is_zero():
    probs = np.array([[0.0, 1.0, 0.0]])
    value, _ = supervised_loss(probs, [1])
    assert value == pytest.approx(0.0, abs=1e-12)


def test_supervised_uniform_is_log_c():
    probs = np.full((3, 5), 0.2)
    value, _ = supervised_loss(probs, [0, 3, 4])
    assert value == pytest.approx(np.log(5.0), abs=1e-12)
    assert value == pytest.approx(1.60944, abs=1e-5)


def test_supervised_mean_contract():
    a = np.array([[0.7, 0.3]])
    b = np.array([[0.2, 0.8]])
    la, _ = supervised_loss(a, [0])
    lb, _ = supervised_loss(b, [1])
    both, _ = supervised_loss(np.vstack([a, b]), [0, 1])
    assert both == pytest.approx((la + lb) / 2.0, abs=1e-12)


def test_supervised_label_out_of_range():
    with pytest.raises(ConfigurationError):
        supervised_loss(np.full((1, 3), 1 / 3), [3])
    with pytest.raises(ConfigurationError):
        supervised_loss(np.full((1, 3), 1 / 3), [-1])


def test_supervised_gradient_matches_finite_difference():
    rng = np.random.default_rng(0)
    probs = rng.uniform(0.05, 1.0, size=(4, 3))
    probs /= probs.sum(axis=1, keepdims=True)
    y = [0, 2, 1, 2]
    _, grad = supervised_loss(probs, y)
    h = 1e-7
    for r in range(4):
        for c in range(3):
            probs[r, c] += h
            up, _ = supervised_loss(probs, y)
            probs[r, c] -= 2 * h
            dn, _ = supervised_loss(probs, y)
            probs[r, c] += h
            assert grad[r, c] == pytest.approx((up - dn) / (2 * h), abs=1e-6)


# ---------------------------------------------------------------------------
# multilinear conditioning


def test_multilinear_basis_vector():
    h = multilinear_map(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
    assert np.array_equal(h, [[0.5, 0.5, 0.0, 0.0]])


def test_multilinear_ones():
    h = multilinear_map(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))
    assert np.array_equal(h, [[1.0, 0.0, 1.0, 0.0]])


def test_multilinear_width_at_scale():
    f = np.ones((1, 256))
    g = np.full((1, 345), 1.0 / 345)
    assert multilinear_map(f, g).shape == (1, 256 * 345)


@pytest.mark.parametrize("n,d,c", [(1, 1, 1), (7, 3, 1), (64, 64, 25),
                                   (128, 64, 25), (4, 256, 345)])
def test_multilinear_bitwise_equals_broadcast_product(n, d, c):
    rng = np.random.default_rng(n * 1000 + d + c)
    f = rng.normal(size=(n, d))
    g = rng.random((n, c))
    expected = (f[:, :, None] * g[:, None, :]).reshape(n, d * c)
    out = np.full((n, d * c), np.nan)
    assert multilinear_map(f, g, out=out) is out
    for h in (out, multilinear_map(f, g)):
        assert np.array_equal(h.view(np.int64), expected.view(np.int64))


def test_multilinear_vjp_is_exact():
    rng = np.random.default_rng(4)
    f = rng.normal(size=(3, 4))
    g = rng.normal(size=(3, 2))
    dh = rng.normal(size=(3, 8))
    df, dg = multilinear_map_vjp(f, g, dh)
    # d(sum(dh * h))/df and /dg by direct expansion
    for n in range(3):
        block = dh[n].reshape(4, 2)
        assert np.allclose(df[n], block @ g[n], atol=1e-14)
        assert np.allclose(dg[n], f[n] @ block, atol=1e-14)


# ---------------------------------------------------------------------------
# discriminator / adversarial


def test_discriminator_loss_perfect_split_near_zero():
    ps = np.full(4, 1.0 - PROB_EPS)
    pt = np.full(4, PROB_EPS)
    value, _, _ = discriminator_loss(ps, pt)
    assert value == pytest.approx(0.0, abs=1e-6)


def test_discriminator_loss_at_half():
    value, _, _ = discriminator_loss([0.5], [0.5])
    assert value == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
    assert value == pytest.approx(1.38629, abs=1e-5)


def test_adversarial_is_negated_discriminator_loss():
    model, cfg, x_s, y_s, x_t, bank = tiny_problem(3)
    from memda.trainer import forward_backward

    out = forward_backward(model, x_s, y_s, x_t, cfg, bank=bank, sc_active=True)
    assert out.report.l_adv == -out.report.l_d


def test_discriminator_loss_gradients():
    rng = np.random.default_rng(1)
    ps = rng.uniform(0.1, 0.9, size=5)
    pt = rng.uniform(0.1, 0.9, size=3)
    _, dps, dpt = discriminator_loss(ps, pt)
    h = 1e-7
    for i in range(5):
        ps[i] += h
        up, _, _ = discriminator_loss(ps, pt)
        ps[i] -= 2 * h
        dn, _, _ = discriminator_loss(ps, pt)
        ps[i] += h
        assert dps[i] == pytest.approx((up - dn) / (2 * h), abs=1e-5)
    for i in range(3):
        pt[i] += h
        up, _, _ = discriminator_loss(ps, pt)
        pt[i] -= 2 * h
        dn, _, _ = discriminator_loss(ps, pt)
        pt[i] += h
        assert dpt[i] == pytest.approx((up - dn) / (2 * h), abs=1e-5)


# ---------------------------------------------------------------------------
# sample consistency


def two_entry_instance():
    bank = filled_bank([[1.0, 0.0], [0.0, 1.0]], COS, [0, 1])
    targets = np.array([[1.0, 0.0]])
    return targets, bank


def test_all_positive_source_batch_gives_zero():
    targets = np.random.default_rng(0).normal(size=(4, 3))
    sources = filled_bank(np.random.default_rng(1).normal(size=(6, 3)), COS,
                          [2] * 6)
    res = sample_consistency_memory(targets, sources, tau=0.07, k=3,
                                    num_classes=3)
    assert res.value == 0.0
    assert np.all(res.per_anchor == 0.0)


def test_two_entry_instance_is_softplus():
    targets, bank = two_entry_instance()
    for tau in (1.0, 0.5):
        res = sample_consistency_memory(targets, bank, tau, k=1, num_classes=2)
        # verify with the direct-summation oracle first, then the closed form
        mask = np.zeros(res.sim.size, dtype=bool)
        mask[res.positives] = True
        oracle = naive_consistency(res.sim, mask.reshape(res.sim.shape), tau)
        assert res.value == pytest.approx(oracle, abs=1e-12)
        assert res.value == pytest.approx(np.log1p(np.exp(-1.0 / tau)), abs=1e-9)
    res1 = sample_consistency_memory(targets, bank, 1.0, 1, 2)
    assert res1.value == pytest.approx(0.31326, abs=1e-5)
    res05 = sample_consistency_memory(targets, bank, 0.5, 1, 2)
    assert res05.value == pytest.approx(0.12693, abs=1e-5)


def test_all_one_class_bank_gives_zero_per_anchor():
    rng = np.random.default_rng(7)
    bank = filled_bank(rng.normal(size=(20, 4)), COS, [3] * 20)
    targets = rng.normal(size=(5, 4))
    res = sample_consistency_memory(targets, bank, 0.07, k=5, num_classes=4)
    assert np.all(res.per_anchor == 0.0)
    assert res.value == 0.0


def test_lse_matches_naive_oracle_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n_t = int(rng.integers(1, 8))
        n_m = int(rng.integers(4, 64))
        tau = float(rng.choice([0.07, 0.5, 1.0]))
        sim = rng.uniform(-1.0, 1.0, size=(n_t, n_m))
        pos = rng.uniform(size=(n_t, n_m)) < 0.3
        value, _, per_anchor, skipped = consistency_from_similarity(
            sim, np.flatnonzero(pos), tau)
        assert value == pytest.approx(naive_consistency(sim, pos, tau), abs=1e-10)
        assert skipped == int(sum(1 for j in range(n_t) if not pos[j].any()))


def shifted_fsum_consistency(sim, pos_mask, tau):
    """Oracle: each row shifted by its own max, sums by math.fsum."""
    terms = []
    for row, mask in zip(sim.tolist(), pos_mask.tolist()):
        if not any(mask) or all(mask):
            terms.append(0.0)
            continue
        z = [s / tau for s in row]
        zp = [v for v, p in zip(z, mask) if p]
        lse = [top + math.log(math.fsum(math.exp(v - top) for v in vals))
               for vals in (z, zp) for top in [max(vals)]]
        terms.append(lse[0] - lse[1])
    return math.fsum(terms) / len(terms)


def cosine_rows(rng, n, m):
    return rng.uniform(-1.0, 1.0, size=(n, m))


def far_euclidean_rows(rng, n, m):
    # negated distances, each row offset by up to 1000 from every reference
    return -(rng.uniform(0.0, 5.0, size=(n, m))
             + rng.uniform(0.0, 1000.0, size=(n, 1)))


@pytest.mark.parametrize("make,tau", [
    (cosine_rows, 1e-3), (cosine_rows, 1e-4), (far_euclidean_rows, 0.2),
    ("mixed", 0.2),
])
def test_rows_outside_the_span_match_a_shifted_fsum_oracle(make, tau):
    rng = np.random.default_rng(5)
    n, m = 12, 40
    if make == "mixed":
        sim = cosine_rows(rng, n, m)
        sim[::2] = far_euclidean_rows(rng, n, m)[::2]
    else:
        sim = make(rng, n, m)
    pos = rng.uniform(size=(n, m)) < 0.3
    pos[0] = True   # every reference positive
    pos[1] = False  # no positive
    outside = np.abs(sim.max(axis=1)) / tau > LSE_SPAN
    assert outside.any() and (make != "mixed" or not outside.all())
    value, dsim, per_anchor, skipped = consistency_from_similarity(
        sim, np.flatnonzero(pos), tau)
    oracle = shifted_fsum_consistency(sim, pos, tau)
    assert abs(value - oracle) <= 1e-11 * abs(oracle)
    assert np.all(np.isfinite(dsim)) and np.all(np.isfinite(per_anchor))
    assert per_anchor[0] == 0.0 and np.all(dsim[0] == 0.0)
    assert skipped == 1 and np.all(dsim[1] == 0.0)


def test_empty_positive_anchor_is_skipped_with_zero_loss():
    sim = np.array([[0.5, 0.1], [0.4, 0.2]])
    pos = np.flatnonzero([[True, False], [False, False]])
    value, dsim, per_anchor, skipped = consistency_from_similarity(sim, pos, 1.0)
    assert skipped == 1
    assert per_anchor[1] == 0.0
    assert np.all(dsim[1] == 0.0)


def test_work_buffer_must_be_contiguous():
    sim = np.array([[0.5, 0.1], [0.4, 0.2]])
    pos = np.flatnonzero([[True, False], [False, True]])
    _, fresh, _, _ = consistency_from_similarity(sim, pos, 1.0)
    buf = np.empty((2, 2))
    _, dsim, _, _ = consistency_from_similarity(sim, pos, 1.0, work=buf)
    assert dsim is buf and dsim.tobytes() == fresh.tobytes()
    with pytest.raises(ConfigurationError, match="C-contiguous"):
        consistency_from_similarity(sim, pos, 1.0, work=np.empty((2, 4))[:, ::2])


def test_all_anchors_skipped_flag():
    targets = np.random.default_rng(0).normal(size=(2, 3))
    sources = filled_bank(np.random.default_rng(1).normal(size=(5, 3)), COS,
                          [1] * 5)
    res = sample_consistency_memory(targets, sources, tau=1.0, k=2,
                                    num_classes=3,
                                    pseudo_labels=np.array([2, 2]))
    assert res.value == 0.0
    assert res.skipped == 2


def test_consistency_nonnegative_and_zero_iff_full_mass():
    rng = np.random.default_rng(17)
    for _ in range(50):
        sim = rng.uniform(-1, 1, size=(3, 10))
        pos = rng.uniform(size=(3, 10)) < 0.4
        value, _, per_anchor, _ = consistency_from_similarity(
            sim, np.flatnonzero(pos), 0.5)
        assert value >= 0.0
        assert np.all(per_anchor >= 0.0)


def test_gating_violation():
    # the kNN vote needs k entries; it raises for the smaller bank
    bank = filled_bank(np.ones((2, 2)), COS, [0, 1])
    with pytest.raises(GatingError):
        sample_consistency_memory(np.ones((1, 2)), bank, 0.07, k=5,
                                  num_classes=2)


def test_classifier_labels_need_no_k_entries():
    # classifier pseudo-labels never read k, so a bank smaller than k serves
    bank = filled_bank([[1.0, 0.0], [0.0, 1.0]], COS, [0, 1])
    res = sample_consistency_memory(np.array([[1.0, 0.2]]), bank, 0.07, k=5,
                                    num_classes=2, pseudo_labels=np.array([0]))
    assert np.isfinite(res.value) and res.value > 0.0
    assert np.all(np.isfinite(res.grad_targets))


def test_bank_features_are_constants():
    # perturbing the bank after the pass must not change reported gradients
    rng = np.random.default_rng(23)
    bank = filled_bank(rng.normal(size=(10, 3)), COS,
                       rng.integers(0, 3, size=10))
    targets = rng.normal(size=(4, 3))
    res = sample_consistency_memory(targets, bank, 0.3, k=3, num_classes=3)
    grad_before = res.grad_targets.copy()
    bank._features += 100.0
    assert np.array_equal(res.grad_targets, grad_before)


@pytest.mark.parametrize("kind", [COS, SimilarityKind(GAUSSIAN, sigma=2.0)],
                         ids=lambda k: k.name)
def test_successive_calls_keep_earlier_value_and_gradient(kind):
    # the bank's score and work buffers are reused by the next call; what a
    # result owns (value, grad_targets, per_anchor) must not move with them
    rng = np.random.default_rng(31)
    bank = filled_bank(rng.normal(size=(64, 5)), kind,
                       rng.integers(0, 4, size=64))
    first = sample_consistency_memory(rng.normal(size=(6, 5)), bank, 0.2,
                                      k=5, num_classes=4)
    value, grad = first.value, first.grad_targets.copy()
    per_anchor = first.per_anchor.copy()
    second = sample_consistency_memory(rng.normal(size=(6, 5)), bank, 0.2,
                                       k=5, num_classes=4)
    assert second.value != value
    assert first.value == value
    assert np.array_equal(first.grad_targets, grad)
    assert np.array_equal(first.per_anchor, per_anchor)
    assert np.shares_memory(first.sim, second.sim)  # the documented alias


def test_temperature_monotone_on_two_entry_instance():
    targets, bank = two_entry_instance()
    taus = [1.0, 0.5, 0.25, 0.07]
    values = [
        sample_consistency_memory(targets, bank, t, 1, 2).value for t in taus
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# total objective


def test_total_loss_arithmetic():
    assert total_loss(1.0, 0.5, 0.2, 1.0, 0.1) == pytest.approx(1.52, abs=1e-12)
    assert total_loss(1.0, 0.5, 99.0, 1.0, 0.0) == pytest.approx(1.5, abs=1e-12)
    assert total_loss(2.0, -0.3, 0.4, 1.0, 0.1) == pytest.approx(2.0 - 0.3 + 0.04)
    with pytest.raises(ConfigurationError):
        total_loss(1.0, 1.0, 1.0, -1.0, 0.1)


# ---------------------------------------------------------------------------
# analytic gradients through the networks


@pytest.mark.parametrize("component,side", [
    ("sup", "theta"),
    ("adv", "theta"),
    ("adv", "omega"),
    ("sc", "theta"),
])
def test_loss_gradients_pass_fd_check(component, side):
    for seed in range(5):
        model, cfg, x_s, y_s, x_t, bank = tiny_problem(seed)
        loss_fn, params = component_closure(model, cfg, x_s, y_s, x_t, bank,
                                            component, side)
        assert finite_difference_check(loss_fn, params, h_step=1e-6) <= 1e-5


def test_batch_variant_gradients_pass_fd_check():
    # references detach to the values at the expansion point
    for seed in range(5):
        model, cfg, x_s, y_s, x_t, _ = tiny_problem(seed)
        rng = np.random.default_rng(seed + 100)
        refs = filled_bank(rng.normal(size=(12, cfg.embed_dim)), COS,
                           rng.integers(0, 5, size=12))
        params = model.encoder.parameters()

        def loss_fn():
            from memda.nn import encoder_forward

            model.encoder.zero_grads()
            f_t, tape = encoder_forward(x_t, model.encoder)
            res = sample_consistency_memory(f_t, refs, cfg.tau, cfg.k, 5)
            model.encoder.backward(tape, res.grad_targets)
            return res.value, [g.copy() for g in model.encoder.gradients()]

        assert finite_difference_check(loss_fn, params, h_step=1e-6) <= 1e-5
