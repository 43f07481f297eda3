import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import memda.trainer
from conftest import run_recorded
from memda import similarity
from memda.datasets import ShiftSpec, apply_domain_shift, gen_gaussian_mixture
from memda.errors import ConfigurationError, NumericalError
from memda.nn import build_model, classifier_forward, encoder_forward
from memda.trainer import (
    PREDICT_CHUNK,
    SGD,
    TrainConfig,
    adv_coefficient,
    forward_backward,
    init_state,
    lr_schedule,
    predict,
    run_training,
    train_step,
)


def small_domains(seed=0, classes=6, dim=6, per_class=30):
    src = gen_gaussian_mixture(classes, dim, per_class, 4.0, 1.0, seed=seed)
    base = gen_gaussian_mixture(classes, dim, per_class, 4.0, 1.0, seed=seed + 1)
    tgt = apply_domain_shift(base, ShiftSpec.from_degrees(30.0, noise=0.1, seed=seed + 2))
    return src, tgt


def small_config(**kw):
    defaults = dict(
        batch_size=16,
        total_iters=40,
        bootstrap_iters=10,
        bank_capacity=128,
        embed_dim=8,
        encoder_hidden=16,
        encoder_layers=1,
        disc_hidden=16,
        seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# schedule and optimizer


def test_lr_schedule_at_start_is_base_rate():
    cfg = small_config()
    enc, heads = lr_schedule(0, cfg)
    assert enc == cfg.lr_encoder
    assert heads == cfg.lr_heads


def test_lr_schedule_end_value():
    cfg = small_config(lr_heads=0.03, lr_alpha=10.0, lr_beta=0.75, total_iters=100)
    _, heads = lr_schedule(100, cfg)
    assert heads == pytest.approx(0.03 * 11.0 ** -0.75, abs=1e-12)
    assert heads == pytest.approx(0.004967, abs=2e-6)


def test_lr_group_ratio_preserved():
    cfg = small_config(lr_encoder=0.003, lr_heads=0.03)
    for it in (0, 7, 23, 39):
        enc, heads = lr_schedule(it, cfg)
        assert enc / heads == pytest.approx(0.1, abs=1e-12)


def test_sgd_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0])
    opt = SGD([p], momentum=0.9, weight_decay=0.0)
    opt.step([np.zeros(2)], lr=0.1)
    assert np.array_equal(p, [1.0, -2.0])


def test_sgd_single_step():
    p = np.array([0.0])
    SGD([p], momentum=0.0, weight_decay=0.0).step([np.array([1.0])], lr=0.1)
    assert p[0] == pytest.approx(-0.1, abs=1e-15)


def test_sgd_two_steps_momentum_recurrence():
    # v1 = 1, v2 = 0.9 + 1 = 1.9; total displacement = -(0.1 + 0.19)
    p = np.array([0.0])
    opt = SGD([p], momentum=0.9, weight_decay=0.0)
    opt.step([np.array([1.0])], lr=0.1)
    opt.step([np.array([1.0])], lr=0.1)
    assert p[0] == pytest.approx(-0.29, abs=1e-15)


def test_sgd_step_with_weight_decay_matches_the_reference_bitwise():
    # the reference keeps every intermediate in its own array
    rng = np.random.default_rng(5)
    p = rng.normal(size=40)
    p_ref, v_ref = p.copy(), np.zeros_like(p)
    opt = SGD([p], momentum=0.9, weight_decay=5e-4)
    for lr in (0.03, 0.02, 0.01):
        g = rng.normal(size=p.size)
        v_ref = 0.9 * v_ref + g
        v_ref = v_ref + 5e-4 * p_ref
        p_ref = p_ref - lr * v_ref
        consumed = g.copy()
        opt.step([consumed], lr)
        assert p.tobytes() == p_ref.tobytes()
        assert opt.velocities[0].tobytes() == v_ref.tobytes()
        assert consumed.tobytes() == (lr * v_ref).tobytes()  # the step's scratch


def test_sgd_rejects_non_finite_gradient():
    p = np.array([0.0])
    opt = SGD([p], momentum=0.0, weight_decay=0.0)
    with pytest.raises(NumericalError):
        opt.step([np.array([np.nan])], lr=0.1)


def test_flat_sgd_step_equals_the_per_tensor_step():
    flat_net, tensor_net = (build_model(TrainConfig(embed_dim=4, seed=3), 5, 2).encoder
                            for _ in range(2))
    flat = SGD([flat_net.flat_params], momentum=0.9, weight_decay=5e-4)
    params = [p for w, b, _, _ in tensor_net.layers for p in (w, b)]
    per_tensor = SGD(params, momentum=0.9, weight_decay=5e-4)
    cuts = np.cumsum([p.size for p in params])[:-1]
    tensor_grads = [g.reshape(p.shape) for g, p in
                    zip(np.split(tensor_net.flat_grads, cuts), params)]
    rng = np.random.default_rng(0)
    for lr in (0.03, 0.02, 0.01):
        grads = rng.normal(size=flat_net.flat_grads.size)
        flat_net.flat_grads[...] = grads
        tensor_net.flat_grads[...] = grads
        flat.step([flat_net.flat_grads], lr)
        per_tensor.step(tensor_grads, lr)
    assert flat_net.flat_params.tobytes() == tensor_net.flat_params.tobytes()


def test_adv_ramp_off_by_default():
    cfg = small_config()
    assert adv_coefficient(0, cfg) == cfg.lambda_adv
    ramped = small_config(adv_ramp=True)
    assert adv_coefficient(0, ramped) == pytest.approx(0.0)
    assert adv_coefficient(ramped.total_iters, ramped) < ramped.lambda_adv


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ConfigurationError):
        small_config(bootstrap_iters=40).validate()  # must be < total_iters
    with pytest.raises(ConfigurationError):
        small_config(tau=0.0).validate()
    with pytest.raises(ConfigurationError):
        small_config(pseudo_labels="oracle").validate()
    with pytest.raises(ConfigurationError):
        small_config(mu=1.5).validate()
    for key in ("lambda_adv", "lambda_sc"):
        with pytest.raises(ConfigurationError, match="loss coefficients"):
            small_config(**{key: -1.0}).validate()
    for key, bad in (("sgd_momentum", 1.0), ("sgd_momentum", 1.5),
                     ("sgd_momentum", -0.5), ("weight_decay", -1.0),
                     ("lr_alpha", -5.0)):
        with pytest.raises(ConfigurationError, match=key):
            small_config(**{key: bad}).validate()
    small_config(sgd_momentum=0.0, weight_decay=0.0, lr_alpha=0.0).validate()
    small_config().validate()


@pytest.mark.parametrize("sizes", [
    dict(embed_dim=0), dict(disc_hidden=0), dict(encoder_layers=-1),
    dict(encoder_hidden=0),  # a zero-width hidden layer
])
def test_config_validation_rejects_model_sizes(sizes):
    with pytest.raises(ConfigurationError, match="model dimensions must be positive"):
        small_config(**sizes).validate()
    # without hidden layers the hidden width is unused
    small_config(encoder_hidden=0, encoder_layers=0).validate()


@pytest.mark.parametrize("key", ["seed", "min_bank_entries"])
def test_config_validation_rejects_negative_counts(key):
    with pytest.raises(ConfigurationError, match=f"key '{key}'"):
        small_config(**{key: -1}).validate()
    small_config(**{key: 0}).validate()


@pytest.mark.parametrize("key,settings", [
    ("lr_beta", dict(lr_beta=-1000.0)),  # the schedule would grow, then overflow
    ("gaussian_sigma", dict(similarity="gaussian", gaussian_sigma=1e160)),
    ("gaussian_sigma", dict(similarity="gaussian", gaussian_sigma=1e-170)),
    ("tau", dict(tau=1e-310)),  # 1/tau is inf
], ids=["lr_beta", "sigma-huge", "sigma-tiny", "tau-tiny"])
def test_config_validation_rejects_settings_whose_arithmetic_overflows(key, settings):
    with pytest.raises(ConfigurationError, match=f"^key '{key}'"):
        small_config(**settings).validate()
    # the nearest values that still compute
    small_config(lr_beta=0.0, tau=1e-300, similarity="gaussian",
                 gaussian_sigma=1e-150).validate()
    small_config(similarity="gaussian", gaussian_sigma=1e150).validate()


FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)
                if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_config_validation_rejects_non_finite_floats(key, value):
    with pytest.raises(ConfigurationError,
                       match=f"^key '{key}': {value} is not finite$"):
        small_config(**{key: value}).validate()


def test_bank_below_gate_is_rejected():
    with pytest.raises(ConfigurationError, match=r"bank_capacity 16 .* 25 entries"):
        small_config(bank_capacity=16, k=5).validate()
    with pytest.raises(ConfigurationError, match=r"bank_capacity 128 .* 129"):
        small_config(min_bank_entries=129).validate()
    small_config(bank_capacity=25, k=5).validate()
    # the gate only concerns the bank
    small_config(bank_capacity=16, k=5, consistency="batch").validate()


def test_gate_entries_default_is_five_k():
    assert small_config(k=5).gate_entries == 25
    assert small_config(k=3).gate_entries == 15
    assert small_config(k=5, min_bank_entries=40).gate_entries == 40


# ---------------------------------------------------------------------------
# the loop


def test_bootstrap_purity_and_first_fill():
    src, tgt = small_domains()
    cfg = small_config()
    _, history = run_recorded(cfg, src, tgt)
    for rec in history[: cfg.bootstrap_iters]:
        assert rec.bank_size == 0
        assert rec.l_sc == 0.0
        assert rec.mean_sim_avg == 0.0
    first_after = history[cfg.bootstrap_iters]
    assert first_after.bank_size == cfg.batch_size
    # the gate (5k entries) opens only once the bank is filled enough
    gate_iter = cfg.bootstrap_iters + int(np.ceil(cfg.gate_entries / cfg.batch_size))
    assert all(r.l_sc == 0.0 for r in history[: gate_iter - 1])
    assert any(r.l_sc > 0.0 for r in history[gate_iter:])


def test_one_update_per_network_per_iteration(monkeypatch):
    updated = []  # the gradient vectors of every SGD.step call
    step = SGD.step

    def counting_step(self, grads, lr):
        updated.extend(id(g) for g in grads)
        step(self, grads, lr)

    monkeypatch.setattr(SGD, "step", counting_step)
    src, tgt = small_domains()
    cfg = small_config(total_iters=12, bootstrap_iters=3)
    state = init_state(cfg, src.dim, src.num_classes)
    nets = (state.model.encoder, state.model.classifier,
            state.model.discriminator)
    for it in range(cfg.total_iters):
        rows = np.arange(it, it + cfg.batch_size) % len(src)
        train_step(state, src.features[rows], src.train_labels[rows],
                   tgt.features[rows], None, it, cfg)
        assert sorted(updated) == sorted(id(net.flat_grads) for net in nets)
        updated.clear()


def test_loop_state_is_released_before_evaluation(monkeypatch):
    refs = {}
    make_state, evaluate = memda.trainer.init_state, memda.trainer.evaluate

    def recording_init_state(*args):
        state = make_state(*args)
        refs["bank"] = weakref.ref(state.bank)
        refs["velocity"] = weakref.ref(state.opt_encoder.velocities[0])
        return state

    alive = []

    def checking_evaluate(model, target):
        gc.collect()
        alive.extend(name for name, ref in refs.items() if ref() is not None)
        return evaluate(model, target)

    monkeypatch.setattr(memda.trainer, "init_state", recording_init_state)
    monkeypatch.setattr(memda.trainer, "evaluate", checking_evaluate)
    src, tgt = small_domains()
    result = run_training(small_config(), src, tgt)
    assert sorted(refs) == ["bank", "velocity"]
    assert alive == []
    assert 0.0 <= result.evaluation.overall_accuracy <= 1.0


def test_seed_determinism_end_to_end():
    src, tgt = small_domains()
    cfg = small_config(total_iters=25)
    a, history_a = run_recorded(cfg, src, tgt)
    b, history_b = run_recorded(small_config(total_iters=25), src, tgt)
    assert a.evaluation.overall_accuracy == b.evaluation.overall_accuracy
    assert [r.iteration for r in history_a] == list(range(25))
    assert history_a == history_b and a.last == history_a[-1]
    assert np.array_equal(a.model.encoder.flat_params, b.model.encoder.flat_params)


def test_training_memory_does_not_grow_with_the_iteration_count():
    # each record goes to on_record and only the last is kept, so 3000
    # iterations peak within 64 KiB of 300 (a list of every record grows the
    # peak by about 1.1 MiB)
    src, tgt = small_domains()
    peaks = []
    for total in (300, 3000):
        tracemalloc.start()
        try:
            run_training(small_config(total_iters=total), src, tgt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 2**10, peaks


def test_ablation_identity_gated_off_equals_never_built():
    src, tgt = small_domains()
    gated, gated_history = run_recorded(
        small_config(lambda_sc=0.0, consistency="memory", diagnostics="off"),
        src, tgt)
    absent, absent_history = run_recorded(small_config(consistency="off"), src, tgt)
    assert len(gated_history) == len(absent_history)
    for ra, rb in zip(gated_history, absent_history):
        assert abs(ra.l_sup - rb.l_sup) <= 1e-12
        assert abs(ra.l_d - rb.l_d) <= 1e-12
        assert abs(ra.l_sc - rb.l_sc) <= 1e-12
        assert abs(ra.total - rb.total) <= 1e-12
        assert ra.bank_size == 0 and rb.bank_size == 0
    assert gated.evaluation.overall_accuracy == absent.evaluation.overall_accuracy


def test_source_only_baseline_runs():
    src, tgt = small_domains()
    cfg = small_config(lambda_adv=0.0, lambda_sc=0.0, consistency="off")
    result, history = run_recorded(cfg, src, tgt)
    assert all(r.l_d == 0.0 for r in history)
    assert 0.0 <= result.evaluation.overall_accuracy <= 1.0


def test_batch_variant_runs_without_bank():
    src, tgt = small_domains()
    cfg = small_config(consistency="batch", k=3)
    assert init_state(cfg, src.dim, src.num_classes).bank is None
    _, history = run_recorded(cfg, src, tgt)
    assert all(r.bank_size == 0 for r in history)
    assert any(r.l_sc > 0.0 for r in history[cfg.bootstrap_iters:])


def test_no_bank_is_built_for_a_branch_that_never_runs():
    assert init_state(TrainConfig(lambda_sc=0.0), 16, 50).bank is None
    assert init_state(TrainConfig(lambda_sc=0.0, diagnostics="on"),
                      16, 50).bank is not None


def test_classifier_pseudo_label_mode_runs():
    src, tgt = small_domains()
    cfg = small_config(pseudo_labels="classifier")
    _, history = run_recorded(cfg, src, tgt)
    assert any(r.l_sc > 0.0 for r in history)


def test_momentum_encoder_lifecycle():
    src, tgt = small_domains()
    cfg = small_config(mu=0.5, total_iters=20, bootstrap_iters=5)
    state = init_state(cfg, src.dim, src.num_classes)
    assert state.model.momentum is None
    from memda.datasets import batch_sampler

    for it in range(8):
        si = batch_sampler(src, cfg.batch_size, 0, it)
        ti = batch_sampler(tgt, cfg.batch_size, 1, it)
        train_step(state, src.features[si], src.train_labels[si],
                   tgt.features[ti], None, it, cfg)
        if it < cfg.bootstrap_iters:
            assert state.model.momentum is None
    assert state.model.momentum is not None
    # the slow copy trails the trained encoder
    assert np.max(np.abs(state.model.momentum.flat_params
                         - state.model.encoder.flat_params)) > 0.0


def test_non_finite_loss_aborts_with_context():
    src, tgt = small_domains()
    cfg = small_config()
    state = init_state(cfg, src.dim, src.num_classes)
    state.model.encoder.layers[0][0][...] = np.inf  # the first weights
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        train_step(state, src.features[:4], src.train_labels[:4],
                   tgt.features[:4], None, 0, cfg)


def test_feature_mode_detaches_conditioning_from_classifier():
    from conftest import tiny_problem
    from memda.trainer import forward_backward

    for mode, expect_grad in (("feature", False), ("both", True)):
        model, cfg, x_s, y_s, x_t, bank = tiny_problem(11, condition_backprop=mode)
        grads = []
        for lambda_adv in (0.0, 1.0):
            forward_backward(model, x_s, y_s, x_t, cfg, bank=bank,
                             lambda_adv=lambda_adv)
            grads.append((model.classifier.flat_grads.copy(),
                          model.encoder.flat_grads.copy()))
        (cls_off, enc_off), (cls_on, enc_on) = grads
        assert (not np.array_equal(cls_off, cls_on)) == expect_grad
        # the encoder always receives the reversed feature-path gradient
        assert not np.array_equal(enc_off, enc_on)


@pytest.mark.parametrize("n_source,n_target", [(4, 4), (6, 3)])
@pytest.mark.parametrize("consistency", ["memory", "batch", "off"])
@pytest.mark.parametrize("condition_backprop", ["feature", "both"])
@pytest.mark.parametrize("multilinear", [True, False])
def test_stacked_pass_matches_the_two_pass_reference(
        multilinear, condition_backprop, consistency, n_source, n_target):
    from conftest import tiny_problem, two_pass_forward_backward

    (model, cfg, x_s, y_s, x_t, bank), (ref_model, *_, ref_bank) = (
        tiny_problem(7, batch=n_source, target_batch=n_target, k=3,
                     lambda_sc=0.5, consistency=consistency,
                     multilinear=multilinear,
                     condition_backprop=condition_backprop)
        for _ in range(2))
    sc_active = consistency != "off"  # as train_step decides it
    out = forward_backward(model, x_s, y_s, x_t, cfg, bank=bank,
                           sc_active=sc_active)
    ref = two_pass_forward_backward(ref_model, x_s, y_s, x_t, cfg,
                                    bank=ref_bank, sc_active=sc_active)
    assert (out.l_sc != 0.0) == (consistency != "off")
    for name in ("l_sup", "l_d", "l_sc", "total"):
        assert getattr(out, name) == pytest.approx(getattr(ref, name),
                                                   rel=1e-12, abs=0.0)
    for net in ("encoder", "classifier", "discriminator"):
        np.testing.assert_allclose(getattr(model, net).flat_grads,
                                   getattr(ref_model, net).flat_grads,
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("pseudo_labels", ["knn", "classifier"])
def test_consistency_labels_are_the_ones_the_loss_used(pseudo_labels):
    from conftest import tiny_problem

    model, cfg, x_s, y_s, x_t, bank = tiny_problem(
        4, k=3, lambda_sc=0.5, pseudo_labels=pseudo_labels)
    cons = forward_backward(model, x_s, y_s, x_t, cfg, bank=bank,
                            sc_active=True).consistency
    if pseudo_labels == "classifier":
        # the argmax of the target rows' probabilities from the stacked pass
        f, _ = encoder_forward(np.concatenate([x_s, x_t]), model.encoder)
        probs, _, _ = classifier_forward(f, model.classifier)
        expected = np.argmax(probs[len(x_s):], axis=1)
    else:
        expected = similarity.assign_pseudo_labels(
            cons.sim, bank.labels(), cfg.k, model.num_classes).labels
    np.testing.assert_array_equal(cons.labels, expected)
    positives = bank.labels()[None, :] == cons.labels[:, None]
    np.testing.assert_array_equal(cons.positives, np.flatnonzero(positives))


def test_lambda_sc_zero_with_diagnostics_tracks_scores(monkeypatch):
    vjp_calls = []
    vjp = similarity.pairwise_similarity_vjp

    def counting_vjp(*args, **kwargs):
        vjp_calls.append(1)
        return vjp(*args, **kwargs)

    monkeypatch.setattr(similarity, "pairwise_similarity_vjp", counting_vjp)
    src, tgt = small_domains()
    cfg = small_config(lambda_sc=0.0, diagnostics="on")
    _, history = run_recorded(cfg, src, tgt)
    post = [r for r in history if r.bank_size >= cfg.gate_entries]
    assert any(r.mean_sim_avg != 0.0 for r in post)
    # a diagnostics-only step runs the consistency forward, never its backward
    assert vjp_calls == []
    # but the objective never sees the consistency term
    for r in history:
        assert r.total == pytest.approx(r.l_sup - cfg.lambda_adv * r.l_d, abs=1e-12)


def test_consistency_step_allocates_little_at_recipe_shapes():
    # the acceptance recipe's shapes: 50 classes, 16-d input, batch 32 and a
    # full 4096-entry cosine bank; warmed-up steps reuse the bank's score and
    # work and mask buffers and the layers' and optimizers' scratch, so one
    # step's transient peak stays under 1 MiB (fresh similarity, work and
    # gradient temporaries every step would peak above 6 MiB)
    cfg = TrainConfig(total_iters=2000, bootstrap_iters=500, lr_encoder=0.03,
                      lambda_sc=1.0, tau=0.2)
    cfg.validate()
    rng = np.random.default_rng(0)
    state = init_state(cfg, 16, 50)
    state.bank.enqueue(rng.normal(size=(4096, cfg.embed_dim)),
                       rng.integers(0, 50, size=4096))

    def step(it):
        return train_step(state, rng.normal(size=(32, 16)),
                          rng.integers(0, 50, size=32),
                          rng.normal(size=(32, 16)),
                          rng.integers(0, 50, size=32), it, cfg)

    for it in range(600, 603):
        step(it)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        record = step(603)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert record.l_sc > 0.0  # the consistency branch ran
    assert peak < 2**20, f"transient peak {peak / 2**20:.2f} MiB"


def test_bootstrap_step_allocates_little_at_churn_shapes():
    # bank-gaussian-churn's shapes: batch 64, 16-d input, 50 classes, a
    # 512-entry Gaussian bank and a slow encoder; the conditioned batch
    # (128 x 1600) and its gradient share the model's resident buffer, so a
    # warmed-up bootstrap step's transient peak stays under 1.5 MiB (fresh
    # conditioned arrays per domain peak near 4 MiB)
    cfg = TrainConfig(total_iters=2000, bootstrap_iters=500, lr_encoder=0.03,
                      lambda_sc=1.0, tau=0.2, similarity="gaussian",
                      gaussian_sigma=2.0, mu=0.99, batch_size=64,
                      bank_capacity=512)
    cfg.validate()
    rng = np.random.default_rng(0)
    state = init_state(cfg, 16, 50)

    def step(it):
        return train_step(state, rng.normal(size=(64, 16)),
                          rng.integers(0, 50, size=64),
                          rng.normal(size=(64, 16)),
                          rng.integers(0, 50, size=64), it, cfg)

    for it in range(3):
        step(it)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        record = step(3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert record.bank_size == 0 and state.model.momentum is None  # bootstrap
    assert peak < 1.5 * 2**20, f"transient peak {peak / 2**20:.2f} MiB"


def test_chunked_predict_equals_full_batch_pass():
    # the acceptance data: 50 classes x 200 rows, 16-d, 30 degree shift
    base = gen_gaussian_mixture(50, 16, 200, 4.0, 1.0, seed=1)
    target = apply_domain_shift(base, ShiftSpec.from_degrees(30.0, noise=0.1, seed=2))
    assert len(target) > 2 * PREDICT_CHUNK
    model = build_model(TrainConfig(embed_dim=32, seed=0), 16, 50)
    f, _ = encoder_forward(target.features, model.encoder)
    _, logits, _ = classifier_forward(f, model.classifier)
    chunks = []  # predict's equal parts of at most PREDICT_CHUNK rows
    for part in np.array_split(target.features, -(-len(target) // PREDICT_CHUNK)):
        assert PREDICT_CHUNK // 2 < len(part) <= PREDICT_CHUNK
        fc, _ = encoder_forward(part, model.encoder)
        chunks.append(classifier_forward(fc, model.classifier)[1])
    assert np.array_equal(np.vstack(chunks), logits)
    assert np.array_equal(predict(model, target.features), np.argmax(logits, axis=1))
