import numpy as np
import pytest

from conftest import finite_difference_check
from memda.errors import ConfigurationError, NumericalError
from memda.nn import (
    PROB_EPS,
    Dense,
    MLP,
    build_model,
    classifier_forward,
    discriminator_forward,
    encoder_forward,
    gradient_reversal,
    sigmoid,
    softmax,
)


def test_zero_network_gives_zero_features():
    model = build_model(input_dim=3, embed_dim=4, num_classes=2, seed=0)
    for p in model.encoder.parameters():
        p[...] = 0.0
    f, _ = encoder_forward(np.ones((5, 3)), model.encoder)
    assert np.all(f == 0.0)


def test_identity_layer_forward():
    rng = np.random.default_rng(0)
    layer = Dense(2, 2, rng)
    layer.w[...] = np.eye(2)
    layer.b[...] = 0.0
    net = MLP([layer])
    f, _ = net.forward(np.array([[1.0, 2.0]]))
    assert np.array_equal(f, [[1.0, 2.0]])


def test_layer_parameters_are_views_into_the_flat_vectors():
    rng = np.random.default_rng(0)
    layers = [Dense(3, 4, rng), Dense(4, 2, rng)]
    before = np.concatenate([p.ravel() for layer in layers for p in (layer.w, layer.b)])
    net = MLP(layers)
    assert np.array_equal(net.flat_params, before)  # packing copies the values
    model = build_model(input_dim=5, embed_dim=4, num_classes=3, seed=0)
    for net in (model.encoder, model.classifier, model.discriminator):
        dense = [layer for layer in net.layers if isinstance(layer, Dense)]
        assert sum(p.size for p in net.parameters()) == net.flat_params.size
        for layer in dense:
            assert np.shares_memory(layer.w, net.flat_params)
            assert np.shares_memory(layer.b, net.flat_params)
            assert np.shares_memory(layer.gw, net.flat_grads)
            assert np.shares_memory(layer.gb, net.flat_grads)
        net.flat_grads[...] = 1.0
        net.zero_grads()
        assert all(np.all(layer.gw == 0.0) and np.all(layer.gb == 0.0)
                   for layer in dense)


def test_clone_shares_no_memory_with_the_original():
    encoder = build_model(input_dim=5, embed_dim=4, seed=0).encoder
    copy = encoder.clone()
    assert np.array_equal(copy.flat_params, encoder.flat_params)
    mine = [copy.flat_params, copy.flat_grads, *copy.parameters(),
            *(g for layer in copy.layers if isinstance(layer, Dense)
              for g in (layer.gw, layer.gb))]
    for a in mine:
        assert not np.shares_memory(a, encoder.flat_params)
        assert not np.shares_memory(a, encoder.flat_grads)
    assert all(np.shares_memory(p, copy.flat_params) for p in copy.parameters())


def test_backward_into_its_own_input_matches_a_fresh_result():
    model = build_model(input_dim=5, embed_dim=4, num_classes=3, seed=2)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(6, model.discriminator.n_in))
    dz = rng.normal(size=(6, 1))
    _, tape = model.discriminator.forward(h)
    fresh = model.discriminator.backward(tape, dz)
    grads = model.discriminator.flat_grads.copy()
    model.discriminator.zero_grads()
    _, tape = model.discriminator.forward(h)
    dh = model.discriminator.backward(tape, dz, out=h)
    assert dh is h
    assert np.array_equal(h, fresh)
    assert np.array_equal(model.discriminator.flat_grads, grads)


def test_encoder_matches_straight_line_oracle():
    # re-evaluate the 2-hidden-layer forward pass with explicit matmuls
    model = build_model(input_dim=5, embed_dim=3, num_classes=2,
                        encoder_hidden=7, encoder_layers=2, seed=11)
    rng = np.random.default_rng(42)
    x = rng.normal(size=(6, 5))
    f, _ = encoder_forward(x, model.encoder)

    w1, b1, w2, b2, w3, b3 = model.encoder.parameters()
    expected = np.tanh(np.tanh(x @ w1.T + b1) @ w2.T + b2) @ w3.T + b3
    assert np.max(np.abs(f - expected)) <= 1e-12


def test_encoder_shape_mismatch():
    model = build_model(input_dim=5, embed_dim=3, seed=0)
    with pytest.raises(ConfigurationError):
        encoder_forward(np.zeros((2, 4)), model.encoder)
    with pytest.raises(ConfigurationError):
        encoder_forward(np.zeros((0, 5)), model.encoder)


def test_softmax_uniform_on_zero_logits():
    p = softmax(np.zeros((1, 4)))
    assert np.allclose(p, 0.25, atol=1e-15)


def test_softmax_no_overflow_on_extreme_logits():
    p = softmax(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(p))
    assert p[0, 0] == pytest.approx(1.0)
    assert p[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_direct_evaluation_oracle():
    logits = np.array([[1.0, 2.0, 3.0]])
    oracle = np.exp(logits) / np.exp(logits).sum()
    p = softmax(logits)
    assert np.max(np.abs(p - oracle)) <= 1e-12
    assert np.allclose(p[0], [0.0900, 0.2447, 0.6652], atol=5e-5)


def test_classifier_rows_are_distributions():
    model = build_model(input_dim=4, embed_dim=6, num_classes=9, seed=3)
    rng = np.random.default_rng(0)
    probs, _, _ = classifier_forward(rng.normal(size=(20, 6)), model.classifier)
    assert np.all(probs >= 0.0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9


def test_classifier_rejects_non_finite_logits():
    model = build_model(input_dim=4, embed_dim=6, num_classes=3, seed=3)
    model.classifier.parameters()[0][...] = np.inf
    with pytest.raises(NumericalError):
        classifier_forward(np.ones((1, 6)), model.classifier)


def test_discriminator_zero_network_outputs_half():
    model = build_model(input_dim=4, embed_dim=2, num_classes=2, seed=0)
    for p in model.discriminator.parameters():
        p[...] = 0.0
    p, _ = discriminator_forward(np.ones((3, 4)), model.discriminator)
    assert np.all(p == 0.5)


def test_discriminator_clamps_saturated_output():
    model = build_model(input_dim=1, embed_dim=1, num_classes=1, disc_hidden=2, seed=0)
    for p in model.discriminator.parameters():
        p[...] = 50.0
    p, _ = discriminator_forward(np.array([[100.0]]), model.discriminator)
    assert p[0] == 1.0 - PROB_EPS


def test_discriminator_matches_straight_line_oracle():
    model = build_model(input_dim=2, embed_dim=2, num_classes=2,
                        disc_hidden=5, seed=9)
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4))
    p, _ = discriminator_forward(h, model.discriminator)

    w1, b1, w2, b2, w3, b3 = model.discriminator.parameters()
    z = np.maximum(h @ w1.T + b1, 0.0)
    z = np.maximum(z @ w2.T + b2, 0.0)
    z = (z @ w3.T + b3)[:, 0]
    oracle = np.clip(1.0 / (1.0 + np.exp(-z)), PROB_EPS, 1 - PROB_EPS)
    assert np.max(np.abs(p - oracle)) <= 1e-12
    assert np.all((p > 0.0) & (p < 1.0))


def test_gradient_reversal_values():
    v = np.array([2.0, -4.0])
    assert np.array_equal(gradient_reversal(v, 1.0), -v)
    assert np.array_equal(gradient_reversal(v, 0.0), np.zeros(2))
    assert np.array_equal(gradient_reversal(v, 0.5), np.array([-1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        gradient_reversal(v, -0.1)
    fresh = gradient_reversal(v, 0.5)
    assert gradient_reversal(v, 0.5, out=v) is v  # in place, same bits
    assert np.array_equal(v, fresh)


def test_sigmoid_stable_both_tails():
    z = np.array([-800.0, 0.0, 800.0])
    s = sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[1] == 0.5


def test_fd_check_quadratic():
    theta = np.array([3.0, 4.0])

    def loss_fn():
        return 0.5 * float(theta @ theta), [theta.copy()]

    err = finite_difference_check(loss_fn, [theta], h_step=1e-6)
    assert err <= 1e-9


def test_fd_check_rejects_bad_step():
    theta = np.zeros(1)
    loss_fn = lambda: (0.0, [np.zeros(1)])
    for h in (1e-8, 1e-3):
        with pytest.raises(ConfigurationError):
            finite_difference_check(loss_fn, [theta], h_step=h)


def test_fd_check_reports_non_finite_probes():
    theta = np.array([0.0])

    def loss_fn():
        # finite at the expansion point, NaN anywhere else
        if theta[0] == 0.0:
            return 0.0, [np.zeros(1)]
        return float("nan"), [np.zeros(1)]

    with pytest.raises(NumericalError, match="probing"):
        finite_difference_check(loss_fn, [theta], h_step=1e-6)


def test_same_seed_bitwise_identical_forward_and_grads():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 3))
    dy = rng.normal(size=(4, 2))
    outs, grads = [], []
    for _ in range(2):
        model = build_model(input_dim=3, embed_dim=2, num_classes=2, seed=77)
        f, tape = encoder_forward(x, model.encoder)
        model.encoder.backward(tape, dy)
        outs.append(f)
        grads.append(model.encoder.flat_grads.copy())
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(grads[0], grads[1])
