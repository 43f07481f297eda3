"""Minimal dense networks with hand-derived gradients.

Every network is one ``MLP(sizes, relu, rng)``, built from its layer
widths: the encoder is tanh, the classifier one affine layer and the
discriminator ReLU. ``build_model`` builds all three from a run's
``TrainConfig`` and the data's widths. Everything is float64 and
deterministic. A forward pass returns the output together with a tape: the
input, then each layer's output after its activation. The matching backward
pass consumes that tape, overwrites the parameter gradients in place and
returns the gradient w.r.t. the input. Batches are row-major 2-D arrays,
one sample per row.

Each network keeps its parameters in one flat vector and its gradients in
another, allocated once: every layer's weights and biases are views into
them from construction on, so zeroing, SGD and the slow-encoder update are
a few whole-vector operations, and a saved model holds one flat parameter
vector per network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError

PROB_EPS = 1e-7  # probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any log


def as_batch(x) -> np.ndarray:
    """Coerce input to a 2-D float64 array (a single vector becomes one row)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise ConfigurationError(f"expected a vector or a 2-D batch, got ndim={a.ndim}")
    return a


class MLP:
    """A dense stack of ``len(sizes) - 1`` affine layers y = x @ W.T + b, with
    tanh (or ReLU if ``relu``) after every layer but the last.

    ``flat_params`` and ``flat_grads`` are allocated once: each entry of
    ``layers`` is a (w, b, gw, gb) tuple of views into them, laid out layer
    by layer, weights before bias. Weights are drawn from ``rng`` as
    N(0, 1/n_in), layer by layer, and biases start at zero; with no ``rng``
    every parameter starts at zero.
    """

    def __init__(self, sizes, relu: bool, rng: np.random.Generator | None = None):
        self.sizes = tuple(int(n) for n in sizes)
        self.relu = relu
        widths = list(zip(self.sizes, self.sizes[1:]))
        self.flat_params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in widths))
        self.flat_grads = np.zeros_like(self.flat_params)
        self.layers, offset = [], 0
        for n_in, n_out in widths:
            cut, end = offset + n_out * n_in, offset + (n_in + 1) * n_out
            w, gw = (v[offset:cut].reshape(n_out, n_in)
                     for v in (self.flat_params, self.flat_grads))
            if rng is not None:
                w[...] = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=w.shape)
            self.layers.append((w, self.flat_params[cut:end], gw,
                                self.flat_grads[cut:end]))
            offset = end

    def forward(self, x):
        """(output, tape): the tape holds the input, then every layer's
        output after its activation. ``forward`` may be called any number
        of times before ``backward``; each call returns its own tape."""
        x = as_batch(x)
        tape = [x]
        for i, (w, b, _, _) in enumerate(self.layers):
            x = x @ w.T + b
            if i < len(self.layers) - 1:
                x = np.maximum(x, 0.0) if self.relu else np.tanh(x)
            tape.append(x)
        return x, tape

    def backward(self, tape, dy, out=None):
        """Input gradient, written into ``out`` if given; ``out`` may be the
        input itself, which the first layer has read by the time it writes.
        Every parameter gradient is overwritten with this call's."""
        for i in range(len(self.layers) - 1, -1, -1):
            w, _, gw, gb = self.layers[i]
            x = tape[i]  # this layer's input: the previous layer's output
            np.matmul(dy.T, x, out=gw)
            np.sum(dy, axis=0, out=gb)
            dy = np.matmul(dy, w, out=out if i == 0 else None)
            if i > 0:  # ReLU's output is > 0 exactly where its input is
                dy = dy * (x > 0.0) if self.relu else dy * (1.0 - x * x)
        return dy

    @property
    def n_in(self) -> int:
        return self.sizes[0]

    @property
    def n_out(self) -> int:
        return self.sizes[-1]

    def zero_grads(self):
        self.flat_grads.fill(0.0)

    def clone(self) -> "MLP":
        twin = MLP(self.sizes, self.relu)
        twin.flat_params[...] = self.flat_params
        return twin


@dataclass
class ModelBundle:
    """The three trainable networks plus the optional slow encoder copy.

    encoder:       input -> embedding (width ``embed_dim``)
    classifier:    embedding -> class logits
    discriminator: conditioned input -> single domain logit
    momentum:      slow copy of the encoder, present only when used
    """

    encoder: MLP
    classifier: MLP
    discriminator: MLP
    momentum: MLP | None = None
    multilinear: bool = True
    _conditioned: np.ndarray = field(default_factory=lambda: np.empty(0),
                                     repr=False, compare=False)

    @property
    def num_classes(self) -> int:
        return self.classifier.n_out

    def conditioned_buffer(self, n: int) -> np.ndarray:
        """A contiguous n x discriminator-width array for the conditioned
        batch, reused by every step; the storage only grows."""
        size = n * self.discriminator.n_in
        if self._conditioned.size < size:
            self._conditioned = np.empty(size)
        return self._conditioned[:size].reshape(n, -1)


def build_model(config, input_dim: int, num_classes: int) -> ModelBundle:
    """The untrained encoder/classifier/discriminator stack for data of
    these widths, with the sizes, ``multilinear`` and ``seed`` of
    ``config`` (a ``trainer.TrainConfig``). The sizes are
    ``TrainConfig.validate``'s to check; the data's widths are checked here."""
    if min(input_dim, num_classes) < 1:
        raise ConfigurationError("model dimensions must be positive")
    rng = np.random.default_rng(config.seed)
    embed_dim, hidden = config.embed_dim, config.disc_hidden
    encoder = MLP([input_dim] + [config.encoder_hidden] * config.encoder_layers
                  + [embed_dim], relu=False, rng=rng)  # hidden tanh, linear projection
    classifier = MLP([embed_dim, num_classes], relu=False, rng=rng)
    disc_in = embed_dim * num_classes if config.multilinear else embed_dim
    discriminator = MLP([disc_in, hidden, hidden, 1], relu=True, rng=rng)
    return ModelBundle(encoder, classifier, discriminator,
                       multilinear=config.multilinear)


# ---------------------------------------------------------------------------
# forward ops


def _input_batch(x, net: MLP, name: str) -> np.ndarray:
    """``x`` as a 2-D batch, checked against ``net``'s input width."""
    x = as_batch(x)
    if x.shape[1] != net.n_in:
        raise ConfigurationError(f"{name} expects width {net.n_in}, got {x.shape[1]}")
    return x


def encoder_forward(x, encoder: MLP):
    """Embed a batch; returns (features, tape)."""
    x = _input_batch(x, encoder, "encoder")
    if x.shape[0] == 0:
        raise ConfigurationError("empty batch")
    return encoder.forward(x)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_vjp(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Backward through softmax: dlogits given dL/dprobs."""
    inner = (dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dprobs - inner)


def classifier_forward(f, classifier: MLP):
    """Class probabilities for a feature batch; returns (probs, logits, tape)."""
    logits, tape = classifier.forward(_input_batch(f, classifier, "classifier"))
    if not np.all(np.isfinite(logits)):
        raise NumericalError("non-finite classifier logits")
    return softmax(logits), logits, tape


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def discriminator_forward(h, discriminator: MLP):
    """Domain probability in [eps, 1-eps] for a conditioned batch.

    Returns (p, tape) with p of shape (n,). The clamp is a value clamp only;
    the backward pass treats it as the identity.
    """
    z, tape = discriminator.forward(
        _input_batch(h, discriminator, "discriminator"))
    return np.clip(sigmoid(z[:, 0]), PROB_EPS, 1.0 - PROB_EPS), tape


def gradient_reversal(g_in: np.ndarray, coeff: float, out=None) -> np.ndarray:
    """Backward of the gradient reversal layer, whose forward is the
    identity: scale an incoming gradient by -coeff (coeff >= 0), into
    ``out`` if given (which may be ``g_in`` itself)."""
    if coeff < 0:
        raise ConfigurationError("gradient reversal coefficient must be >= 0")
    return np.multiply(np.asarray(g_in, dtype=np.float64), -coeff, out=out)

