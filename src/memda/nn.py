"""Minimal dense networks with hand-derived gradients.

Every network is one ``MLP(sizes, relu, flat_params)``: its layer widths,
around one flat parameter vector. The encoder is tanh, the classifier one
affine layer and the discriminator ReLU; ``build_model`` builds all three
from a run's ``TrainConfig`` and the data's widths. Everything is float64
and deterministic. A forward pass returns the output together with a tape:
the input, then each layer's output after its activation. The matching
backward pass consumes that tape, overwrites the parameter gradients in
place and returns the gradient w.r.t. the input. Batches are row-major 2-D
arrays, one sample per row.

Every layer's weights and biases are views into the network's parameter
vector, and its gradients into a gradient vector, so zeroing, SGD and the
slow-encoder update are a few whole-vector operations, and a saved model
holds one flat vector per network, which loading wraps without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataFormatError, NumericalError

PROB_EPS = 1e-7  # probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any log


def as_batch(x) -> np.ndarray:
    """``x`` as a 2-D float64 array, one sample per row."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigurationError(f"expected a 2-D batch, got ndim={a.ndim}")
    return a


class MLP:
    """A dense stack of ``len(sizes) - 1`` affine layers y = x @ W.T + b, with
    tanh (or ReLU if ``relu``) after every layer but the last.

    The network wraps ``flat_params`` as given, or zeros, and allocates
    ``flat_grads``: each entry of ``layers`` is a (w, b, gw, gb) tuple of
    views into the two, layer by layer, weights before bias. A vector that
    is not 1-D float64 of the network's size raises ``ValueError``.
    """

    def __init__(self, sizes, relu: bool, flat_params: np.ndarray | None = None):
        self.sizes, self.relu = tuple(int(n) for n in sizes), relu
        widths = list(zip(self.sizes, self.sizes[1:]))
        size = sum((n_in + 1) * n_out for n_in, n_out in widths)
        p = np.zeros(size) if flat_params is None else flat_params
        if p.shape != (size,) or p.dtype != np.float64:
            raise ValueError(f"holds {p.size} values, the network has {size} "
                             f"(a {p.ndim}-D {p.dtype} array, not 1-D float64)")
        self.flat_params, self.flat_grads = p, np.zeros(size)
        self.layers, offset = [], 0
        for n_in, n_out in widths:
            cut, end = offset + n_out * n_in, offset + (n_in + 1) * n_out
            w, gw = (v[offset:cut].reshape(n_out, n_in)
                     for v in (self.flat_params, self.flat_grads))
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
        return MLP(self.sizes, self.relu, self.flat_params.copy())


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


def build_model(config, input_dim: int, num_classes: int, vectors=None) -> ModelBundle:
    """The encoder/classifier/discriminator stack for data of these widths,
    with the sizes, ``multilinear`` and ``seed`` of ``config`` (a
    ``trainer.TrainConfig``), wrapped around ``vectors``, one per network in
    that order (one that does not fit raises ``DataFormatError`` naming it),
    or drawn from ``default_rng(config.seed)``: N(0, 1/n_in) weights network
    by network, layer by layer, and zero biases."""
    if min(input_dim, num_classes) < 1:
        raise ConfigurationError("model dimensions must be positive")
    embed_dim, hidden = config.embed_dim, config.disc_hidden
    disc_in = embed_dim * num_classes if config.multilinear else embed_dim
    layouts = (("encoder", [input_dim] + [config.encoder_hidden] * config.encoder_layers
                + [embed_dim], False),  # hidden tanh, linear projection
               ("classifier", [embed_dim, num_classes], False),
               ("discriminator", [disc_in, hidden, hidden, 1], True))
    nets = []
    for (name, sizes, relu), vector in zip(layouts, vectors or [None] * 3):
        try:
            nets.append(MLP(sizes, relu, vector))
        except ValueError as exc:
            raise DataFormatError(f"array {name!r} {exc}") from None
    if vectors is None:
        rng = np.random.default_rng(config.seed)
        for w, _, _, _ in (layer for net in nets for layer in net.layers):
            w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[1]), size=w.shape)
    return ModelBundle(*nets, multilinear=config.multilinear)


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
    """The logistic function, from an exp that cannot overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def discriminator_forward(h, discriminator: MLP):
    """Domain probability in [eps, 1-eps] for a conditioned batch.

    Returns (p, tape) with p of shape (n,). A clamped p gets zero gradient
    from ``losses.discriminator_loss``: the clamp is part of the function.
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

