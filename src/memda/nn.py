"""Minimal dense networks with hand-derived gradients.

Everything is float64 and deterministic: a forward pass returns the output
together with an explicit tape (the cached activations), and the matching
backward pass consumes that tape, accumulates parameter gradients in place
and returns the gradient w.r.t. the input. Batches are row-major 2-D arrays,
one sample per row.

Each network keeps its parameters in one flat vector and its gradients in
another: every layer's weights and biases are views into them, so zeroing,
SGD and the slow-encoder update are a few whole-vector operations.
"""

from __future__ import annotations

import copy
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


class Dense:
    """Affine layer y = x @ W.T + b with gradient accumulation."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
        self.b = np.zeros(n_out)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._gw_step = np.empty_like(self.w)  # one backward's dy.T @ x

    @property
    def n_in(self) -> int:
        return self.w.shape[1]

    @property
    def n_out(self) -> int:
        return self.w.shape[0]

    def forward(self, x):
        return x @ self.w.T + self.b, x

    def backward(self, cache, dy, out=None):
        x = cache
        self.gw += np.matmul(dy.T, x, out=self._gw_step)
        self.gb += dy.sum(axis=0)
        return np.matmul(dy, self.w, out=out)  # x is read by now: out may be x

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.gw, self.gb]


class Tanh:
    def forward(self, x):
        y = np.tanh(x)
        return y, y

    def backward(self, cache, dy, out=None):
        y = cache
        return np.multiply(dy, 1.0 - y * y, out=out)

    def params(self):
        return []

    def grads(self):
        return []


class Relu:
    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, cache, dy, out=None):
        x = cache
        return np.multiply(dy, x > 0.0, out=out)  # subgradient at 0 taken as 0

    def params(self):
        return []

    def grads(self):
        return []


class MLP:
    """A fixed stack of layers with an explicit activation tape.

    ``forward`` may be called any number of times before ``backward``; each
    call returns its own tape. On construction the layers' parameters are
    copied into ``flat_params`` and every ``w``/``b``/``gw``/``gb`` becomes a
    view into ``flat_params``/``flat_grads``, in ``parameters()`` order.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        self.flat_params = np.concatenate([p.ravel() for p in self.parameters()])
        self.flat_grads = np.zeros_like(self.flat_params)
        offset = 0
        for layer in (x for x in self.layers if isinstance(x, Dense)):
            for name in ("w", "b"):
                p = getattr(layer, name)
                span = slice(offset, offset + p.size)
                setattr(layer, name, self.flat_params[span].reshape(p.shape))
                setattr(layer, "g" + name, self.flat_grads[span].reshape(p.shape))
                offset += p.size

    def forward(self, x):
        x = as_batch(x)
        tape = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            tape.append(cache)
        return x, tape

    def backward(self, tape, dy, out=None):
        """Input gradient, written into ``out`` if given; ``out`` may be the
        input itself, which the first layer has read by the time it writes."""
        for i in range(len(self.layers) - 1, -1, -1):
            dy = self.layers[i].backward(tape[i], dy, out if i == 0 else None)
        return dy

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in

    @property
    def n_out(self) -> int:
        for layer in reversed(self.layers):
            if isinstance(layer, Dense):
                return layer.n_out
        raise ConfigurationError("network has no dense layer")

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def gradients(self):
        out = []
        for layer in self.layers:
            out.extend(layer.grads())
        return out

    def zero_grads(self):
        self.flat_grads.fill(0.0)

    def clone(self) -> "MLP":
        return MLP(copy.deepcopy(self.layers))  # re-packed into its own vectors


def mlp(sizes, activation, rng, final_activation=None) -> MLP:
    """Build a dense stack from layer widths, e.g. mlp([16, 64, 64, 32], Tanh, rng)."""
    layers = []
    for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Dense(a, b, rng))
        last = i == len(sizes) - 2
        if not last and activation is not None:
            layers.append(activation())
        if last and final_activation is not None:
            layers.append(final_activation())
    return MLP(layers)


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
    def embed_dim(self) -> int:
        return self.encoder.n_out

    @property
    def num_classes(self) -> int:
        return self.classifier.n_out

    def zero_grads(self):
        self.encoder.zero_grads()
        self.classifier.zero_grads()
        self.discriminator.zero_grads()

    def conditioned_buffer(self, n: int) -> np.ndarray:
        """A contiguous n x discriminator-width array for the conditioned
        batch, reused by every step; the storage only grows."""
        size = n * self.discriminator.n_in
        if self._conditioned.size < size:
            self._conditioned = np.empty(size)
        return self._conditioned[:size].reshape(n, -1)


def build_model(
    input_dim: int,
    embed_dim: int = 32,
    num_classes: int = 2,
    encoder_hidden: int = 64,
    encoder_layers: int = 2,
    disc_hidden: int = 64,
    multilinear: bool = True,
    seed: int = 0,
) -> ModelBundle:
    """Deterministically initialize the encoder/classifier/discriminator stack."""
    if (min(input_dim, embed_dim, num_classes, disc_hidden) < 1
            or encoder_layers < 0 or (encoder_layers and encoder_hidden < 1)):
        raise ConfigurationError("model dimensions must be positive")
    rng = np.random.default_rng(seed)
    enc_sizes = [input_dim] + [encoder_hidden] * encoder_layers + [embed_dim]
    encoder = mlp(enc_sizes, Tanh, rng)  # hidden tanh, linear projection
    classifier = MLP([Dense(embed_dim, num_classes, rng)])
    disc_in = embed_dim * num_classes if multilinear else embed_dim
    discriminator = mlp([disc_in, disc_hidden, disc_hidden, 1], Relu, rng)
    return ModelBundle(encoder, classifier, discriminator, multilinear=multilinear)


# ---------------------------------------------------------------------------
# forward ops


def encoder_forward(x, encoder: MLP):
    """Embed a batch; returns (features, tape)."""
    x = as_batch(x)
    if x.shape[0] == 0:
        raise ConfigurationError("empty batch")
    if x.shape[1] != encoder.n_in:
        raise ConfigurationError(
            f"encoder expects width {encoder.n_in}, got {x.shape[1]}"
        )
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
    f = as_batch(f)
    if f.shape[1] != classifier.n_in:
        raise ConfigurationError(
            f"classifier expects width {classifier.n_in}, got {f.shape[1]}"
        )
    logits, tape = classifier.forward(f)
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


def clamp_probs(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def discriminator_forward(h, discriminator: MLP):
    """Domain probability in [eps, 1-eps] for a conditioned batch.

    Returns (p, tape) with p of shape (n,). The clamp is a value clamp only;
    the backward pass treats it as the identity.
    """
    h = as_batch(h)
    if h.shape[1] != discriminator.n_in:
        raise ConfigurationError(
            f"discriminator expects width {discriminator.n_in}, got {h.shape[1]}"
        )
    z, tape = discriminator.forward(h)
    p = clamp_probs(sigmoid(z[:, 0]))
    return p, tape


def gradient_reversal(g_in: np.ndarray, coeff: float, out=None) -> np.ndarray:
    """Backward of the gradient reversal layer, whose forward is the
    identity: scale an incoming gradient by -coeff (coeff >= 0), into
    ``out`` if given (which may be ``g_in`` itself)."""
    if coeff < 0:
        raise ConfigurationError("gradient reversal coefficient must be >= 0")
    return np.multiply(np.asarray(g_in, dtype=np.float64), -coeff, out=out)


# ---------------------------------------------------------------------------
# gradient verification


def finite_difference_check(loss_fn, params, h_step: float = 1e-6, names=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn()`` must return ``(value, grads)`` where ``grads`` aligns with
    ``params`` elementwise; the analytic gradients are read once at the
    current point, then every parameter entry is probed at +/- h_step. The
    relative error is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (1e-7 <= h_step <= 1e-4):
        raise ConfigurationError(f"h_step {h_step} outside [1e-7, 1e-4]")
    params = list(params)
    if names is None:
        names = [f"param[{i}]{p.shape}" for i, p in enumerate(params)]
    value, grads = loss_fn()
    if not np.isfinite(value):
        raise NumericalError("non-finite loss at the expansion point")
    grads = [np.array(g, dtype=np.float64, copy=True) for g in grads]
    if len(grads) != len(params):
        raise ConfigurationError("loss_fn returned a gradient list of the wrong length")

    worst = 0.0
    for p, g, name in zip(params, grads, names):
        if p.shape != g.shape:
            raise ConfigurationError(f"gradient shape mismatch for {name}")
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h_step
            up, _ = loss_fn()
            flat_p[i] = orig - h_step
            down, _ = loss_fn()
            flat_p[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericalError(f"non-finite loss while probing {name}[{i}]")
            numeric = (up - down) / (2.0 * h_step)
            err = abs(flat_g[i] - numeric) / max(1.0, abs(flat_g[i]), abs(numeric))
            worst = max(worst, err)
    return worst
