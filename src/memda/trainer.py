"""The full training loop.

Each iteration runs one combined forward/backward pass over a source and a
target mini-batch, stacked into one batch so that every network runs once
forward and once backward per step, assembling

    total = l_sup - lambda_adv * l_d + lambda_sc * l_sc

with the discriminator trained on l_d in the same pass: its own parameters
get the plain l_d gradient while the encoder/classifier side receives the
reversed, lambda_adv-scaled gradient through the conditioned input. Once
bootstrap is over and the bank holds ``gate_entries`` rows, the consistency
branch runs if consistency is on and lambda_sc > 0 or diagnostics are "on";
its backward runs only if lambda_sc > 0. SGD updates each network once per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import losses, metrics
from . import similarity as simmod
from .bank import MemoryBank, momentum_update
from .datasets import DomainDataset, ShiftSpec, batch_sampler, check_mixture
from .errors import ConfigurationError, NumericalError
from .nn import (
    ModelBundle,
    as_batch,
    build_model,
    classifier_forward,
    discriminator_forward,
    encoder_forward,
    gradient_reversal,
    softmax_vjp,
)

KNN = "knn"
CLASSIFIER = "classifier"
MEMORY = "memory"
BATCH = "batch"
OFF = "off"
PREDICT_CHUNK = 512  # rows per network pass in predict()


@dataclass
class TrainConfig:
    """Every setting of a run; each field is one key of the settings table."""

    batch_size: int = 32
    total_iters: int = 2000
    bootstrap_iters: int = 500
    lambda_adv: float = 1.0
    lambda_sc: float = 0.1
    tau: float = 0.07
    k: int = 5
    bank_capacity: int = 4096
    min_bank_entries: int = 0        # 0 means the 5*k default
    similarity: str = simmod.COSINE
    gaussian_sigma: float = 1.0
    pseudo_labels: str = KNN
    consistency: str = MEMORY        # memory | batch | off
    diagnostics: str = "auto"        # auto | on | off
    lr_encoder: float = 0.003
    lr_heads: float = 0.03
    lr_alpha: float = 10.0
    lr_beta: float = 0.75
    sgd_momentum: float = 0.9
    weight_decay: float = 5e-4
    mu: float = 0.0                  # slow-encoder momentum; 0 disables the copy
    adv_ramp: bool = False
    condition_backprop: str = "feature"  # feature | both: adversarial gradient
                                         # through f only, or through f and g
    seed: int = 0
    embed_dim: int = 32
    encoder_hidden: int = 64
    encoder_layers: int = 2
    disc_hidden: int = 64
    multilinear: bool = True
    # the data: the synthetic benchmark, unless both feature tables are given
    classes: int = 50
    input_dim: int = 16
    per_class: int = 200
    class_spread: float = 4.0
    within_std: float = 1.0
    rotation_deg: float = 30.0
    shift_noise: float = 0.1
    data_seed: int = -1              # -1 derives the data seed from the run seed
    source_table: str = ""
    target_table: str = ""

    def validate(self) -> None:
        """Raise ``ConfigurationError`` for the first setting that breaks a
        rule; the mixture and shift are checked only for generated data."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not np.isfinite(value):
                raise ConfigurationError(f"key {f.name!r}: {value} is not finite")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not 0 <= self.bootstrap_iters < self.total_iters:
            raise ConfigurationError("need 0 <= bootstrap_iters < total_iters")
        if self.lambda_adv < 0 or self.lambda_sc < 0:
            raise ConfigurationError("loss coefficients must be >= 0")
        if not self.tau > 0:
            raise ConfigurationError("tau must be > 0")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if self.bank_capacity < 1:
            raise ConfigurationError("bank_capacity must be >= 1")
        if min(self.lr_encoder, self.lr_heads) <= 0:
            raise ConfigurationError("learning rates must be positive")
        if self.lr_alpha < 0:
            raise ConfigurationError("lr_alpha must be >= 0")
        if not 0 <= self.sgd_momentum < 1:
            raise ConfigurationError("sgd_momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")
        if not 0 <= self.mu <= 1:
            raise ConfigurationError("mu must lie in [0, 1]")
        if self.pseudo_labels not in (KNN, CLASSIFIER):
            raise ConfigurationError(f"unknown pseudo-label mode {self.pseudo_labels!r}")
        if self.consistency not in (MEMORY, BATCH, OFF):
            raise ConfigurationError(f"unknown consistency mode {self.consistency!r}")
        if self.diagnostics not in ("auto", "on", "off"):
            raise ConfigurationError(f"unknown diagnostics mode {self.diagnostics!r}")
        if self.condition_backprop not in ("feature", "both"):
            raise ConfigurationError(
                f"unknown condition_backprop mode {self.condition_backprop!r}")
        for key in ("seed", "min_bank_entries"):
            if getattr(self, key) < 0:
                raise ConfigurationError(f"key {key!r} must be >= 0")
        if (min(self.embed_dim, self.disc_hidden) < 1 or self.encoder_layers < 0
                or (self.encoder_layers and self.encoder_hidden < 1)):
            raise ConfigurationError("model dimensions must be positive")
        simmod.SimilarityKind(self.similarity, self.gaussian_sigma)
        if self.consistency == MEMORY and self.bank_capacity < self.gate_entries:
            raise ConfigurationError(
                f"bank_capacity {self.bank_capacity} is below the "
                f"{self.gate_entries} entries the consistency loss waits for "
                f"(min_bank_entries, else 5*k with k={self.k}), so it would "
                f"never switch on: raise bank_capacity or lower "
                f"min_bank_entries or k")
        if (self.consistency == BATCH and self.pseudo_labels == KNN
                and self.batch_size < self.k):
            raise ConfigurationError(
                f"batch_size {self.batch_size} is below k={self.k}: batch "
                f"consistency votes over the current source batch, so the "
                f"kNN vote needs batch_size >= k")
        if not (self.source_table or self.target_table):
            check_mixture(*self.mixture)
            ShiftSpec.from_degrees(self.rotation_deg, noise=self.shift_noise)

    @property
    def mixture(self) -> tuple:
        """``check_mixture``'s and ``gen_gaussian_mixture``'s size arguments."""
        return (self.classes, self.input_dim, self.per_class, self.class_spread,
                self.within_std)

    @property
    def gate_entries(self) -> int:
        """Bank fill needed before the consistency loss activates."""
        return max(self.k, self.min_bank_entries or 5 * self.k)

    @property
    def similarity_kind(self) -> simmod.SimilarityKind:
        return simmod.SimilarityKind(self.similarity, self.gaussian_sigma)


@dataclass
class IterationRecord:
    iteration: int
    l_sup: float
    l_d: float
    l_sc: float
    total: float
    lr_encoder: float
    lr_heads: float
    bank_size: int
    mean_sim_avg: float
    mean_sim_literal: float
    pl_acc: float
    skip_count: int


class SGD:
    """Classical momentum SGD with L2 weight decay; velocity state persists."""

    def __init__(self, params, momentum: float, weight_decay: float):
        self.params = list(params)
        self.velocities = [np.zeros_like(p) for p in self.params]
        self.momentum = momentum
        self.weight_decay = weight_decay

    def step(self, grads, lr: float) -> None:
        """Consumes ``grads``: once a gradient is in its velocity, its array
        is the step's scratch, and it holds ``lr * v`` on return."""
        for p, v, g in zip(self.params, self.velocities, grads):
            if not np.all(np.isfinite(g)):
                raise NumericalError("non-finite gradient in SGD update")
            v *= self.momentum
            v += g
            if self.weight_decay:
                v += np.multiply(self.weight_decay, p, out=g)
            p -= np.multiply(lr, v, out=g)


def lr_schedule(iteration: int, config: TrainConfig):
    """Inverse-decay rates: eta0 * (1 + alpha * p) ** (-beta), p = progress."""
    p = iteration / config.total_iters
    factor = (1.0 + config.lr_alpha * p) ** (-config.lr_beta)
    return config.lr_encoder * factor, config.lr_heads * factor


def adv_coefficient(iteration: int, config: TrainConfig) -> float:
    if not config.adv_ramp:
        return config.lambda_adv
    p = iteration / config.total_iters
    return config.lambda_adv * (2.0 / (1.0 + np.exp(-10.0 * p)) - 1.0)


@dataclass
class StepOutput:
    l_sup: float
    l_d: float
    l_sc: float
    total: float
    f_source: np.ndarray
    consistency: losses.ConsistencyResult | None


def forward_backward(model: ModelBundle, x_source, y_source, x_target,
                     config: TrainConfig, bank: MemoryBank | None = None,
                     sc_active: bool = False,
                     lambda_adv: float | None = None) -> StepOutput:
    """One combined pass; each network's gradient is written in place.

    Source and target rows are stacked into one batch, so each network runs
    one forward and one backward; the first ``len(x_source)`` rows of every
    activation are the source's. ``sc_active`` alone enables the consistency
    branch; ``train_step`` sets it only with consistency on, after bootstrap
    and once the bank is full enough. Its reference set is ``bank`` in memory
    mode; in batch mode it is a fresh bank of capacity ``len(x_source)``
    holding the detached source features, and ``bank`` is not read.
    ``lambda_adv`` defaults to the config's; at 0 the discriminator does not
    run and its gradient is zero.
    """
    if lambda_adv is None:
        lambda_adv = config.lambda_adv
    adversarial = lambda_adv > 0
    if not adversarial:  # the discriminator's backward will not write
        model.discriminator.zero_grads()

    xs, xt = as_batch(x_source), as_batch(x_target)
    if 0 in (len(xs), len(xt)) or xs.shape[1] != xt.shape[1]:
        raise ConfigurationError(f"source batch {xs.shape} and target batch "
                                 f"{xt.shape} must be nonempty, equally wide")
    ns = len(xs)
    f, tape_e = encoder_forward(np.concatenate([xs, xt]), model.encoder)
    g, _, tape_c = classifier_forward(f, model.classifier)
    f_s, f_t = f[:ns], f[ns:]

    l_d = l_sc = 0.0
    dprobs = np.zeros_like(g)
    df = np.zeros_like(f)

    l_sup, dprobs[:ns] = losses.supervised_loss(g[:ns], y_source)

    if adversarial:
        # the conditioned batch lives in the model's resident buffer, which
        # the discriminator's backward then overwrites with its own gradient
        h = (losses.multilinear_map(f, g, out=model.conditioned_buffer(len(f)))
             if model.multilinear else f)
        p, tape_d = discriminator_forward(h, model.discriminator)
        l_d, dps, dpt = losses.discriminator_loss(p[:ns], p[ns:])
        # discriminator itself minimizes l_d ...
        dz = (np.concatenate([dps, dpt]) * p * (1.0 - p))[:, None]
        dh = model.discriminator.backward(
            tape_d, dz, out=h if model.multilinear else None)
        # ... while the encoder/classifier side sees the reversed gradient
        gradient_reversal(dh, lambda_adv, out=dh)
        if model.multilinear:
            # with "both" the conditioning vector g carries gradient too
            both = config.condition_backprop == "both"
            dfa, dga = losses.multilinear_map_vjp(f, g, dh, need_dg=both)
            if both:
                dprobs += dga
            df += dfa
        else:
            df += dh

    consistency = None
    if sc_active:
        pseudo = None
        if config.pseudo_labels == CLASSIFIER:
            pseudo = np.argmax(g[ns:], axis=1)
        if config.consistency == BATCH:
            bank = MemoryBank(ns, f.shape[1], config.similarity_kind)
            bank.enqueue(f_s, y_source)
        consistency = losses.sample_consistency_memory(
            f_t, bank, config.tau, config.k, model.num_classes,
            pseudo_labels=pseudo, need_grad=config.lambda_sc > 0)
        l_sc = consistency.value
        if consistency.grad_targets is not None:
            df[ns:] += config.lambda_sc * consistency.grad_targets

    # chain classifier gradients (supervised + conditioning path) into features
    df += model.classifier.backward(tape_c, softmax_vjp(g, dprobs))
    model.encoder.backward(tape_e, df)

    total = l_sup - lambda_adv * l_d + config.lambda_sc * l_sc
    return StepOutput(l_sup, l_d, l_sc, total, f_s, consistency)


@dataclass
class TrainerState:
    model: ModelBundle
    bank: MemoryBank | None
    opt_encoder: SGD
    opt_heads: SGD
    last_good: IterationRecord | None = None


def init_state(config: TrainConfig, input_dim: int, num_classes: int) -> TrainerState:
    """The untrained model, bank and optimizers a run of ``config`` starts
    from."""
    model = build_model(config, input_dim, num_classes)
    bank = (MemoryBank(config.bank_capacity, config.embed_dim,
                       config.similarity_kind)
            if config.consistency == MEMORY else None)
    opt_encoder = SGD([model.encoder.flat_params], config.sgd_momentum,
                      config.weight_decay)
    opt_heads = SGD([model.classifier.flat_params,
                     model.discriminator.flat_params],
                    config.sgd_momentum, config.weight_decay)
    return TrainerState(model, bank, opt_encoder, opt_heads)


def train_step(state: TrainerState, x_source, y_source, x_target, y_target_eval,
               iteration: int, config: TrainConfig) -> IterationRecord:
    """Run one iteration: losses, bank update, one SGD step per network.

    ``y_target_eval`` feeds the pseudo-label accuracy diagnostic only; pass
    None when target labels are unavailable.
    """
    if iteration >= config.total_iters:
        raise ConfigurationError("iteration past total_iters")
    model, bank = state.model, state.bank
    bootstrap = iteration < config.bootstrap_iters
    want_sc = not bootstrap and config.consistency != OFF and (
        config.lambda_sc > 0 or config.diagnostics == "on")
    sc_active = want_sc and (
        config.consistency == BATCH or len(bank) >= config.gate_entries)

    out = forward_backward(model, x_source, y_source, x_target, config,
                           bank=bank, sc_active=sc_active,
                           lambda_adv=adv_coefficient(iteration, config))
    if not np.isfinite(out.total):
        raise NumericalError(
            f"non-finite loss at iteration {iteration}: "
            f"sup={out.l_sup} d={out.l_d} sc={out.l_sc}; "
            f"last good: {state.last_good}"
        )

    # slow encoder comes to life at the end of the bootstrap phase
    if config.mu > 0 and model.momentum is None and not bootstrap:
        model.momentum = model.encoder.clone()

    if want_sc and config.consistency == MEMORY:
        if config.mu > 0:
            bank_feats, _ = encoder_forward(x_source, model.momentum)
        else:
            bank_feats = out.f_source
        bank.enqueue(bank_feats, y_source)

    lr_enc, lr_heads = lr_schedule(iteration, config)
    state.opt_encoder.step([model.encoder.flat_grads], lr_enc)
    state.opt_heads.step([model.classifier.flat_grads,
                          model.discriminator.flat_grads], lr_heads)
    if model.momentum is not None:
        momentum_update(model.momentum, model.encoder, config.mu)

    mean_avg = mean_lit = pl_acc = 0.0
    cons = out.consistency
    if config.diagnostics != "off" and cons is not None:
        mean_avg, mean_lit = metrics.mean_similarity_both(
            cons.sim, cons.positives)
        if y_target_eval is not None:
            pl_acc = metrics.pseudo_label_accuracy(cons.labels, y_target_eval)

    record = IterationRecord(
        iteration=iteration,
        l_sup=out.l_sup,
        l_d=out.l_d,
        l_sc=out.l_sc,
        total=out.total,
        lr_encoder=lr_enc,
        lr_heads=lr_heads,
        bank_size=len(bank) if bank is not None else 0,
        mean_sim_avg=mean_avg,
        mean_sim_literal=mean_lit,
        pl_acc=pl_acc,
        skip_count=cons.skipped if cons is not None else 0,
    )
    state.last_good = record
    return record


def predict(model: ModelBundle, features) -> np.ndarray:
    """Class predictions, PREDICT_CHUNK rows at a time to bound activations."""
    x = as_batch(features)
    preds = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], PREDICT_CHUNK):
        f, _ = encoder_forward(x[lo:lo + PREDICT_CHUNK], model.encoder)
        probs, _, _ = classifier_forward(f, model.classifier)
        preds[lo:lo + PREDICT_CHUNK] = np.argmax(probs, axis=1)
    return preds


def evaluate(model: ModelBundle, target: DomainDataset) -> metrics.EvalReport:
    """Accuracy of ``model``'s predictions on the labelled rows of
    ``target``; NaN everywhere when no row carries an evaluation label. A
    target of another class count raises ``ConfigurationError``."""
    if target.num_classes != model.num_classes:
        raise ConfigurationError(f"the target has {target.num_classes} classes "
                                 f"but the model has {model.num_classes}")
    truth = target.eval_labels()
    labeled = truth >= 0
    if not labeled.any():
        return metrics.EvalReport(float("nan"),
                                  np.full(target.num_classes, np.nan))
    with np.errstate(over="ignore", invalid="ignore"):  # the logits check reports it
        preds = predict(model, target.features)[labeled]
    return metrics.EvalReport(
        metrics.accuracy(preds, truth[labeled]),
        metrics.per_class_accuracy(preds, truth[labeled], target.num_classes))


@dataclass
class RunResult:
    model: ModelBundle
    history: list
    evaluation: metrics.EvalReport


def check_domain_pair(source: DomainDataset, target: DomainDataset) -> None:
    """Raise ``ConfigurationError`` unless the two domains share their
    feature width and class count."""
    if source.dim != target.dim:
        raise ConfigurationError("source/target feature widths differ")
    if source.num_classes != target.num_classes:
        raise ConfigurationError("source/target class counts differ")


def run_training(config: TrainConfig, source: DomainDataset,
                 target: DomainDataset) -> RunResult:
    """Train on the given domain pair, then evaluate on the full target set;
    the loop's state (bank, optimizer velocities) is gone by then."""
    config.validate()
    check_domain_pair(source, target)

    state = init_state(config, source.dim, source.num_classes)
    src_seed, tgt_seed = 2 * config.seed, 2 * config.seed + 1
    target_eval = target.eval_labels()
    has_target_labels = bool((target_eval >= 0).any())

    history = []
    # overflow surfaces once, as the NumericalError of an isfinite check
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.total_iters):
            src_idx = batch_sampler(source, config.batch_size, src_seed, it)
            tgt_idx = batch_sampler(target, config.batch_size, tgt_seed, it)
            record = train_step(
                state,
                source.features[src_idx],
                source.train_labels[src_idx],
                target.features[tgt_idx],
                target_eval[tgt_idx] if has_target_labels else None,
                it,
                config,
            )
            history.append(record)
    model = state.model
    del state  # predict's activations need not sit on top of bank and velocities
    return RunResult(model, history, evaluate(model, target))
