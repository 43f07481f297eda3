"""Desk-scale domain adaptation lab: adversarial alignment plus
memory-augmented sample-consistency training."""

__version__ = "0.1.0"

from .bank import MemoryBank, momentum_update
from .datasets import (
    DomainDataset,
    ShiftSpec,
    apply_domain_shift,
    batch_sampler,
    gen_gaussian_mixture,
    gen_two_moons,
    load_feature_table,
    save_feature_table,
)
from .losses import (
    LossReport,
    discriminator_loss,
    multilinear_map,
    sample_consistency_batch,
    sample_consistency_memory,
    supervised_loss,
    total_loss,
)
from .metrics import EvalReport, accuracy, per_class_accuracy, pseudo_label_accuracy
from .nn import (
    ModelBundle,
    build_model,
    classifier_forward,
    discriminator_forward,
    encoder_forward,
    finite_difference_check,
    gradient_reversal,
)
from .similarity import SimilarityKind, pairwise_similarity
from .trainer import IterationRecord, TrainConfig, lr_schedule, run_training, train_step
