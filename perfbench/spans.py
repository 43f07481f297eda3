"""Spans recorded from outside the program, and their self-time arithmetic.

A ``Tracer`` replaces a function at the name its caller looks it up by with a
wrapper that records one span per call: name, start, end, the index of the
enclosing span and any work counts taken from the call's arguments. Spans
stay in memory; ``summarize`` turns them into per-name call counts, total
time, self time (duration minus the durations of direct children) and
summed work counts.

The untraced run wraps only ``memda.trainer.train_step``; the traced run
wraps every entry of ``TRACED``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass, field

ITERATION = "trainer.train_step"


# --- work counts, each computed from one call's bound arguments and result


def _count_pairs(args, out, ctx):
    return {"pairs_scored": len(args["targets"]) * len(args["references"])}


def _count_votes(args, out, ctx):
    truth = ctx.get("y_target_eval")
    correct = 0 if truth is None else int((out.labels == truth).sum())
    return {"anchors_voted": len(out.labels), "labels_correct": correct}


def _count_anchors(args, out, ctx):
    scored = len(args["sim"])
    return {"anchors_scored": scored, "anchors_with_pos": scored - out[3]}


def _count_bank_read(args, out, ctx):
    return {"rows_read": len(args["bank"])}


def _count_bank_write(args, out, ctx):
    return {"rows_written": len(args["features"])}


def _count_sc_active(args, out, ctx):
    return {"sc_active_iters": int(bool(args["sc_active"]))}


def _remember_truth(args, ctx):
    ctx["y_target_eval"] = args["y_target_eval"]


@dataclass(frozen=True)
class Site:
    """One wrapped function: span name, where the caller looks it up, counts."""

    span: str
    module: str
    attr: str          # dotted within the module, e.g. "SGD.step"
    count: object = None
    before: object = None


# Each function is patched where its caller looks it up: the trainer imports
# the nn forwards, momentum_update and batch_sampler by name, and losses
# reaches the kernels through the ``memda.similarity`` module object.
TRACED = (
    Site("cli.run_from_settings", "memda.cli", "run_from_settings"),
    Site("cli.resolve_datasets", "memda.cli", "resolve_datasets"),
    Site(ITERATION, "memda.trainer", "train_step", before=_remember_truth),
    Site("trainer.forward_backward", "memda.trainer", "forward_backward",
         count=_count_sc_active),
    Site("trainer.SGD.step", "memda.trainer", "SGD.step"),
    Site("nn.encoder_forward", "memda.trainer", "encoder_forward"),
    Site("nn.classifier_forward", "memda.trainer", "classifier_forward"),
    Site("nn.discriminator_forward", "memda.trainer", "discriminator_forward"),
    Site("nn.MLP.backward", "memda.nn", "MLP.backward"),
    Site("bank.enqueue", "memda.bank", "MemoryBank.enqueue",
         count=_count_bank_write),
    Site("bank.momentum_update", "memda.trainer", "momentum_update"),
    Site("datasets.batch_sampler", "memda.trainer", "batch_sampler"),
    Site("losses.supervised_loss", "memda.losses", "supervised_loss"),
    Site("losses.multilinear_map", "memda.losses", "multilinear_map"),
    Site("losses.multilinear_map_vjp", "memda.losses", "multilinear_map_vjp"),
    Site("losses.sample_consistency_memory", "memda.losses",
         "sample_consistency_memory", count=_count_bank_read),
    Site("losses.consistency_from_similarity", "memda.losses",
         "consistency_from_similarity", count=_count_anchors),
    Site("similarity.pairwise_similarity", "memda.similarity",
         "pairwise_similarity", count=_count_pairs),
    Site("similarity.assign_pseudo_labels", "memda.similarity",
         "assign_pseudo_labels", count=_count_votes),
    Site("similarity.pairwise_similarity_vjp", "memda.similarity",
         "pairwise_similarity_vjp"),
    Site("metrics.mean_similarity_both", "memda.metrics", "mean_similarity_both"),
    Site("metrics.pseudo_label_accuracy", "memda.metrics", "pseudo_label_accuracy"),
)
UNTRACED = (Site(ITERATION, "memda.trainer", "train_step"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of wrapped calls; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.context: dict = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, site: Site, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if site.before or site.count:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                bound = call.arguments
            if site.before:
                site.before(bound, self.context)
            index = self.enter(site.span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if site.count:
                self.spans[index].counts = site.count(bound, out, self.context)
            return out

        return wrapper

    def install(self, sites) -> None:
        for site in sites:
            owner = importlib.import_module(site.module)
            *path, attr = site.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(site, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def loop_window(spans) -> tuple[float, float]:
    """(start of the first iteration, end of the last one)."""
    iters = [s for s in spans if s.name == ITERATION]
    return iters[0].start, iters[-1].end


def summarize(spans, window=None) -> dict:
    """Per-name calls, total and self seconds and summed counts.

    Self time is a span's duration minus the durations of its direct
    children. With ``window=(lo, hi)`` only spans lying wholly inside it are
    counted; a child always lies inside its parent, so a parent that is
    counted keeps its children's time out of its own self time.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if window and not (window[0] <= s.start and s.end <= window[1]):
            continue
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "counts": Counter()})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child_time[i]
        row["counts"].update(s.counts)
    for row in out.values():
        row["counts"] = dict(row["counts"])
    return out
