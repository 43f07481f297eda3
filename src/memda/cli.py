"""Command-line front end: gen-data, train, ablate, eval.

Configuration is a flat ``key = value`` text file ('#' comments); every key
can be overridden by a same-named flag (--batch-size overrides batch_size).
A run writes its manifest before training starts, then a per-iteration
metrics CSV, a summary report and the trained model.

Exit codes: 0 success; 2 bad configuration, data file or missing file;
3 numerical failure (non-finite loss, logits or gradient); 4 degenerate
input (e.g. a zero-norm feature for the cosine kernel); 5 gating violation.
Each comes from the ``exit_code`` of the package error (``memda.errors``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, metrics
from .datasets import (
    SOURCE,
    TARGET,
    ShiftSpec,
    apply_domain_shift,
    gen_gaussian_mixture,
    load_feature_table,
    save_feature_table,
)
from .errors import ConfigurationError, MemdaError
from .trainer import RunResult, TrainConfig, init_state, run_training

CSV_COLUMNS = [
    "iter", "l_sup", "l_d", "l_sc", "total", "lr_encoder", "lr_heads",
    "bank_size", "mean_sim_avg", "mean_sim_literal", "pl_acc", "skip_count",
]

# data-generation keys live beside the trainer keys in the same flat config
DATA_DEFAULTS = {
    "classes": 50,
    "input_dim": 16,
    "per_class": 200,
    "class_spread": 4.0,
    "within_std": 1.0,
    "rotation_deg": 30.0,
    "shift_noise": 0.1,
    "data_seed": -1,       # -1 derives the data seed from the run seed
    "source_table": "",
    "target_table": "",
}

TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
ALL_DEFAULTS = {**TRAIN_DEFAULTS, **DATA_DEFAULTS}

ABLATE_AXES = ("bank_capacity", "tau", "k", "classes", "lambda_sc",
               "pseudo_labels", "similarity")


def _convert(key: str, raw: str):
    default = ALL_DEFAULTS[key]
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r}: {exc}") from exc
    return raw.strip()


def parse_config_file(path) -> dict:
    settings = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in ALL_DEFAULTS:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            settings[key] = _convert(key, value.strip())
    return settings


def resolve_settings(config_path=None, overrides=None) -> dict:
    settings = dict(ALL_DEFAULTS)
    if config_path:
        settings.update(parse_config_file(config_path))
    for key, raw in (overrides or {}).items():
        if key not in ALL_DEFAULTS:
            raise ConfigurationError(f"unknown key {key!r}")
        settings[key] = _convert(key, raw) if isinstance(raw, str) else raw
    return settings


def train_config_from(settings: dict) -> TrainConfig:
    return TrainConfig(**{k: settings[k] for k in TRAIN_DEFAULTS})


def resolve_datasets(settings: dict):
    """Load feature tables when given, otherwise generate the benchmark."""
    if settings["source_table"] or settings["target_table"]:
        if not (settings["source_table"] and settings["target_table"]):
            raise ConfigurationError("need both source_table and target_table")
        source = load_feature_table(settings["source_table"], SOURCE)
        target = load_feature_table(settings["target_table"], TARGET)
        return source, target
    return _generate_datasets(settings)


def _generate_datasets(settings: dict):
    """The synthetic (source, target) pair the data settings describe."""
    dseed = settings["data_seed"]
    if dseed < 0:
        dseed = settings["seed"]
    source = gen_gaussian_mixture(
        settings["classes"], settings["input_dim"], settings["per_class"],
        settings["class_spread"], settings["within_std"], seed=dseed)
    base = gen_gaussian_mixture(
        settings["classes"], settings["input_dim"], settings["per_class"],
        settings["class_spread"], settings["within_std"], seed=dseed + 1)
    shift = ShiftSpec.from_degrees(settings["rotation_deg"],
                                   noise=settings["shift_noise"],
                                   seed=dseed + 2)
    return source, apply_domain_shift(base, shift)


# ---------------------------------------------------------------------------
# artifacts


def write_metrics_csv(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in history:
            floats = ",".join(
                repr(float(v)) for v in (
                    r.l_sup, r.l_d, r.l_sc, r.total, r.lr_encoder, r.lr_heads,
                )
            )
            diag = ",".join(
                repr(float(v)) for v in (r.mean_sim_avg, r.mean_sim_literal, r.pl_acc)
            )
            fh.write(f"{r.iteration},{floats},{r.bank_size},{diag},{r.skip_count}\n")


def save_model(path, model, config: TrainConfig) -> None:
    arrays = {}
    for name, net in (("encoder", model.encoder),
                      ("classifier", model.classifier),
                      ("discriminator", model.discriminator)):
        for i, p in enumerate(net.parameters()):
            arrays[f"{name}.{i}"] = p
    arrays["config_json"] = np.array(json.dumps(dataclasses.asdict(config)))
    arrays["input_dim"] = np.array(model.encoder.n_in)
    np.savez(path, **arrays)


def load_model(path):
    data = np.load(path)
    config = TrainConfig(**json.loads(data["config_json"].item()))
    num_classes = data["classifier.0"].shape[0]
    model = init_state(config, int(data["input_dim"]), num_classes).model
    for name, net in (("encoder", model.encoder),
                      ("classifier", model.classifier),
                      ("discriminator", model.discriminator)):
        for i, p in enumerate(net.parameters()):
            p[...] = data[f"{name}.{i}"]
    return model, config


def write_manifest(outdir: Path, settings: dict) -> Path:
    manifest = {
        "tool": "memda",
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "settings": settings,
        "outdir": str(outdir),
    }
    path = outdir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def summary_dict(result: RunResult) -> dict:
    ev = result.evaluation
    return {
        "overall_accuracy": ev.overall_accuracy,
        "macro_accuracy": metrics.macro_accuracy(ev.per_class_accuracy),
        "per_class_accuracy": [float(v) for v in ev.per_class_accuracy],
        "pseudo_label_accuracy": ev.pseudo_label_accuracy,
        "mean_similarity": ev.mean_similarity,
        "iterations": ev.iteration,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    settings = resolve_settings(args.config, _collect_overrides(args))
    source, target = _generate_datasets(settings)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    src_path = prefix.parent / (prefix.name + "_source.csv")
    tgt_path = prefix.parent / (prefix.name + "_target.csv")
    save_feature_table(src_path, source)
    save_feature_table(tgt_path, target)
    print(f"wrote {src_path} ({len(source)} rows) and {tgt_path} ({len(target)} rows)")
    return 0


def run_from_settings(settings: dict, outdir: Path) -> RunResult:
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(outdir, settings)
    config = train_config_from(settings)
    config.validate()
    source, target = resolve_datasets(settings)
    result = run_training(config, source, target)
    write_metrics_csv(outdir / "metrics.csv", result.history)
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_model(outdir / "model.npz", result.model, config)
    return result


def cmd_train(args) -> int:
    if args.from_manifest:
        with open(args.from_manifest, "r", encoding="utf-8") as fh:
            settings = json.load(fh)["settings"]
        settings = resolve_settings(None, settings)
    else:
        settings = resolve_settings(args.config, _collect_overrides(args))
    result = run_from_settings(settings, Path(args.outdir))
    acc = result.evaluation.overall_accuracy
    print(f"done: target accuracy {acc:.4f}, artifacts in {args.outdir}")
    return 0


def cmd_ablate(args) -> int:
    if args.axis not in ABLATE_AXES:
        raise ConfigurationError(
            f"unknown sweep axis {args.axis!r}; choose from {', '.join(ABLATE_AXES)}")
    base = resolve_settings(args.config, _collect_overrides(args))
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ConfigurationError("value list is empty")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for raw in values:
        value = _convert(args.axis, raw)
        accs = []
        for seed in seeds:
            settings = dict(base)
            settings[args.axis] = value
            settings["seed"] = seed
            config = train_config_from(settings)
            config.validate()
            source, target = resolve_datasets(settings)
            result = run_training(config, source, target)
            acc = result.evaluation.overall_accuracy
            accs.append(acc)
            rows.append((raw, str(seed), acc))
        rows.append((raw, "median", statistics.median(accs)))

    table = outdir / "results.csv"
    with open(table, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("axis,value,seed,target_accuracy\n")
        for value, seed, acc in rows:
            fh.write(f"{args.axis},{value},{seed},{acc!r}\n")
    print(f"wrote {table} ({len(rows)} rows)")
    return 0


def cmd_eval(args) -> int:
    model, config = load_model(args.model)
    settings = resolve_settings(args.config, _collect_overrides(args))
    if settings["target_table"]:
        target = load_feature_table(settings["target_table"], TARGET)
    else:
        _, target = resolve_datasets(settings)
    from .trainer import predict

    preds = predict(model, target.features)
    truth = target.eval_labels()
    labeled = truth >= 0
    if not labeled.any():
        print("target table has no evaluation labels")
        return 2
    overall = metrics.accuracy(preds[labeled], truth[labeled])
    per_class = metrics.per_class_accuracy(preds[labeled], truth[labeled],
                                           target.num_classes)
    report = {
        "overall_accuracy": overall,
        "macro_accuracy": metrics.macro_accuracy(per_class),
        "per_class_accuracy": [float(v) for v in per_class],
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_setting_flags(parser) -> None:
    for key in ALL_DEFAULTS:
        parser.add_argument("--" + key.replace("_", "-"), dest=f"set_{key}",
                            default=None, metavar="V", help=argparse.SUPPRESS)


def _collect_overrides(args) -> dict:
    out = {}
    for key in ALL_DEFAULTS:
        raw = getattr(args, f"set_{key}", None)
        if raw is not None:
            out[key] = raw
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memda",
        description="Desk-scale domain adaptation with a feature memory bank "
                    "and sample-consistency training.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write synthetic source/target tables")
    gen.add_argument("--config", default=None)
    gen.add_argument("--out", required=True, help="output path prefix")
    _add_setting_flags(gen)
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train one configuration")
    tr.add_argument("--config", default=None)
    tr.add_argument("--outdir", required=True)
    tr.add_argument("--from-manifest", default=None,
                    help="re-run the exact settings of a saved manifest")
    _add_setting_flags(tr)
    tr.set_defaults(func=cmd_train)

    ab = sub.add_parser("ablate", help="grid sweep over one axis")
    ab.add_argument("--config", default=None)
    ab.add_argument("--outdir", required=True)
    ab.add_argument("--axis", required=True)
    ab.add_argument("--values", required=True, help="comma-separated values")
    ab.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    _add_setting_flags(ab)
    ab.set_defaults(func=cmd_ablate)

    ev = sub.add_parser("eval", help="evaluate a saved model on a target table")
    ev.add_argument("--model", required=True)
    ev.add_argument("--config", default=None)
    _add_setting_flags(ev)  # --target-table comes from the settings registry
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemdaError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ConfigurationError.exit_code


if __name__ == "__main__":
    sys.exit(main())
