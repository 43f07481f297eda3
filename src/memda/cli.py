"""Command-line front end: gen-data, train, ablate, eval.

Configuration is a flat ``key = value`` text file ('#' comments); every key
can be overridden by a same-named flag (--batch-size overrides batch_size).
Settings (``check_settings``) and data are checked before anything is
written; a run then writes its manifest before training starts, then a
per-iteration metrics CSV, a summary report and the trained model.

Exit codes: 0 success; 2 bad configuration, data file or missing file;
3 numerical failure (non-finite loss, logits or gradient); 4 degenerate
input (e.g. a zero-norm feature for the cosine kernel); 5 gating violation.
Each comes from the ``exit_code`` of the package error (``memda.errors``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
    check_mixture,
    gen_gaussian_mixture,
    load_feature_table,
    save_feature_table,
)
from .errors import ConfigurationError, DataFormatError, MemdaError
from .trainer import RunResult, TrainConfig, evaluate, init_state, run_training

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

MIXTURE_KEYS = ("classes", "input_dim", "per_class", "class_spread", "within_std")
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


def resolve_settings(config_path=None, overrides=None, base=None) -> dict:
    """``base`` (default: the defaults), then the config file, then flags."""
    settings = dict(base or ALL_DEFAULTS)
    if config_path:
        settings.update(parse_config_file(config_path))
    for key, raw in (overrides or {}).items():
        if key not in ALL_DEFAULTS:
            raise ConfigurationError(f"unknown key {key!r}")
        settings[key] = _convert(key, raw) if isinstance(raw, str) else raw
    return settings


def train_config_from(settings: dict) -> TrainConfig:
    return TrainConfig(**{k: settings[k] for k in TRAIN_DEFAULTS})


def check_settings(settings: dict) -> TrainConfig:
    """The run's validated ``TrainConfig``; every float setting must be
    finite, and for generated data the mixture and shift settings are
    checked too. Raises ``ConfigurationError``."""
    for key, default in ALL_DEFAULTS.items():
        if isinstance(default, float) and not math.isfinite(settings[key]):
            raise ConfigurationError(f"key {key!r}: {settings[key]} is not finite")
    config = train_config_from(settings)
    config.validate()
    if not (settings["source_table"] or settings["target_table"]):
        check_mixture(*(settings[k] for k in MIXTURE_KEYS))
        ShiftSpec.from_degrees(settings["rotation_deg"],
                               noise=settings["shift_noise"])
    return config


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
    mixture = [settings[k] for k in MIXTURE_KEYS]
    source = gen_gaussian_mixture(*mixture, seed=dseed)
    base = gen_gaussian_mixture(*mixture, seed=dseed + 1)
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


def save_model(path, model, settings: dict) -> None:
    """The networks' parameters plus the run's resolved settings."""
    arrays = {}
    for name, net in (("encoder", model.encoder),
                      ("classifier", model.classifier),
                      ("discriminator", model.discriminator)):
        for i, p in enumerate(net.parameters()):
            arrays[f"{name}.{i}"] = p
    arrays["settings_json"] = np.array(json.dumps(settings, sort_keys=True))
    arrays["input_dim"] = np.array(model.encoder.n_in)
    np.savez(path, **arrays)


def load_model(path):
    """(model, settings): the saved networks and the resolved settings of
    the run that saved them, read from ``path`` in one pass."""
    with np.load(path) as data:
        if "settings_json" not in data:
            raise DataFormatError(f"{path}: no saved run settings; retrain")
        settings = resolve_settings(None, json.loads(data["settings_json"].item()))
        config = train_config_from(settings)
        num_classes = data["classifier.0"].shape[0]
        model = init_state(config, int(data["input_dim"]), num_classes).model
        for name, net in (("encoder", model.encoder),
                          ("classifier", model.classifier),
                          ("discriminator", model.discriminator)):
            for i, p in enumerate(net.parameters()):
                p[...] = data[f"{name}.{i}"]
    return model, settings


def write_manifest(outdir: Path, settings: dict) -> None:
    manifest = {
        "tool": "memda",
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "settings": settings,
        "outdir": str(outdir),
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def accuracy_dict(report: metrics.EvalReport) -> dict:
    return {
        "overall_accuracy": report.overall_accuracy,
        "macro_accuracy": metrics.macro_accuracy(report.per_class_accuracy),
        "per_class_accuracy": [float(v) for v in report.per_class_accuracy],
    }


def summary_dict(result: RunResult) -> dict:
    last = result.history[-1]
    return {
        **accuracy_dict(result.evaluation),
        "pseudo_label_accuracy": last.pl_acc,
        "mean_similarity": last.mean_sim_avg,
        "iterations": len(result.history),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    settings = resolve_settings(args.config, _collect_overrides(args))
    check_settings(settings)
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
    config = check_settings(settings)
    source, target = resolve_datasets(settings)  # bad data writes nothing
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(outdir, settings)
    result = run_training(config, source, target)
    write_metrics_csv(outdir / "metrics.csv", result.history)
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_model(outdir / "model.npz", result.model, settings)
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
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"key 'seeds': {exc}") from exc
    if not seeds:
        raise ConfigurationError("key 'seeds': the seed list is empty")
    grid = []  # every grid point is converted and checked before any run
    for raw in values:
        value = _convert(args.axis, raw)
        runs = [{**base, args.axis: value, "seed": s} for s in seeds]
        grid.append((raw, [(settings, check_settings(settings))
                           for settings in runs]))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for raw, runs in grid:
        accs = []
        for settings, config in runs:
            source, target = resolve_datasets(settings)
            result = run_training(config, source, target)
            accs.append(result.evaluation.overall_accuracy)
            rows.append((raw, str(settings["seed"]), accs[-1]))
        rows.append((raw, "median", statistics.median(accs)))

    table = outdir / "results.csv"
    with open(table, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("axis,value,seed,target_accuracy\n")
        for value, seed, acc in rows:
            fh.write(f"{args.axis},{value},{seed},{acc!r}\n")
    print(f"wrote {table} ({len(rows)} rows)")
    return 0


def cmd_eval(args) -> int:
    model, saved = load_model(args.model)
    # the saved run's data, unless the config file or flags override it
    settings = resolve_settings(args.config, _collect_overrides(args),
                                base=saved)
    if settings["target_table"]:
        target = load_feature_table(settings["target_table"], TARGET)
    else:
        _, target = resolve_datasets(settings)
    report = evaluate(model, target)
    if math.isnan(report.overall_accuracy):
        print("target table has no evaluation labels")
        return 2
    print(json.dumps(accuracy_dict(report), indent=2, sort_keys=True))
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
