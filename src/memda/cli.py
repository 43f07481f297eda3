"""Command-line front end: gen-data, train, ablate, eval.

Every subcommand resolves its settings in ``resolve_settings``, in layers:
the defaults; then a base (a manifest's ``settings`` for ``train
--from-manifest``, the saved run's for ``eval``); then a flat ``key = value``
config file ('#' comments); then one flag per key (--batch-size sets
batch_size). The result is one ``TrainConfig``, checked by its
``validate``, and it is all a subcommand reads. Settings and data are
checked before anything is written; a run then writes its manifest before
training starts, then a per-iteration metrics CSV, a summary report and the
trained model.
``metrics.csv`` has one column per ``trainer.IterationRecord`` field, in
field order (``iteration`` is headed ``iter``): floats as ``repr``, ints
as ``str``.

``model.npz`` holds exactly six arrays: ``encoder``, ``classifier`` and
``discriminator``, each that network's flat parameter vector (every dense
layer's weights, then its bias, in layer order); ``settings_json``, the
run's resolved settings; and ``input_dim`` and ``num_classes``, from which
``load_model`` rebuilds the networks before it copies the vectors in.

Exit codes: 0 success; 2 bad configuration or data file, or a file that
cannot be read or written;
3 numerical failure (non-finite loss, logits or gradient); 4 degenerate
input (e.g. a zero-norm feature for the cosine kernel); 5 gating violation.
Each comes from the ``exit_code`` of the package error (``memda.errors``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

from . import __version__, metrics, trainer
from .datasets import (
    SOURCE,
    TARGET,
    ShiftSpec,
    apply_domain_shift,
    gen_gaussian_mixture,
    load_feature_table,
    read_text,
    save_feature_table,
)
from .errors import ConfigurationError, DataFormatError, MemdaError
from .nn import build_model
from .trainer import RunResult, TrainConfig, evaluate, run_training

RECORD_FIELDS = [f.name for f in dataclasses.fields(trainer.IterationRecord)]
CSV_COLUMNS = ["iter", *RECORD_FIELDS[1:]]
ALL_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}

NETWORKS = ("encoder", "classifier", "discriminator")  # model.npz vectors
ABLATE_AXES = ("bank_capacity", "tau", "k", "classes", "lambda_sc",
               "pseudo_labels", "similarity")


def _convert(key: str, raw):
    """``raw`` as the type of ``key``'s default: a string is parsed, any other
    value (a saved setting) must have that type already (an int may be a float)."""
    kind = type(ALL_DEFAULTS[key])
    if not isinstance(raw, str):
        if type(raw) is kind or (kind is float and type(raw) is int):
            return kind(raw)
        raise ConfigurationError(
            f"key {key!r}: expected {kind.__name__}, got {raw!r}")
    if kind is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        return kind(raw.strip())
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r}: {exc}") from exc


def parse_config_file(path) -> dict:
    settings = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
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


def resolve_settings(config_path=None, flags=None, base=None) -> TrainConfig:
    """The validated settings: the defaults, then ``base`` (saved
    settings), then the config file, then ``flags``. Every key must be a
    setting, and every value is converted to its default's type."""
    settings = {}
    in_file = parse_config_file(config_path) if config_path else {}
    for layer in (base or {}, in_file, flags or {}):
        for key, raw in layer.items():
            if key not in ALL_DEFAULTS:
                raise ConfigurationError(f"unknown key {key!r}")
            settings[key] = _convert(key, raw)
    config = TrainConfig(**settings)
    config.validate()
    return config


def manifest_settings(path) -> dict:
    """The ``settings`` object of the manifest at ``path``; a file that is
    not a JSON object with a ``settings`` object raises ``DataFormatError``."""
    try:
        manifest = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not JSON ({exc})") from exc
    settings = manifest.get("settings") if isinstance(manifest, dict) else None
    if not isinstance(settings, dict):
        raise DataFormatError(f"{path}: no 'settings' object; not a manifest")
    return settings


def resolve_datasets(config: TrainConfig):
    """Load feature tables when given, otherwise generate the benchmark.
    Tables of different widths or class counts raise ``ConfigurationError``."""
    if config.source_table or config.target_table:
        if not (config.source_table and config.target_table):
            raise ConfigurationError("need both source_table and target_table")
        source = load_feature_table(config.source_table, SOURCE)
        target = load_feature_table(config.target_table, TARGET)
        trainer.check_domain_pair(source, target)
        return source, target
    return _generate_datasets(config)


def _generate_datasets(config: TrainConfig):
    """The synthetic (source, target) pair the data settings describe."""
    dseed = config.data_seed if config.data_seed >= 0 else config.seed
    source = gen_gaussian_mixture(*config.mixture, seed=dseed)
    base = gen_gaussian_mixture(*config.mixture, seed=dseed + 1)
    shift = ShiftSpec.from_degrees(config.rotation_deg, noise=config.shift_noise,
                                   seed=dseed + 2)
    return source, apply_domain_shift(base, shift)


# ---------------------------------------------------------------------------
# artifacts


def write_metrics_csv(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in history:
            values = (getattr(r, name) for name in RECORD_FIELDS)
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in values) + "\n")


def save_model(path, model, config: TrainConfig) -> None:
    """The ``model.npz`` layout of the module docstring."""
    np.savez(path, **{name: getattr(model, name).flat_params for name in NETWORKS},
             settings_json=np.array(json.dumps(dataclasses.asdict(config),
                                               sort_keys=True)),
             input_dim=np.array(model.encoder.n_in),
             num_classes=np.array(model.num_classes))


def _read_array(path, data, key, parse=np.asarray):
    """``parse(data[key])``; raises ``DataFormatError`` if either fails."""
    if key not in data:
        raise DataFormatError(f"{path}: no array {key!r}; retrain")
    try:
        return parse(data[key])
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad array {key!r} ({exc}); retrain") from exc


def load_model(path):
    """(model, config): the saved networks and the validated settings of
    the run that saved them, read from ``path`` in one pass. A file that is
    not an npz archive, a missing or malformed array or a vector of the
    wrong size raises ``DataFormatError``."""
    try:
        data = np.load(path)
    except (ValueError, zipfile.BadZipFile) as exc:  # pickled or text data, bad zip
        raise DataFormatError(f"{path}: not an npz archive; retrain") from exc
    if isinstance(data, np.ndarray):  # a lone .npy array
        raise DataFormatError(f"{path}: a single array, not an npz archive; retrain")
    with data:
        if "settings_json" not in data:
            raise DataFormatError(f"{path}: no saved run settings; retrain")
        vectors = [_read_array(path, data, name) for name in NETWORKS]
        input_dim, num_classes = (_read_array(path, data, key, int)
                                  for key in ("input_dim", "num_classes"))
        config = resolve_settings(base=_read_array(
            path, data, "settings_json", lambda a: dict(json.loads(a.item()))))
        model = build_model(config, input_dim, num_classes)
        for name, saved in zip(NETWORKS, vectors):
            net = getattr(model, name)
            if saved.shape != net.flat_params.shape:
                raise DataFormatError(
                    f"{path}: array {name!r} holds {saved.size} values, the "
                    f"network has {net.flat_params.size}; retrain")
            net.flat_params[...] = saved
    return model, config


def write_manifest(outdir: Path, config: TrainConfig) -> None:
    manifest = {
        "tool": "memda",
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "settings": dataclasses.asdict(config),
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
    config = resolve_settings(args.config, _collect_overrides(args))
    source, target = _generate_datasets(config)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    src_path = prefix.parent / (prefix.name + "_source.csv")
    tgt_path = prefix.parent / (prefix.name + "_target.csv")
    save_feature_table(src_path, source)
    save_feature_table(tgt_path, target)
    print(f"wrote {src_path} ({len(source)} rows) and {tgt_path} ({len(target)} rows)")
    return 0


def run_from_settings(config: TrainConfig, outdir: Path) -> RunResult:
    source, target = resolve_datasets(config)  # bad data writes nothing
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(outdir, config)
    result = run_training(config, source, target)
    write_metrics_csv(outdir / "metrics.csv", result.history)
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_model(outdir / "model.npz", result.model, config)
    return result


def cmd_train(args) -> int:
    base = manifest_settings(args.from_manifest) if args.from_manifest else None
    config = resolve_settings(args.config, _collect_overrides(args), base)
    result = run_from_settings(config, Path(args.outdir))
    acc = result.evaluation.overall_accuracy
    print(f"done: target accuracy {acc:.4f}, artifacts in {args.outdir}")
    return 0


def cmd_ablate(args) -> int:
    if args.axis not in ABLATE_AXES:
        raise ConfigurationError(
            f"unknown sweep axis {args.axis!r}; choose from {', '.join(ABLATE_AXES)}")
    flags = _collect_overrides(args)
    base = parse_config_file(args.config) if args.config else {}
    for key, owner in (("seed", "--seeds"), (args.axis, "--values")):
        if key in flags or key in base:
            raise ConfigurationError(
                f"key {key!r}: ablate sets it from {owner}; remove it from "
                f"the flags and the config file")
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ConfigurationError("value list is empty")
    seeds = [s.strip() for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise ConfigurationError("key 'seeds': the seed list is empty")
    for s in seeds:  # named after the flag the user wrote, not the setting
        try:
            int(s)
        except ValueError:
            raise ConfigurationError(f"key 'seeds': {s!r} is not an integer") from None
    # every grid point is resolved and checked before any run
    grid = [(raw, [resolve_settings(None, {**flags, args.axis: raw, "seed": s},
                                    base) for s in seeds]) for raw in values]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for raw, runs in grid:
        accs = []
        for config in runs:
            result = run_training(config, *resolve_datasets(config))
            accs.append(result.evaluation.overall_accuracy)
            rows.append((raw, str(config.seed), accs[-1]))
        rows.append((raw, "median", float(np.median(accs))))

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
    config = resolve_settings(args.config, _collect_overrides(args),
                              base=dataclasses.asdict(saved))
    if config.target_table:
        target = load_feature_table(config.target_table, TARGET)
    else:
        _, target = resolve_datasets(config)
    report = evaluate(model, target)
    if math.isnan(report.overall_accuracy):
        print("target table has no evaluation labels")
        return 2
    print(json.dumps(accuracy_dict(report), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_setting_flags(parser) -> None:
    """One flag per setting; only the flags given reach the namespace."""
    for key, default in ALL_DEFAULTS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            default=argparse.SUPPRESS,
                            metavar=type(default).__name__.upper(),
                            help=f"default {json.dumps(default)}")


def _collect_overrides(args) -> dict:
    """The setting flags given on the command line, as raw strings."""
    return {key: raw for key, raw in vars(args).items() if key in ALL_DEFAULTS}


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
                    help="start from a saved manifest's settings; --config "
                         "and the flags below apply on top")
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
    except OSError as exc:  # unreadable or unwritable
        print(f"error: {exc}", file=sys.stderr)
        return ConfigurationError.exit_code


if __name__ == "__main__":
    sys.exit(main())
