import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import memda.cli
import memda.trainer
from memda.cli import (
    ALL_DEFAULTS,
    CSV_COLUMNS,
    load_model,
    main,
    parse_config_file,
    resolve_datasets,
    resolve_settings,
    run_from_settings,
)
from memda.datasets import SOURCE, TARGET, load_feature_table, save_feature_table
from memda.errors import (
    ConfigurationError,
    DataFormatError,
    DegenerateInputError,
    MemdaError,
    NumericalError,
)
from memda.nn import build_model
from memda.trainer import predict

TINY = {
    "classes": "5",
    "input_dim": "5",
    "per_class": "20",
    "total_iters": "30",
    "bootstrap_iters": "8",
    "batch_size": "16",
    "bank_capacity": "64",
    "embed_dim": "6",
    "encoder_hidden": "12",
    "encoder_layers": "1",
    "disc_hidden": "8",
}


def tiny_flags(*omit, **extra):
    merged = {**{k: v for k, v in TINY.items() if k not in omit},
              **{k: str(v) for k, v in extra.items()}}
    out = []
    for key, value in merged.items():
        out += ["--" + key.replace("_", "-"), value]
    return out


def fresh_cli(argv, **env):
    """``memda`` run in a fresh interpreter, with ``env`` added to its
    environment; returns the completed process."""
    src = Path(memda.cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "memda.cli"] + argv,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src), **env})


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\n"
        "batch_size = 16\n"
        "tau = 0.5   # inline comment\n"
        "similarity = gaussian\n"
        "multilinear = false\n"
        "\n"
    )
    settings = parse_config_file(cfg)
    assert settings == {
        "batch_size": 16, "tau": 0.5, "similarity": "gaussian",
        "multilinear": False,
    }


def test_unknown_config_key_is_named(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("banana = 3\n")
    with pytest.raises(ConfigurationError, match="banana"):
        parse_config_file(cfg)


def test_bad_value_reports_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batch_size = soon\n")
    with pytest.raises(ConfigurationError, match="batch_size"):
        parse_config_file(cfg)


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 0.5\nbatch_size = 64\n")
    config = resolve_settings(cfg, {"tau": "0.07"})
    assert config.tau == 0.07
    assert config.batch_size == 64


def test_paper_scale_defaults_accepted():
    config = resolve_settings(None, {
        "batch_size": "32", "k": "5", "tau": "0.07",
        "lambda_adv": "1", "lambda_sc": "0.1",
        "bank_capacity": "48000", "bootstrap_iters": "4000",
        "total_iters": "90000",
    })
    assert (config.batch_size, config.k, config.tau) == (32, 5, 0.07)
    assert (config.lambda_adv, config.lambda_sc) == (1.0, 0.1)


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_round_trip(tmp_path):
    rc = main(["gen-data", "--out", str(tmp_path / "bench"),
               "--classes", "4", "--input-dim", "5", "--per-class", "10"])
    assert rc == 0
    src = load_feature_table(tmp_path / "bench_source.csv", SOURCE)
    tgt = load_feature_table(tmp_path / "bench_target.csv", TARGET)
    assert src.dim == tgt.dim == 5
    assert src.num_classes == tgt.num_classes == 4
    assert len(src) == len(tgt) == 40


def test_gen_data_zero_rotation_moments_match(tmp_path):
    rc = main(["gen-data", "--out", str(tmp_path / "flat"),
               "--classes", "4", "--input-dim", "4", "--per-class", "200",
               "--rotation-deg", "0", "--shift-noise", "0"])
    assert rc == 0
    src = load_feature_table(tmp_path / "flat_source.csv", SOURCE)
    tgt = load_feature_table(tmp_path / "flat_target.csv", TARGET)
    gap = np.abs(src.features.mean(axis=0) - tgt.features.mean(axis=0))
    assert np.max(gap) < 0.2  # independent draws of the same distribution


@pytest.mark.parametrize("key,value", [
    ("shift_noise", "-1"), ("shift_noise", "nan"),
    ("rotation_deg", "nan"), ("class_spread", "inf"),
    ("within_std", "1e308"), ("shift_noise", "1e308"),  # non-finite data
], ids=["-1", "nan", "rotation_deg-nan", "class_spread-inf", "within_std-1e308",
        "shift_noise-1e308"])
def test_gen_data_rejects_a_bad_shift_noise(tmp_path, capsys, key, value):
    rc = main(["gen-data", "--out", str(tmp_path / "out" / "d"),
               "--" + key.replace("_", "-"), value])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts_and_exits_zero(tmp_path):
    outdir = tmp_path / "run"
    rc = main(["train", "--outdir", str(outdir)] + tiny_flags())
    assert rc == 0
    assert (outdir / "manifest.json").exists()
    assert (outdir / "model.npz").exists()
    lines = (outdir / "metrics.csv").read_text().splitlines()
    assert lines[0] == ("iter,l_sup,l_d,l_sc,total,lr_encoder,lr_heads,bank_size,"
                        "mean_sim_avg,mean_sim_literal,pl_acc,skip_count")
    assert len(lines) == 1 + 30
    summary = json.loads((outdir / "summary.json").read_text())
    assert 0.0 <= summary["overall_accuracy"] <= 1.0
    assert len(summary["per_class_accuracy"]) == 5


def test_manifest_records_the_environment(tmp_path):
    outdir = tmp_path / "run"
    assert main(["train", "--outdir", str(outdir)] + tiny_flags()) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert manifest["settings"]["total_iters"] == 30


def test_train_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--outdir", str(a)] + tiny_flags(seed=7)) == 0
    assert main(["train", "--outdir", str(b)] + tiny_flags(seed=7)) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_train_same_settings_write_identical_summary_and_model(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for outdir in runs:  # with a slow encoder, which is a clone of the encoder
        flags = tiny_flags(seed=7, mu=0.9)
        assert main(["train", "--outdir", str(outdir)] + flags) == 0
    a, b = runs
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    # npz entries carry timestamps, so the arrays are compared, not the files
    with np.load(a / "model.npz") as first, np.load(b / "model.npz") as second:
        assert first.files == second.files
        for key in first.files:
            assert first[key].dtype == second[key].dtype
            assert first[key].tobytes() == second[key].tobytes()


def test_train_lambda_sc_zero_zeroes_consistency_columns(tmp_path):
    outdir = tmp_path / "off"
    rc = main(["train", "--outdir", str(outdir)] + tiny_flags(lambda_sc=0))
    assert rc == 0
    rows = (outdir / "metrics.csv").read_text().splitlines()[1:]
    cols = {name: i for i, name in enumerate(CSV_COLUMNS)}
    for row in rows:
        parts = row.split(",")
        for name in ("l_sc", "mean_sim_avg", "mean_sim_literal", "pl_acc",
                     "skip_count", "bank_size"):
            assert float(parts[cols[name]]) == 0.0


def test_train_manifest_reproduces_csv(tmp_path):
    first = tmp_path / "first"
    assert main(["train", "--outdir", str(first)] + tiny_flags(seed=3)) == 0
    second = tmp_path / "second"
    rc = main(["train", "--outdir", str(second),
               "--from-manifest", str(first / "manifest.json")])
    assert rc == 0
    assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()


@pytest.mark.parametrize("layer,override", [
    (["--seed", "5"], {"seed": 5}),
    (["--config", "over.cfg"], {"tau": 0.5, "lambda_sc": 1.0}),
], ids=["flag", "config"])
def test_train_from_manifest_applies_config_and_flags_on_top(
        tmp_path, monkeypatch, saved_model, layer, override):
    monkeypatch.chdir(tmp_path)
    Path("over.cfg").write_text("tau = 0.5\nlambda_sc = 1\n")
    manifest = saved_model.parent / "manifest.json"
    assert main(["train", "--outdir", "layered", "--from-manifest", str(manifest)]
                + layer) == 0
    assert main(["train", "--outdir", "plain"] + tiny_flags(**override)) == 0
    layered = Path("layered/metrics.csv").read_bytes()
    assert layered == Path("plain/metrics.csv").read_bytes()
    assert layered != (saved_model.parent / "metrics.csv").read_bytes()
    saved = json.loads(Path("layered/manifest.json").read_text())["settings"]
    assert {key: saved[key] for key in override} == override


def test_train_help_lists_every_setting_with_its_default(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["train", "--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    assert re.search(r"\n  --bank-capacity INT +default 4096\n", out)
    for key in ALL_DEFAULTS:
        assert f"[--{key.replace('_', '-')} " in out


UNREADABLE = {  # case -> command line, run beside the inputs of the test
    "config-is-a-directory": ["train", "--outdir", "D", "--config", "dir"],
    "tables-are-directories": ["train", "--outdir", "D", "--source-table", "dir",
                               "--target-table", "dir"],
    "model-is-a-directory": ["eval", "--model", "dir"],
    "config-not-utf8": ["train", "--outdir", "D", "--config", "latin1.cfg"],
    "tables-not-utf8": ["train", "--outdir", "D", "--source-table", "latin1.csv",
                        "--target-table", "latin1.csv"],
    "outdir-under-a-file": ["train", "--outdir", "file/D"],
    "out-under-a-file": ["gen-data", "--out", "file/D/x"],
    "manifest-not-json": ["train", "--outdir", "D", "--from-manifest", "file"],
    "manifest-without-settings": ["train", "--outdir", "D",
                                  "--from-manifest", "no-settings.json"],
    "manifest-is-a-list": ["train", "--outdir", "D", "--from-manifest", "list.json"],
    "manifest-settings-not-object": ["train", "--outdir", "D",
                                     "--from-manifest", "list-settings.json"],
    "manifest-not-utf8": ["train", "--outdir", "D", "--from-manifest", "latin1.json"],
}
NAMED = {"config-not-utf8": "latin1.cfg", "tables-not-utf8": "latin1.csv",
         "manifest-not-utf8": "latin1.json"}  # case -> file the error names


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys,
                                                case):
    monkeypatch.chdir(tmp_path)
    Path("dir").mkdir()
    Path("file").write_text("a regular file\n")
    Path("latin1.cfg").write_bytes("tau = 0.5  # \u00e9\n".encode("latin-1"))
    Path("latin1.csv").write_bytes("2,2\n0,1.0,2.0  # \u00e9\n".encode("latin-1"))
    Path("no-settings.json").write_text('{"tool": "memda"}\n')
    Path("list.json").write_text("[1, 2]\n")
    Path("list-settings.json").write_text('{"settings": [1, 2]}\n')
    Path("latin1.json").write_bytes('{"settings": {"similarity": "\u00e9"}}\n'
                                    .encode("latin-1"))
    argv = UNREADABLE[case]
    assert main(argv + ([] if argv[0] == "eval" else tiny_flags())) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert NAMED.get(case, "") in err
    assert not Path("D").exists() and not Path("file").is_dir()


def test_batch_knn_needs_k_rows_per_batch_before_writing(tmp_path, capsys):
    outdir = tmp_path / "run"
    rc = main(["train", "--outdir", str(outdir)] + tiny_flags(
        consistency="batch", batch_size=3, k=5))
    assert rc == 2
    err = capsys.readouterr().err
    assert "batch_size 3" in err and "k=5" in err
    assert not outdir.exists()
    # classifier pseudo-labels never vote, so they take any batch size
    resolve_settings(None, {"consistency": "batch", "pseudo_labels": "classifier",
                            "batch_size": "3", "k": "5"})


@pytest.mark.parametrize("flags,rule", [
    ({"bank_capacity": 4, "k": 2}, "would never switch on"),
    ({"consistency": "batch", "batch_size": 3, "k": 5}, "needs batch_size >= k"),
], ids=["memory", "batch"])
def test_bank_rules_hold_only_where_the_consistency_branch_runs(
        tmp_path, capsys, flags, rule):
    # at lambda_sc 0 the branch never runs, so its rules cannot refuse a run
    assert main(["train", "--outdir", str(tmp_path / "r")]
                + tiny_flags(lambda_sc=0, **flags)) == 0
    # diagnostics "on" runs it anyway, and the rule holds again
    assert main(["train", "--outdir", str(tmp_path / "d")]
                + tiny_flags(lambda_sc=0, diagnostics="on", **flags)) == 2
    assert rule in capsys.readouterr().err


def test_train_unknown_key_fails_with_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    rc = main(["train", "--outdir", str(tmp_path / "x"), "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("flags", [
    ["--classes", "0"],                     # a data key
    ["--k", "0"],                           # a trainer key
    ["--source-table", "bad.csv", "--target-table", "bad.csv"],
    ["--rotation-deg", "nan"],              # non-finite float settings
    ["--lambda-adv", "nan"],
    ["--lr-beta", "nan"],
    ["--class-spread", "nan"],
    ["--tau", "inf"],
    ["--lr-beta", "-1000"],                 # arithmetic that would overflow
    ["--similarity", "gaussian", "--gaussian-sigma", "1e160"],
    ["--similarity", "gaussian", "--gaussian-sigma", "1e-170"],
    ["--tau", "1e-310"],
    ["--within-std", "1e308"],              # generated data that is not finite
])
def test_train_with_bad_settings_writes_nothing(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_text("not a header\n")
    assert main(["train", "--outdir", "D"] + flags) == 2
    assert not Path("D").exists()


@pytest.mark.parametrize("flags,named", [
    (["--seed", "-1"], "'seed'"),
    (["--min-bank-entries", "-3"], "'min_bank_entries'"),
    (["--embed-dim", "0"], "model dimensions"),
    (["--encoder-hidden", "0"], "model dimensions"),
    (["--encoder-layers", "-1"], "model dimensions"),
    (["--disc-hidden", "0"], "model dimensions"),
])
def test_train_refuses_a_bad_count_before_writing(tmp_path, capsys, flags, named):
    outdir = tmp_path / "run"
    assert main(["train", "--outdir", str(outdir)] + tiny_flags() + flags) == 2
    assert named in capsys.readouterr().err
    assert not outdir.exists()


def test_gen_data_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "d" / "x"),
                 "--seed", "-1"]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_eval_refuses_a_bad_saved_model_size(tmp_path, capsys, saved_model):
    with np.load(saved_model) as data:
        arrays = dict(data)
    settings = json.loads(arrays["settings_json"].item())
    arrays["settings_json"] = np.array(json.dumps({**settings, "embed_dim": 0}))
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    assert main(["eval", "--model", str(bad)]) == 2
    assert "model dimensions" in capsys.readouterr().err


def test_train_on_feature_tables(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--classes", "4", "--input-dim", "5", "--per-class", "15"]) == 0
    outdir = tmp_path / "run"
    rc = main(["train", "--outdir", str(outdir),
               "--source-table", str(tmp_path / "d_source.csv"),
               "--target-table", str(tmp_path / "d_target.csv")]
              + tiny_flags(classes=4))
    assert rc == 0
    # the tables hold exactly the data a run generates from the same settings
    generated = tmp_path / "generated"
    assert main(["train", "--outdir", str(generated)]
                + tiny_flags(classes=4, per_class=15)) == 0
    assert ((outdir / "metrics.csv").read_bytes()
            == (generated / "metrics.csv").read_bytes())


def strict_json(text):
    """``text`` parsed as JSON proper: ``NaN`` and ``Infinity`` are refused."""
    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_unmeasurable_accuracies_are_written_as_null(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "d")] + tiny_flags()) == 0
    comment, header, *rows = (tmp_path / "d_target.csv").read_text().splitlines()
    tables = {  # five classes in the header; no row labeled, or none of class 4
        "unlabeled": ["-1," + r.split(",", 1)[1] for r in rows],
        "no4": [r for r in rows if not r.startswith("4,")],
    }
    for name, body in tables.items():
        (tmp_path / f"{name}.csv").write_text("\n".join([comment, header, *body]) + "\n")
        assert main(["train", "--outdir", str(tmp_path / name),
                     "--source-table", str(tmp_path / "d_source.csv"),
                     "--target-table", str(tmp_path / f"{name}.csv")]
                    + tiny_flags()) == 0
    unlabeled = strict_json((tmp_path / "unlabeled" / "summary.json").read_text())
    assert unlabeled["overall_accuracy"] is None
    assert unlabeled["macro_accuracy"] is None
    assert unlabeled["per_class_accuracy"] == [None] * 5
    no4 = strict_json((tmp_path / "no4" / "summary.json").read_text())
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "no4" / "model.npz")]) == 0
    for report in (no4, strict_json(capsys.readouterr().out)):
        assert report["per_class_accuracy"][4] is None
        assert all(isinstance(a, float) for a in report["per_class_accuracy"][:4])
        assert isinstance(report["macro_accuracy"], float)


@pytest.mark.parametrize("target_flags,named", [
    (["--classes", "4"], "class counts differ"),
    (["--input-dim", "6"], "feature widths differ"),
], ids=["classes", "width"])
def test_mismatched_tables_are_refused_before_writing(tmp_path, capsys,
                                                      target_flags, named):
    table = ["--classes", "3", "--input-dim", "4", "--per-class", "6"]
    assert main(["gen-data", "--out", str(tmp_path / "a")] + table) == 0
    assert main(["gen-data", "--out", str(tmp_path / "b")] + table + target_flags) == 0
    capsys.readouterr()
    outdir = tmp_path / "run"
    assert main(["train", "--outdir", str(outdir),
                 "--source-table", str(tmp_path / "a_source.csv"),
                 "--target-table", str(tmp_path / "b_target.csv")]) == 2
    assert f"source/target {named}" in capsys.readouterr().err
    assert not outdir.exists()


def test_bank_that_never_opens_its_gate_fails_fast(tmp_path, capsys):
    # 16 entries can never reach the 5*k = 25 the consistency loss waits for
    rc = main(["train", "--outdir", str(tmp_path / "r"), "--bank-capacity", "16",
               "--k", "5", "--bootstrap-iters", "0", "--total-iters", "40"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bank_capacity 16" in err and "25 entries" in err
    assert not (tmp_path / "r" / "metrics.csv").exists()


def test_out_of_range_optimiser_settings_exit_2(tmp_path, capsys):
    for flag, value in (("--sgd-momentum", "1.5"), ("--sgd-momentum", "-0.5"),
                        ("--weight-decay", "-1"), ("--lr-alpha", "-5")):
        rc = main(["train", "--outdir", str(tmp_path / "r"), flag, value])
        assert rc == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize("error,code", [
    (ConfigurationError, 2), (DataFormatError, 2), (NumericalError, 3),
    (DegenerateInputError, 4),
])
def test_package_errors_map_to_documented_exit_codes(tmp_path, monkeypatch,
                                                     capsys, error, code):
    assert issubclass(error, MemdaError) and error.exit_code == code

    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(memda.cli, "run_training", fail)
    assert main(["train", "--outdir", str(tmp_path / "r")] + tiny_flags()) == code
    assert capsys.readouterr().err == f"{error.label}: boom\n"


def test_out_of_memory_exits_2_with_one_line_and_keeps_the_manifest(
        tmp_path, monkeypatch, capsys):
    message = ("Unable to allocate 59.6 GiB for an array with shape "
               "(2000000000, 4) and data type float64")

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(memda.trainer, "MemoryBank", fail)
    outdir = tmp_path / "r"
    assert main(["train", "--outdir", str(outdir)]
                + tiny_flags(bank_capacity=1_000_000_000)) == 2
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json",
                                                        "metrics.csv"]
    assert (outdir / "metrics.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_numerical_failure_reports_one_line(tmp_path):
    # a fresh interpreter shows what the user sees: no numpy warning lines
    proc = fresh_cli(["train", "--outdir", str(tmp_path / "r"),
                      "--lr-encoder", "1e8", "--lr-heads", "1e8",
                      "--sgd-momentum", "0.99"] + tiny_flags())
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("numerical failure: non-finite loss")


def test_a_failed_run_keeps_its_rows_and_a_tiny_tau_is_named(tmp_path, capsys):
    # the Euclidean consistency loss grows as distance / tau: at tau 1e-300
    # it overflows a few iterations after the bank's gate opens
    outdir = tmp_path / "r"
    rc = main(["train", "--outdir", str(outdir), "--similarity", "euclidean",
               "--tau", "1e-300", "--lambda-sc", "1", "--classes", "5",
               "--total-iters", "30", "--bootstrap-iters", "5"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "'tau'" in err and "euclidean" in err
    failed_at = int(re.search(r"at iteration (\d+)", err).group(1))
    assert failed_at > 5  # after bootstrap, before the end
    lines = (outdir / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(failed_at))
    assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json",
                                                        "metrics.csv"]


def test_metrics_are_byte_identical_across_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when numpy loads: one process per count
    csvs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"threads{threads}"
        proc = fresh_cli(["train", "--outdir", str(outdir), "--total-iters", "300",
                          "--bootstrap-iters", "50", "--seed", "3",
                          "--lambda-sc", "1", "--tau", "0.2"],
                         OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        csvs.append((outdir / "metrics.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_zero_source_features_exit_4_at_first_enqueue(tmp_path, capsys):
    # all-zero inputs give all-zero features from the freshly built encoder
    # (zero biases), which the cosine bank rejects when they are enqueued
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--classes", "4", "--input-dim", "5", "--per-class", "15"]) == 0
    source = load_feature_table(tmp_path / "d_source.csv", SOURCE)
    source.features[...] = 0.0
    save_feature_table(tmp_path / "d_source.csv", source)
    rc = main(["train", "--outdir", str(tmp_path / "run"),
               "--source-table", str(tmp_path / "d_source.csv"),
               "--target-table", str(tmp_path / "d_target.csv")]
              + tiny_flags(classes=4, bootstrap_iters=0))
    assert rc == 4
    assert "zero enqueued vector at row 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablate / eval


def test_ablate_row_count_and_medians(tmp_path):
    outdir = tmp_path / "sweep"
    rc = main(["ablate", "--outdir", str(outdir),
               "--axis", "bank_capacity", "--values", "32,64",
               "--seeds", "0,1,2"] + tiny_flags("bank_capacity", total_iters=20))
    assert rc == 0
    lines = (outdir / "results.csv").read_text().splitlines()
    assert lines[0] == "axis,value,seed,target_accuracy"
    assert len(lines) == 1 + 2 * 3 + 2  # config x seed rows plus one median per value
    assert sum(1 for l in lines if ",median," in l) == 2


def test_ablate_keeps_the_rows_of_the_runs_before_a_failure(tmp_path,
                                                           monkeypatch):
    train, calls = memda.cli.run_training, []

    def third_run_fails(*args, **kwargs):
        calls.append(args[0].seed)
        if len(calls) == 3:
            raise NumericalError("boom")
        return train(*args, **kwargs)

    monkeypatch.setattr(memda.cli, "run_training", third_run_fails)
    outdir = tmp_path / "sweep"
    rc = main(["ablate", "--outdir", str(outdir), "--axis", "tau",
               "--values", "0.1", "--seeds", "0,1,2"] + tiny_flags())
    assert rc == 3 and calls == [0, 1, 2]
    lines = (outdir / "results.csv").read_text().splitlines()
    assert lines[0] == "axis,value,seed,target_accuracy"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["tau", "0.1", "0"], ["tau", "0.1", "1"]]


@pytest.mark.parametrize("missing", [("target",), ("source", "target")],
                         ids=["one", "both"])
def test_ablate_writes_nothing_when_its_data_is_refused(tmp_path, capsys,
                                                        missing):
    assert main(["gen-data", "--out", str(tmp_path / "d")] + tiny_flags()) == 0
    tables = []
    for side in ("source", "target"):
        path = tmp_path / (f"missing_{side}.csv" if side in missing
                           else f"d_{side}.csv")
        tables += [f"--{side}-table", str(path)]
    capsys.readouterr()
    outdir = tmp_path / "ab"
    rc = main(["ablate", "--outdir", str(outdir), "--axis", "tau",
               "--values", "0.1", "--seeds", "0"] + tables + tiny_flags())
    assert rc == 2
    assert f"missing_{missing[0]}.csv" in capsys.readouterr().err
    assert not outdir.exists()


def test_ablate_unknown_axis(tmp_path):
    rc = main(["ablate", "--outdir", str(tmp_path / "s"),
               "--axis", "flux", "--values", "1"])
    assert rc == 2


@pytest.mark.parametrize("axis,values,seeds,key", [
    ("tau", "0.07", "0,x", "seeds"),
    ("tau", "0.07", ",", "seeds"),
    ("bank_capacity", "32,64,x", "0", "bank_capacity"),
    ("tau", "0.07,0.5,-1", "0", "tau"),
    ("classes", "5,0", "0", "classes"),
    ("tau", "0.07", "0", "shift_noise"),  # bad base setting: shift_noise nan
    ("tau", "0.07", "-1", "seed"),
])
def test_ablate_rejects_a_bad_grid_before_any_run(tmp_path, capsys, monkeypatch,
                                                  axis, values, seeds, key):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started before the grid was checked")

    monkeypatch.setattr(memda.cli, "run_training", refuse)
    base = tiny_flags(axis, **({key: "nan"} if key == "shift_noise" else {}))
    rc = main(["ablate", "--outdir", str(tmp_path / "s"), "--axis", axis,
               "--values", values, "--seeds", seeds] + base)
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("given,key,owner", [
    pytest.param(["--seed", "7"], "seed", "--seeds", id="seed-flag"),
    pytest.param(["--tau", "0.9"], "tau", "--values", id="axis-flag"),
    pytest.param("seed = 7", "seed", "--seeds", id="seed-config"),
    pytest.param("tau = 0.9", "tau", "--values", id="axis-config"),
])
def test_ablate_refuses_a_setting_its_grid_owns(tmp_path, capsys, monkeypatch,
                                                given, key, owner):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started with a setting the grid owns")

    monkeypatch.setattr(memda.cli, "run_training", refuse)
    if isinstance(given, str):  # a line of the config file
        (tmp_path / "c.cfg").write_text(given + "\n")
        given = ["--config", str(tmp_path / "c.cfg")]
    rc = main(["ablate", "--outdir", str(tmp_path / "s"), "--axis", "tau",
               "--values", "0.1", "--seeds", "0,1"] + tiny_flags() + given)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{key!r}" in err and owner in err
    assert not (tmp_path / "s").exists()


def test_train_imports_neither_scipy_nor_numpy_ma(tmp_path):
    # a fresh interpreter: the test process itself may hold scipy already
    script = (
        "import sys\n"
        "from memda.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "bad = sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy'\n"
        "             or m == 'numpy.ma' or m.startswith('numpy.ma.'))\n"
        "print(rc, bad)\n"
    )
    src = Path(memda.cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, "train", "--outdir", str(tmp_path / "r")]
        + tiny_flags(), capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_cli_import_leaves_statistics_unloaded():
    # a fresh interpreter: pytest itself may have imported statistics
    script = "import sys\nimport memda.cli\nprint('statistics' in sys.modules)\n"
    src = Path(memda.cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_package_root_imports_nothing():
    # a fresh interpreter: the test process itself has numpy loaded already
    script = (
        "import sys\n"
        "import memda\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'numpy' or m.startswith('memda.')))\n"
    )
    src = Path(memda.cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_ablate_reads_each_data_setting_once(tmp_path, monkeypatch):
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--classes", "5",
                 "--input-dim", "5", "--per-class", "20"]) == 0
    calls = {"tables": 0, "mixtures": 0}
    load, generate = memda.cli.load_feature_table, memda.cli.gen_gaussian_mixture

    def counting(kind, real):
        def wrapped(*args, **kwargs):
            calls[kind] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(memda.cli, "load_feature_table", counting("tables", load))
    monkeypatch.setattr(memda.cli, "gen_gaussian_mixture",
                        counting("mixtures", generate))
    sweep = ["--axis", "tau", "--values", "0.07,0.5", "--seeds", "0,1,2"]
    assert main(["ablate", "--outdir", str(tmp_path / "t")] + sweep
                + ["--source-table", str(tmp_path / "d_source.csv"),
                   "--target-table", str(tmp_path / "d_target.csv")]
                + tiny_flags(total_iters=12)) == 0
    assert calls == {"tables": 2, "mixtures": 0}  # one source, one target
    # generated data: one pair per seed, two mixtures each
    assert main(["ablate", "--outdir", str(tmp_path / "g")] + sweep
                + tiny_flags(total_iters=12)) == 0
    assert calls == {"tables": 2, "mixtures": 2 * 3}


def test_single_value_sweep_matches_train(tmp_path):
    outdir = tmp_path / "one"
    rc = main(["ablate", "--outdir", str(outdir),
               "--axis", "tau", "--values", "0.07", "--seeds", "4"]
              + tiny_flags())
    assert rc == 0
    row = (outdir / "results.csv").read_text().splitlines()[1].split(",")
    sweep_acc = float(row[3])
    run_dir = tmp_path / "direct"
    assert main(["train", "--outdir", str(run_dir)] + tiny_flags(seed=4)) == 0
    direct = json.loads((run_dir / "summary.json").read_text())
    assert sweep_acc == direct["overall_accuracy"]


def test_eval_subcommand_on_saved_model(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--classes", "4", "--input-dim", "5", "--per-class", "15"]) == 0
    run_dir = tmp_path / "run"
    assert main(["train", "--outdir", str(run_dir),
                 "--source-table", str(tmp_path / "d_source.csv"),
                 "--target-table", str(tmp_path / "d_target.csv")]
                + tiny_flags(classes=4)) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", str(run_dir / "model.npz"),
               "--target-table", str(tmp_path / "d_target.csv")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["overall_accuracy"] <= 1.0


def test_eval_scores_the_saved_runs_data(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--outdir", str(run_dir), "--classes", "4",
                 "--input-dim", "5", "--seed", "7", "--total-iters", "40",
                 "--bootstrap-iters", "10", "--per-class", "30"]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(run_dir / "model.npz")]) == 0
    report = json.loads(capsys.readouterr().out)
    summary = json.loads((run_dir / "summary.json").read_text())
    assert report["overall_accuracy"] == summary["overall_accuracy"]
    # an explicit flag still overrides the saved settings
    assert main(["eval", "--model", str(run_dir / "model.npz"),
                 "--input-dim", "6"]) == 2
    assert "encoder expects width 5, got 6" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["generated", "table"])
def test_eval_refuses_a_target_of_another_class_count(tmp_path, capsys,
                                                       saved_model, target):
    # the saved model is 5 classes over 5 dimensions
    if target == "generated":
        flags = ["--classes", "6"]
    else:
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--classes", "4",
                     "--input-dim", "5", "--per-class", "6"]) == 0
        flags = ["--target-table", str(tmp_path / "d_target.csv")]
    capsys.readouterr()
    assert main(["eval", "--model", str(saved_model)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    count = flags[1] if target == "generated" else "4"
    assert f"target has {count} classes but the model has 5" in captured.err


def test_eval_on_an_unlabeled_target_reports_on_stderr(tmp_path, capsys,
                                                       saved_model):
    # the saved model is 5 classes over 5 dimensions
    table = tmp_path / "unlabeled.csv"
    table.write_text("# domain: target\n5,5\n" + "-1,1,2,3,4,5\n" * 4)
    assert main(["eval", "--model", str(saved_model),
                 "--target-table", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: target table has no evaluation labels\n"


def test_eval_reads_the_model_file_once(tmp_path, capsys, monkeypatch):
    run_dir = tmp_path / "run"
    assert main(["train", "--outdir", str(run_dir)] + tiny_flags()) == 0
    opened = []
    load = np.load

    def counting_load(*args, **kwargs):
        opened.append(args[0])
        return load(*args, **kwargs)

    monkeypatch.setattr(np, "load", counting_load)
    assert main(["eval", "--model", str(run_dir / "model.npz")]) == 0
    assert len(opened) == 1


def test_eval_builds_only_the_networks(monkeypatch, saved_model):
    def refuse(*args, **kwargs):
        raise AssertionError("eval built a bank or an optimizer")

    monkeypatch.setattr(memda.trainer, "MemoryBank", refuse)
    monkeypatch.setattr(memda.trainer, "SGD", refuse)
    assert main(["eval", "--model", str(saved_model)]) == 0


def test_load_model_peak_memory_stays_under_2_mib(tmp_path):
    # default sizes: the three flat vectors hold 0.88 MiB, and the networks
    # wrap them; only the gradient vectors are new
    config = resolve_settings()
    model = build_model(config, config.input_dim, config.classes)
    memda.cli.save_model(tmp_path / "model.npz", model, config)
    load_model(tmp_path / "model.npz")  # first-use imports stay out of the peak
    tracemalloc.start()
    try:
        load_model(tmp_path / "model.npz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("flag,value", [("--rotation-deg", "nan"),
                                        ("--class-spread", "inf")])
def test_eval_rejects_a_non_finite_setting(tmp_path, capsys, flag, value):
    run_dir = tmp_path / "run"
    assert main(["train", "--outdir", str(run_dir)] + tiny_flags()) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(run_dir / "model.npz"), flag, value]) == 2
    assert f"key {flag[2:].replace('-', '_')!r}" in capsys.readouterr().err


def test_eval_rejects_a_model_without_settings(tmp_path, capsys):
    np.savez(tmp_path / "bare.npz", input_dim=np.array(5))
    assert main(["eval", "--model", str(tmp_path / "bare.npz")]) == 2
    assert "no saved run settings" in capsys.readouterr().err


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """The model.npz of a tiny trained run."""
    run_dir = tmp_path_factory.mktemp("saved")
    assert main(["train", "--outdir", str(run_dir)] + tiny_flags()) == 0
    return run_dir / "model.npz"


def per_tensor_layout(path):
    """The arrays of ``path`` in the layout of models saved before the flat
    vectors: one array per layer tensor (``encoder.1`` is the first bias)
    and no ``num_classes``. ``encoder.1`` is cut to 1 entry, which that
    layout's loader broadcast silently."""
    model, _ = load_model(path)
    with np.load(path) as data:
        old = {key: data[key] for key in ("settings_json", "input_dim")}
    for name in ("encoder", "classifier", "discriminator"):
        tensors = (p for w, b, _, _ in getattr(model, name).layers for p in (w, b))
        for i, p in enumerate(tensors):
            old[f"{name}.{i}"] = p
    old["encoder.1"] = old["encoder.1"][:1]
    return old


MALFORMED = {  # case -> a pattern the one-line message must match
    "truncated": "'encoder' holds 149 values, the network has 150",
    "no-discriminator": "no array 'discriminator'",
    "no-input_dim": "no array 'input_dim'",
    "no-num_classes": "no array 'num_classes'",
    "per-tensor": "no array 'encoder'; retrain",
    "not-npz": "not an npz archive",
    "settings-not-json": "bad array 'settings_json'",
    "settings-not-object": "bad array 'settings_json'",
    "num_classes-not-scalar": "bad array 'num_classes'",
    "lone-npy": "not an npz archive",
    "complex": r"'encoder' holds \d+ values, .*1-D complex128 array",
    "float32": r"'encoder' holds \d+ values, .*1-D float32 array",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_eval_rejects_a_malformed_model(tmp_path, capsys, saved_model, case):
    if case == "per-tensor":
        arrays = per_tensor_layout(saved_model)
    else:
        with np.load(saved_model) as data:
            arrays = {key: data[key] for key in data.files}
        if case == "truncated":
            arrays["encoder"] = arrays["encoder"][:-1]
        elif case == "settings-not-json":
            arrays["settings_json"] = np.array("{not json")
        elif case == "settings-not-object":
            arrays["settings_json"] = np.array("[1, 2]")
        elif case == "num_classes-not-scalar":
            arrays["num_classes"] = np.array([5, 5])
        elif case in ("complex", "float32"):
            arrays["encoder"] = arrays["encoder"].astype(case)
        elif case.startswith("no-"):
            del arrays[case[3:]]
    np.savez(tmp_path / "bad.npz", **arrays)
    if case == "not-npz":
        (tmp_path / "bad.npz").write_text("not a zip archive\n")
    path = tmp_path / "bad.npz"
    if case == "lone-npy":
        path = tmp_path / "encoder.npy"
        np.save(path, arrays["encoder"])
    assert main(["eval", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(MALFORMED[case], err)


BAD_SAVED_VALUES = [("tau", [1, 2]), ("k", 2.5), ("k", True), ("tau", True),
                    ("multilinear", 1), ("similarity", 3), ("seed", None)]


@pytest.mark.parametrize("key,value", BAD_SAVED_VALUES)
def test_eval_rejects_a_saved_setting_of_the_wrong_type(tmp_path, capsys,
                                                        saved_model, key, value):
    with np.load(saved_model) as data:
        arrays = {name: data[name] for name in data.files}
    settings = json.loads(arrays["settings_json"].item())
    arrays["settings_json"] = np.array(json.dumps({**settings, key: value}))
    np.savez(tmp_path / "bad.npz", **arrays)
    assert main(["eval", "--model", str(tmp_path / "bad.npz")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"key {key!r}" in err


@pytest.mark.parametrize("key,value", BAD_SAVED_VALUES)
def test_train_from_manifest_rejects_a_setting_of_the_wrong_type(
        tmp_path, capsys, saved_model, key, value):
    manifest = json.loads((saved_model.parent / "manifest.json").read_text())
    manifest["settings"][key] = value
    (tmp_path / "bad.json").write_text(json.dumps(manifest))
    rc = main(["train", "--outdir", str(tmp_path / "D"),
               "--from-manifest", str(tmp_path / "bad.json")])
    assert rc == 2
    assert f"key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "D").exists()


def test_saved_settings_keep_their_types():
    config = resolve_settings(None, {"tau": 1, "k": 7, "multilinear": False,
                                     "similarity": "gaussian"})
    assert type(config.tau) is float and config.tau == 1.0
    assert (config.k, config.multilinear) == (7, False)
    assert config.similarity == "gaussian"


def test_model_round_trip(tmp_path):
    config = resolve_settings(None, {**TINY, "seed": "2"})
    trained = run_from_settings(config, tmp_path / "run").model
    model, saved = load_model(tmp_path / "run" / "model.npz")
    with np.load(tmp_path / "run" / "model.npz") as data:
        assert sorted(data.files) == ["classifier", "discriminator", "encoder",
                                      "input_dim", "num_classes", "settings_json"]
    assert saved == config
    assert saved.seed == 2
    assert model.encoder.n_in == 5
    assert model.num_classes == 5
    for name in ("encoder", "classifier", "discriminator"):
        loaded, kept = getattr(model, name), getattr(trained, name)
        assert loaded.sizes == kept.sizes
        flat = loaded.flat_params
        assert flat.dtype == kept.flat_params.dtype
        assert flat.tobytes() == kept.flat_params.tobytes()  # bitwise
        # the loaded values live in the network's flat vector
        assert all(np.shares_memory(w, flat) and np.shares_memory(b, flat)
                   for w, b, _, _ in loaded.layers)
    x = resolve_datasets(config)[1].features
    assert np.array_equal(predict(model, x), predict(trained, x))
