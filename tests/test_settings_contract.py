"""The settings contract, as one property: any one setting, given any value
on any subcommand, ends in a documented exit code (never a traceback); a
refused run writes nothing, and a finished one writes all its artifacts."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from memda.cli import ABLATE_AXES, ALL_DEFAULTS, main, resolve_settings

# a run small enough to draw many: 5 iterations, 3 classes, widths <= 8;
# k = 2 lets the bank open its gate (10 entries) at the fifth iteration
TINY = {"classes": "3", "input_dim": "4", "per_class": "6", "total_iters": "5",
        "bootstrap_iters": "2", "batch_size": "4", "bank_capacity": "32",
        "k": "2", "embed_dim": "4", "encoder_hidden": "8",
        "encoder_layers": "1", "disc_hidden": "8"}
TINY_FLAGS = [f"--{key.replace('_', '-')}={value}" for key, value in TINY.items()]

# valid, boundary, zero, negative, non-finite and non-numeric, per type;
# every int stays <= 3, so no draw builds a large model
VALUES = {
    int: ["3", "1", "0", "-1", "2.5", "x"],
    float: ["0.5", "1", "0", "-1", "nan", "inf", "-inf", "x"],
    bool: ["true", "false", "2", "x"],
    str: ["", "x"],  # plus the key's default, drawn below
}
# saved values of every JSON type, read from a manifest as they are
JSON_VALUES = [None, True, 1, 2.5, -1, "x", [1, 2], {"a": 1}]

COMMANDS = ("gen-data", "train", "train-from-manifest", "eval", "ablate")
EXIT_CODES = {0, 2, 3, 4, 5}
ARTIFACTS = {
    "gen-data": ("d_source.csv", "d_target.csv"),
    "train": ("manifest.json", "metrics.csv", "summary.json", "model.npz"),
    "train-from-manifest": ("manifest.json", "metrics.csv", "summary.json",
                            "model.npz"),
    "eval": (),
    "ablate": ("results.csv",),
}


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("tiny") / "run"
    assert main(["train", "--outdir", str(outdir)] + TINY_FLAGS) == 0
    return outdir / "model.npz"


def argv_for(command, key, value, tmp: Path, model: Path):
    """The command line that gives ``key`` the drawn ``value``."""
    out = tmp / "out"
    flag = f"--{key.replace('_', '-')}={value}"
    if command == "gen-data":
        return ["gen-data", "--out", str(out / "d")] + TINY_FLAGS + [flag]
    if command == "train":
        return ["train", "--outdir", str(out)] + TINY_FLAGS + [flag]
    if command == "train-from-manifest":
        manifest = {"settings": {**resolve_settings(None, TINY), key: value}}
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        return ["train", "--outdir", str(out),
                "--from-manifest", str(tmp / "manifest.json")]
    if command == "eval":
        return ["eval", "--model", str(model), flag]
    grid = ["--axis", "tau", "--values", "0.07", "--seeds", "0"]
    if key in ABLATE_AXES:
        grid = ["--axis", key, f"--values={value}", "--seeds", "0"]
    elif key == "seed":
        grid = ["--axis", "tau", "--values", "0.07", f"--seeds={value}"]
    else:
        grid.append(flag)
    # the grid owns the axis key: a tiny setting of it would be refused
    return (["ablate", "--outdir", str(out)] + grid
            + [f for f in TINY_FLAGS if f.split("=")[0] != flag.split("=")[0]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(COMMANDS), key=st.sampled_from(sorted(ALL_DEFAULTS)),
       data=st.data())
def test_any_one_setting_keeps_the_exit_code_contract(tiny_model, command, key,
                                                      data):
    if command == "train-from-manifest":
        value = data.draw(st.sampled_from(JSON_VALUES), label="value")
    else:
        default = ALL_DEFAULTS[key]
        pool = VALUES[type(default)] + ([default] if isinstance(default, str) else [])
        value = data.draw(st.sampled_from(pool), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rc = main(argv_for(command, key, value, tmp, tiny_model))
        assert rc in EXIT_CODES
        out = tmp / "out"
        if rc == 2:
            assert not out.exists() or not any(out.iterdir())
        if rc == 0:
            for name in ARTIFACTS[command]:
                assert (out / name).is_file(), name
