"""The settings contract, as one property: any one setting, or any two
together, given any value on any subcommand, ends in a documented exit code
(never a traceback); a refused run writes nothing, and a finished one
writes all its artifacts."""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
# the other valid choices of each mode, so that a pair of draws can switch a
# mode on together with a setting that its rule reads
MODES = {"consistency": ["batch", "off"], "similarity": ["euclidean", "gaussian"],
         "pseudo_labels": ["classifier"], "diagnostics": ["on", "off"],
         "condition_backprop": ["both"]}
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


def argv_for(command, drawn, tmp: Path, model: Path):
    """The command line that gives each key of ``drawn`` its drawn value."""
    out = tmp / "out"
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in drawn.items()]
    if command == "gen-data":
        return ["gen-data", "--out", str(out / "d")] + TINY_FLAGS + flags
    if command == "train":
        return ["train", "--outdir", str(out)] + TINY_FLAGS + flags
    if command == "train-from-manifest":
        manifest = {"settings": {**asdict(resolve_settings(None, TINY)), **drawn}}
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        return ["train", "--outdir", str(out),
                "--from-manifest", str(tmp / "manifest.json")]
    if command == "eval":
        return ["eval", "--model", str(model)] + flags
    # the grid owns the seed and the axis key, the first drawn axis key or
    # tau; a tiny setting of a drawn key or of the axis key is left out
    axis = next((key for key in drawn if key in ABLATE_AXES), "tau")
    grid = ["--axis", axis, f"--values={drawn.get(axis, '0.07')}",
            f"--seeds={drawn.get('seed', '0')}"]
    grid += [flag for key, flag in zip(drawn, flags) if key not in (axis, "seed")]
    return (["ablate", "--outdir", str(out)] + grid
            + [f for f in TINY_FLAGS
               if f[2:].split("=")[0].replace("-", "_") not in (*drawn, axis)])


def check_contract(command, drawn, model):
    """Run ``command`` with the ``drawn`` settings and check the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rc = main(argv_for(command, drawn, tmp, model))
        assert rc in EXIT_CODES
        out = tmp / "out"
        if rc == 2:
            assert not out.exists() or not any(out.iterdir())
        if rc == 0:
            for name in ARTIFACTS[command]:
                assert (out / name).is_file(), name


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
    check_contract(command, {key: value}, tiny_model)


def value_pool(key):
    """Every value a two-key draw may give ``key``, as command-line text."""
    default = ALL_DEFAULTS[key]
    if isinstance(default, str):
        return VALUES[str] + [default] + MODES.get(key, [])
    return VALUES[type(default)]


TWO_SETTINGS = st.lists(st.sampled_from(sorted(ALL_DEFAULTS)), min_size=2,
                        max_size=2, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: st.sampled_from(value_pool(key)) for key in keys}))


# the rules that read two keys: batch-mode kNN needs batch_size >= k (2 in
# TINY), the bank must hold the entries its gate waits for, and the
# bootstrap must end before the run does
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(COMMANDS), drawn=TWO_SETTINGS)
@example(command="train", drawn={"consistency": "batch", "batch_size": "1"})
@example(command="ablate", drawn={"k": "3", "consistency": "batch"})
@example(command="train", drawn={"bank_capacity": "3", "min_bank_entries": "3"})
@example(command="eval", drawn={"bank_capacity": "3", "min_bank_entries": "0"})
@example(command="train-from-manifest",
         drawn={"bootstrap_iters": "3", "total_iters": "3"})
def test_any_two_settings_keep_the_exit_code_contract(tiny_model, command,
                                                      drawn):
    check_contract(command, drawn, tiny_model)
