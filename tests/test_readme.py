"""The README's commands run, and its settings table matches the defaults."""

import json
import re
import shlex
from pathlib import Path

from memda.cli import ALL_DEFAULTS, main

README = Path(__file__).resolve().parents[1] / "README.md"
PREFIX = "PYTHONPATH=src python -m memda.cli "


def section(title):
    """The README's text under the heading ``## title``, up to the next one."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_readme_commands_run_and_write_their_artifacts(tmp_path, monkeypatch):
    commands = [line[len(PREFIX):] for line in section("Running it").splitlines()
                if line.startswith(PREFIX)]
    assert [c.split()[0] for c in commands] == ["gen-data", "train", "eval", "ablate"]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command)
        if "--total-iters" in argv:
            assert int(argv[argv.index("--total-iters") + 1]) <= 50
        assert main(argv) == 0, command
    for artifact in ("data/demo_source.csv", "data/demo_target.csv",
                     "runs/demo/manifest.json", "runs/demo/metrics.csv",
                     "runs/demo/summary.json", "runs/demo/model.npz",
                     "runs/sweep/results.csv"):
        assert (tmp_path / artifact).is_file(), artifact


def test_readme_settings_table_lists_every_key_with_its_default():
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section("Settings"),
                      flags=re.MULTILINE)
    assert dict(rows) == {key: json.dumps(value)
                          for key, value in ALL_DEFAULTS.items()}
    assert len(rows) == len(ALL_DEFAULTS)  # no key listed twice
