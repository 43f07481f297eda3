"""The memda training benchmark.

    python3 perfbench/run.py --workload bank-cosine --seed 0 --seconds 35 --trace 0

Run from the root of a checkout. Every measured run is its own process
(``perfbench/child.py``) that calls ``memda.cli.main(["train", ...])`` on the
checkout's ``src``; runs never overlap. With ``--trace 0`` the benchmark
starts a few set-up probes, then full training runs back to back until
``--seconds`` is spent (at least one), and prints the end-to-end metrics.
With ``--trace 1`` it makes one untraced and one traced run of the same seed
and prints the per-layer metrics. Every run's outputs are checked; a run
that exits non-zero or fails a check counts as failed. The last line of
standard output is the JSON result; the lines before it give the
environment, each run and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

CHILD = Path(__file__).resolve().parent / "child.py"
OUT = Path(".perfbench_out")    # run outputs and the repeat record

# the acceptance recipe (tests/test_acceptance.py); never re-tuned here
RECIPE = {"total-iters": 2000, "bootstrap-iters": 500, "lr-encoder": 0.03,
          "lambda-adv": 1.0, "lambda-sc": 1.0, "tau": 0.2}
WORKLOADS = {
    # 4096-entry cosine bank with kNN k=5: the consistency branch dominates
    "bank-cosine": {},
    # no bank and no similarity work: the networks and SGD dominate
    "no-consistency": {"consistency": "off", "lambda-sc": 0.0},
    # slow encoder and a short, fast-turning Gaussian bank: bank writes and
    # the extra forward pass show, the similarity matmuls shrink
    "bank-gaussian-churn": {"similarity": "gaussian", "gaussian-sigma": 2.0,
                            "mu": 0.99, "batch-size": 64,
                            "bank-capacity": 512},
}
PROBES = 5              # set-up probes per untraced invocation
DEADLINE_S = 170.0      # the whole invocation stays under 180 s
MIN_ACCURACY_X_CHANCE = 10.0
EXACT_COUNTS = ("similarity.pairs_scored", "bank.rows_written", "bank.rows_read",
                "nn.forward_calls", "trainer.sc_active_iters")


def train_args(workload: str, seed: int, outdir: Path, extra=()) -> list:
    args = ["--outdir", str(outdir), "--seed", str(seed)]
    for key, value in {**RECIPE, **WORKLOADS[workload]}.items():
        args += ["--" + key, str(value)]
    return args + list(extra)


def nearest_rank(sorted_values, q: float) -> float:
    """The value with ceil(q * n) - 1 values below it (nearest-rank percentile)."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# one run


class Run:
    """One child process: launch time, exit code, its result and problems."""

    def __init__(self, mode: str, workload: str, seed: int, workdir: Path,
                 deadline: float, extra=()):
        self.mode = mode
        outdir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=workdir))
        result_path = outdir / "result.json"
        argv = [sys.executable, str(CHILD), mode, str(result_path), "--"] \
            + train_args(workload, seed, outdir, extra)
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.launched = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
            stderr = "timed out\n" + stderr
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        self.wall_s = time.perf_counter() - self.launched
        self.rc = proc.returncode
        self.problems = []
        self.result = {}
        if self.rc != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no message"]
            self.problems.append(f"exit code {self.rc}: {tail[0]}")
        elif not result_path.exists():
            self.problems.append("no result written")
        else:
            self.result = json.loads(result_path.read_text())
        if not self.problems:
            self.setup_s = self.result["t_iter0"] - self.launched
            if mode != "probe":
                try:
                    self.problems += check_outputs(outdir, self.result)
                except (OSError, ValueError, KeyError) as exc:
                    self.problems.append(f"unreadable output: {exc!r}")

    @property
    def ok(self) -> bool:
        return not self.problems


def check_outputs(outdir: Path, result: dict) -> list:
    """Output checks of a full run; returns the problems found.

    Also stores in ``result`` what the metrics need from the outputs: target
    accuracy, rows per iteration and the digest of metrics.csv.
    """
    problems = []
    settings = json.loads((outdir / "manifest.json").read_text())["settings"]
    total, boot = settings["total_iters"], settings["bootstrap_iters"]
    with open(outdir / "metrics.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    if len(rows) != total or len(result["iter_s"]) != total:
        problems.append(f"{len(rows)} metrics.csv rows and "
                        f"{len(result['iter_s'])} timed iterations, "
                        f"expected {total}")
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append("non-finite value in metrics.csv")
    l_sc = header.index("l_sc")
    active = [int(row[0]) for row in rows if row[l_sc] != 0.0]
    if settings["consistency"] == "off":
        expect_first, expect_count = None, 0
    else:
        gate = max(settings["k"], settings["min_bank_entries"] or 5 * settings["k"])
        expect_first = boot + math.ceil(gate / settings["batch_size"])
        expect_count = total - expect_first
    first = active[0] if active else None
    if (first, len(active)) != (expect_first, expect_count):
        problems.append(f"consistency active from iteration {first} for "
                        f"{len(active)} iterations, expected {expect_first} "
                        f"for {expect_count}")
    counts = result.get("layers", {}).get("trainer.forward_backward", {}) \
        .get("counts", {})
    if counts and counts.get("sc_active_iters") != len(active):
        problems.append(f"traced sc_active_iters {counts['sc_active_iters']} "
                        f"!= {len(active)} active rows in metrics.csv")
    summary = json.loads((outdir / "summary.json").read_text())
    floor = MIN_ACCURACY_X_CHANCE / settings["classes"]
    if not summary["overall_accuracy"] >= floor:
        problems.append(f"target accuracy {summary['overall_accuracy']} "
                        f"below {floor}")
    result["target_accuracy"] = summary["overall_accuracy"]
    result["rows_per_iter"] = 2 * settings["batch_size"]
    result["csv_sha256"] = hashlib.sha256(
        (outdir / "metrics.csv").read_bytes()).hexdigest()
    return problems


def check_repeats(observed: dict, record_path: Path) -> list:
    """Each observed value must equal the one first recorded under its key
    by an earlier invocation in this checkout; new keys are recorded."""
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    problems = [f"{key} differs from an earlier repeat: {value} != {record[key]}"
                for key, value in observed.items()
                if key in record and record[key] != value]
    record_path.write_text(json.dumps({**observed, **record}, indent=1,
                                      sort_keys=True))
    return problems


# ---------------------------------------------------------------------------
# metrics


def samples_per_s(runs) -> float:
    """Source plus target rows trained per second of training loop."""
    rows = sum(r.result["rows_per_iter"] * len(r.result["iter_s"]) for r in runs)
    return rows / sum(r.result["loop_s"] for r in runs)


def end_to_end(full, probes) -> dict:
    iters = sorted(t for r in full for t in r.result["iter_s"])
    return {
        "samples_per_s": samples_per_s(full),
        "iter_ms_p50": 1e3 * nearest_rank(iters, 0.50),
        "iter_ms_p99": 1e3 * nearest_rank(iters, 0.99),
        "setup_s": statistics.median(r.setup_s for r in full + probes),
        "peak_rss_mb": max(r.result["rss_mb"] for r in full),
        "target_accuracy": full[0].result["target_accuracy"],
    }


def per_layer(plain: Run, traced: Run) -> dict:
    layers = traced.result["layers"]
    iters = len(traced.result["iter_s"])

    def count(span, key):
        return layers.get(span, {}).get("counts", {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{site.span}.self_ms":
           1e3 * layers.get(site.span, {}).get("self_s", 0.0) / iters
           for site in spans.TRACED}
    out.update({
        "similarity.pairs_scored": count("similarity.pairwise_similarity",
                                         "pairs_scored"),
        "similarity.knn_label_acc": ratio(
            count("similarity.assign_pseudo_labels", "labels_correct"),
            count("similarity.assign_pseudo_labels", "anchors_voted")),
        "losses.sc_anchor_use": ratio(
            count("losses.consistency_from_similarity", "anchors_with_pos"),
            count("losses.consistency_from_similarity", "anchors_scored")),
        "nn.forward_calls": sum(
            layers.get(f"nn.{net}_forward", {}).get("calls", 0)
            for net in ("encoder", "classifier", "discriminator")),
        "trainer.sc_active_iters": count("trainer.forward_backward",
                                         "sc_active_iters"),
        "bank.rows_written": count("bank.enqueue", "rows_written"),
        "bank.rows_read": count("losses.sample_consistency_memory", "rows_read"),
        "cli.resolve_datasets_s": traced.result["resolve_datasets_s"],
        "cli.artifacts_s": traced.result["artifacts_s"],
        "trace.overhead": samples_per_s([plain]) / samples_per_s([traced]),
    })
    return out


def span_coverage(traced: Run) -> float:
    """Summed self time of the spans in the loop over the loop's wall time."""
    self_s = sum(row["self_s"] for row in traced.result["layers"].values())
    return self_s / traced.result["loop_s"]


# ---------------------------------------------------------------------------
# one invocation


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out: Path, extra=()):
    """Run one invocation in a temporary directory under ``out``.

    Returns (runs, metrics or None, problems outside single runs). Metrics
    come from the runs that passed their checks; None if none could.
    """
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out))

    def launch(mode):
        return Run(mode, workload, seed, workdir, deadline, extra)

    try:
        if trace:
            runs = [launch("plain"), launch("traced")]
        else:
            runs = [launch("probe") for _ in range(PROBES)]
            # another full run only while it should end within the budget
            while True:
                runs.append(launch("plain"))
                spent = time.perf_counter() - start
                if spent + runs[-1].wall_s > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    full = [r for r in runs if r.mode != "probe" and r.ok]
    if trace:
        metrics = per_layer(*full) if len(full) == 2 else None
    else:
        probes = [r for r in runs if r.mode == "probe" and r.ok]
        metrics = end_to_end(full, probes) if full else None

    # metrics.csv repeats byte for byte for one workload and seed; the exact
    # work counts repeat for one workload whatever the seed
    problems = []
    digests = {r.result["csv_sha256"] for r in full}
    observed = {}
    if len(digests) > 1:
        problems.append("metrics.csv differs between runs of this invocation")
    elif digests:
        observed["/".join([workload, str(seed), *extra, "metrics.csv"])] = \
            digests.pop()
    if trace and metrics is not None:
        observed["/".join([workload, *extra, "counts"])] = \
            {name: metrics[name] for name in EXACT_COUNTS}
    problems += check_repeats(observed, out / "repeats.json")
    return runs, metrics, problems


def describe(runs, env_extra: dict) -> list:
    lines = []
    full = [r for r in runs if r.mode != "probe" and r.result]
    if full:
        lines.append("env " + json.dumps({**env_extra, **full[0].result["env"]},
                                         sort_keys=True))
    for r in runs:
        line = f"run {r.mode:6s} rc={r.rc} wall={r.wall_s:.2f}s"
        if r.ok:
            line += f" setup={r.setup_s:.3f}s"
        if r.ok and r.mode != "probe":
            line += (f" iters={len(r.result['iter_s'])}"
                     f" loop={r.result['loop_s']:.2f}s"
                     f" acc={r.result['target_accuracy']:.4f}")
        if r.mode == "traced" and r.ok:
            line += f" span_coverage={span_coverage(r):.4f}"
        lines.append(line + "".join(f" PROBLEM: {p}" for p in r.problems))
    iters = sorted(t for r in full if r.mode == "plain"
                   for t in r.result["iter_s"])
    setups = sum(1 for r in runs if r.ok and r.mode in ("probe", "plain"))
    quantiles = " ".join(f"p{round(100 * q)}={1e3 * nearest_rank(iters, q):.3f}ms"
                         for q in (0.25, 0.5, 0.75, 0.9, 0.95, 0.99) if iters)
    lines.append(f"samples iterations={len(iters)} setups={setups} {quantiles}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = Path("BENCHMARK.json")
    if not (Path("src/memda/__init__.py").is_file() and spec_path.is_file()):
        print("error: run from the root of a memda checkout "
              "(src/memda and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env_extra = {"nproc": len(os.sched_getaffinity(0)),
                 "loadavg_start": os.getloadavg(), "seed": args.seed,
                 "workload": args.workload}
    runs, metrics, problems = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), OUT)
    for line in describe(runs, env_extra) + [f"PROBLEM: {p}" for p in problems]:
        print(line)
    if metrics is None:
        print("error: no run completed its checks; no result", file=sys.stderr)
        return 1
    failed = sum(not r.ok for r in runs)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
