"""One memda training process, timed from outside the program.

    python3 perfbench/child.py MODE RESULT_JSON -- <memda train arguments>

MODE is one of
  probe   stop when iteration 0 is about to start: set-up time only;
  plain   time every ``train_step`` call (the untraced run);
  traced  record spans around every site in ``spans.TRACED``.

The process calls ``memda.cli.main(["train", ...])``, the program's own
entry point, and writes what it measured to RESULT_JSON. It exits with the
code ``main`` returned, so a failed run shows in the exit status.
"""

from __future__ import annotations

import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

import spans

MODES = ("probe", "plain", "traced")


class ReachedFirstIteration(Exception):
    """Raised in place of iteration 0 by a set-up probe."""


def blas_info() -> dict:
    """BLAS name and version as numpy was built, and its live thread count."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None}
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            getter = getattr(lib, f"{prefix}_get_num_threads64_", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                break
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info()}


def main(argv) -> int:
    mode, result_path, sep, *train_args = argv
    if mode not in MODES or sep != "--":
        raise SystemExit(f"usage: child.py {{{','.join(MODES)}}} RESULT -- ARGS")
    import memda.cli
    import memda.trainer

    source = Path("src").resolve()
    if source not in Path(memda.__file__).resolve().parents:
        raise SystemExit(f"memda imported from {memda.__file__}, not {source}")

    result = {"mode": mode}
    if mode == "probe":
        def stop(*args, **kwargs):
            raise ReachedFirstIteration(time.perf_counter())

        memda.trainer.train_step = stop
        try:
            # returning at all means set-up ended without reaching iteration 0
            rc = memda.cli.main(["train"] + train_args) or 1
        except ReachedFirstIteration as reached:
            result["t_iter0"] = reached.args[0]
            rc = 0
    else:
        tracer = spans.Tracer()
        tracer.install(spans.TRACED if mode == "traced" else spans.UNTRACED)
        rc = memda.cli.main(["train"] + train_args)
        tracer.uninstall()
        if rc != 0:
            return rc
        iters = [s for s in tracer.spans if s.name == spans.ITERATION]
        window = spans.loop_window(tracer.spans)
        result.update(
            t_iter0=window[0],
            loop_s=window[1] - window[0],
            iter_s=[s.end - s.start for s in iters],
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(),
        )
        if mode == "traced":
            run, resolve = (next(s for s in tracer.spans if s.name == name)
                            for name in ("cli.run_from_settings",
                                         "cli.resolve_datasets"))
            result.update(
                layers=spans.summarize(tracer.spans, window),
                resolve_datasets_s=resolve.end - resolve.start,
                artifacts_s=run.end - window[1],
            )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
