"""One benchmark session of one workload, in a fresh interpreter.

    python3 perfbench/session.py --workload NAME --seed N --mode MODE --src DIR

``run.py`` starts this script once per session with ``PYTHONPATH`` set to
the checkout's ``src`` directory.  MODE is ``setup`` (import chebkit and
report the environment), ``plain`` (the timed section without spans) or
``traced`` (the timed section with spans, then the decomposition probes).
The caches inside chebkit start cold because the interpreter is new, and
the session's tasks share them as a library session would.  The last line
of standard output is one JSON object.
"""

import sys
import time

import chebkit

# set-up ends here: run.py subtracts its spawn time (the clock is
# system-wide) from this timestamp
IMPORTED = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import census  # noqa: E402
import contour  # noqa: E402
import frobenius  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {"contour": contour, "frobenius": frobenius, "census": census}


class Checks:
    """Tally of checked results.  A failed check or a call that raises is
    counted against its layer and never stops the session."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.messages: list[str] = []

    def ck(self, layer: str, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed[layer] = self.failed.get(layer, 0) + 1
            self.messages.append(f"{layer}: {message}")

    def attempt(self, layer: str, fn, *args):
        try:
            return fn(*args)
        except Exception:  # the session must go on; the failure is counted
            self.ck(layer, False, traceback.format_exc())
            return None


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "chebkit": chebkit.__file__,
    }


def run_session(workload: str, seed: int, traced: bool) -> dict:
    wl = WORKLOADS[workload]
    cases = wl.generate(random.Random(f"{workload}:{seed}"))
    rec = spans.Recorder(enabled=traced)
    checks = Checks()
    start = time.perf_counter()
    outs = wl.run(cases, rec, checks)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check(cases, outs, checks)
    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb}
    if traced:
        wl.probe(cases, outs, rec, checks)
        selfs = spans.self_times(rec.spans)
        derived = wl.metrics(cases, outs, rec, selfs)
        layers = {f"{name}_s": value for name, value in selfs.items()}
        layers.update(rec.counts)
        layers.update(derived)
        layers.update({f"{layer}.failed": n for layer, n in checks.failed.items()})
        in_tasks = sum(end - begin for name, begin, end, _, _ in rec.spans if name == "task")
        layers["trace.self_frac"] = (in_tasks - selfs.get("task", 0.0)) / wall
        result.update(layers=layers, spans=rec.spans)
    result.update(attempted=checks.attempted, failed=checks.failed, messages=checks.messages)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()
    src = os.path.realpath(args.src) + os.sep
    if not os.path.realpath(chebkit.__file__).startswith(src):
        print(f"error: chebkit was imported from {chebkit.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    if args.mode == "setup":
        result = {"env": environment()}
    else:
        result = run_session(args.workload, args.seed, args.mode == "traced")
    result["imported"] = IMPORTED
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
