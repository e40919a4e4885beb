"""Run one chebkit benchmark workload and print every metric with its unit.

    python3 perfbench/run.py --workload {contour,frobenius,census} \\
        [--seed N (default 1)] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; chebkit is imported from ``src/``.

Execution model.  Each session is a fresh interpreter that runs the
workload's seeded task list as a closed loop: one caller, tasks back to
back.  chebkit's in-process caches therefore start cold, as they do for
every command-line user, and the tasks of a session share them.  Sessions
repeat, all with the same inputs, until ``--seconds`` is used up (at least
three with ``--trace 0``); the end-to-end metrics are medians over them:

- ``setup_s``: spawning an interpreter until ``import chebkit`` returns,
  the median of several import-only spawns made before the sessions;
- ``wall_s``: the wall time of the session's timed section, tracing off;
- ``peak_rss_mb``: the session's peak resident set at the end of that
  section.

Every result is checked after the timed section (see each workload module);
``attempted`` and ``failed`` count the checks, so their ratio is the
failure fraction.  With ``--trace 1`` each round runs one untraced and one
traced session, and the per-layer metrics come from the traced one: span
self-times, work counters, decomposition probes, and the tracing overhead
(traced minus untraced ``wall_s``).  No workload starts threads or
processes of its own, and the BLAS thread count is recorded, not set.

The last line of standard output is the JSON result.  A full record with
the environment, every session and the traced spans is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
MIN_SESSIONS = 3
DEADLINE_S = 170           # no session starts that would end later than this


class SessionError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--src", str(SRC)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise SessionError(f"{mode} session of {workload} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SessionError(f"{mode} session of {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["mode"] = mode
    result["setup_s"] = result["imported"] - spawned
    return result


def run(args, bench: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = spawn("setup", args.workload, args.seed, deadline)["env"]   # also warms .pyc files
    setups = [spawn("setup", args.workload, args.seed, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    modes = ("plain", "traced") if args.trace else ("plain",)
    min_rounds = 1 if args.trace else MIN_SESSIONS
    sessions: list[dict] = []
    start = time.monotonic()
    rounds = 0
    while True:
        sessions += [spawn(mode, args.workload, args.seed, deadline) for mode in modes]
        rounds += 1
        now = time.monotonic()
        next_end = now + (now - start) / rounds
        if next_end > deadline or (rounds >= min_rounds and next_end - start > args.seconds):
            break
    plain = [s for s in sessions if s["mode"] == "plain"]
    wall = statistics.median(s["wall_s"] for s in plain)
    if args.trace:
        traced = [s for s in sessions if s["mode"] == "traced"]
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        # a layer this workload never calls reads 0
        metrics = {name: statistics.median(s["layers"].get(name, 0) for s in traced)
                   for name in units}
        metrics.update({"trace.wall_s": traced_wall, "trace.overhead_s": traced_wall - wall})
    else:
        metrics = {"setup_s": statistics.median(setups), "wall_s": wall,
                   "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain)}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "policy": "fresh interpreter per session, chebkit caches cold at session start, "
                  "closed loop with one caller, medians over sessions",
        "setup_samples": setups, "sessions": sessions,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(sum(s["failed"].values()) for s in sessions),
        "messages": [m for s in sessions for m in s["messages"]],
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "chebkit" / "__init__.py").is_file():
        print(f"error: no chebkit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args, bench)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    env = record["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"sessions={len(record['sessions'])} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} blas_threads={env['blas_threads']} nproc={env['nproc']}")
    print(f"# {record['policy']}")
    for name, m in record["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for message in record["messages"][:20]:
        print(f"FAILED {message}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
