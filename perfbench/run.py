"""oscillap benchmark: timed CLI sessions, output checks, traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

The benchmark writes the workload's configs from ``--seed`` into
``.bench_work/``, times ``setup_s`` over fresh interpreters, then runs the
sessions in one child process (worker.py) and prints one JSON object as
the last line of stdout.  With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  It
exits nonzero without a result when the program cannot be run at all.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, write_configs  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: fresh interpreters per run behind the setup_s median
SETUP_REPEATS = 5
#: every run must end well inside this many seconds
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    # one client on a 2-core box: keep BLAS from starting a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + os.path.basename(argv[1]))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{os.path.basename(argv[1])} timed out")
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[1])} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return proc


def measure_setup(workload, workdir: str, deadline: float) -> list:
    triples = []
    for cmd, cfg, out in workload.commands:
        triples += [cmd, os.path.join(workdir, cfg),
                    os.path.join(workdir, "setup-out", out)]
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), *triples]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_child(argv, deadline)
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="session time to measure after the warm-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(SRC, "oscillap", "cli.py")):
        print(f"error: no oscillap sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    write_configs(workload.name, args.seed, workdir)

    try:
        setup = [] if args.trace else measure_setup(workload, workdir, deadline)
        spans = os.path.join(work_root, f"spans-{workload.name}-seed{args.seed}.json")
        proc = run_child([sys.executable, os.path.join(HERE, "worker.py"),
                          "--workload", workload.name, "--workdir", workdir,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--spans", spans], deadline)
        lines = proc.stdout.strip().splitlines()
        child = json.loads(lines[-1]) if lines else None
        if not isinstance(child, dict):
            raise BenchError("worker printed no result")
    except (BenchError, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sessions = child["sessions"]
    failed = sum(1 for s in sessions if s["failures"])
    for i, s in enumerate(sessions):
        for msg in s["failures"]:
            print(f"session {i}: {msg}")
    untraced = [s["seconds"] for s in sessions if not s["traced"]]
    session_s = statistics.median(untraced)
    print(f"workload {workload.name} seed {args.seed}: {len(sessions)} timed "
          f"sessions ({len(untraced)} untraced) after a warm-up; closed loop, "
          "1 client")
    print(f"  failed_frac    {failed / len(sessions):.4g} ({failed} of {len(sessions)})")
    print(f"  session_s      {session_s:.4f} s (median of {len(untraced)}: "
          + ", ".join(f"{t:.3f}" for t in untraced) + ")")
    if child["rows"]:
        print(f"  heights_per_s  {child['rows'] / session_s:.2f} 1/s "
              f"({child['rows']} grid rows per session)")
    print(f"  peak_rss_mb    {child['peak_rss_mb']:.1f} MB")

    if args.trace:
        per_layer = child["per_layer"]
        metrics = {k: {"value": per_layer[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
        for name in child["not_traced"]:
            print(f"  not traced (absent from the program): {name}")
        print(f"  tracing overhead {per_layer['trace.overhead_s']:.3f} s "
              f"({100 * per_layer['trace.overhead_share']:.1f}%); spans in {spans}")
    else:
        setup_s = statistics.median(setup)
        print(f"  setup_s        {setup_s:.4f} s (median of {len(setup)} fresh "
              "interpreters: " + ", ".join(f"{t:.3f}" for t in setup) + ")")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "session_s": {"value": session_s, "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(sessions),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
