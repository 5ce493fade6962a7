"""Child process of the benchmark: runs one workload's sessions in-process.

The parent (run.py) writes the configs and starts this process with
``src`` on PYTHONPATH, so the process that ran the workload is the one
whose peak memory is reported.  A warm-up runs the session's commands on
shrunken configs, untimed.  Timed sessions follow while the next one is
likely to end within ``--seconds`` of session time; the first one's
reports become the reference bytes every later session must reproduce.
With ``--trace 1`` the sessions alternate untraced and traced, so the
tracing overhead is measured within one process.  The last stdout line
is a JSON summary for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import io
import json
import os
import random
import resource
import shutil
import sys
import time

from oscillap import cli

from checks import check_session
from tracing import COUNT_METRICS, Tracer, combine
from workloads import WORKLOADS


def read_reports(out_root: str) -> dict:
    """Every file under ``out_root`` as "<subdir>/<file>" -> bytes."""
    reports = {}
    for sub in sorted(os.listdir(out_root)):
        for name in sorted(os.listdir(os.path.join(out_root, sub))):
            with open(os.path.join(out_root, sub, name), "rb") as fh:
                reports[f"{sub}/{name}"] = fh.read()
    return reports


def run_session(argvs) -> tuple:
    """Run the session's commands; return (wall seconds, exit codes)."""
    rcs = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            try:
                rcs.append(cli.main(argv))
            except Exception as ex:  # a crash fails the session, not the run
                rcs.append(f"{type(ex).__name__}: {ex}")
    return time.perf_counter() - start, rcs


def warmup_argvs(workload, configs: dict, workdir: str) -> list:
    """The session's commands on shrunken copies of its configs.

    Running them once loads what the commands import or build lazily (the
    first in-process ``analyze`` takes 1.4 s, later ones 0.59 s) at a
    fraction of a session's cost.  Their exit codes do not matter.
    """
    directory = os.path.join(workdir, "warmup")
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for cmd, name, out in workload.commands:
        cfg = copy.deepcopy(configs[name])
        if "scan" in cfg:
            cfg["scan"]["points"] = 12
        if "minimize" in cfg:
            cfg["minimize"].update(K=1, grid_cells=16)
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argvs.append([cmd, "--config", path,
                      "--out", os.path.join(directory, "out", out)])
    return argvs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where traced runs write spans")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    configs = {}
    for _, name, _ in workload.commands:
        with open(os.path.join(args.workdir, name)) as fh:
            configs[name] = json.load(fh)
    out_root = os.path.join(args.workdir, "out")
    argvs = [[cmd, "--config", os.path.join(args.workdir, cfg),
              "--out", os.path.join(out_root, out)]
             for cmd, cfg, out in workload.commands]

    run_session(warmup_argvs(workload, configs, args.workdir))

    tracer = Tracer()
    reference = None
    sessions = []
    timed = 0.0
    while True:
        traced = bool(args.trace) and len(sessions) % 2 == 1
        shutil.rmtree(out_root, ignore_errors=True)
        gc.collect()
        if traced:
            with tracer.session(len(sessions)):
                seconds, rcs = run_session(argvs)
        else:
            seconds, rcs = run_session(argvs)
        reports = read_reports(out_root) if os.path.isdir(out_root) else {}
        rng = random.Random(f"{args.seed}:{len(sessions)}")
        failures = check_session(configs, workload.commands, rcs, reports,
                                 reference, rng)
        if reference is None:
            reference = reports
        sessions.append({"seconds": seconds, "traced": traced,
                         "failures": failures})
        timed += seconds
        # stop before a session that would likely end past --seconds
        kinds = {s["traced"] for s in sessions}
        if kinds >= {False, bool(args.trace)} and timed + seconds > args.seconds:
            break

    result = {
        "sessions": sessions,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": sum(cfg.get("scan", {}).get("points", 0)
                    for cfg in configs.values()),
    }
    if args.trace:
        traced_ids = [i for i, s in enumerate(sessions) if s["traced"]]
        per_session = [tracer.session_metrics(i) for i in traced_ids]
        for i, m in zip(traced_ids[1:], per_session[1:]):
            moved = [k for k in COUNT_METRICS if m[k] != per_session[0][k]]
            if moved:
                sessions[i]["failures"].append(
                    f"counts differ between traced sessions: {moved}")
        result["per_layer"] = combine(
            per_session,
            [(sessions[i]["seconds"], sessions[i - 1]["seconds"]) for i in traced_ids])
        result["not_traced"] = sorted(tracer.missing)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
