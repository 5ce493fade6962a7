"""Self-tests of the benchmark harness (not part of the Tier-1 suite).

Run from the repository root:

    python3 -m pytest perfbench -q

They take about a minute: the trace tests run real sessions.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from jsonschema import Draft202012Validator  # noqa: E402

from oscillap import cli  # noqa: E402

from checks import check_session  # noqa: E402
from tracing import COUNT_METRICS, PER_LAYER_UNITS, Tracer  # noqa: E402
from worker import read_reports, run_session  # noqa: E402
from workloads import WORKLOADS, make_configs, write_configs  # noqa: E402


def _shape(cfg):
    """Everything about a config that fixes the work, minus the jitter."""
    scan = cfg.get("scan", {})
    return (cfg["operator"], cfg["geometry"], cfg.get("tolerances"),
            scan.get("points"), len(scan.get("lambda_star", [])),
            scan.get("log_spacing"),
            {k: v for k, v in cfg.get("minimize", {}).items() if k != "lambda"})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    a = write_configs(name, 7, str(tmp_path / "a"))
    b = write_configs(name, 7, str(tmp_path / "b"))
    assert [open(p, "rb").read() for p in a] == [open(p, "rb").read() for p in b]
    assert make_configs(name, 7) != make_configs(name, 8)
    shapes = {json.dumps([_shape(c) for c in make_configs(name, s).values()],
                         sort_keys=True) for s in range(20)}
    assert len(shapes) == 1
    validator = Draft202012Validator(cli.CONFIG_SCHEMA)
    for cfg in make_configs(name, 7).values():
        assert not list(validator.iter_errors(cfg))


def _session_argvs(name, workdir):
    return [[cmd, "--config", os.path.join(workdir, cfg),
             "--out", os.path.join(workdir, "out", out)]
            for cmd, cfg, out in WORKLOADS[name].commands]


def _run(argvs, workdir, tracer=None):
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    if tracer is None:
        _, rcs = run_session(argvs)
    else:
        with tracer.session(0):
            _, rcs = run_session(argvs)
    return rcs, read_reports(os.path.join(workdir, "out"))


#: per-layer prefixes that must read zero on a workload that bypasses them
BYPASSED = {
    "scan": ("variational.", "thresholds."),
    "minimize": ("rk.", "shoot_plap.", "shoot_pucci."),
}


@pytest.mark.parametrize("name", sorted(BYPASSED))
def test_traced_counts_repeat_and_reports_are_unchanged(name, tmp_path):
    workdir = str(tmp_path)
    write_configs(name, 3, workdir)
    configs = {cfg: json.load(open(os.path.join(workdir, cfg)))
               for _, cfg, _ in WORKLOADS[name].commands}
    argvs = _session_argvs(name, workdir)

    rcs, plain = _run(argvs, workdir)
    assert check_session(configs, WORKLOADS[name].commands, rcs, plain, None,
                         random.Random(0)) == []
    first, second = Tracer(), Tracer()
    rcs1, traced1 = _run(argvs, workdir, first)
    rcs2, traced2 = _run(argvs, workdir, second)
    assert rcs1 == rcs2 == rcs
    assert traced1 == plain and traced2 == plain

    assert not first.missing
    m1, m2 = first.session_metrics(0), second.session_metrics(0)
    assert set(m1) | {"trace.session_s", "trace.untraced_session_s",
                      "trace.overhead_s", "trace.overhead_share"} == set(PER_LAYER_UNITS)
    assert {k: m1[k] for k in COUNT_METRICS} == {k: m2[k] for k in COUNT_METRICS}
    zero = [k for k in m1 if k.startswith(BYPASSED[name])]
    assert zero and all(m1[k] == 0 for k in zero)
    assert m1["cli.report_bytes"] == sum(len(v) for v in plain.values())


def _patchable_state():
    from oscillap import (_rk, nonlinearity, primitives, shoot_plap,
                          shoot_pucci, thresholds, variational)
    owners = [_rk, cli, nonlinearity, primitives, shoot_plap, shoot_pucci,
              thresholds, variational, cli.Run, nonlinearity.PowerTimesOnePlusSin,
              primitives.PrimitiveCalculus, shoot_plap.BifurcationDiagram]
    state = [dict(vars(o)) for o in owners]
    state.append(dict(cli.COMMANDS))
    return state


def test_tracer_restores_every_patched_name():
    before = _patchable_state()
    tracer = Tracer()
    with tracer.session(0):
        assert _patchable_state() != before
    after = _patchable_state()
    assert len(before) == len(after)
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[k] is a[k] for k in b)


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
