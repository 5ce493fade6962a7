"""Digest of every CLI report over a fixed set of configs.

Runs each of the six commands in-process through ``oscillap.cli.main`` on

* every ``demos/configs/*.json``,
* the ``scan`` and ``minimize`` configs that ``perfbench/workloads.py``
  makes for seeds 1-3, and
* a fixed list of Pucci, sign-changing and non-integer configs, and of
  configs that reach the command paths the others leave out (``FIXED``,
  with per-run arguments in ``EXTRA_ARGV``),

and prints, for each (config, command), the exit code, the sha256 of
stdout and of stderr, the warnings raised (category and message, without
file or line) and the sha256 of every report file, as one JSON object.
Two checkouts that print the same JSON wrote the same bytes everywhere.
Some reports also keep their numbers (``VALUES``): the numeric columns
of ``diagram.csv``, ``c`` and ``lambda`` of every lambda-star crossing in
``diagram_summary.json``, every numeric leaf of ``analysis.json`` and
``certificate.json`` (list positions dropped from the key, so
``thresholds.sequence.gamma`` lists every gamma), and ``lambda_bar`` and
each item's ``gamma_n``, ``sup_norm``, ``energy`` and ``residual`` in
``minimize.json``, and ``rho``, ``lambda_rescaled``,
``rho_error_estimate``, ``n_steps`` and ``q_sign_changes`` in
``trajectory.json``.
It imports the package from this checkout's ``src``; its 168 runs take
about 20 s on a 2-core VM.

Run:  python3 tools/report_digest.py > digest.json

``--compare BEFORE.json AFTER.json`` reads two such digests and prints one
line per (config, command) whose exit code, stdout, stderr, warnings or
reports differ, naming the fields and the report files that differ, and
for each differing report with kept numbers the largest relative change of
each key whose numbers differ; it exits 1 when any line was printed and 0
otherwise.

Run:  python3 tools/report_digest.py --compare before.json after.json

``--unreached`` runs the same digest under a ``sys.setprofile`` hook
(about 25 s) and prints each function of ``src/oscillap`` that no run
calls and ``ALLOWLIST`` does not name, each listed one with its reason,
and each listed one that is called or not defined; it exits 1 when it
printed any but the listed unreached ones.

Run:  python3 tools/report_digest.py --unreached
"""

import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oscillap"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from oscillap.cli import main  # noqa: E402
from workloads import make_configs  # noqa: E402

COMMANDS = ("analyze", "shoot", "pucci-shoot", "diagram", "minimize", "certify")
SEEDS = (1, 2, 3)

_COS_TABLE = {"kind": "table", "samples": [
    [40.0 * k / 800, math.cos(40.0 * k / 800) + 0.3] for k in range(801)]}
_TOWARD_INFINITY = {"scan": {"c_min": 0.5, "c_max": 30.0, "points": 40},
                    "shoot": {"c": 8.6667},
                    "minimize": {"K": 2, "lambda": 50.0, "grid_cells": 60},
                    "zeros": 8}
_TOWARD_ZERO = {"scan": {"c_min": 0.02, "c_max": 0.5, "points": 40},
                "shoot": {"c": 0.3},
                "minimize": {"K": 2, "lambda": 50.0, "grid_cells": 60},
                "zeros": 8}


def _fixed(nonlinearity: dict, operator: dict, sections: dict,
           N: int = 2) -> dict:
    return {"nonlinearity": nonlinearity, "operator": operator,
            "geometry": {"N": N, "R": 1.0}, "seed": 0, **sections}


#: configs the demos and the benchmark leave out: Pucci at Lambda != 1 on
#: sign-changing f, a table, a limit toward 0, non-integer powers (r = 0.5
#: at p = 2, where F/s^2 decays) and a sampled envelope
FIXED = {
    "pure_sine-pucci2": _fixed({"kind": "pure_sine"}, {"pucci": {"Lambda": 2.0}},
                               _TOWARD_INFINITY),
    "cos_table-pucci2": _fixed(_COS_TABLE, {"pucci": {"Lambda": 2.0}},
                               _TOWARD_INFINITY),
    "cos_table-plap3": _fixed(_COS_TABLE, {"plap": {"p": 3.0}}, _TOWARD_INFINITY),
    "reciprocal_sin-plap2": _fixed({"kind": "reciprocal_sin", "r": 2.0},
                                   {"plap": {"p": 2.0}}, _TOWARD_ZERO),
    "reciprocal_sin-pucci1.5": _fixed({"kind": "reciprocal_sin", "r": 2.0},
                                      {"pucci": {"Lambda": 1.5}}, _TOWARD_ZERO),
    "power_sin1.5-plap3": _fixed({"kind": "power_sin", "r": 1.5},
                                 {"plap": {"p": 3.0}}, _TOWARD_INFINITY),
    "power_sin0.5-plap2": _fixed({"kind": "power_sin", "r": 0.5},
                                 {"plap": {"p": 2.0}},
                                 {**_TOWARD_INFINITY, "zeros": 6}, N=1),
    "envelope_sin-pucci2": _fixed({"kind": "envelope_sin", "samples": [
        [0.0, 1.0], [10.0, 1.5], [30.0, 3.0]]}, {"pucci": {"Lambda": 2.0}},
        _TOWARD_INFINITY),
    # the command paths the other configs leave out: a shot started at the
    # touch zero 3 pi / 2 (it stalls), certify reading the diagram CSV its
    # own diagram run wrote, and diagram with --lambda-star (EXTRA_ARGV)
    "power_sin1-plap2-paths": _fixed(
        {"kind": "power_sin", "r": 1.0}, {"plap": {"p": 2.0}},
        {**_TOWARD_INFINITY, "shoot": {"c": 1.5 * math.pi}, "certify": {
            "diagram_csv": "out/power_sin1-plap2-paths/diagram/diagram.csv"}},
        N=1),
    # heights above 1, where the reciprocal primitive takes its series
    "reciprocal_sin-plap2-above1": _fixed(
        {"kind": "reciprocal_sin", "r": 2.0}, {"plap": {"p": 2.0}},
        {**_TOWARD_ZERO, "scan": {"c_min": 0.5, "c_max": 3.0, "points": 12},
         "shoot": {"c": 2.5}, "tolerances": {"tol_ode": 1e-10}}),
    # N = 1 diagrams from the time map: Pucci's weighted primitive with
    # bounces on a sign-changing f, and a table's kinks and sign changes
    "pure_sine-pucci2-n1": _fixed({"kind": "pure_sine"},
                                  {"pucci": {"Lambda": 2.0}}, _TOWARD_INFINITY,
                                  N=1),
    "cos_table-plap2-n1": _fixed(_COS_TABLE, {"plap": {"p": 2.0}},
                                 _TOWARD_INFINITY, N=1),
    # JSON has no NaN: every command refuses the file (exit 2)
    "nan_radius": {**_fixed({"kind": "pure_sine"}, {"plap": {"p": 2.0}},
                            _TOWARD_INFINITY),
                   "geometry": {"N": 1, "R": math.nan}},
}

#: (config, command) -> extra arguments of that run
EXTRA_ARGV = {("power_sin1-plap2-paths", "diagram"): ["--lambda-star", "20,60"]}


def config_bytes() -> dict:
    """Config name -> the bytes of its file."""
    out = {f"demo-{p.stem}": p.read_bytes()
           for p in sorted((ROOT / "demos" / "configs").glob("*.json"))}
    configs = {f"{w}{seed}-{Path(name).stem}": cfg
               for w in ("scan", "minimize") for seed in SEEDS
               for name, cfg in make_configs(w, seed).items()}
    configs.update(FIXED)
    for name, cfg in configs.items():
        out[name] = (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()
    return out


def _csv_columns(path: Path, names) -> dict:
    rows = list(csv.DictReader(path.read_text().splitlines()))
    return {n: [float(r[n]) if r[n] else None for r in rows] for n in names}


def _crossing_columns(path: Path, names) -> dict:
    levels = json.loads(path.read_text()).get("lambda_star", {})
    found = [x for key in sorted(levels) for x in levels[key]["crossings"]]
    return {n: [x[n] for x in found] for n in names}


def _json_leaves(path: Path, names=None) -> dict:
    """Numeric leaves of a JSON report by dotted key, list positions
    dropped, with the extended reals "inf" and "-inf" as numbers; only the
    keys whose last part is in ``names`` unless that is None."""
    out: dict = {}

    def walk(x, key):
        if isinstance(x, dict):
            for k in sorted(x):
                walk(x[k], f"{key}.{k}" if key else k)
        elif isinstance(x, list):
            for v in x:
                walk(v, key)
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            out.setdefault(key, []).append(x)
        elif x in ("inf", "-inf"):
            out.setdefault(key, []).append(float(x))

    walk(json.loads(path.read_text()), "")
    if names is None:
        return out
    return {k: v for k, v in out.items() if k.rsplit(".", 1)[-1] in names}


#: report file -> (reader, the columns kept as numbers; None keeps all)
VALUES = {"diagram.csv": (_csv_columns, ("rho", "lambda", "F_c", "Fbar_c",
                                         "lower_bound", "energy_residual")),
          "diagram_summary.json": (_crossing_columns, ("c", "lambda")),
          "analysis.json": (_json_leaves, None),
          "certificate.json": (_json_leaves, None),
          "minimize.json": (_json_leaves, ("gamma_n", "sup_norm", "energy",
                                           "residual", "lambda_bar")),
          "trajectory.json": (_json_leaves, ("rho", "lambda_rescaled",
                                             "rho_error_estimate", "n_steps",
                                             "q_sign_changes"))}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def digest_run(config: str, command: str, out: str, argv=()) -> dict:
    """Exit code and output digests of one command on one config file,
    with ``argv`` added to its command line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([command, "--config", config, "--out", out, *argv])
    files = sorted(Path(out).iterdir()) if os.path.isdir(out) else []
    return {"exit": code, "stdout": _sha(stdout.getvalue()),
            "stderr": _sha(stderr.getvalue()),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "reports": {p.name: _sha(p.read_bytes()) for p in files},
            "values": {p.name: VALUES[p.name][0](p, VALUES[p.name][1])
                       for p in files if p.name in VALUES}}


def digest() -> dict:
    """(config, command) -> ``digest_run``, run from a scratch directory so
    that every path the program sees is the same relative one."""
    here = os.getcwd()
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in config_bytes().items():
                config = f"{name}.json"
                Path(config).write_bytes(data)
                for command in COMMANDS:
                    result[f"{name} {command}"] = digest_run(
                        config, command, os.path.join("out", name, command),
                        EXTRA_ARGV.get((name, command), ()))
        finally:
            os.chdir(here)
    return result


#: functions in ``src`` that no digest run calls, by qualified name
#: (module.qualname), with the reason each may stay
ALLOWLIST = {
    "nonlinearity.Nonlinearity.eval": "abstract; every kind defines its own",
    "nonlinearity.Nonlinearity.tail": "abstract; every kind defines its own",
    "nonlinearity.Nonlinearity.analytic_zeros":
        "default; only kinds with a zero_accumulation are asked, and each "
        "defines its own",
    "_rk._restarts_exhausted":
        "a shot that spends its restart budget; no digest config does",
    "errors.NonConvergence.__init__":
        "raised only when a restart or iteration budget is spent",
    "shoot_plap.clustered_heights":
        "the staircase demo's grid: a uniform 152-height grid finds 0 of its "
        "9 crossings at 10 lambda_bar",
}


def src_functions() -> dict:
    """Qualified name -> (module, first line, name, line count) of every
    function ``src/oscillap`` defines with ``def``, nested ones included
    (``module.outer.<locals>.inner``); the first line is that of the first
    decorator, as the function's code object counts it.  A name defined
    more than once (one nested function per branch, say) gets its first
    line appended: ``module.outer.<locals>.inner@123``."""
    found = []

    def walk(node, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append((f"{module}.{prefix}{child.name}", (
                    module, first, child.name, child.end_lineno - first + 1)))
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    names = [q for q, _ in found]
    return {q if names.count(q) == 1 else f"{q}@{v[1]}": v for q, v in found}


def reached() -> set:
    """(module, first line, name) of every ``src`` function the digest
    calls, recorded by a ``sys.setprofile`` hook."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        digest()
    finally:
        sys.setprofile(None)
    package = os.path.realpath(PACKAGE)
    return {(Path(c.co_filename).stem, c.co_firstlineno, c.co_name)
            for c in codes
            if os.path.dirname(os.path.realpath(c.co_filename)) == package}


def misses(functions: dict, called: set, allowlist: dict) -> tuple:
    """(unlisted, listed, stale), each sorted: the functions of
    ``functions`` (``src_functions``) whose key is not in ``called``
    (``reached``) and ``allowlist`` lacks, those it has, and the
    ``allowlist`` names that are called or name no function."""
    missed = {q for q, v in functions.items() if v[:3] not in called}
    return (sorted(missed - allowlist.keys()), sorted(missed & allowlist.keys()),
            sorted(allowlist.keys() - missed))


def _largest_change(old: list, new: list) -> str:
    """Largest |new - old| / |old| over two columns, as text; a value that
    appears, vanishes, becomes NaN or leaves zero counts as inf."""
    if len(old) != len(new):
        return f"{len(old)} -> {len(new)} values"
    worst = 0.0
    for a, b in zip(old, new):
        if a == b or (a is not None and b is not None
                      and math.isnan(a) and math.isnan(b)):
            continue
        change = abs(b - a) / abs(a) if a and b is not None else math.inf
        worst = max(worst, change if change == change else math.inf)
    return f"{worst:.2g}"


def compare(before: dict, after: dict) -> list:
    """One line per (config, command) whose digests differ, in key order."""
    lines = []
    for key in sorted(before.keys() | after.keys()):
        if key not in before or key not in after:
            lines.append(f"{key}: only in {'after' if key in after else 'before'}")
            continue
        old, new = before[key], after[key]
        fields = [f for f in ("exit", "stdout", "stderr", "warnings")
                  if old[f] != new[f]]
        names = sorted(n for n in old["reports"].keys() | new["reports"].keys()
                       if old["reports"].get(n) != new["reports"].get(n))
        if names:
            fields.append("reports " + " ".join(names))
        for name in names:
            old_v = old.get("values", {}).get(name)
            new_v = new.get("values", {}).get(name)
            if old_v and new_v:
                changes = []
                for k in sorted(old_v.keys() | new_v.keys()):
                    change = _largest_change(old_v.get(k, []), new_v.get(k, []))
                    if change != "0":
                        changes.append(f"{k} {change}")
                if changes:
                    fields.append(f"{name} largest relative change "
                                  + " ".join(changes))
        if fields:
            lines.append(f"{key}: {', '.join(fields)}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="list the runs whose digests differ")
    parser.add_argument("--unreached", action="store_true",
                        help="list the src functions no run calls")
    args = parser.parse_args()
    if args.unreached:
        functions = src_functions()
        unlisted, listed, stale = misses(functions, reached(), ALLOWLIST)
        for q in listed:
            print(f"{q}: {ALLOWLIST[q]}")
        for q in unlisted:
            print(f"{q}: not reached ({functions[q][3]} lines)")
        for q in stale:
            print(f"{q}: allowlisted, but reached or not defined")
        print(f"{len(functions)} functions, {len(listed) + len(unlisted)} "
              f"unreached ({sum(functions[q][3] for q in listed + unlisted)} "
              f"lines), {len(unlisted)} not allowlisted", file=sys.stderr)
        sys.exit(1 if unlisted or stale else 0)
    elif args.compare is None:
        print(json.dumps(digest(), indent=1, sort_keys=True))
    else:
        before, after = (json.loads(Path(p).read_text()) for p in args.compare)
        differ = compare(before, after)
        print("\n".join(differ) if differ else "no differences")
        sys.exit(1 if differ else 0)
