"""End-to-end checks of the command line driver.

Each test writes a JSON config into a temp directory, invokes ``main`` with
an argv list, and inspects the exit code plus the report files it leaves
behind.  One test shells out to the installed console script; everything
else runs in process to keep the suite fast.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from oscillap import __version__
from oscillap.cli import main

FIRST_ZERO = 1.5 * math.pi


def write_cfg(directory, name="config.json", **sections):
    """Write a config file assembled from keyword sections, return its path."""
    base = {
        "nonlinearity": {"kind": "power_sin", "r": 1.0},
        "operator": {"plap": {"p": 2.0}},
        "geometry": {"N": 1, "R": 1.0},
    }
    base.update(sections)
    path = os.path.join(str(directory), name)
    with open(path, "w") as fh:
        json.dump(base, fh)
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- config validation ------------------------------------------------------

def test_invalid_json_exits_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["analyze", "--config", str(path)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file_exits_config(tmp_path, capsys):
    rc = main(["analyze", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_schema_rejection_names_path(tmp_path, capsys):
    # drop a required section
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"nonlinearity": {"kind": "power_sin", "r": 1.0},
                                "operator": {"plap": {"p": 2.0}}}))
    rc = main(["analyze", "--config", str(path)])
    assert rc == 2
    assert "config rejected at <root>" in capsys.readouterr().err

    # operator must name exactly one of the two kinds
    cfg = write_cfg(tmp_path, operator={"plap": {"p": 2.0},
                                        "pucci": {"Lambda": 1.5}})
    rc = main(["analyze", "--config", cfg])
    assert rc == 2
    assert "config rejected at operator" in capsys.readouterr().err

    # unknown keys are rejected, with the offending location named
    cfg = write_cfg(tmp_path, typo_section={"x": 1})
    rc = main(["analyze", "--config", cfg])
    assert rc == 2
    assert "config rejected at" in capsys.readouterr().err


def test_empty_scan_grid_exits_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scan={"c_min": 1.0, "c_max": 10.0, "points": 0})
    rc = main(["diagram", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "zero points" in capsys.readouterr().err


def test_operator_kind_must_match_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, operator={"pucci": {"Lambda": 2.0}},
                    shoot={"c": 3.0})
    rc = main(["shoot", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "pucci" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, shoot={"c": 3.0})
    rc = main(["pucci-shoot", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


# -- analyze ----------------------------------------------------------------

def test_analyze_report(tmp_path):
    cfg = write_cfg(tmp_path, seed=7)
    out = tmp_path / "out"
    rc = main(["analyze", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "analysis.json")

    with open(cfg, "rb") as fh:
        assert rep["config_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert rep["version"] == __version__
    assert rep["seed"] == 7

    zs = rep["zeros"]
    assert zs == sorted(zs)
    assert zs[0] == pytest.approx(FIRST_ZERO, abs=1e-12)

    # nonexistence thresholds are reported for both operators
    assert rep["lambda_under"]["p_laplacian"] == pytest.approx(
        0.999989628687835, rel=1e-9)
    assert rep["lambda_under"]["pucci"] == pytest.approx(
        rep["lambda_under"]["p_laplacian"], rel=1e-12)
    assert rep["thresholds"]["lambda_bar"] == pytest.approx(
        52.567282505668224, rel=1e-9)

    s = rep["samples"]
    assert len(s["s"]) == len(s["F"]) == len(s["Fbar"]) == len(s["F_Lambda"])


# -- shoot ------------------------------------------------------------------

def test_shoot_trajectory_report(tmp_path):
    cfg = write_cfg(tmp_path, shoot={"c": 1.0})
    out = tmp_path / "out"
    rc = main(["shoot", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "trajectory.json")
    assert rep["outcome"]["kind"] == "HitZero"
    assert rep["outcome"]["rho"] > 0.0
    assert len(rep["r"]) == len(rep["v"]) == len(rep["vp"])
    assert rep["lambda_rescaled"] == pytest.approx(1.4201503793857124, rel=1e-9)
    assert rep["outcome"]["diagnostics"]["energy_residual_max"] <= 1e-6


def test_stalled_shoot_is_reported_not_fatal(tmp_path):
    # starting exactly on a zero of f cannot produce a solution; the report
    # says so and the exit code stays 0
    cfg = write_cfg(tmp_path, shoot={"c": FIRST_ZERO})
    out = tmp_path / "out"
    rc = main(["shoot", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "trajectory.json")
    assert rep["outcome"]["kind"] == "Stalled"
    assert rep["outcome"]["c"] == pytest.approx(FIRST_ZERO)
    assert "message" in rep["outcome"]


def test_tol_ode_override_changes_digits(tmp_path):
    cfg = write_cfg(tmp_path, shoot={"c": 1.0})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["shoot", "--config", cfg, "--out", str(a)]) == 0
    assert main(["shoot", "--config", cfg, "--out", str(b),
                 "--tol-ode", "1e-4"]) == 0
    la = read_json(a / "trajectory.json")["lambda_rescaled"]
    lb = read_json(b / "trajectory.json")["lambda_rescaled"]
    assert la != lb
    assert la == pytest.approx(lb, rel=1e-3)


# -- diagram + certify (one shared scan) ------------------------------------

@pytest.fixture(scope="module")
def scan_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("scan")
    cfg = write_cfg(root, scan={"c_min": 0.5, "c_max": 30.0, "points": 120,
                                "lambda_star": [100.0, 500.0]})
    out = root / "out"
    rc = main(["diagram", "--config", cfg, "--out", str(out)])
    assert rc == 0
    return cfg, out


def test_diagram_csv_shape(scan_run):
    _, out = scan_run
    with open(out / "diagram.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120
    assert list(rows[0]) == ["c", "outcome", "rho", "lambda", "F_c", "Fbar_c",
                             "lower_bound", "energy_residual", "area_ok",
                             "zero_interval_index"]
    hits = [r for r in rows if r["outcome"] == "HitZero"]
    assert hits
    for r in hits:
        assert float(r["lambda"]) >= float(r["lower_bound"]) - 1e-8


def test_diagram_summary_counts_crossings(scan_run):
    _, out = scan_run
    rep = read_json(out / "diagram_summary.json")
    assert rep["audit"]["pass"] is True
    assert sum(rep["outcomes"].values()) == 120

    near = rep["lambda_star"]["100"]
    assert near["count"] == 2
    assert [x["zero_interval_index"] for x in near["crossings"]] == [4, 5]
    for x in near["crossings"]:
        assert x["lambda"] == pytest.approx(100.0, rel=1e-6)
    assert rep["lambda_star"]["500"]["count"] == 0


def test_lambda_star_brackets_straddling_a_zero(tmp_path):
    # Rows on either side of the touch zero alpha_2 straddle both levels;
    # lambda(c) has a pole there, so the crossing is bracketed between the
    # row below the level and a height next to alpha_2 instead of across it.
    levels = [41.93, 91.46]
    cfg = write_cfg(tmp_path, scan={"c_min": 0.4845, "c_max": 29.788,
                                    "points": 200, "lambda_star": levels},
                    tolerances={"tol_ode": 1e-10})
    out = tmp_path / "out"
    assert main(["diagram", "--config", cfg, "--out", str(out)]) == 0
    rep = read_json(out / "diagram_summary.json")
    for level in levels:
        entry = rep["lambda_star"][f"{level:.17g}"]
        assert entry["count"] == len(entry["crossings"]) > 0
        for x in entry["crossings"]:
            assert x["lambda"] == pytest.approx(level, rel=1e-6)
            # closed-form zeros 3 pi/2 + 2 pi (k - 1) bound gap k
            k = x["zero_interval_index"]
            lo = FIRST_ZERO + 2.0 * math.pi * (k - 2) if k > 1 else 0.0
            assert lo < x["c"] <= FIRST_ZERO + 2.0 * math.pi * (k - 1)


def test_diagram_determinism(scan_run, tmp_path):
    cfg, out = scan_run
    rerun = tmp_path / "rerun"
    assert main(["diagram", "--config", cfg, "--out", str(rerun)]) == 0
    assert (rerun / "diagram.csv").read_bytes() == \
        (out / "diagram.csv").read_bytes()


def test_points_override(scan_run, tmp_path):
    cfg, _ = scan_run
    out = tmp_path / "few"
    assert main(["diagram", "--config", cfg, "--out", str(out),
                 "--points", "7"]) == 0
    with open(out / "diagram.csv") as fh:
        assert sum(1 for _ in fh) == 8  # header + 7 rows


def test_certify_accepts_clean_diagram(scan_run, tmp_path):
    _, out = scan_run
    cfg = write_cfg(tmp_path, certify={"diagram_csv": str(out / "diagram.csv")})
    cdir = tmp_path / "cert"
    rc = main(["certify", "--config", cfg, "--out", str(cdir)])
    assert rc == 0
    cert = read_json(cdir / "certificate.json")
    assert cert["classification"] == "FinitePair"
    assert cert["limits_are_estimates"] is True
    assert 0.0 < cert["lambda_under"] < math.inf
    assert cert["empirical"]["violations"] == []
    assert cert["empirical"]["solutions_checked"] > 0


def test_certify_flags_doctored_diagram(scan_run, tmp_path, capsys):
    _, out = scan_run
    lines = (out / "diagram.csv").read_text().splitlines()
    cols = lines[0].split(",")
    i_lam, i_out = cols.index("lambda"), cols.index("outcome")
    for k, row in enumerate(lines[1:], start=1):
        parts = row.split(",")
        if parts[i_out] == "HitZero":
            parts[i_lam] = "1e-3"  # below any nonexistence threshold
            lines[k] = ",".join(parts)
            break
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")

    cfg = write_cfg(tmp_path, certify={"diagram_csv": str(bad)})
    cdir = tmp_path / "cert"
    rc = main(["certify", "--config", cfg, "--out", str(cdir)])
    assert rc == 4
    assert "below" in capsys.readouterr().err
    cert = read_json(cdir / "certificate.json")
    assert len(cert["empirical"]["violations"]) == 1
    assert cert["empirical"]["violations"][0]["lambda"] == pytest.approx(1e-3)


def test_certify_negative_tail_means_no_solutions(tmp_path):
    # f(s) = -s across the whole sampling window: F(s)/s^2 -> -1/2 on both
    # sides, and a negative upper limit pushes the threshold to infinity
    cfg = write_cfg(tmp_path,
                    nonlinearity={"kind": "table",
                                  "samples": [[0.0, 0.0], [1e7, -1e7]]})
    out = tmp_path / "out"
    rc = main(["certify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    cert = read_json(out / "certificate.json")
    assert cert["classification"] == "FinitePair"
    assert cert["L_plus"] == pytest.approx(-0.5, rel=1e-9)
    assert cert["lambda_under"] == "inf"


def test_certify_reports_infinite_threshold(tmp_path):
    # cubic growth toward zero: both primitive limits vanish, so the
    # nonexistence threshold is infinite and there is nothing to audit
    cfg = write_cfg(tmp_path,
                    nonlinearity={"kind": "power_sin", "r": 3.0,
                                  "direction": "zero"})
    out = tmp_path / "out"
    rc = main(["certify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    cert = read_json(out / "certificate.json")
    assert cert["classification"] == "BothZero"
    assert cert["lambda_under"] == "inf"
    assert "empirical" not in cert


# -- minimize ---------------------------------------------------------------

def test_minimize_reports(tmp_path):
    cfg = write_cfg(tmp_path, minimize={"K": 3, "lambda": 110.0,
                                        "grid_cells": 150})
    out = tmp_path / "out"
    rc = main(["minimize", "--config", cfg, "--out", str(out)])
    assert rc == 0

    with open(out / "sequence.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "n,alpha_n,sup_norm,energy,interval_index"
    assert len(lines) == 4

    rep = read_json(out / "minimize.json")
    assert rep["lambda"] == 110.0
    assert rep["lambda"] > rep["lambda_bar"]
    items = rep["items"]
    assert [it["n"] for it in items] == [1, 2, 3]
    sups = [it["sup_norm"] for it in items]
    assert sups == sorted(sups)
    for it in items:
        assert not it["trivial"]
        assert 0.0 < it["sup_norm"] < it["alpha_n"]
        assert it["energy"] < 0.0
        assert len(it["values"]) == len(rep["grid"])


def test_minimize_needs_plap(tmp_path, capsys):
    cfg = write_cfg(tmp_path, operator={"pucci": {"Lambda": 2.0}},
                    minimize={"K": 2, "lambda": 10.0, "grid_cells": 50})
    rc = main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_table_without_zeros_exits_compute(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    nonlinearity={"kind": "table",
                                  "samples": [[0.0, 1.0], [1.0, 2.0],
                                              [5.0, 1.0]]},
                    minimize={"K": 2, "lambda": 10.0, "grid_cells": 50})
    rc = main(["minimize", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "zero" in capsys.readouterr().err


# -- pucci commands ---------------------------------------------------------

def test_pucci_shoot_report(tmp_path):
    cfg = write_cfg(tmp_path, operator={"pucci": {"Lambda": 2.0}},
                    geometry={"N": 2, "R": 1.0}, shoot={"c": 3.0})
    out = tmp_path / "out"
    rc = main(["pucci-shoot", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "trajectory.json")
    assert rep["outcome"]["kind"] == "HitZero"
    assert rep["outcome"]["rho"] == pytest.approx(1.3255481121, rel=1e-6)
    assert rep["lambda_rescaled"] == pytest.approx(1.7570772237, rel=1e-6)
    assert rep["q_sign_changes"] == 1


def test_pucci_diagram(tmp_path, capsys):
    cfg = write_cfg(tmp_path, operator={"pucci": {"Lambda": 2.0}},
                    geometry={"N": 2, "R": 1.0},
                    scan={"c_min": 1.0, "c_max": 12.0, "points": 12})
    out = tmp_path / "out"
    rc = main(["diagram", "--config", cfg, "--out", str(out)])
    assert rc == 0
    with open(out / "diagram.csv") as fh:
        header = fh.readline().strip()
    assert "q_sign_changes" in header.split(",")
    rep = read_json(out / "diagram_summary.json")
    assert rep["audit"]["pass"] is True

    # branch crossings only make sense for the variational operator
    rc = main(["diagram", "--config", cfg, "--out", str(out),
               "--lambda-star", "5.0"])
    assert rc == 2
    assert "lambda" in capsys.readouterr().err.lower()


# -- exit codes ---------------------------------------------------------------

def _pos(hi):
    return st.floats(0.0, hi, exclude_min=True)


_table = st.builds(lambda ys, step: [[i * step, y] for i, y in enumerate(ys)],
                   st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=6),
                   st.floats(0.5, 10.0))
# the schema only asks for an array
_malformed_table = st.one_of(
    st.lists(st.lists(st.floats(-5.0, 40.0), min_size=1, max_size=3), max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=2), st.none()),
             max_size=3))
_nonlinearity = st.one_of(
    st.builds(lambda k, r: {"kind": k, "r": r},
              st.sampled_from(["power_sin", "reciprocal_sin"]), _pos(3.0)),
    st.builds(lambda k, r: {"kind": k, "r": r},
              st.sampled_from(["power_sin", "reciprocal_sin"]),
              st.floats(-1.0, 0.0)),
    st.just({"kind": "pure_sine"}),
    st.builds(lambda k, s: {"kind": k, "samples": s},
              st.sampled_from(["table", "envelope_sin"]), _table),
    st.builds(lambda k, s: {"kind": k, "samples": s},
              st.sampled_from(["table", "envelope_sin"]), _malformed_table),
).flatmap(lambda nl: st.one_of(
    st.just(nl),
    st.sampled_from(["zero", "infinity"]).map(lambda d: {**nl, "direction": d})))
_operator = st.one_of(
    st.builds(lambda p: {"plap": {"p": p}}, st.floats(1.0, 6.0, exclude_min=True)),
    st.builds(lambda L: {"pucci": {"Lambda": L}}, st.floats(1.0, 4.0)))
_sections = {
    "shoot": st.fixed_dictionaries({"c": _pos(60.0)},
                                   optional={"lambda": _pos(1e3)}),
    "scan": st.fixed_dictionaries(
        {"c_min": _pos(60.0), "c_max": _pos(60.0), "points": st.integers(0, 8)},
        optional={"log_spacing": st.booleans(),
                  "lambda_star": st.lists(_pos(1e4), max_size=2)}),
}


def _configs(command):
    """Schema-valid configs for ``command``, its own section always present.

    Tolerances, zero counts and scan sizes stay small enough to keep each
    run short; every other value ranges over what the schema accepts.
    """
    section = "scan" if command == "diagram" else "shoot"
    return st.fixed_dictionaries(
        {"nonlinearity": _nonlinearity, "operator": _operator,
         "geometry": st.fixed_dictionaries({"N": st.integers(1, 4),
                                            "R": _pos(100.0)}),
         section: _sections[section]},
        optional={
            "tolerances": st.fixed_dictionaries({}, optional={
                "tol_ode": st.floats(1e-10, 1e-4),
                "event_tol": st.floats(1e-13, 1e-6),
                "r_max": st.floats(0.01, 100.0)}),
            "zeros": st.integers(1, 12),
        })


_runs = st.sampled_from(["shoot", "pucci-shoot", "diagram"]).flatmap(
    lambda command: st.tuples(st.just(command), _configs(command)))


@settings(max_examples=40, deadline=None)
@given(run=_runs)
def test_exit_codes_for_schema_valid_configs(run):
    # whatever the schema accepts ends in a documented exit code: no
    # exception escapes ``main``
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        rc = main([command, "--config", path, "--out", os.path.join(tmp, "o")])
    assert rc in (0, 2, 3, 4)


_variational_configs = st.fixed_dictionaries({
    "nonlinearity": st.builds(lambda r: {"kind": "power_sin", "r": r},
                              st.sampled_from([0.5, 1.0, 2.0])),
    "operator": st.builds(lambda p: {"plap": {"p": p}},
                          st.floats(1.0, 4.0, exclude_min=True)),
    "geometry": st.builds(lambda N: {"N": N, "R": 1.0}, st.integers(1, 3)),
    "minimize": st.fixed_dictionaries({
        "K": st.integers(1, 3), "lambda": st.floats(1.0, 500.0),
        "grid_cells": st.integers(2, 60)}),
})


@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(["analyze", "minimize", "certify"]),
       config=_variational_configs)
def test_exit_codes_for_variational_configs(command, config):
    # the commands that run primitives, thresholds and the minimizer end in
    # a documented exit code for every schema-valid config
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        rc = main([command, "--config", path, "--out", os.path.join(tmp, "o")])
    assert rc in (0, 2, 3, 4)


# -- packaging --------------------------------------------------------------

def test_console_script_runs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        ["oscillap", "analyze", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "analysis.json").exists()


def test_module_entry_matches_script(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "oscillap.cli", "analyze",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
