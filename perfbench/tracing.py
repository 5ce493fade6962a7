"""Spans and counters around the public entry points of each oscillap layer.

The tracer replaces names where their callers look them up (module
globals, class attributes and the CLI's command table), records one span
per call of a spanned entry point and bumps counters at the same
boundaries, and puts every original back on exit.  Spans stay in memory
as ``[name, start, end, parent index, session id]`` lists; self time is a
span's duration minus the durations of its direct children.

Scalar ``eval`` runs about a million times per scan session, so it is
counted but not spanned.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: per-layer metric name -> unit; the order is the report order
PER_LAYER_UNITS: Dict[str, str] = {
    "rk.integrate.calls": "count",
    "rk.integrate.busy_s": "s",
    "rk.integrate.self_s": "s",
    "rk.steps": "count",
    "rk.us_per_step": "us",
    "rk.events_located": "count",
    "rk.event_probes": "count",
    "rk.probes_per_event": "ratio",
    "nonlinearity.eval.calls": "count",
    "nonlinearity.eval_per_step": "ratio",
    "nonlinearity.eval_many.calls": "count",
    "nonlinearity.eval_many.points": "count",
    "nonlinearity.find_zeros.busy_s": "s",
    "primitives.F.calls": "count",
    "primitives.F_many.calls": "count",
    "primitives.F_many.points": "count",
    "primitives.F_many.self_s": "s",
    "primitives.Fbar.calls": "count",
    "primitives.estimate_limits.busy_s": "s",
    "primitives.PrimitiveCalculus.init_s": "s",
    "thresholds.compute_thresholds.busy_s": "s",
    "thresholds.compute_thresholds.self_s": "s",
    "thresholds.propose_gammas.busy_s": "s",
    "thresholds.golden_evals": "count",
    "shoot_plap.shoot.calls": "count",
    "shoot_plap.shoot.self_s": "s",
    "shoot_plap.diagram.self_s": "s",
    "shoot_plap.check_necessary_conditions.busy_s": "s",
    "shoot_plap.solutions_at.busy_s": "s",
    "shoot_plap.refine_shots": "count",
    "shoot_plap.crossings": "count",
    "shoot_plap.refine_shots_per_crossing": "ratio",
    "shoot_pucci.pucci_shoot.calls": "count",
    "shoot_pucci.pucci_shoot.busy_s": "s",
    "shoot_pucci.pucci_shoot.self_s": "s",
    "shoot_pucci.pucci_scan.self_s": "s",
    "shoot_pucci.pucci_inequality_check.busy_s": "s",
    "shoot_pucci.integrate_per_shot": "ratio",
    "variational.minimize.busy_s": "s",
    "variational.lbfgs.busy_s": "s",
    "variational.descents": "count",
    "variational.lbfgs_iterations": "count",
    "variational.energy_evals": "count",
    "variational.evals_per_iteration": "ratio",
    "variational.converged_starts": "count",
    "variational.winning_iteration_share": "ratio",
    "cli.Run.busy_s": "s",
    "cli.diagram.busy_s": "s",
    "cli.analyze.busy_s": "s",
    "cli.minimize.busy_s": "s",
    "cli.certify.busy_s": "s",
    "cli.report_bytes": "bytes",
    "trace.spans": "count",
    "trace.session_s": "s",
    "trace.untraced_session_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

#: per-layer metrics that are counts; they must repeat exactly between runs
COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items()
                      if u in ("count", "bytes"))


class Tracer:
    """Patches oscillap per session and records spans and counts."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.session_id = -1
        self.cur: Counter = self.counts[self.session_id]
        self._stack: List[int] = []
        self._saved: list = []
        #: entry points absent from the program; their metrics read 0
        self.missing: set = set()
        # the two hottest counters are plain cells: a Counter update costs
        # more than the scalar eval it would count
        self._evals = [0]
        self._probes = [0]

    @contextlib.contextmanager
    def session(self, session: int):
        """Patch oscillap for one session; counts and spans carry its id."""
        self.session_id = session
        self.cur = self.counts[session]
        self._evals[0] = self._probes[0] = 0
        self._install()
        try:
            yield self
        finally:
            self._restore()
            self.cur["nonlinearity.eval.calls"] += self._evals[0]
            self.cur["rk.event_probes"] += self._probes[0]

    # -- wrappers -------------------------------------------------------

    def _spanned(self, name: str, fn: Callable,
                 after: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.cur[key] += 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.session_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(self.cur, args, out)
            return out
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.cur[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counted_eval(self, fn: Callable) -> Callable:
        cell = self._evals

        @functools.wraps(fn)
        def wrapper(nl, s):
            cell[0] += 1
            return fn(nl, s)
        return wrapper

    def _counted_after(self, fn: Callable, after: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(self.cur, args, out)
            return out
        return wrapper

    def _brentq(self, fn: Callable) -> Callable:
        """Count located events and the probes each bracketed solve makes."""
        cell = self._probes

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            self.cur["rk.events_located"] += 1

            def probe(x):
                cell[0] += 1
                return f(x)
            return fn(probe, *args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------

    def _install(self) -> None:
        """Wrap every entry point in ``_patch_table``; note absent ones."""
        try:
            for owner_path, attr, make in self._patch_table():
                owner = _resolve(owner_path)
                table = (owner if isinstance(owner, dict)
                         else {} if owner is None else vars(owner))
                if attr not in table:
                    self.missing.add(f"{owner_path}.{attr}")
                    continue
                self._saved.append((owner, attr, table[attr]))
                _assign(owner, attr, make(table[attr]))
        except BaseException:
            self._restore()
            raise

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _assign(owner, attr, original)

    def _patch_table(self) -> list:
        """(owner, attribute, wrapper factory) for every traced entry point.

        Owners are named where the callers look the name up, so a wrapper
        sees every call the program makes through that name.
        """
        span = self._spanned

        def steps(cur, args, res):
            cur["rk.steps"] += res.n_steps

        def points(key):
            def after(cur, args, out):
                cur[key] += out.size
            return after

        def crossings(cur, args, out):
            cur["shoot_plap.crossings"] += len(out)

        def golden(cur, args, res):
            cur["thresholds.golden_evals"] += int(res.nfev)

        def lbfgs(cur, args, res):
            cur["variational.lbfgs_iterations"] += int(res.nit)

        def converged(cur, args, out):
            cur["variational.converged_starts"] += int(bool(out[0]))

        def winner(cur, args, res):
            cur["variational.winning_iterations"] += int(res.iterations)

        def report(cur, args, out):
            cur["cli.report_bytes"] += len(args[1].encode())

        def named(name, after=None):
            return lambda fn: span(name, fn, after)

        o = "oscillap."
        return [
            # _rk: the stepper as the shooters call it, and its event solver
            (o + "shoot_plap", "integrate", named("rk.integrate", steps)),
            (o + "shoot_pucci", "integrate", named("rk.integrate", steps)),
            (o + "_rk", "brentq", self._brentq),
            # nonlinearity: the class every workload uses
            (o + "nonlinearity.PowerTimesOnePlusSin", "eval", self._counted_eval),
            (o + "nonlinearity.PowerTimesOnePlusSin", "eval_many",
             named("nonlinearity.eval_many", points("nonlinearity.eval_many.points"))),
            (o + "cli", "find_zeros", named("nonlinearity.find_zeros")),
            (o + "thresholds", "find_zeros", named("nonlinearity.find_zeros")),
            # primitives
            (o + "primitives.PrimitiveCalculus", "__init__",
             named("primitives.PrimitiveCalculus")),
            (o + "primitives.PrimitiveCalculus", "F", named("primitives.F")),
            (o + "primitives.PrimitiveCalculus", "F_many",
             named("primitives.F_many", points("primitives.F_many.points"))),
            (o + "primitives.PrimitiveCalculus", "Fbar", named("primitives.Fbar")),
            (o + "primitives.PrimitiveCalculus", "estimate_limits",
             named("primitives.estimate_limits")),
            # thresholds
            (o + "cli", "compute_thresholds", named("thresholds.compute_thresholds")),
            (o + "thresholds", "propose_gammas", named("thresholds.propose_gammas")),
            (o + "thresholds", "minimize_scalar",
             lambda fn: self._counted_after(fn, golden)),
            # shoot_plap
            (o + "shoot_plap", "shoot", named("shoot_plap.shoot")),
            (o + "cli", "diagram", named("shoot_plap.diagram")),
            (o + "shoot_plap", "check_necessary_conditions",
             named("shoot_plap.check_necessary_conditions")),
            (o + "shoot_plap.BifurcationDiagram", "solutions_at",
             named("shoot_plap.solutions_at", crossings)),
            # shoot_pucci
            (o + "shoot_pucci", "pucci_shoot", named("shoot_pucci.pucci_shoot")),
            (o + "cli", "pucci_scan", named("shoot_pucci.pucci_scan")),
            (o + "shoot_pucci", "pucci_inequality_check",
             named("shoot_pucci.pucci_inequality_check")),
            # variational
            (o + "variational", "minimize", named("variational.minimize", winner)),
            (o + "variational", "_scipy_minimize", named("variational.lbfgs", lbfgs)),
            (o + "variational", "_descend", lambda fn: self._counted_after(fn, converged)),
            (o + "variational", "assemble_energy",
             lambda fn: self._counted("variational.assemble_energy", fn)),
            # cli: config load, the four commands the workloads run, reports
            (o + "cli.Run", "__init__", named("cli.Run")),
            *((o + "cli.COMMANDS", c, named(f"cli.{c}"))
              for c in ("diagram", "analyze", "minimize", "certify")),
            (o + "cli", "_atomic_write", lambda fn: self._counted_after(fn, report)),
        ]

    # -- metrics ---------------------------------------------------------

    def session_metrics(self, session: int) -> Dict[str, float]:
        """Per-layer metrics of one traced session, from its spans and counts."""
        spans = self.spans
        busy: Counter = Counter()
        own: Counter = Counter()
        child_time: Counter = Counter()
        mine = [i for i, s in enumerate(spans) if s[4] == session]
        for i in mine:
            name, start, end, parent, _ = spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        refine_shots = pucci_integrates = 0
        for i in mine:
            name, start, end, parent, _ = spans[i]
            dur = end - start
            own[name] += dur - child_time[i]
            ancestors = []
            j = parent
            while j >= 0:
                ancestors.append(spans[j][0])
                j = spans[j][3]
            if name not in ancestors:
                busy[name] += dur
            if name == "shoot_plap.shoot" and "shoot_plap.solutions_at" in ancestors:
                refine_shots += 1
            if name == "rk.integrate" and ancestors[:1] == ["shoot_pucci.pucci_shoot"]:
                pucci_integrates += 1

        c = self.counts[session]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "rk.integrate.calls": c["rk.integrate.calls"],
            "rk.integrate.busy_s": busy["rk.integrate"],
            "rk.integrate.self_s": own["rk.integrate"],
            "rk.steps": c["rk.steps"],
            "rk.us_per_step": 1e6 * ratio(busy["rk.integrate"], c["rk.steps"]),
            "rk.events_located": c["rk.events_located"],
            "rk.event_probes": c["rk.event_probes"],
            "rk.probes_per_event": ratio(c["rk.event_probes"],
                                          c["rk.events_located"]),
            "nonlinearity.eval.calls": c["nonlinearity.eval.calls"],
            "nonlinearity.eval_per_step": ratio(c["nonlinearity.eval.calls"],
                                                c["rk.steps"]),
            "nonlinearity.eval_many.calls": c["nonlinearity.eval_many.calls"],
            "nonlinearity.eval_many.points": c["nonlinearity.eval_many.points"],
            "nonlinearity.find_zeros.busy_s": busy["nonlinearity.find_zeros"],
            "primitives.F.calls": c["primitives.F.calls"],
            "primitives.F_many.calls": c["primitives.F_many.calls"],
            "primitives.F_many.points": c["primitives.F_many.points"],
            "primitives.F_many.self_s": own["primitives.F_many"],
            "primitives.Fbar.calls": c["primitives.Fbar.calls"],
            "primitives.estimate_limits.busy_s": busy["primitives.estimate_limits"],
            "primitives.PrimitiveCalculus.init_s": busy["primitives.PrimitiveCalculus"],
            "thresholds.compute_thresholds.busy_s": busy["thresholds.compute_thresholds"],
            "thresholds.compute_thresholds.self_s": own["thresholds.compute_thresholds"],
            "thresholds.propose_gammas.busy_s": busy["thresholds.propose_gammas"],
            "thresholds.golden_evals": c["thresholds.golden_evals"],
            "shoot_plap.shoot.calls": c["shoot_plap.shoot.calls"],
            "shoot_plap.shoot.self_s": own["shoot_plap.shoot"],
            "shoot_plap.diagram.self_s": own["shoot_plap.diagram"],
            "shoot_plap.check_necessary_conditions.busy_s":
                busy["shoot_plap.check_necessary_conditions"],
            "shoot_plap.solutions_at.busy_s": busy["shoot_plap.solutions_at"],
            "shoot_plap.refine_shots": refine_shots,
            "shoot_plap.crossings": c["shoot_plap.crossings"],
            "shoot_plap.refine_shots_per_crossing": ratio(
                refine_shots, c["shoot_plap.crossings"]),
            "shoot_pucci.pucci_shoot.calls": c["shoot_pucci.pucci_shoot.calls"],
            "shoot_pucci.pucci_shoot.busy_s": busy["shoot_pucci.pucci_shoot"],
            "shoot_pucci.pucci_shoot.self_s": own["shoot_pucci.pucci_shoot"],
            "shoot_pucci.pucci_scan.self_s": own["shoot_pucci.pucci_scan"],
            "shoot_pucci.pucci_inequality_check.busy_s":
                busy["shoot_pucci.pucci_inequality_check"],
            "shoot_pucci.integrate_per_shot": ratio(
                pucci_integrates, c["shoot_pucci.pucci_shoot.calls"]),
            "variational.minimize.busy_s": busy["variational.minimize"],
            "variational.lbfgs.busy_s": busy["variational.lbfgs"],
            "variational.descents": c["variational.lbfgs.calls"],
            "variational.lbfgs_iterations": c["variational.lbfgs_iterations"],
            "variational.energy_evals": c["variational.assemble_energy.calls"],
            "variational.evals_per_iteration": ratio(
                c["variational.assemble_energy.calls"],
                c["variational.lbfgs_iterations"]),
            "variational.converged_starts": c["variational.converged_starts"],
            "variational.winning_iteration_share": ratio(
                c["variational.winning_iterations"],
                c["variational.lbfgs_iterations"]),
            "cli.Run.busy_s": busy["cli.Run"],
            "cli.report_bytes": c["cli.report_bytes"],
            "trace.spans": len(mine),
        }
        for command in ("diagram", "analyze", "minimize", "certify"):
            m[f"cli.{command}.busy_s"] = busy[f"cli.{command}"]
        return m

    def write(self, path: str) -> None:
        """Write every span, once, as one JSON object."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "session"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _resolve(path: str):
    """Object at a dotted path (module, then attributes), or None."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name, None)
        return obj
    return None


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def combine(per_session: List[Dict[str, float]],
            pairs: List[Tuple[float, float]]) -> Dict[str, float]:
    """Per-layer report over traced sessions.

    Counts come from the first traced session and times are medians.
    ``pairs`` holds (traced, untraced) seconds of each traced session and
    the untraced session just before it; pairing cancels slow drift of the
    machine out of the tracing overhead.
    """
    out: Dict[str, float] = {}
    for key in per_session[0]:
        if key in COUNT_METRICS:
            out[key] = per_session[0][key]
        else:
            out[key] = statistics.median(m[key] for m in per_session)
    out["trace.session_s"] = statistics.median(t for t, _ in pairs)
    out["trace.untraced_session_s"] = statistics.median(u for _, u in pairs)
    out["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    out["trace.overhead_share"] = statistics.median((t - u) / u for t, u in pairs)
    return {k: out[k] for k in PER_LAYER_UNITS}
