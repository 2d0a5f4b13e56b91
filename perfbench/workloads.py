"""The benchmark's three workloads, their inputs and their metrics.

Every workload is a closed loop driven from this one process: the next job
starts when the previous one has returned. Inputs come from the seed alone;
seed 0 is the paper configuration.

* ``sweep``: the 324-scenario stability sweep, serial and with ``jobs=2``,
  plus single-scenario ``analyze_scenario`` latency on the weak grid. Time
  goes to Newton and the finite-difference Jacobians (powerflow, linearize,
  components.rhs) and the eigen-decomposition; sim does no work.
* ``scr``: ``wppsc scr`` in-process over several condenser sizes. Each
  report solves three passive plants and runs one bolted fault on each, so
  time goes to sim on the affine passive plant; linearize never runs.
* ``transient``: the six gate-8 scenarios, each solved, linearised, stepped
  linearly and nonlinearly, and run through a cleared PCC fault. Time goes to
  sim on the 16/18-state converter plant with a measure capture per step.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from wppsc import analysis, cli, components, config, powerflow, scr, sim
from wppsc import linearize as linmod
from wppsc.sim import Event

from . import checks, speed, stats
from .trace import Span, Tracer, nearest_ancestor, self_times

HERE = os.path.dirname(os.path.abspath(__file__))

# sha256 of the sorted (scenario_key, solved, stable, null_modes_filtered)
# rows of the seed-0 sweep, recorded when the benchmark was defined.
SEED0_SWEEP_DIGEST = "af5bcd04587d633a4f3e37cbc3fc884f4ac6690b320dd74d11f4ad183883860f"

SETUP_REPEATS = 9

# Operating-point box the random sweep points are drawn from.
OP_BOX = {"v_g_ref": (0.92, 1.08), "v_turb_ref": (0.92, 1.08), "p_turb_ref": (0.1, 1.0)}
SWEEP_SIZE = len(config.GRID_CASES) * 27 * 4
LATENCY_GRID = "weak"

SCR_FACTORS_SEED0 = (1.0, 0.85, 1.15)
SCR_FACTOR_RANGE = (0.7, 1.3)
SCR_CASES_PER_REPORT = len(checks.SCR_CASES)

# gate-8 set: (grid, control, condenser); weak/GFL without the condenser is
# excluded because it diverges under the fault, as expected physically
TRANSIENT_SET = (
    ("weak", "gfl", True),
    ("normal", "gfl", True),
    ("strong", "gfl", False),
    ("weak", "gfm", True),
    ("normal", "gfm", False),
    ("strong", "gfm", True),
)
TRANSIENT_P_SEED0 = 0.5
TRANSIENT_P_RANGE = (0.1, 1.0)
DT = 2e-4
STEP_SIZE = 1e-3
T_STEP = 0.4
T_FAULT_RUN = 0.25
FAULT_ON, FAULT_OFF, FAULT_R = 0.05, 0.10, 0.05
SIM_SECONDS_PER_PIPELINE = T_STEP + T_FAULT_RUN

LAYERS = ("config", "components", "powerflow", "linearize", "analysis", "sim", "scr", "cli")


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, ops: int, problems: list, failed: Optional[int] = None) -> None:
        self.attempted += ops
        if problems:
            self.failed += min(ops, len(problems) if failed is None else failed)
            self.problems.extend(problems[: 5 - min(5, len(self.problems))])


def guarded(fn: Callable, *args, **kwargs):
    """Call into the program; an exception becomes a reported problem."""
    try:
        return fn(*args, **kwargs), []
    except Exception as exc:  # the benchmark must report, not stop
        tb = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        return None, [f"{type(exc).__name__}: {exc} [{tb}]"]


def _uniform(rng: np.random.Generator, lo_hi: tuple[float, float]) -> float:
    return round(float(rng.uniform(*lo_hi)), 4)


# -- inputs ------------------------------------------------------------------


def sweep_ops(seed: int) -> list:
    if seed == 0:
        return list(config.standard_operating_points())
    rng = np.random.default_rng(seed)
    return [
        config.OperatingPoint(**{k: _uniform(rng, box) for k, box in OP_BOX.items()})
        for _ in range(27)
    ]


def latency_scenarios(ops: list) -> list:
    base = config.Scenario()
    grid = config.GRID_CASES[LATENCY_GRID]
    return [
        replace(base, name=LATENCY_GRID, grid=grid, control=control, with_sc=with_sc, op=op)
        for control in ("gfl", "gfm")
        for with_sc in (False, True)
        for op in ops
    ]


def scr_sizes(seed: int) -> list[float]:
    x_sub = components.ScParams().x_sub
    if seed == 0:
        factors = SCR_FACTORS_SEED0
    else:
        rng = np.random.default_rng(seed)
        factors = [_uniform(rng, SCR_FACTOR_RANGE) for _ in SCR_FACTORS_SEED0]
    return [round(x_sub * f, 6) for f in factors]


def transient_scenarios(seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for case, control, with_sc in TRANSIENT_SET:
        p = TRANSIENT_P_SEED0 if seed == 0 else _uniform(rng, TRANSIENT_P_RANGE)
        out.append(config.preset_scenario(case, control=control, with_sc=with_sc, p_turb_ref=p))
    return out


def setup_args(workload: str, seed: int) -> list[str]:
    """Scenario the cold set-up probe builds and solves: the workload's first."""
    if workload == "sweep":
        op = sweep_ops(seed)[0]
        case, control, with_sc = sorted(config.GRID_CASES)[0], "gfl", False
    elif workload == "scr":
        op = config.OperatingPoint(p_turb_ref=0.0)
        case, control, with_sc = "weak", "none", True
    else:
        s = transient_scenarios(seed)[0]
        op, case, control, with_sc = s.op, s.name, s.control, s.with_sc
    return [case, control, "1" if with_sc else "0",
            repr(op.v_g_ref), repr(op.v_turb_ref), repr(op.p_turb_ref)]


def measure_setup(workload: str, seed: int, src: str) -> tuple[list[float], list[float]]:
    """Cold set-up from SETUP_REPEATS fresh interpreters, one at a time:
    (wall seconds, seconds at reference speed). Meanwhile this process and
    its children share one CPU, so the probes taken around each child
    measure the CPU the child ran on."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py")] + setup_args(workload, seed)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    wall, ref = [], []
    try:
        gauge = speed.Gauge()
        for _ in range(SETUP_REPEATS):
            proc, _, scale = gauge.run(subprocess.run, cmd, env=env, capture_output=True,
                                       text=True, timeout=120, check=True)
            wall.append(float(proc.stdout.strip().splitlines()[-1]))
            ref.append(wall[-1] * scale)
    finally:
        os.sched_setaffinity(0, cpus)
    return wall, ref


# -- one job per workload ----------------------------------------------------


def check_sweep(out: Outcome, reports, seed: int, reference: Optional[list]) -> None:
    """Count one serial sweep: unsolved reports fail one by one; a wrong size
    or classification fails the whole sweep."""
    whole = []
    if len(reports) != SWEEP_SIZE:
        whole.append(f"{len(reports)} reports, expected {SWEEP_SIZE}")
    if seed == 0 and checks.sweep_digest(reports) != SEED0_SWEEP_DIGEST:
        whole.append("seed-0 classification digest differs from the recorded one")
    if reference is not None and checks.sweep_classification(reports) != reference:
        whole.append("classification differs from the first serial sweep of this run")
    problems = whole + checks.unsolved(reports)
    out.add(SWEEP_SIZE, problems, failed=SWEEP_SIZE if whole else None)


def scr_report(x_sub: float, workdir: str) -> list[str]:
    """``wppsc scr`` for one condenser size; problems with its scr.csv."""
    out_dir = os.path.join(workdir, "scr")
    code, problems = guarded(cli.main, ["scr", "--set", f"sc.x_sub={x_sub!r}", "--out", out_dir])
    if problems:
        return problems
    if code != 0:
        return [f"wppsc scr exited {code}"]
    with open(os.path.join(out_dir, "scr.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [f"x_sub={x_sub}: {p}" for p in checks.scr_row_problems(rows)]


def _direct(fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


def transient_pipeline(s, call: Callable = _direct) -> list[str]:
    """Solve, linearise, linear and nonlinear power step, cleared PCC fault.
    Each stage goes through ``call``, which may time it."""
    model = call(config.build_model, s)
    eq = call(powerflow.solve_equilibrium, model, config.refs_for(s))
    ss = call(linmod.linearize, model, eq.state, eq.refs)
    lin = call(analysis.step_response, ss, "power", STEP_SIZE, t_end=T_STEP, dt=DT)
    nl = call(sim.integrate, model, eq.state, eq.refs, t_end=T_STEP, dt=DT,
              events=[Event.step_ref(0.0, "p_star", STEP_SIZE)])
    fault = call(sim.integrate, model, eq.state, eq.refs, t_end=T_FAULT_RUN, dt=DT,
                 events=[Event.fault_on(FAULT_ON, "pcc", FAULT_R), Event.fault_off(FAULT_OFF, "pcc")])
    p_eq = model.measure(eq.state, eq.refs)["p_pc"]
    return checks.step_problems(lin, nl, p_eq) + checks.series_problems("fault run", fault)


def _pipeline_problems(s, call: Callable = _direct) -> list[str]:
    problems, err = guarded(transient_pipeline, s, call)
    return [f"{config.scenario_key(s)}: {p}" for p in (err or problems)]


# -- untraced runs -----------------------------------------------------------


@dataclass
class Result:
    """End-to-end figures of one run. Gated figures are at reference machine
    speed (see speed.py); the extras, printed beside them, are plain wall
    figures named as in the issue."""

    throughput_per_s: float
    job_ms_mean: float
    jobs: int
    extras: dict  # name -> (value, unit, note)


class Timings:
    """Wall and reference-speed seconds of repeated jobs, kept per job key.

    A job's reference-speed time is the median over its repetitions, which
    drops the repetitions the probes misjudged; figures over several distinct
    jobs sum or average those medians."""

    def __init__(self) -> None:
        self.wall: dict = defaultdict(list)
        self.ref: dict = defaultdict(list)

    def add(self, key, wall: float, scale: float) -> None:
        self.wall[key].append(wall)
        self.ref[key].append(wall * scale)

    def count(self) -> int:
        return sum(len(v) for v in self.wall.values())

    def ref_total(self) -> float:
        """Reference-speed seconds of one pass over every distinct job."""
        return sum(stats.median(v) for v in self.ref.values())

    def ref_mean_ms(self) -> float:
        return 1e3 * self.ref_total() / len(self.ref)

    def wall_all(self) -> list:
        return [x for v in self.wall.values() for x in v]


def _keep_going(t0: float, seconds: float, last_round: float) -> bool:
    """Start another round only if it should end within the budget."""
    return perf_counter() - t0 + last_round <= seconds


def _speed_note(gauge: speed.Gauge) -> dict:
    return {"machine_speed": (gauge.speed(), "1", f"median of {len(gauge.probes)} probes, "
                              "1 = reference speed")}


def _time_each(scenarios: list) -> list:
    out = []
    for s in scenarios:
        t = perf_counter()
        rep = analysis.analyze_scenario(s)
        out.append((rep, perf_counter() - t))
    return out


def run_sweep(seed: int, seconds: float, out: Outcome, workdir: str) -> Result:
    """Rounds of: the serial sweep as twelve sweep() calls (one per grid,
    control and condenser state, 27 scenarios each, so that probes come every
    fraction of a second), one sweep(jobs=2) over all 324, and
    analyze_scenario on each weak-grid scenario, probed in batches of 12."""
    ops = sweep_ops(seed)
    singles = latency_scenarios(ops)
    for s in singles[:: len(ops)]:  # one per topology: lazy imports, allocator
        out.add(1, checks.unsolved([analysis.analyze_scenario(s)]))
    slices = [(g, c, sc) for g in sorted(config.GRID_CASES) for c in ("gfl", "gfm")
              for sc in (False, True)]
    gauge = speed.Gauge()
    serial, latency, pooled_wall = Timings(), Timings(), []
    reference = None
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        reports, failed = [], []
        for key in slices:
            grid, control, with_sc = key
            (part, err), wall, scale = gauge.run(
                guarded, analysis.sweep, grid_cases={grid: config.GRID_CASES[grid]}, ops=ops,
                controls=(control,), sc_states=(with_sc,))
            serial.add(key, wall, scale)
            failed += err
            reports += part or []
        if failed:
            out.add(SWEEP_SIZE, failed, failed=SWEEP_SIZE)
            break
        check_sweep(out, reports, seed, reference)
        if reference is None:
            reference = checks.sweep_classification(reports)

        (par, err), wall, _ = gauge.run(guarded, analysis.sweep, ops=ops, jobs=2)
        pooled_wall.append(wall)
        if err:
            out.add(SWEEP_SIZE, err, failed=SWEEP_SIZE)
        else:
            diff = checks.parallel_mismatch(reports, par)
            out.add(SWEEP_SIZE, [f"jobs=2 differs from serial at {k}" for k in diff])

        by_key = {row[0]: row for row in reference}
        for k in range(0, len(singles), 12):
            timed, _, scale = gauge.run(_time_each, singles[k : k + 12])
            for rep, wall in timed:
                latency.add(rep.scenario_key, wall, scale)
                bad = checks.unsolved([rep])
                if not bad and by_key.get(rep.scenario_key) != checks.sweep_classification([rep])[0]:
                    bad = [f"{rep.scenario_key}: single-scenario classification differs from sweep"]
                out.add(1, bad)
        if not _keep_going(t0, seconds, perf_counter() - r0):
            break
    rounds = len(pooled_wall)
    lat_ms = [1e3 * x for x in latency.wall_all()]
    tail = stats.tail(lat_ms)
    extras = {
        "sweep_scenarios_per_s": (SWEEP_SIZE * rounds / sum(serial.wall_all()), "1/s",
                                  f"serial sweep(), {rounds} x {SWEEP_SIZE}, wall"),
        "sweep_jobs2_scenarios_per_s": (SWEEP_SIZE * rounds / sum(pooled_wall), "1/s",
                                        f"sweep(jobs=2), {rounds} x {SWEEP_SIZE}, wall"),
        "scenario_ms_p50": (stats.median(lat_ms), "ms", f"analyze_scenario, n={len(lat_ms)}, wall"),
    }
    if tail is not None:
        extras[f"scenario_ms_p{tail[0]:g}"] = (tail[1], "ms", f"n={len(lat_ms)}, wall")
    extras.update(_speed_note(gauge))
    return Result(SWEEP_SIZE / serial.ref_total(), latency.ref_mean_ms(), latency.count(), extras)


def run_scr(seed: int, seconds: float, out: Outcome, workdir: str) -> Result:
    sizes = scr_sizes(seed)
    out.add(SCR_CASES_PER_REPORT, scr_report(sizes[0], workdir))  # warm-up, not timed
    gauge = speed.Gauge()
    reports = Timings()
    t0 = perf_counter()
    while True:
        k = reports.count() % len(sizes)
        problems, wall, scale = gauge.run(scr_report, sizes[k], workdir)
        reports.add(k, wall, scale)
        out.add(SCR_CASES_PER_REPORT, problems)
        if reports.count() >= len(sizes) and not _keep_going(t0, seconds, wall):
            break
    walls = reports.wall_all()
    extras = {
        "scr_cases_per_s": (SCR_CASES_PER_REPORT * len(walls) / sum(walls), "1/s",
                            f"{len(walls)} reports of {SCR_CASES_PER_REPORT} cases, wall"),
        "scr_report_ms_p50": (1e3 * stats.median(walls), "ms", f"n={len(walls)}, wall"),
    }
    extras.update(_speed_note(gauge))
    return Result(SCR_CASES_PER_REPORT * len(sizes) / reports.ref_total(), reports.ref_mean_ms(),
                  len(walls), extras)


def run_transient(seed: int, seconds: float, out: Outcome, workdir: str) -> Result:
    scenarios = transient_scenarios(seed)
    gauge = speed.Gauge()
    pipelines = Timings()
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        for k, s in enumerate(scenarios):
            spent = {"wall": 0.0, "ref": 0.0}

            def staged(fn, *args, **kwargs):
                # probes between the stages, not only around the pipeline
                result, wall, scale = gauge.run(fn, *args, **kwargs)
                spent["wall"] += wall
                spent["ref"] += wall * scale
                return result

            out.add(1, _pipeline_problems(s, staged))
            pipelines.add(k, spent["wall"], spent["ref"] / spent["wall"])
        if not _keep_going(t0, seconds, perf_counter() - r0):
            break
    walls = pipelines.wall_all()
    extras = {
        "transient_sim_s_per_s": (len(walls) * SIM_SECONDS_PER_PIPELINE / sum(walls), "s/s",
                                  f"{len(walls)} pipelines of {SIM_SECONDS_PER_PIPELINE:g} "
                                  "simulated s, wall"),
        "pipeline_ms_p50": (1e3 * stats.median(walls), "ms", f"n={len(walls)}, wall"),
    }
    extras.update(_speed_note(gauge))
    return Result(len(scenarios) / pipelines.ref_total(), pipelines.ref_mean_ms(), len(walls),
                  extras)


RUNNERS = {"sweep": run_sweep, "scr": run_scr, "transient": run_transient}


# -- traced runs -------------------------------------------------------------


def patch_program(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the names their callers use."""
    p = tracer.patch
    p(components.SystemModel, "rhs", "components.rhs")
    p(components.SystemModel, "measure", "components.measure")
    for mod in (analysis, scr, cli, config):
        p(mod, "build_model", "config.build_model")
    for mod in (analysis, scr, cli, powerflow):
        p(mod, "solve_equilibrium", "powerflow.solve_equilibrium", value=lambda eq: eq.iterations)
    for mod in (powerflow, linmod):
        p(mod, "numjac", "linearize.numjac")
    for mod in (analysis, cli, linmod):
        p(mod, "linearize", "linearize.linearize")
    p(analysis, "analyze_scenario", "analysis.analyze_scenario", new_scope=True)
    for mod in (analysis, cli):
        p(mod, "eigenvalues", "analysis.eigenvalues")
        p(mod, "step_response", "analysis.step_response")
        p(mod, "sweep", "analysis.sweep")
    p(analysis, "classify", "analysis.classify")
    for mod in (sim, scr, cli):
        p(mod, "integrate", "sim.integrate", value=lambda ts: len(ts.t) - 1)
    p(scr, "measure_scr_from_fault", "scr.measure_scr_from_fault", new_scope=True)
    for mod in (scr, cli):
        p(mod, "enhancement_report", "scr.enhancement_report")
    p(scr, "fit_condenser_impedance", "scr.fit_condenser_impedance")
    p(cli, "main", "cli.main", new_scope=True)


def _pieces(workload: str, seed: int, out: Outcome, workdir: str) -> list[Callable]:
    """The fixed work of a traced run, in pieces. Each piece runs once
    untraced and once traced, in alternating order, so that a change in
    machine speed during the run falls on both sides. A piece takes ``scope``,
    which opens a span (or nothing) around one scenario of the benchmark's own
    loop, and returns the sweep reports it made."""
    if workload == "sweep":
        ops = sweep_ops(seed)

        def grid_sweep(grid: str) -> Callable:
            def piece(scope) -> list:
                reports, err = guarded(analysis.sweep, grid_cases={grid: config.GRID_CASES[grid]},
                                       ops=ops)
                if err:
                    out.add(SWEEP_SIZE, err, failed=SWEEP_SIZE)
                return reports or []
            return piece

        return [grid_sweep(g) for g in sorted(config.GRID_CASES)]

    if workload == "scr":
        def report(x_sub: float) -> Callable:
            def piece(scope) -> list:
                out.add(SCR_CASES_PER_REPORT, scr_report(x_sub, workdir))
                return []
            return piece

        def fit(scope) -> list:
            out.add(1, guarded(scr.fit_condenser_impedance)[1])
            return []

        return [report(x) for x in scr_sizes(seed)] + [fit]

    def pipeline(s) -> Callable:
        def piece(scope) -> list:
            with scope("transient.pipeline"):
                out.add(1, _pipeline_problems(s))
            return []
        return piece

    return [pipeline(s) for s in transient_scenarios(seed)]


def run_traced(workload: str, seed: int, out: Outcome, workdir: str) -> tuple[dict, Tracer]:
    tracer = Tracer()
    scopes = {False: lambda name: nullcontext(),
              True: lambda name: tracer.span(name, new_scope=True)}
    wall = {False: 0.0, True: 0.0}
    reports: dict = {False: [], True: []}
    pieces = _pieces(workload, seed, out, workdir)
    pieces[0](scopes[False])  # warm-up: lazy imports and first-call costs
    for k, piece in enumerate(pieces):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                patch_program(tracer)
            try:
                t = perf_counter()
                reports[traced] += piece(scopes[traced])
                wall[traced] += perf_counter() - t
            finally:
                tracer.unpatch_all()

    pool_overhead = 0.0
    if workload == "sweep":
        for traced in (False, True):
            check_sweep(out, reports[traced], seed, None)
        t = perf_counter()
        _, err = guarded(analysis.sweep, ops=sweep_ops(seed), jobs=2)
        pool_overhead = (perf_counter() - t) - wall[False] / 2.0
        out.add(SWEEP_SIZE, err, failed=SWEEP_SIZE)

    metrics = layer_metrics(tracer.finish(), wall[True])
    metrics["analysis.pool_overhead_s"] = pool_overhead
    metrics["trace.overhead_s"] = wall[True] - wall[False]
    metrics["trace.overhead_share"] = (wall[True] - wall[False]) / wall[False]
    return metrics, tracer


# End-to-end metric -> unit, reported by every untraced run.
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s",
                    "job_ms_mean": "ms"}

# Per-layer metric -> unit; every traced run reports all of them, 0 where the
# workload never enters the layer or a percentile lacks the samples.
LAYER_UNITS = {
    "components.rhs_calls": "count", "components.rhs_us": "us",
    "components.measure_calls": "count", "components.measure_us": "us",
    "powerflow.solve_calls": "count", "powerflow.solve_ms_p50": "ms",
    "powerflow.solve_ms_p90": "ms", "powerflow.newton_iters_mean": "count",
    "powerflow.rhs_calls_per_solve": "count", "powerflow.share": "fraction",
    "linearize.numjac_calls": "count", "linearize.numjac_us": "us",
    "linearize.ms_p50": "ms", "linearize.rhs_calls_per_call": "count",
    "analysis.eigenvalues_ms_p50": "ms", "analysis.classify_us": "us",
    "analysis.step_response_ms": "ms", "analysis.pool_overhead_s": "s",
    "sim.integrate_calls": "count", "sim.steps": "count", "sim.step_us": "us",
    "sim.rhs_calls_per_step": "count", "sim.capture_share": "fraction",
    "scr.fault_runs": "count", "scr.measure_ms_p50": "ms", "scr.fit_ms": "ms",
    "config.build_model_calls": "count", "config.build_model_us": "us",
    "cli.overhead_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.overhead_share": "fraction",
}


def layer_metrics(spans: list[Span], wall: float) -> dict:
    """Per-layer counts, times and ratios from one traced unit of work."""
    idx = defaultdict(list)
    for i, s in enumerate(spans):
        idx[s.name].append(i)

    def durs(name: str) -> list[float]:
        return [spans[i].duration for i in idx[name]]

    def mean(xs) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    def med(xs) -> float:
        return stats.median(xs) if xs else 0.0

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    under_solve = nearest_ancestor(spans, frozenset({"powerflow.solve_equilibrium"}))
    under_lin = nearest_ancestor(spans, frozenset({"linearize.linearize"}))
    under_sim = nearest_ancestor(spans, frozenset({"sim.integrate"}))
    under_cli = nearest_ancestor(spans, frozenset({"cli.main"}))
    rhs, meas = idx["components.rhs"], idx["components.measure"]
    solves, lins, integ = (idx["powerflow.solve_equilibrium"], idx["linearize.linearize"],
                           idx["sim.integrate"])
    solve_ms = [1e3 * d for d in durs("powerflow.solve_equilibrium")]
    steps = sum(spans[i].value or 0 for i in integ)
    integ_s = sum(durs("sim.integrate"))
    cli_s = sum(durs("cli.main"))
    report_in_cli = sum(spans[i].duration for i in idx["scr.enhancement_report"] if under_cli[i] >= 0)

    m = {
        "components.rhs_calls": len(rhs),
        "components.rhs_us": 1e6 * mean(durs("components.rhs")),
        "components.measure_calls": len(meas),
        "components.measure_us": 1e6 * mean(durs("components.measure")),
        "powerflow.solve_calls": len(solves),
        "powerflow.solve_ms_p50": med(solve_ms),
        "powerflow.solve_ms_p90": stats.percentile_if_supported(solve_ms, 90.0),
        "powerflow.newton_iters_mean": mean([spans[i].value or 0 for i in solves]),
        "powerflow.rhs_calls_per_solve": per(sum(under_solve[i] >= 0 for i in rhs), len(solves)),
        "powerflow.share": per(sum(durs("powerflow.solve_equilibrium")), wall),
        "linearize.numjac_calls": len(idx["linearize.numjac"]),
        "linearize.numjac_us": 1e6 * mean(durs("linearize.numjac")),
        "linearize.ms_p50": 1e3 * med(durs("linearize.linearize")),
        "linearize.rhs_calls_per_call": per(sum(under_lin[i] >= 0 for i in rhs), len(lins)),
        "analysis.eigenvalues_ms_p50": 1e3 * med(durs("analysis.eigenvalues")),
        "analysis.classify_us": 1e6 * mean(durs("analysis.classify")),
        "analysis.step_response_ms": 1e3 * mean(durs("analysis.step_response")),
        "sim.integrate_calls": len(integ),
        "sim.steps": steps,
        "sim.step_us": 1e6 * per(integ_s, steps),
        "sim.rhs_calls_per_step": per(sum(under_sim[i] >= 0 for i in rhs), steps),
        "sim.capture_share": per(sum(spans[i].duration for i in meas if under_sim[i] >= 0), integ_s),
        "scr.fault_runs": len(idx["scr.measure_scr_from_fault"]),
        "scr.measure_ms_p50": 1e3 * med(durs("scr.measure_scr_from_fault")),
        "scr.fit_ms": 1e3 * mean(durs("scr.fit_condenser_impedance")),
        "config.build_model_calls": len(idx["config.build_model"]),
        "config.build_model_us": 1e6 * mean(durs("config.build_model")),
        "cli.overhead_ms": 1e3 * per(cli_s - report_in_cli, len(idx["cli.main"])),
    }
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s.name.startswith(layer + "."))
    return m

