"""Command-line entry point: scenario JSON in, CSV artifacts + manifest out.

Every subcommand resolves its configuration (file, then --set overrides,
then defaults), emits its artifact as CSV with a header row, '.' decimal
separator and LF line endings, and writes the fully-resolved configuration
to manifest.json in the output directory once the run is past its
configuration: a solver failure, a divergence or an invalid fault
measurement records it, a configuration error does not, and leaves no
output directory that the run made. Re-running a subcommand against a
written manifest reproduces the artifacts byte for byte.

Each subcommand is stated once, in _SUBCOMMANDS (its help, its handler and
the options only it takes), and each record CSV once, in its column table
(header -> value of a record), so a header and every row come from the same
entries.

Exit codes: 0 success, 2 configuration error, 3 equilibrium solver failure,
4 simulation divergence (partial series still written) or a fault
measurement of scr with no settled current (no scr.csv).
"""

import argparse
import csv
import functools
import json
import logging
import os
import sys
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import eigenvalues, step_response, sweep
from .config import (
    ConfigError,
    Scenario,
    apply_overrides,
    build_model,
    load_config,
    parse_scenario,
    refs_for,
    scenario_key,
    to_dict,
)
from .linearize import linearize
from .powerflow import SolveError, solve_equilibrium
from .scr import MeasurementInvalid, enhancement_report
from .sim import ScheduleError, TimeSeries, integrate


def _fmt(value) -> str:
    """Shortest round-trip decimal form; empty cell for missing values."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_records(path: str, columns: dict, records) -> None:
    """One row per record: each column's value is the record's attribute at
    a dotted path, or a function of the record."""
    getters = [g if callable(g) else attrgetter(g) for g in columns.values()]
    _write_csv(path, list(columns), ([get(r) for get in getters] for r in records))


def _write_manifest(out_dir: str, subcommand: str, resolved: dict) -> None:
    payload = {"version": __version__, "subcommand": subcommand, "config": resolved}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_scenario(config_path: Optional[str], overrides: Sequence[str]) -> Scenario:
    raw = load_config(config_path) if config_path else {}
    if set(raw) == {"version", "subcommand", "config"}:
        # a previously written manifest: rerun from its resolved config
        raw = raw["config"]
    raw = apply_overrides(raw, overrides)
    return parse_scenario(raw)


def _write_series(path: str, ts: TimeSeries) -> None:
    """The bytes _write_csv would write for the series (shortest round-trip
    floats), formatted a row of Python floats at a time."""
    names = list(ts.columns)
    rows = np.column_stack([ts.t, *(ts.columns[name] for name in names)]).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["t", *names]) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _series_exit(ts: TimeSeries) -> int:
    if ts.diverged or ts.aborted:
        print(f"simulation diverged: {ts.note}", file=sys.stderr)
        return 4
    return 0


def _cmd_steady(scenario: Scenario, args, out_dir: str) -> int:
    model = build_model(scenario)
    eq = solve_equilibrium(model, refs_for(scenario))
    rows = [*zip(model.labels, eq.state), *((name, getattr(eq.refs, name)) for name in model.unknowns)]
    _write_csv(os.path.join(out_dir, "steady.csv"), ("label", "value"), rows)
    if args.verbose:
        print(f"converged in {eq.iterations} iterations, residual {eq.residual_norm:.3e}")
    return 0


def _cmd_eig(scenario: Scenario, args, out_dir: str) -> int:
    model = build_model(scenario)
    eq = solve_equilibrium(model, refs_for(scenario))
    ss = linearize(model, eq.state, eq.refs)
    records = eigenvalues(ss)
    key = scenario_key(scenario)
    columns = {"scenario": lambda r: key, "re": "re", "im": "im", "freq_hz": "freq_hz",
               "damping": "damping", "dominant_states": lambda r: ";".join(r.dominant_states)}
    _write_records(os.path.join(out_dir, "eigs.csv"), columns, records)
    if args.dump_a:
        header = ["state"] + list(ss.state_labels)
        a_rows = [(lab,) + tuple(ss.a[i]) for i, lab in enumerate(ss.state_labels)]
        _write_csv(os.path.join(out_dir, "a_matrix.csv"), header, a_rows)
    if args.verbose:
        worst = max(records, key=lambda r: r.re)
        print(f"{len(records)} modes, max Re = {worst.re:.4f}")
    return 0


def _step_request(scenario: Scenario, model) -> tuple[str, float]:
    """The reference and magnitude of the linear step: the first step_ref
    event's, or a 1e-3 pu p_star step when the schedule has none."""
    steps = [(f"events.{i}.channel", ev.channel, ev.delta)
             for i, ev in enumerate(scenario.events) if ev.kind == "step_ref"]
    key, ref, magnitude = (steps or [("control.type", "p_star", 1e-3)])[0]
    if ref not in model.inputs:
        raise ConfigError(key, f"{scenario.control!r} plant does not read {ref!r} "
                               f"(it reads {', '.join(model.inputs)})")
    return ref, magnitude


def _cmd_step(scenario: Scenario, args, out_dir: str) -> int:
    model = build_model(scenario)
    ref, magnitude = _step_request(scenario, model)
    eq = solve_equilibrium(model, refs_for(scenario))
    ss = linearize(model, eq.state, eq.refs)
    ts = step_response(ss, ref, magnitude, t_end=scenario.t_end, dt=scenario.dt)
    _write_series(os.path.join(out_dir, "step.csv"), ts)
    if args.verbose:
        print(f"step on {ref}, magnitude {magnitude!r}, {len(ts.t)} samples")
    return _series_exit(ts)


# sweep.csv, one row per analysis.StabilityReport
_SWEEP_COLUMNS = {
    "scenario": "scenario_key",
    "grid_case": "grid_case",
    "control": "control",
    "with_sc": "with_sc",
    "v_g_ref": "op.v_g_ref",
    "v_turb_ref": "op.v_turb_ref",
    "p_turb_ref": "op.p_turb_ref",
    "solved": "solved",
    "stable": "stable",
    "max_re": "max_re",
    "min_damping_below_100hz": "min_damping_below_100hz",
    "poorly_damped_near_sync": lambda r: len(r.poorly_damped_near_sync),
    "null_modes_filtered": "null_modes_filtered",
    "failure": "failure",
}


def _cmd_sweep(scenario: Scenario, args, out_dir: str) -> int:
    reports = sweep(base=scenario, jobs=args.jobs)
    _write_records(os.path.join(out_dir, "sweep.csv"), _SWEEP_COLUMNS, reports)
    if args.verbose:
        unstable = sum(1 for r in reports if r.solved and not r.stable)
        failed = sum(1 for r in reports if not r.solved)
        print(f"{len(reports)} scenarios: {unstable} unstable, {failed} unsolved")
    return 0


# scr.csv, one row per scr.ScrReport
_SCR_COLUMNS = {name: name for name in ("case", "scr_o", "scr_sc_theory", "scr_sc_sim", "rel_dev")}


def _cmd_scr(scenario: Scenario, args, out_dir: str) -> int:
    reports = enhancement_report(base=scenario)
    _write_records(os.path.join(out_dir, "scr.csv"), _SCR_COLUMNS, reports)
    if args.verbose:
        for r in reports:
            print(f"{r.case}: theory {r.scr_sc_theory:.4f}, "
                  f"simulated {r.scr_sc_sim:.4f} ({r.rel_dev:+.2%})")
    return 0


def _cmd_fault(scenario: Scenario, args, out_dir: str) -> int:
    model = build_model(scenario)
    eq = solve_equilibrium(model, refs_for(scenario))
    ts = integrate(
        model, eq.state, eq.refs, t_end=scenario.t_end, dt=scenario.dt, events=scenario.events
    )
    _write_series(os.path.join(out_dir, "fault.csv"), ts)
    if args.verbose:
        print(f"{len(ts.t)} samples over {ts.t[-1]:.4f} s")
    return _series_exit(ts)


# (flag, add_argument keywords); every subcommand takes the common options
_COMMON_OPTIONS = (
    ("--config", dict(default=None, help="scenario JSON (or a written manifest.json)")),
    ("--out", dict(default=".", help="output directory (created if missing)")),
    ("--set", dict(action="append", default=[], metavar="KEY=VALUE", dest="overrides",
                   help="override a config entry after file parsing; repeatable")),
    ("--verbose", dict(action="store_true", help="print run summaries")),
)
_JOBS = ("--jobs", dict(type=int, default=1, help="sweep workers, one model group each"))
_DUMP_A = ("--dump-a", dict(action="store_true", help="also write the state matrix as a_matrix.csv"))

# name: (help, handler, the options only it takes)
_SUBCOMMANDS = {
    "steady": ("solve the operating point and dump the state vector", _cmd_steady, ()),
    "eig": ("eigenvalues, damping ratios and dominant states", _cmd_eig, (_DUMP_A,)),
    "step": ("linear step response of the configured reference channel", _cmd_step, ()),
    "sweep": ("stability classification over the full case/op/control grid", _cmd_sweep, (_JOBS,)),
    "scr": ("short-circuit ratio enhancement: closed form vs fault simulation", _cmd_scr, ()),
    "fault": ("nonlinear time-domain run with the configured event schedule", _cmd_fault, ()),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parse_args leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="wppsc",
        description="Small-signal stability and short-circuit-strength analysis "
        "of an aggregated offshore wind power plant with a synchronous condenser.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag, kwargs in _COMMON_OPTIONS + options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")  # exits 2
    logging.basicConfig()  # a stderr handler, unless the root logger has one already
    # set on every call: basicConfig leaves the level alone once a handler exists
    logging.getLogger().setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        scenario = _load_scenario(args.config, args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir, made = args.out, []  # the levels of --out this run makes, deepest first
    level = os.path.abspath(out_dir)
    while not os.path.lexists(level):
        made.append(level)
        level = os.path.dirname(level)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # a file at or above the path
        print(f"argument --out: cannot make directory {out_dir!r}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        code = args.handler(scenario, args, out_dir)
    except (ConfigError, ScheduleError) as exc:
        where = "events: " if isinstance(exc, ScheduleError) else ""
        print(f"config error: {where}{exc}", file=sys.stderr)
        for level in made:  # empty: a handler checks its configuration before it writes
            os.rmdir(level)
        return 2
    except SolveError as exc:
        print(f"equilibrium solve failed: {exc}", file=sys.stderr)
        code = 3
    except MeasurementInvalid as exc:
        print(f"short-circuit ratio fault measurement invalid: {exc}", file=sys.stderr)
        code = 4
    # a run that got past its configuration records it, failed or not
    _write_manifest(out_dir, args.command, to_dict(scenario))
    return code


if __name__ == "__main__":
    sys.exit(main())
