"""Command-line entry point: scenario JSON in, CSV artifacts + manifest out.

Every subcommand resolves its configuration (file, then --set overrides,
then defaults), writes the fully-resolved form to manifest.json in the
output directory, and emits its artifact as CSV with a header row, '.'
decimal separator and LF line endings. Re-running a subcommand against a
written manifest reproduces the artifacts byte for byte.

Exit codes: 0 success, 2 configuration error, 3 equilibrium solver failure,
4 simulation divergence (partial series still written).
"""

import argparse
import csv
import functools
import json
import logging
import os
import sys
from typing import Optional, Sequence

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
from .powerflow import InfeasibleError, NonConvergenceError, solve_equilibrium
from .scr import enhancement_report
from .sim import TimeSeries, integrate

_SUBCOMMANDS = {
    "steady": "solve the operating point and dump the state vector",
    "eig": "eigenvalues, damping ratios and dominant states",
    "step": "linear step response of the configured reference channel",
    "sweep": "stability classification over the full case/op/control grid",
    "scr": "short-circuit ratio enhancement: closed form vs fault simulation",
    "fault": "nonlinear time-domain run with the configured event schedule",
}

# linear response channels by stepped reference
_STEP_CHANNEL_MAP = {"p_star": "power", "v_turb_star": "voltage", "q_star": "voltage"}


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


def _write_manifest(out_dir: str, subcommand: str, resolved: dict) -> None:
    payload = {"version": __version__, "subcommand": subcommand, "config": resolved}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_scenario(config_path: Optional[str], overrides: Sequence[str]) -> Scenario:
    raw = load_config(config_path) if config_path else {}
    if isinstance(raw, dict) and set(raw) == {"version", "subcommand", "config"}:
        # a previously written manifest: rerun from its resolved config
        raw = raw["config"]
    raw = apply_overrides(raw, overrides)
    return parse_scenario(raw)


def _write_series(path: str, ts: TimeSeries) -> None:
    names = list(ts.columns)
    header = ["t"] + names
    cols = [ts.t] + [ts.columns[name] for name in names]
    rows = (tuple(col[i] for col in cols) for i in range(len(ts.t)))
    _write_csv(path, header, rows)


def _series_exit(ts: TimeSeries) -> int:
    if ts.diverged or ts.aborted:
        print(f"simulation diverged: {ts.note}", file=sys.stderr)
        return 4
    return 0


def _cmd_steady(scenario: Scenario, args, out_dir: str) -> int:
    model = build_model(scenario)
    eq = solve_equilibrium(model, refs_for(scenario))
    rows = list(zip(model.labels, eq.state))
    if model.has_sc:
        rows.append(("phi_sc", eq.phi_sc))
    if eq.q_star is not None:
        rows.append(("q_star", eq.q_star))
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
    rows = [
        (key, r.re, r.im, r.freq_hz, r.damping, ";".join(r.dominant_states))
        for r in records
    ]
    _write_csv(
        os.path.join(out_dir, "eigs.csv"),
        ("scenario", "re", "im", "freq_hz", "damping", "dominant_states"),
        rows,
    )
    if args.dump_a:
        header = ["state"] + list(ss.state_labels)
        a_rows = [(lab,) + tuple(ss.a[i]) for i, lab in enumerate(ss.state_labels)]
        _write_csv(os.path.join(out_dir, "a_matrix.csv"), header, a_rows)
    if args.verbose:
        worst = max(records, key=lambda r: r.re)
        print(f"{len(records)} modes, max Re = {worst.re:.4f}")
    return 0


def _step_request(scenario: Scenario) -> tuple[str, float]:
    """Channel and magnitude for the linear step: the first step_ref event,
    or a 1e-3 pu power step when the schedule has none."""
    for i, ev in enumerate(scenario.events):
        if ev.kind != "step_ref":
            continue
        channel = _STEP_CHANNEL_MAP.get(ev.channel)
        if channel is None:
            raise ConfigError(
                f"events.{i}.channel",
                f"the step subcommand supports {sorted(_STEP_CHANNEL_MAP)}, got {ev.channel!r}",
            )
        return channel, ev.delta
    return "power", 1e-3


def _cmd_step(scenario: Scenario, args, out_dir: str) -> int:
    channel, magnitude = _step_request(scenario)
    model = build_model(scenario)
    eq = solve_equilibrium(model, refs_for(scenario))
    ss = linearize(model, eq.state, eq.refs)
    ts = step_response(ss, channel, magnitude, t_end=scenario.t_end, dt=scenario.dt)
    _write_series(os.path.join(out_dir, "step.csv"), ts)
    if args.verbose:
        print(f"channel {channel}, magnitude {magnitude!r}, {len(ts.t)} samples")
    return _series_exit(ts)


def _cmd_sweep(scenario: Scenario, args, out_dir: str) -> int:
    reports = sweep(base=scenario, jobs=args.jobs)
    rows = [
        (
            r.scenario_key,
            r.grid_case,
            r.control,
            r.with_sc,
            r.op.v_g_ref,
            r.op.v_turb_ref,
            r.op.p_turb_ref,
            r.solved,
            r.stable,
            r.max_re,
            r.min_damping_below_100hz,
            len(r.poorly_damped_near_sync),
            r.null_modes_filtered,
            r.failure,
        )
        for r in reports
    ]
    _write_csv(
        os.path.join(out_dir, "sweep.csv"),
        (
            "scenario",
            "grid_case",
            "control",
            "with_sc",
            "v_g_ref",
            "v_turb_ref",
            "p_turb_ref",
            "solved",
            "stable",
            "max_re",
            "min_damping_below_100hz",
            "poorly_damped_near_sync",
            "null_modes_filtered",
            "failure",
        ),
        rows,
    )
    if args.verbose:
        unstable = sum(1 for r in reports if r.solved and not r.stable)
        failed = sum(1 for r in reports if not r.solved)
        print(f"{len(reports)} scenarios: {unstable} unstable, {failed} unsolved")
    return 0


def _cmd_scr(scenario: Scenario, args, out_dir: str) -> int:
    rows = [
        (r.case, r.scr_o, r.scr_sc_theory, r.scr_sc_sim, r.rel_dev)
        for r in enhancement_report(base=scenario)
    ]
    _write_csv(
        os.path.join(out_dir, "scr.csv"),
        ("case", "scr_o", "scr_sc_theory", "scr_sc_sim", "rel_dev"),
        rows,
    )
    if args.verbose:
        for case, _, theory, sim, dev in rows:
            print(f"{case}: theory {theory:.4f}, simulated {sim:.4f} ({dev:+.2%})")
    return 0


def _cmd_fault(scenario: Scenario, args, out_dir: str) -> int:
    model = build_model(scenario)
    eq = solve_equilibrium(model, refs_for(scenario))
    ts = integrate(
        model,
        eq.state,
        eq.refs,
        t_end=scenario.t_end,
        dt=scenario.dt,
        events=scenario.events,
        meta=scenario_key(scenario),
    )
    _write_series(os.path.join(out_dir, "fault.csv"), ts)
    if args.verbose:
        print(f"{len(ts.t)} samples over {ts.t[-1]:.4f} s")
    return _series_exit(ts)


_HANDLERS = {
    "steady": _cmd_steady,
    "eig": _cmd_eig,
    "step": _cmd_step,
    "sweep": _cmd_sweep,
    "scr": _cmd_scr,
    "fault": _cmd_fault,
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
    for name, help_text in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="scenario JSON (or a written manifest.json)")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override a config entry after file parsing; repeatable",
        )
        p.add_argument("--jobs", type=int, default=None, help="sweep workers, one model group each")
        p.add_argument("--verbose", action="store_true", help="print run summaries")
        if name == "eig":
            p.add_argument(
                "--dump-a",
                action="store_true",
                dest="dump_a",
                help="also write the state matrix as a_matrix.csv",
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        scenario = _load_scenario(args.config, args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, args.command, to_dict(scenario))
    try:
        return _HANDLERS[args.command](scenario, args, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, NonConvergenceError) as exc:
        print(f"equilibrium solve failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
