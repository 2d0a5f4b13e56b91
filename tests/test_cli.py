"""End-to-end checks of the command-line interface: artifact schemas, the
manifest round trip, exit codes, and the shipped preset files."""

import csv
import json
import logging
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import wppsc
from wppsc.analysis import eigenvalues, step_response, sweep
from wppsc.cli import main
from wppsc.config import (
    OP_GRID_VALUES,
    build_model,
    parse_scenario,
    preset_scenario,
    refs_for,
    scenario_key,
    to_dict,
)
from wppsc.linearize import linearize
from wppsc.powerflow import solve_equilibrium
from wppsc.sim import DERIVED_SIGNALS


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([argv[0], "--out", str(out), *argv[1:]])
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def csv_cell(value):
    """The text the CLI writes for a value: shortest round-trip floats,
    lower-case booleans, an empty cell for a missing value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value)) if isinstance(value, float) else str(value)


def preset_path(name):
    return str(resources.files("wppsc").joinpath(f"presets/{name}.json"))


def test_steady_csv_and_manifest(tmp_path):
    code, out = run(tmp_path, "steady")
    assert code == 0
    header, rows = read_csv(out / "steady.csv")
    assert header == ["label", "value"]
    model = build_model(parse_scenario({}))
    labels = [r[0] for r in rows]
    assert labels[: model.n] == list(model.labels)
    # the default scenario solves both auxiliary unknowns
    assert "phi_sc" in labels and "q_star" in labels
    for _, value in rows:
        float(value)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == wppsc.__version__
    assert manifest["subcommand"] == "steady"
    assert manifest["config"] == to_dict(parse_scenario({}))


def test_csv_line_endings_are_lf(tmp_path):
    code, out = run(tmp_path, "steady")
    assert code == 0
    blob = (out / "steady.csv").read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")


def test_manifest_echoes_overrides(tmp_path):
    code, out = run(tmp_path, "steady", "--set", "grid.scr=2.5", "--set", "op.p_turb_ref=0.3")
    assert code == 0
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert cfg["grid"]["scr"] == 2.5
    assert cfg["op"]["p_turb_ref"] == 0.3
    expected = to_dict(parse_scenario({"grid": {"scr": 2.5, "x_r": 14.8}, "op": {"p_turb_ref": 0.3}}))
    expected["grid"] = cfg["grid"]  # x_r default comes from the empty base here
    assert cfg["op"] == expected["op"]


def test_successive_calls_keep_their_own_overrides(tmp_path):
    # the parser is built once; no --set value of one call reaches the next
    def config_of(name, *overrides):
        out = tmp_path / name
        assert main(["steady", "--out", str(out), *overrides]) == 0
        return json.loads((out / "manifest.json").read_text())["config"]

    power = config_of("power", "--set", "op.p_turb_ref=0.3")
    grid = config_of("grid", "--set", "grid.scr=2.5")
    plain = config_of("plain")
    assert power["op"]["p_turb_ref"] == 0.3 and power["grid"] == plain["grid"]
    assert grid["grid"]["scr"] == 2.5 and grid["op"] == plain["op"]
    assert plain["op"]["p_turb_ref"] != 0.3 and plain["grid"]["scr"] != 2.5


def test_verbose_sets_the_log_level_on_every_call(tmp_path):
    root = logging.getLogger()
    saved = root.level
    levels = []
    try:
        for flags in ((), ("--verbose",), ()):
            assert main(["steady", "--out", str(tmp_path), *flags]) == 0
            levels.append(root.level)
    finally:
        root.setLevel(saved)
    assert levels == [logging.WARNING, logging.INFO, logging.WARNING]


def test_verbose_steady_names_a_start_taken_without_newton(tmp_path, capsys):
    # the passive plant's closed-form start meets the target as it stands;
    # a converter plant's start is certified by one Newton step
    root = logging.getLogger()
    saved = root.level
    try:
        for control, expected in (("none", r"closed-form start met the target, residual \d\.\d{3}e-1\d"),
                                  ("gfl", r"converged in 1 iterations, residual \d\.\d{3}e-1\d")):
            code, _ = run(tmp_path, "steady", "--set", f'control={{"type": "{control}"}}', "--verbose")
            assert code == 0
            out = capsys.readouterr().out
            assert re.fullmatch(expected + "\n", out), out
    finally:
        root.setLevel(saved)


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["directory", "not-utf8"])
def test_unreadable_config_exit_2(tmp_path, capsys, content):
    path = tmp_path / "case.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out = run(tmp_path, "steady", "--config", str(path))
    assert code == 2
    assert f"config error: {path}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", ["[1, 2]", '"x"'])
def test_non_object_config_exit_2_names_file(tmp_path, capsys, content):
    path = tmp_path / "case.json"
    path.write_text(content)
    code, out = run(tmp_path, "steady", "--config", str(path))
    assert code == 2
    assert f"config error: {path}: config must be an object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_out_on_a_file_exit_2(tmp_path, capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker / "sub" if below else blocker
    code = main(["steady", "--out", str(out)])
    assert code == 2
    assert "argument --out" in capsys.readouterr().err
    assert blocker.read_text() == "keep" and os.listdir(tmp_path) == ["taken"]


def test_handler_config_error_leaves_no_out_directory(tmp_path, capsys):
    # a schedule error is found by the fault handler, after --out was made:
    # the levels of --out the run made go, a directory that existed stays
    events = 'events=[{"t": 0.01, "kind": "fault_off", "bus": "pcc"}]'
    out = tmp_path / "made" / "deep"
    assert main(["fault", "--set", events, "--out", str(out)]) == 2
    assert "config error: events: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "old.csv").write_text("keep")
    assert main(["fault", "--set", events, "--out", str(kept)]) == 2
    assert os.listdir(kept) == ["old.csv"] and (kept / "old.csv").read_text() == "keep"


def test_config_error_exit_2_names_key(tmp_path, capsys):
    code, _ = run(tmp_path, "steady", "--set", "grid.scr=-1")
    assert code == 2
    assert "grid.scr" in capsys.readouterr().err


# (override, section the error is keyed by, field its message names)
_UNBUILDABLE = [
    ('grid={"r": 0.02}', "grid", "x"),
    ("grid.x=-0.3", "grid", "x"),
    ("grid.x_r=0", "grid", "x"),
    ("network.x_cf=0", "network", "x_cf"),
    ("network.xf=0", "network", "xf"),
    ("network.x_cf=-15", "network", "x_cf"),
    ("network.xa=-0.01", "network", "xa"),
    # > 0, but subnormal: the L or C each gives has an infinite reciprocal
    ("network.xf=1e-320", "network", "xf"),
    ("network.c_pcc=1e-320", "network", "c_pcc"),
    ('network={"xa": 0, "xtf": 1e-320}', "network", "xa + xtf"),
    ("sc.x_sub=1e-320", "sc", "x_sub"),
    ('grid={"r": 0.001, "x": 1e-320}', "grid", "x"),
    ("grid.x_r=1e-310", "grid", "x"),
]


@pytest.mark.parametrize(
    "override, key, field", _UNBUILDABLE, ids=[f"{o}-{k}" for o, k, _ in _UNBUILDABLE]
)
def test_unbuildable_plant_exit_2_before_manifest(tmp_path, capsys, override, key, field):
    # each passes the config reader's type checks but leaves the grid branch
    # without reactance or a network field out of its range; the message
    # names the field as the config spells it
    code, out = run(tmp_path, "steady", "--set", override)
    assert code == 2
    assert f"config error: {key}: {key} {field} must be " in capsys.readouterr().err
    assert not out.exists()


def test_integer_beyond_float_range_exit_2(tmp_path, capsys):
    code, out = run(tmp_path, "steady", "--set", "op.p_turb_ref=1" + "0" * 400)
    assert code == 2
    assert "config error: op.p_turb_ref: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_t_end_below_dt_exit_2(tmp_path, capsys):
    # each is in range alone; together the step response has no step to take
    code, out = run(tmp_path, "step", "--set", "sim.t_end=1e-5", "--set", "sim.dt=1e-4")
    assert code == 2
    assert "config error: sim: t_end must be >= dt" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "eig", "--set", "turbo=1")
    assert code == 2
    assert "turbo" in capsys.readouterr().err


@pytest.mark.parametrize("events, message", [
    ('[{"t": 0.01, "kind": "fault_off", "bus": "pcc"}]', "fault_off at t=0.01 without a matching fault_on"),
    ('[{"t": 0.01, "kind": "fault_on", "bus": "pcc", "r_fault": 0.1}, '
     '{"t": 0.02, "kind": "fault_on", "bus": "wt_mv", "r_fault": 0.1}]', "while a fault is already active"),
    ('[{"t": 0.0, "kind": "step_ref", "channel": "v_turb_star", "delta": 0.1}]', "does not read"),
    # past the horizon (t_end 0.03) a schedule is as invalid as within it
    ('[{"t": 0.5, "kind": "fault_off", "bus": "pcc"}]', "fault_off at t=0.5 without a matching fault_on"),
    ('[{"t": 0.5, "kind": "step_ref", "channel": "v_turb_star", "delta": 0.1}]', "does not read"),
], ids=["orphan_off", "overlapping_on", "unread_step", "late_orphan_off", "late_unread_step"])
def test_invalid_event_schedule_exit_2(tmp_path, capsys, events, message):
    code, out = run(tmp_path, "fault", "--set", f"events={events}", "--set", "sim.t_end=0.03")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: events: ") and message in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_solver_failure_exit_3(tmp_path, capsys):
    code, out = run(
        tmp_path, "steady", "--set", "grid.scr=0.2", "--set", "grid.x_r=5.0",
        "--set", "op.p_turb_ref=1.0",
    )
    assert code == 3
    assert capsys.readouterr().err.strip()
    # provenance is still recorded for the failed run
    assert (out / "manifest.json").exists()


def test_solved_point_outside_the_voltage_band_exit_3_says_so(tmp_path, capsys):
    # the passive plant with the condenser EMF shorted solves, to rounding,
    # at |v_c| below the band: the error names the point, its magnitude and
    # the band, and does not call the residual stuck
    code, out = run(tmp_path, "steady", "--set", "control.type=none", "--set", "sc.e_mag=0")
    assert code == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"equilibrium solve failed: the solved point \(residual \d\.\d{3}e-1\d\) is outside"
                        r" the voltage sanity band \(\|v_c\| = 0\.487 pu, band \(0\.5, 1\.5\)\)\n", err)
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("x_cf", ["1e-20", "1e-300"])
def test_singular_start_is_a_solver_failure_exit_3(tmp_path, capsys, x_cf):
    # the config accepts the filter capacitor, but the start's least-squares
    # system for the controller integrators is singular; Newton rejects the
    # member instead of the solve raising
    code, out = run(tmp_path, "steady", "--set", f"network.x_cf={x_cf}")
    assert code == 3
    assert capsys.readouterr().err.startswith("equilibrium solve failed: ")
    assert (out / "manifest.json").exists()


def test_unsettled_scr_measurement_exit_4(tmp_path, capsys):
    # a valid plant whose bolted-fault current is still moving at the end of
    # the window: the measurement is rejected, not reported, and not a crash
    code, out = run(tmp_path, "scr", "--set", "network.xa=2")
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("short-circuit ratio fault measurement invalid: fault current drifted ")
    assert "weak" in err
    assert "Traceback" not in err
    assert (out / "manifest.json").exists()
    assert not (out / "scr.csv").exists()


def test_eig_csv_matches_library(tmp_path):
    code, out = run(tmp_path, "eig", "--config", preset_path("normal"))
    assert code == 0
    header, rows = read_csv(out / "eigs.csv")
    assert header == ["scenario", "re", "im", "freq_hz", "damping", "dominant_states"]
    s = preset_scenario("normal")
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    records = eigenvalues(linearize(model, eq.state, eq.refs))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert row[0] == scenario_key(s)
        assert float(row[1]) == rec.re
        assert float(row[2]) == rec.im
        assert float(row[3]) == rec.freq_hz
        if row[4] == "":
            assert rec.damping is None
        else:
            assert float(row[4]) == rec.damping
        assert tuple(row[5].split(";")) == rec.dominant_states


def test_eig_dump_a_round_trips(tmp_path):
    code, out = run(tmp_path, "eig", "--config", preset_path("weak"), "--dump-a")
    assert code == 0
    header, rows = read_csv(out / "a_matrix.csv")
    s = preset_scenario("weak")
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    ss = linearize(model, eq.state, eq.refs)
    assert header == ["state"] + list(ss.state_labels)
    assert [r[0] for r in rows] == list(ss.state_labels)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row[1:]):
            assert float(cell) == ss.a[i, j]


def test_step_csv_schema(tmp_path):
    code, out = run(
        tmp_path, "step", "--set", "sim.t_end=0.05", "--set", "sim.dt=0.0001"
    )
    assert code == 0
    header, rows = read_csv(out / "step.csv")
    assert header == ["t", "p_pc", "v_c_mag", "q_pc"]
    assert len(rows) == 501
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(0.05)
    # a power step actually moves delivered power
    assert abs(float(rows[-1][1])) > 0.0


def step_event(ref, delta):
    return f'events=[{{"kind": "step_ref", "t": 0.0, "channel": "{ref}", "delta": {delta}}}]'


def test_step_takes_channel_from_first_step_event(tmp_path):
    code, out = run(
        tmp_path, "step", "--set", 'control={"type": "gfm"}',
        "--set", step_event("v_turb_star", 0.02),
        "--set", "sim.t_end=0.5", "--set", "sim.dt=0.0001",
    )
    assert code == 0
    _, rows = read_csv(out / "step.csv")
    # voltage magnitude settles toward the commanded 0.02 pu rise
    assert float(rows[-1][2]) == pytest.approx(0.02, rel=0.05)
    # the default plant (GFL, reactive q channel) steps the q_star it reads
    code, out = run(tmp_path / "q", "step", "--set", step_event("q_star", 0.02), "--set", "sim.t_end=0.05")
    assert code == 0
    header, rows = read_csv(out / "step.csv")
    s = parse_scenario({"sim": {"t_end": 0.05}})
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    ts = step_response(linearize(model, eq.state, eq.refs), "q_star", 0.02, t_end=s.t_end, dt=s.dt)
    assert len(rows) == ts.t.size
    for j, name in enumerate(header[1:], 1):
        assert [float(r[j]) for r in rows] == ts.columns[name].tolist()


def test_step_rejects_unsupported_channel(tmp_path, capsys):
    # a reference the plant does not read (the default GFL plant reads
    # q_star, not v_turb_star) and the passive plant, which has no p_star
    # for the default step: exit 2, and neither step.csv nor a manifest
    for override, key in ((step_event("v_turb_star", 0.02), "events.0.channel"),
                          ("control.type=none", "control.type")):
        code, out = run(tmp_path, "step", "--set", override)
        assert code == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not (out / "step.csv").exists() and not (out / "manifest.json").exists()


def test_step_on_v_g_ref_of_the_passive_plant(tmp_path):
    # every plant reads v_g_ref, the passive plant only that: its step is
    # the linear response to the grid source
    code, out = run(tmp_path, "step", "--set", 'control={"type": "none"}',
                    "--set", step_event("v_g_ref", 0.05), "--set", "sim.t_end=0.01")
    assert code == 0
    header, rows = read_csv(out / "step.csv")
    assert header[0] == "t" and len(rows) == 201
    assert any(float(cell) != 0.0 for cell in rows[-1][1:])


def test_sweep_csv_full_grid(tmp_path):
    code, out = run(tmp_path, "sweep")
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header[:4] == ["scenario", "grid_case", "control", "with_sc"]
    assert header[-1] == "failure"
    assert len(rows) == 324
    keys = [r[0] for r in rows]
    assert len(set(keys)) == 324
    assert {r[1] for r in rows} == {"weak", "normal", "strong"}
    assert all(r[7] == "true" for r in rows)  # every point solved
    stable = {r[8] for r in rows}
    assert stable <= {"true", "false"} and "false" in stable
    # every cell is its own report's field, found by the column's header
    reports = sweep(base=parse_scenario({}))
    assert keys == [r.scenario_key for r in reports]
    for row, r in zip(rows, reports):
        expected = {
            "scenario": r.scenario_key,
            "grid_case": r.grid_case,
            "control": r.control,
            "with_sc": r.with_sc,
            "v_g_ref": r.op.v_g_ref,
            "v_turb_ref": r.op.v_turb_ref,
            "p_turb_ref": r.op.p_turb_ref,
            "solved": r.solved,
            "stable": r.stable,
            "max_re": r.max_re,
            "min_damping_below_100hz": r.min_damping_below_100hz,
            "poorly_damped_near_sync": len(r.poorly_damped_near_sync),
            "null_modes_filtered": r.null_modes_filtered,
            "failure": r.failure,
        }
        assert len(row) == len(header)
        for name, text in zip(header, row):
            assert text == csv_cell(expected[name]), (r.scenario_key, name)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "sweep", "--jobs", jobs)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before the manifest


@pytest.mark.parametrize("command", ["steady", "eig", "step", "scr", "fault"])
def test_jobs_is_a_usage_error_outside_sweep(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "--jobs", "2")
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scr_csv(tmp_path):
    code, out = run(tmp_path, "scr")
    assert code == 0
    header, rows = read_csv(out / "scr.csv")
    assert header == ["case", "scr_o", "scr_sc_theory", "scr_sc_sim", "rel_dev"]
    assert [r[0] for r in rows] == ["weak", "normal", "strong"]
    for _, scr_o, theory, sim, dev in rows:
        assert float(theory) > float(scr_o)
        assert float(dev) == pytest.approx(
            (float(sim) - float(theory)) / float(theory), rel=1e-12
        )


def test_fault_csv_columns(tmp_path):
    code, out = run(
        tmp_path, "fault", "--config", preset_path("weak"),
        "--set", 'control={"type": "none"}',
        "--set", "sim.t_end=0.05", "--set", "sim.dt=0.0001",
    )
    assert code == 0
    header, rows = read_csv(out / "fault.csv")
    model = build_model(parse_scenario({"grid": {"scr": 1.6, "x_r": 5.0}, "control": {"type": "none"}}))
    assert header == ["t"] + list(model.labels) + list(DERIVED_SIGNALS)
    assert len(rows) == 501


def test_fault_divergence_exit_4_keeps_partial_series(tmp_path, capsys):
    # weak/GFL without the condenser at dt 1e-3, far past the step the
    # converter's control loops resolve, blows the integration up
    code, out = run(
        tmp_path, "fault", "--config", preset_path("weak"), "--set", "sc.enabled=false",
        "--set", "sim.dt=0.001", "--set", "sim.t_end=0.5",
    )
    assert code == 4
    assert "diverged" in capsys.readouterr().err
    _, rows = read_csv(out / "fault.csv")
    assert 1 < len(rows) < 501
    assert (out / "manifest.json").exists()


# flags each run of a subcommand takes, and overrides only the first run sets
_RERUN = {
    "steady": ([], []),
    "eig": (["--dump-a"], []),
    "step": ([], ["--set", "sim.t_end=0.05"]),
    "sweep": ([], []),
    "scr": ([], []),
    "fault": ([], ["--set", "sim.t_end=0.02"]),
}


@pytest.mark.parametrize("command", list(_RERUN))
def test_rerun_from_manifest_is_byte_identical(tmp_path, command):
    flags, overrides = _RERUN[command]
    out_a = tmp_path / "a"
    code = main([
        command, "--config", preset_path("weak"), "--out", str(out_a),
        "--set", "op.p_turb_ref=0.5", *overrides, *flags,
    ])
    assert code == 0
    out_b = tmp_path / "b"
    code = main([command, "--config", str(out_a / "manifest.json"), "--out", str(out_b), *flags])
    assert code == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b)) and "manifest.json" in names and len(names) > 1
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_grid_case_presets_match_library(tmp_path):
    for case in ("weak", "normal", "strong"):
        raw = json.loads(open(preset_path(case)).read())
        assert parse_scenario(raw) == preset_scenario(case)


def test_grid_case_presets_are_the_resolved_form():
    for case in ("weak", "normal", "strong"):
        text = json.dumps(to_dict(preset_scenario(case)), indent=2) + "\n"
        with open(preset_path(case), encoding="utf-8") as fh:
            assert fh.read() == text


def test_operating_grid_preset_contents():
    raw = json.loads(open(preset_path("ops_grid")).read())
    assert raw == {k: list(v) for k, v in OP_GRID_VALUES.items()}


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_out_directory_created_deep(tmp_path):
    nested = tmp_path / "x" / "y" / "z"
    code = main(["steady", "--out", str(nested)])
    assert code == 0
    assert (nested / "steady.csv").exists()


_IMPORT_GUARD = """
import sys
from wppsc import cli

for argv in (["steady"], ["eig"], ["sweep"], ["sweep", "--jobs", "1"]):
    assert cli.main([argv[0], "--out", sys.argv[1], *argv[1:]]) == 0, argv
print("\\n".join(m for m in sys.modules
                 if m.split(".")[0] in ("scipy", "multiprocessing")
                 or m.startswith("concurrent.futures")))
"""


def test_cli_runs_without_loading_scipy_or_the_process_pool(tmp_path):
    # a fresh interpreter: the modules loaded by the import and by the
    # commands that need neither scipy nor a worker pool
    src = Path(wppsc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
