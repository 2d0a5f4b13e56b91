"""End-to-end checks of the command-line interface: artifact schemas, the
manifest round trip, exit codes, and the shipped preset files."""

import csv
import json
from importlib import resources

import pytest

import wppsc
from wppsc.analysis import eigenvalues
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


def test_config_error_exit_2_names_key(tmp_path, capsys):
    code, _ = run(tmp_path, "steady", "--set", "grid.scr=-1")
    assert code == 2
    assert "grid.scr" in capsys.readouterr().err


def test_unknown_key_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "eig", "--set", "turbo=1")
    assert code == 2
    assert "turbo" in capsys.readouterr().err


def test_solver_failure_exit_3(tmp_path, capsys):
    code, out = run(
        tmp_path, "steady", "--set", "grid.scr=0.2", "--set", "grid.x_r=5.0",
        "--set", "op.p_turb_ref=1.0",
    )
    assert code == 3
    assert capsys.readouterr().err.strip()
    # provenance is still recorded for the failed run
    assert (out / "manifest.json").exists()


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


def test_step_takes_channel_from_first_step_event(tmp_path):
    events = '[{"kind": "step_ref", "t": 0.0, "channel": "v_turb_star", "delta": 0.02}]'
    code, out = run(
        tmp_path, "step", "--set", 'control={"type": "gfm"}',
        "--set", f"events={events}",
        "--set", "sim.t_end=0.5", "--set", "sim.dt=0.0001",
    )
    assert code == 0
    _, rows = read_csv(out / "step.csv")
    # voltage magnitude settles toward the commanded 0.02 pu rise
    assert float(rows[-1][2]) == pytest.approx(0.02, rel=0.05)


def test_step_rejects_unsupported_channel(tmp_path, capsys):
    events = '[{"kind": "step_ref", "t": 0.0, "channel": "v_g_ref", "delta": 0.05}]'
    code, _ = run(tmp_path, "step", "--set", f"events={events}")
    assert code == 2
    assert "events.0.channel" in capsys.readouterr().err


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
    # dt far beyond the stiff-mode stability limit blows the integration up
    code, out = run(
        tmp_path, "fault", "--config", preset_path("normal"),
        "--set", "sim.dt=0.001", "--set", "sim.t_end=0.5",
    )
    assert code == 4
    assert "diverged" in capsys.readouterr().err
    _, rows = read_csv(out / "fault.csv")
    assert 1 < len(rows) < 501
    assert (out / "manifest.json").exists()


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    code = main([
        "eig", "--config", preset_path("weak"), "--out", str(out_a),
        "--set", "op.p_turb_ref=0.5", "--dump-a",
    ])
    assert code == 0
    out_b = tmp_path / "b"
    code = main(["eig", "--config", str(out_a / "manifest.json"), "--out", str(out_b), "--dump-a"])
    assert code == 0
    for name in ("eigs.csv", "a_matrix.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_grid_case_presets_match_library(tmp_path):
    for case in ("weak", "normal", "strong"):
        raw = json.loads(open(preset_path(case)).read())
        assert parse_scenario(raw) == preset_scenario(case)


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
