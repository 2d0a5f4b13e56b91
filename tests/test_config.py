"""Config parsing, serialization round-trips, and override handling."""

import json

import pytest

from wppsc.components import GFL, GFM, Q_MODE_VOLTAGE
from wppsc.config import (
    GRID_CASES,
    OP_GRID_VALUES,
    ConfigError,
    OperatingPoint,
    Scenario,
    apply_overrides,
    load_config,
    parse_scenario,
    preset_scenario,
    scenario_key,
    standard_operating_points,
    to_dict,
)
from wppsc.netbase import GridCase, Impedance


FULL = {
    "name": "case-a",
    "grid": {"scr": 1.6, "x_r": 5.0},
    "control": {
        "type": "gfm",
        "q_channel_mode": "reactive",
        "gains": {"j_vsm": 0.25, "d_p": 40.0},
    },
    "sc": {"enabled": True, "x_sub": 0.2, "r_tr": 0.05, "x_tr": 0.12, "e_mag": 1.0},
    "network": {"ra": 0.007, "xa": 0.04},
    "op": {"v_g_ref": 1.08, "v_turb_ref": 0.92, "p_turb_ref": 0.5},
    "sim": {"dt": 1e-4, "t_end": 1.5},
    "events": [
        {"kind": "fault_on", "t": 0.1, "bus": "pcc", "r_fault": 0.5},
        {"kind": "fault_off", "t": 0.2, "bus": "pcc"},
        {"kind": "step_ref", "t": 0.5, "channel": "p_star", "delta": -0.1},
    ],
}


def test_parse_full_config():
    s = parse_scenario(FULL)
    assert s.name == "case-a"
    assert s.grid == GridCase(scr=1.6, x_r=5.0)
    assert s.control == GFM
    assert s.gfm.j_vsm == 0.25
    assert s.gfm.d_p == 40.0
    # unspecified gains keep their defaults
    assert s.gfm.kp_v == 2.0
    assert s.with_sc is True and s.sc.x_sub == 0.2
    assert s.network.ra == 0.007 and s.network.rf == 0.005
    assert s.op == OperatingPoint(1.08, 0.92, 0.5)
    assert s.dt == 1e-4 and s.t_end == 1.5
    assert len(s.events) == 3 and s.events[2].delta == -0.1


def test_round_trip_is_lossless():
    s = parse_scenario(FULL)
    d = to_dict(s)
    assert parse_scenario(d) == s
    # the resolved dict is a fixpoint
    assert to_dict(parse_scenario(d)) == d
    # and is JSON-serializable as-is
    json.dumps(d)


def test_round_trip_defaults():
    s = parse_scenario({})
    assert s == Scenario()
    assert parse_scenario(to_dict(s)) == s


def test_explicit_impedance_grid():
    s = parse_scenario({"grid": {"r": 0.02, "x": 0.3}})
    assert s.grid == Impedance(r=0.02, x=0.3)
    assert parse_scenario(to_dict(s)) == s


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError) as e:
        parse_scenario({"turbo": 1})
    assert e.value.key == "turbo"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"sc": {"enable": True}})
    assert e.value.key == "sc.enable"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"control": {"type": "gfl", "gains": {"d_p": 1.0}}})
    assert e.value.key == "control.gains.d_p"


def test_bad_grid_strength_names_dotted_path():
    with pytest.raises(ConfigError) as e:
        parse_scenario({"grid": {"scr": -1.0}})
    assert e.value.key == "grid.scr"
    assert "grid.scr" in str(e.value)


def test_value_validation():
    with pytest.raises(ConfigError):
        parse_scenario({"op": {"v_g_ref": 1.5}})
    with pytest.raises(ConfigError) as e:
        parse_scenario({"control": {"type": "vsc"}})
    assert e.value.key == "control.type"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"control": {"type": "gfl", "q_channel_mode": "bananas"}})
    assert e.value.key == "control.q_channel_mode"
    with pytest.raises(ConfigError):
        parse_scenario({"sim": {"dt": 0.5}})
    with pytest.raises(ConfigError):
        parse_scenario({"sim": {"t_end": -1.0}})
    with pytest.raises(ConfigError) as e:
        parse_scenario({"op": {"p_turb_ref": "full"}})
    assert e.value.key == "op.p_turb_ref"


def test_event_parsing_rules():
    with pytest.raises(ConfigError) as e:
        parse_scenario({"events": [{"kind": "teleport", "t": 0.1}]})
    assert e.value.key == "events.0.kind"
    out_of_order = [
        {"kind": "fault_on", "t": 0.2, "bus": "pcc", "r_fault": 0.5},
        {"kind": "fault_off", "t": 0.1, "bus": "pcc"},
    ]
    with pytest.raises(ConfigError) as e:
        parse_scenario({"events": out_of_order})
    assert e.value.key == "events.1.t"
    with pytest.raises(ConfigError):
        parse_scenario({"events": [{"kind": "fault_on", "t": 0.1, "bus": "moon", "r_fault": 0.5}]})


def test_apply_overrides():
    raw = {"grid": {"scr": 3.2}, "op": {"p_turb_ref": 1.0}}
    out = apply_overrides(
        raw,
        ["grid.scr=1.6", "op.p_turb_ref=0.5", "name=\"probe\"", "sc.enabled=false"],
    )
    assert out["grid"]["scr"] == 1.6
    assert out["op"]["p_turb_ref"] == 0.5
    assert out["name"] == "probe"
    assert out["sc"]["enabled"] is False
    # the input dict is untouched
    assert raw == {"grid": {"scr": 3.2}, "op": {"p_turb_ref": 1.0}}


def test_apply_overrides_bare_string_fallback():
    out = apply_overrides({}, ["control.type=gfm"])
    assert out["control"]["type"] == "gfm"


def test_apply_overrides_list_index():
    raw = {"events": [{"kind": "step_ref", "t": 0.1, "channel": "p_star", "delta": 0.1}]}
    out = apply_overrides(raw, ["events.0.delta=-0.2"])
    assert out["events"][0]["delta"] == -0.2


def test_apply_overrides_requires_assignment():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["grid.scr"])


def test_load_config(tmp_path):
    p = tmp_path / "case.json"
    p.write_text(json.dumps(FULL))
    assert parse_scenario(load_config(str(p))) == parse_scenario(FULL)
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path))
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(str(bad))
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be an object") as exc:
        load_config(str(bad))
    assert exc.value.key == str(bad)


def test_preset_scenarios():
    s = preset_scenario("weak", control=GFL, with_sc=False, p_turb_ref=0.5)
    assert s.grid == GRID_CASES["weak"]
    assert s.with_sc is False
    assert s.op.p_turb_ref == 0.5
    with pytest.raises(ConfigError):
        preset_scenario("medium")


def test_scenario_key_is_stable_and_distinct():
    s = preset_scenario("weak")
    key = scenario_key(s)
    assert "weak" in key and "gfl" in key and "sc1" in key
    keys = set()
    for case in GRID_CASES:
        for op in standard_operating_points():
            sc = preset_scenario(case, v_g_ref=op.v_g_ref, v_turb_ref=op.v_turb_ref,
                                 p_turb_ref=op.p_turb_ref)
            keys.add(scenario_key(sc))
    assert len(keys) == 81


def test_standard_operating_grid():
    ops = standard_operating_points()
    assert len(ops) == 27
    assert len(set(ops)) == 27
    assert OperatingPoint(0.92, 1.08, 0.1) in ops
    for field, values in OP_GRID_VALUES.items():
        assert sorted({getattr(o, field) for o in ops}) == sorted(values)


def test_q_channel_mode_voltage_parses():
    s = parse_scenario({"control": {"type": "gfl", "q_channel_mode": "voltage"}})
    assert s.q_mode == Q_MODE_VOLTAGE
