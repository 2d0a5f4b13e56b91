"""Config parsing, serialization round-trips, and override handling."""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from wppsc.components import (
    CONTROLS,
    FAULT_BUSES,
    GFL,
    GFM,
    OMEGA0,
    Q_MODE_VOLTAGE,
    Q_MODES,
    GflParams,
    GfmParams,
)
from wppsc.config import (
    GRID_CASES,
    OP_GRID_VALUES,
    ConfigError,
    NetworkSpec,
    OperatingPoint,
    Scenario,
    apply_overrides,
    build_model,
    load_config,
    parse_scenario,
    preset_scenario,
    scenario_key,
    standard_operating_points,
    to_dict,
)
from wppsc.netbase import GridCase, Impedance
from wppsc.sim import STEP_CHANNELS


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


def test_grid_scr_beyond_physical_range_names_grid_scr():
    parse_scenario({"grid": {"scr": 1e4}})
    with pytest.raises(ConfigError) as e:
        parse_scenario({"grid": {"scr": 1.5e4}})
    assert str(e.value) == "grid.scr: grid case scr must be in (0, 10000], got 15000.0"


def test_grid_branch_below_minimum_impedance_names_grid():
    parse_scenario({"grid": {"r": 0.0, "x": 1e-4}})
    with pytest.raises(ConfigError) as e:
        parse_scenario({"grid": {"r": 1e-5, "x": 5e-5}})
    assert e.value.key == "grid"
    assert "grid branch |z| must be >= 0.0001 pu" in str(e.value)


def test_build_model_rejects_an_explicit_grid_branch_below_minimum_impedance():
    # the reader and build_model share one check, made on explicit branches
    # only: the strongest grid case sits a rounding below the minimum
    with pytest.raises(ValueError, match=r"grid branch \|z\| must be >= 0.0001 pu, got 1.00499e-06"):
        build_model(Scenario(grid=Impedance(1e-7, 1e-6)))
    build_model(Scenario(grid=GridCase(scr=1e4, x_r=1e3)))  # |z| = 9.999999999999999e-05


def test_value_validation():
    with pytest.raises(ConfigError):
        parse_scenario({"op": {"v_g_ref": 1.5}})
    for op, message in (({"v_turb_ref": 0.7}, "v_turb_ref must be in [0.8, 1.2]"),
                        ({"p_turb_ref": -0.1}, "p_turb_ref must be in [0, 1.2]")):
        with pytest.raises(ConfigError) as e:
            parse_scenario({"op": op})
        assert (e.value.key, message in str(e.value)) == ("op", True)
    # a section and the config itself must be objects, a flag true/false
    for raw, key in (({"sc": 5}, "sc"), ([1], ""), ({"sc": {"enabled": 1}}, "sc.enabled")):
        with pytest.raises(ConfigError) as e:
            parse_scenario(raw)
        assert e.value.key == key
    with pytest.raises(ConfigError) as e:
        parse_scenario({"control": {"type": "vsc"}})
    assert e.value.key == "control.type"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"control": {"type": "gfl", "q_channel_mode": "bananas"}})
    assert e.value.key == "control.q_channel_mode"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"sim": {"dt": 0.5}})
    assert str(e.value) == "sim: dt must be in [1e-6, 1e-3], got 0.5"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"sim": {"t_end": -1.0}})
    assert e.value.key == "sim"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"sim": {"t_end": 1e-5, "dt": 1e-4}})
    assert str(e.value) == "sim: t_end must be >= dt, got t_end 1e-05 < dt 0.0001"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"grid": {"x_r": -1}})
    assert str(e.value) == "grid.x_r: grid case x_r must be >= 0, got -1.0"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"op": {"p_turb_ref": "full"}})
    assert e.value.key == "op.p_turb_ref"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"op": {"p_turb_ref": 10**400}})  # beyond the float range
    assert str(e.value) == "op.p_turb_ref: must be finite"
    with pytest.raises(ConfigError) as e:
        parse_scenario({"name": 5})
    assert e.value.key == "name"
    assert str(e.value) == "name: expected a string, got 5"


def test_integers_are_read_as_floats():
    # the manifest writes 1.0, not 1, whichever form the input used
    d = to_dict(parse_scenario({"grid": {"scr": 2}, "op": {"p_turb_ref": 1}}))
    assert type(d["grid"]["scr"]) is float and type(d["op"]["p_turb_ref"]) is float


def test_model_lc_from_network_reactances():
    # the model derives each row's L or C from the records' reactances
    net = NetworkSpec(xf=0.08, x_cf=15.0, xa=0.03, xtf=0.06)
    model = build_model(Scenario(grid=Impedance(r=0.02, x=0.3), network=net, with_sc=False))
    lc = dict(zip(model.labels, model.lc))
    assert lc["i_g_d"] == pytest.approx(0.3 / OMEGA0, rel=1e-12)
    assert lc["i_f_d"] == pytest.approx(0.08 / OMEGA0, rel=1e-12)
    assert lc["v_c_d"] == pytest.approx(1.0 / (OMEGA0 * 15.0), rel=1e-12)
    assert lc["i_a_d"] == pytest.approx(0.03 / OMEGA0 + 0.06 / OMEGA0, rel=1e-12)
    assert lc["v_pcc_d"] == net.c_pcc
    assert all(lc[lab[:-1] + "q"] == v for lab, v in lc.items())


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
    # the schedule is a list of objects, each with a string kind
    for events, key, message in (({}, "events", "expected a list"), ([5], "events.0", "expected an object"),
                                 ([{"kind": 5}], "events.0.kind", "expected a string")):
        with pytest.raises(ConfigError) as e:
            parse_scenario({"events": events})
        assert (e.value.key, message in str(e.value)) == (key, True)


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


def test_apply_overrides_replaces_a_list_element():
    raw = {"events": [{"kind": "fault_on", "t": 0.1, "bus": "pcc", "r_fault": 0.5},
                      {"kind": "fault_off", "t": 0.2, "bus": "pcc"}]}
    step = {"kind": "step_ref", "t": 0.3, "channel": "p_star", "delta": 0.1}
    out = apply_overrides(raw, ["events.0.t=0.15", f"events.1={json.dumps(step)}"])
    assert out["events"] == [{**raw["events"][0], "t": 0.15}, step]
    assert raw["events"][0]["t"] == 0.1


def test_apply_overrides_requires_assignment():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["grid.scr"])
    # a list index past the end or not a number, mid-path and at the leaf
    raw = {"events": [{"kind": "fault_off", "t": 0.2, "bus": "pcc"}]}
    for item, part in (("events.1.t=0.1", "'1'"), ("events.x.t=0.1", "'x'"),
                       ("events.1=0.1", "'1'"), ("events.x=0.1", "'x'")):
        with pytest.raises(ConfigError, match=f"bad list index {part}"):
            apply_overrides(raw, [item])


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


# ---------------------------------------------------------------------------
# the schema over drawn configs: valid values, random subsets of keys


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _some(keys):
    """A dict holding a random subset of keys, each drawn from its strategy."""
    return st.fixed_dictionaries({}, optional=keys)


_NONNEG = _num(0.0, 1.0)
_SECTIONS = {
    "sc": {
        "enabled": st.booleans(),
        "x_sub": _num(1e-3, 1.0),
        "r_tr": _NONNEG,
        "x_tr": _NONNEG,
        "e_mag": _num(0.0, 1.5),
    },
    "network": {
        "rf": _NONNEG,
        "xf": _num(1e-3, 1.0),
        "x_cf": _num(1e-2, 100.0),
        "ra": _NONNEG,
        "xa": _num(1e-3, 0.2),
        "rtf": _NONNEG,
        "xtf": _num(1e-3, 0.2),
        "c_pcc": _num(1e-6, 1e-2),
    },
    "op": {"v_g_ref": _num(0.8, 1.2), "v_turb_ref": _num(0.8, 1.2), "p_turb_ref": _num(0.0, 1.2)},
    "sim": {"dt": _num(1e-6, 1e-3), "t_end": _num(1e-3, 60.0)},
}
_GRIDS = st.one_of(
    _some({"scr": _num(0.05, 10.0), "x_r": _num(0.1, 30.0)}),
    st.fixed_dictionaries({"x": _num(1e-2, 2.0)}, optional={"r": _NONNEG}),
)
_GAIN_CLASSES = {GFL: GflParams, GFM: GfmParams}
_EVENTS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("fault_on")},
        optional={"bus": st.sampled_from(FAULT_BUSES), "r_fault": _num(1e-6, 10.0)},
    ),
    st.fixed_dictionaries({"kind": st.just("fault_off")}, optional={"bus": st.sampled_from(FAULT_BUSES)}),
    st.fixed_dictionaries(
        {"kind": st.just("step_ref")},
        optional={"channel": st.sampled_from(STEP_CHANNELS), "delta": _num(-1.0, 1.0)},
    ),
)


@st.composite
def _controls(draw):
    kind = draw(st.sampled_from(CONTROLS))
    cls = _GAIN_CLASSES.get(kind)
    gains = {f.name: _num(1e-3, 1e3) for f in fields(cls)} if cls else {}
    ctl = draw(_some({"q_channel_mode": st.sampled_from(Q_MODES), "gains": _some(gains)}))
    if kind != GFL or draw(st.booleans()):  # gfl is also the default
        ctl["type"] = kind
    return ctl


@st.composite
def _event_lists(draw):
    events = draw(st.lists(_EVENTS, max_size=3))
    times = draw(st.lists(_num(0.0, 60.0), min_size=len(events), max_size=len(events)))
    return [{**ev, "t": t} for ev, t in zip(events, sorted(times))]


_CONFIGS = _some(
    {
        "name": st.text(max_size=8),
        "grid": _GRIDS,
        "control": _controls(),
        "events": _event_lists(),
        **{name: _some(keys) for name, keys in _SECTIONS.items()},
    }
)


def _contains(resolved, raw):
    """Every entry of raw is in resolved with the same value."""
    if isinstance(raw, dict):
        return all(k in resolved and _contains(resolved[k], v) for k, v in raw.items())
    if isinstance(raw, list):
        return len(raw) == len(resolved) and all(map(_contains, resolved, raw))
    return resolved == raw


@settings(max_examples=100, deadline=None, database=None)
@given(_CONFIGS, st.data())
def test_drawn_configs_round_trip_and_name_unknown_keys(raw, data):
    s = parse_scenario(raw)
    d = to_dict(s)
    assert _contains(d, raw)
    assert parse_scenario(d) == s
    assert to_dict(parse_scenario(d)) == d
    # one unknown key at a random depth is reported by its dotted path
    events = [f"events.{i}" for i in range(len(raw.get("events", [])))]
    path = data.draw(st.sampled_from(["", "grid", "control", "control.gains", *_SECTIONS, *events]))
    bad = node = json.loads(json.dumps(raw))
    for part in path.split(".") if path else ():
        node = node[int(part)] if part.isdigit() else node.setdefault(part, {})
    node["zz_unknown"] = 1.0
    with pytest.raises(ConfigError) as e:
        parse_scenario(bad)
    assert e.value.key == (f"{path}.zz_unknown" if path else "zz_unknown")
