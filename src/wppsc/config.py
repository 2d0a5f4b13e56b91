"""Scenario schema: parsing, validation, defaults and model assembly.

A scenario is a plain JSON-compatible dict. Parsing expands every default,
rejects unknown keys, and reports problems by dotted key path so a CLI user
can find the offending entry. The fully-resolved dict round-trips losslessly
through to_dict()/parse_scenario().
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .components import (
    GFL,
    GFM,
    NO_CONVERTER,
    Q_MODE_REACTIVE,
    Q_MODE_VOLTAGE,
    FilterCableParams,
    GflParams,
    GfmParams,
    GridParams,
    RefInputs,
    ScParams,
    SystemModel,
)
from .netbase import GridCase, Impedance, impedance_from_scr_xr
from .sim import Event


class ConfigError(ValueError):
    """Invalid configuration; key carries the dotted path of the bad entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass(frozen=True)
class OperatingPoint:
    """Plant references: grid source voltage, turbine terminal voltage and
    active power, all pu."""

    v_g_ref: float = 1.0
    v_turb_ref: float = 1.0
    p_turb_ref: float = 1.0

    def __post_init__(self) -> None:
        if not 0.8 <= self.v_g_ref <= 1.2:
            raise ValueError(f"v_g_ref must be in [0.8, 1.2], got {self.v_g_ref}")
        if not 0.8 <= self.v_turb_ref <= 1.2:
            raise ValueError(f"v_turb_ref must be in [0.8, 1.2], got {self.v_turb_ref}")
        if not 0.0 <= self.p_turb_ref <= 1.2:
            raise ValueError(f"p_turb_ref must be in [0, 1.2], got {self.p_turb_ref}")


@dataclass(frozen=True)
class NetworkSpec:
    """Engineering-units network description (reactances at 50 Hz)."""

    rf: float = 0.005
    xf: float = 0.08
    x_cf: float = 15.0
    ra: float = 0.006
    xa: float = 0.03
    rtf: float = 0.005
    xtf: float = 0.06
    c_pcc: float = 1e-4

    def to_params(self) -> FilterCableParams:
        return FilterCableParams.from_reactances(
            rf=self.rf,
            xf=self.xf,
            x_cf=self.x_cf,
            ra=self.ra,
            xa=self.xa,
            rtf=self.rtf,
            xtf=self.xtf,
            c_pcc=self.c_pcc,
        )


@dataclass(frozen=True)
class Scenario:
    """One fully-specified study case."""

    name: str = "scenario"
    grid: GridCase | Impedance = GridCase(scr=3.2, x_r=14.8)
    control: str = GFL
    q_mode: str = Q_MODE_REACTIVE
    with_sc: bool = True
    sc: ScParams = field(default_factory=ScParams)
    gfl: GflParams = field(default_factory=GflParams)
    gfm: GfmParams = field(default_factory=GfmParams)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    op: OperatingPoint = field(default_factory=OperatingPoint)
    dt: float = 5e-5
    t_end: float = 2.0
    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        if self.control not in (GFL, GFM, NO_CONVERTER):
            raise ValueError(f"control must be gfl/gfm/none, got {self.control!r}")
        if self.q_mode not in (Q_MODE_REACTIVE, Q_MODE_VOLTAGE):
            raise ValueError(f"q_mode must be reactive/voltage, got {self.q_mode!r}")
        if not 1e-6 <= self.dt <= 1e-3:
            raise ValueError(f"dt must be in [1e-6, 1e-3], got {self.dt}")
        if not 0.0 < self.t_end <= 60.0:
            raise ValueError(f"t_end must be in (0, 60], got {self.t_end}")


# Grid strength cases swept in the study (SCR at the turbine MV terminal,
# X/R of the Thevenin branch).
GRID_CASES: dict[str, GridCase] = {
    "weak": GridCase(scr=1.6, x_r=5.0),
    "normal": GridCase(scr=3.2, x_r=14.8),
    "strong": GridCase(scr=4.12, x_r=14.8),
}

# The standard 27-point operating grid: every combination of grid voltage,
# turbine voltage and turbine power references.
OP_GRID_VALUES = {
    "v_g_ref": (0.92, 1.0, 1.08),
    "v_turb_ref": (0.92, 1.0, 1.08),
    "p_turb_ref": (0.1, 0.5, 1.0),
}


def standard_operating_points() -> tuple[OperatingPoint, ...]:
    return tuple(
        OperatingPoint(v_g_ref=vg, v_turb_ref=vt, p_turb_ref=p)
        for vg in OP_GRID_VALUES["v_g_ref"]
        for vt in OP_GRID_VALUES["v_turb_ref"]
        for p in OP_GRID_VALUES["p_turb_ref"]
    )


def build_model(sc_spec: Scenario) -> SystemModel:
    """Assemble the nonlinear plant for a scenario."""
    if isinstance(sc_spec.grid, Impedance):
        z = sc_spec.grid
    else:
        z = impedance_from_scr_xr(sc_spec.grid)
    return SystemModel(
        grid=GridParams(rg=z.r, xg=z.x),
        network=sc_spec.network.to_params(),
        control=sc_spec.control,
        gfl=sc_spec.gfl,
        gfm=sc_spec.gfm,
        sc=sc_spec.sc if sc_spec.with_sc else None,
        q_mode=sc_spec.q_mode,
    )


def refs_for(sc_spec: Scenario) -> RefInputs:
    """Reference inputs for a scenario's operating point (angles unsolved)."""
    return RefInputs(
        p_star=sc_spec.op.p_turb_ref if sc_spec.control != NO_CONVERTER else 0.0,
        v_turb_star=sc_spec.op.v_turb_ref,
        q_star=0.0,
        v_g_ref=sc_spec.op.v_g_ref,
    )


def scenario_key(sc_spec: Scenario) -> str:
    """Stable sort/identification key for batch outputs."""
    op = sc_spec.op
    sc_flag = "sc1" if sc_spec.with_sc else "sc0"
    return (
        f"{sc_spec.name}|{sc_spec.control}|{sc_flag}"
        f"|vg={op.v_g_ref:g}|vt={op.v_turb_ref:g}|p={op.p_turb_ref:g}"
    )


# ---------------------------------------------------------------------------
# dict <-> Scenario


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    for k in d:
        if k not in allowed:
            raise ConfigError(f"{path}.{k}" if path else k, "unknown key")


def _get_num(d: dict, key: str, default: float, path: str) -> float:
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {v!r}")
    if not math.isfinite(float(v)):
        raise ConfigError(f"{path}.{key}", "must be finite")
    return float(v)


def _get_str(d: dict, key: str, default: str, path: str) -> str:
    v = d.get(key, default)
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key}", f"expected a string, got {v!r}")
    return v


def _get_bool(d: dict, key: str, default: bool, path: str) -> bool:
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{path}.{key}", f"expected true/false, got {v!r}")
    return v


def _build(path: str, ctor, **kwargs):
    try:
        return ctor(**kwargs)
    except ValueError as e:
        raise ConfigError(path, str(e)) from e


def _parse_grid(d: Any) -> GridCase | Impedance:
    if not isinstance(d, dict):
        raise ConfigError("grid", f"expected an object, got {d!r}")
    if "r" in d or "x" in d:
        _check_keys(d, {"r", "x"}, "grid")
        r = _get_num(d, "r", 0.0, "grid")
        x = _get_num(d, "x", 0.0, "grid")
        return _build("grid", Impedance, r=r, x=x)
    _check_keys(d, {"scr", "x_r"}, "grid")
    scr = _get_num(d, "scr", 3.2, "grid")
    x_r = _get_num(d, "x_r", 14.8, "grid")
    return _build("grid.scr", GridCase, scr=scr, x_r=x_r)


def _parse_events(items: Any) -> tuple[Event, ...]:
    if not isinstance(items, list):
        raise ConfigError("events", f"expected a list, got {items!r}")
    out = []
    last_t = -1.0
    for i, d in enumerate(items):
        path = f"events.{i}"
        if not isinstance(d, dict):
            raise ConfigError(path, f"expected an object, got {d!r}")
        kind = _get_str(d, "kind", "", path)
        t = _get_num(d, "t", -1.0, path)
        if kind == "fault_on":
            _check_keys(d, {"kind", "t", "bus", "r_fault"}, path)
            ev = _build(
                path,
                Event.fault_on,
                t=t,
                bus=_get_str(d, "bus", "pcc", path),
                r_fault=_get_num(d, "r_fault", 1e-4, path),
            )
        elif kind == "fault_off":
            _check_keys(d, {"kind", "t", "bus"}, path)
            ev = _build(path, Event.fault_off, t=t, bus=_get_str(d, "bus", "pcc", path))
        elif kind == "step_ref":
            _check_keys(d, {"kind", "t", "channel", "delta"}, path)
            ev = _build(
                path,
                Event.step_ref,
                t=t,
                channel=_get_str(d, "channel", "p_star", path),
                delta=_get_num(d, "delta", 0.0, path),
            )
        else:
            raise ConfigError(f"{path}.kind", f"unknown event kind {kind!r}")
        if ev.t < last_t:
            raise ConfigError(f"{path}.t", "events must be sorted by time")
        last_t = ev.t
        out.append(ev)
    return tuple(out)


_TOP_KEYS = {"name", "grid", "control", "sc", "network", "op", "sim", "events"}
_CONTROL_KEYS = {"type", "q_channel_mode", "gains"}
_GFL_GAIN_KEYS = {"kp_pll", "ki_pll", "kp_pc", "ki_pc", "kp_cc", "ki_cc"}
_GFM_GAIN_KEYS = {"j_vsm", "d_p", "kp_v", "ki_v", "kp_c", "ki_c"}
_SC_KEYS = {"enabled", "x_sub", "r_tr", "x_tr", "e_mag"}
_NETWORK_KEYS = {"rf", "xf", "x_cf", "ra", "xa", "rtf", "xtf", "c_pcc"}
_OP_KEYS = {"v_g_ref", "v_turb_ref", "p_turb_ref"}
_SIM_KEYS = {"dt", "t_end"}


def parse_scenario(raw: dict) -> Scenario:
    """Validate a config dict and expand defaults into a Scenario."""
    if not isinstance(raw, dict):
        raise ConfigError("", f"config must be an object, got {raw!r}")
    _check_keys(raw, _TOP_KEYS, "")

    name = _get_str(raw, "name", "scenario", "")

    grid = _parse_grid(raw.get("grid", {}))

    ctl = raw.get("control", {})
    if not isinstance(ctl, dict):
        raise ConfigError("control", f"expected an object, got {ctl!r}")
    _check_keys(ctl, _CONTROL_KEYS, "control")
    control = _get_str(ctl, "type", GFL, "control")
    if control not in (GFL, GFM, NO_CONVERTER):
        raise ConfigError("control.type", f"must be gfl/gfm/none, got {control!r}")
    q_mode = _get_str(ctl, "q_channel_mode", Q_MODE_REACTIVE, "control")
    if q_mode not in (Q_MODE_REACTIVE, Q_MODE_VOLTAGE):
        raise ConfigError("control.q_channel_mode", f"must be reactive/voltage, got {q_mode!r}")
    gains = ctl.get("gains", {})
    if not isinstance(gains, dict):
        raise ConfigError("control.gains", f"expected an object, got {gains!r}")
    gfl_defaults, gfm_defaults = GflParams(), GfmParams()
    if control == GFL:
        _check_keys(gains, _GFL_GAIN_KEYS, "control.gains")
        gfl = _build(
            "control.gains",
            GflParams,
            **{k: _get_num(gains, k, getattr(gfl_defaults, k), "control.gains") for k in _GFL_GAIN_KEYS},
        )
        gfm = gfm_defaults
    elif control == GFM:
        _check_keys(gains, _GFM_GAIN_KEYS, "control.gains")
        gfm = _build(
            "control.gains",
            GfmParams,
            **{k: _get_num(gains, k, getattr(gfm_defaults, k), "control.gains") for k in _GFM_GAIN_KEYS},
        )
        gfl = gfl_defaults
    else:
        _check_keys(gains, set(), "control.gains")
        gfl, gfm = gfl_defaults, gfm_defaults

    sc_d = raw.get("sc", {})
    if not isinstance(sc_d, dict):
        raise ConfigError("sc", f"expected an object, got {sc_d!r}")
    _check_keys(sc_d, _SC_KEYS, "sc")
    with_sc = _get_bool(sc_d, "enabled", True, "sc")
    sc_defaults = ScParams()
    sc = _build(
        "sc",
        ScParams,
        x_sub=_get_num(sc_d, "x_sub", sc_defaults.x_sub, "sc"),
        r_tr=_get_num(sc_d, "r_tr", sc_defaults.r_tr, "sc"),
        x_tr=_get_num(sc_d, "x_tr", sc_defaults.x_tr, "sc"),
        e_mag=_get_num(sc_d, "e_mag", sc_defaults.e_mag, "sc"),
    )

    net_d = raw.get("network", {})
    if not isinstance(net_d, dict):
        raise ConfigError("network", f"expected an object, got {net_d!r}")
    _check_keys(net_d, _NETWORK_KEYS, "network")
    net_defaults = NetworkSpec()
    network = _build(
        "network",
        NetworkSpec,
        **{k: _get_num(net_d, k, getattr(net_defaults, k), "network") for k in _NETWORK_KEYS},
    )
    _build("network", network.to_params)

    op_d = raw.get("op", {})
    if not isinstance(op_d, dict):
        raise ConfigError("op", f"expected an object, got {op_d!r}")
    _check_keys(op_d, _OP_KEYS, "op")
    op_defaults = OperatingPoint()
    op = _build(
        "op",
        OperatingPoint,
        **{k: _get_num(op_d, k, getattr(op_defaults, k), "op") for k in _OP_KEYS},
    )

    sim_d = raw.get("sim", {})
    if not isinstance(sim_d, dict):
        raise ConfigError("sim", f"expected an object, got {sim_d!r}")
    _check_keys(sim_d, _SIM_KEYS, "sim")
    dt = _get_num(sim_d, "dt", 5e-5, "sim")
    t_end = _get_num(sim_d, "t_end", 2.0, "sim")

    events = _parse_events(raw.get("events", []))

    return _build(
        "",
        Scenario,
        name=name,
        grid=grid,
        control=control,
        q_mode=q_mode,
        with_sc=with_sc,
        sc=sc,
        gfl=gfl,
        gfm=gfm,
        network=network,
        op=op,
        dt=dt,
        t_end=t_end,
        events=events,
    )


def to_dict(sc_spec: Scenario) -> dict:
    """Fully-resolved config dict; parse_scenario(to_dict(s)) == s."""
    if isinstance(sc_spec.grid, Impedance):
        grid = {"r": sc_spec.grid.r, "x": sc_spec.grid.x}
    else:
        grid = {"scr": sc_spec.grid.scr, "x_r": sc_spec.grid.x_r}
    if sc_spec.control == GFL:
        gains = {k: getattr(sc_spec.gfl, k) for k in sorted(_GFL_GAIN_KEYS)}
    elif sc_spec.control == GFM:
        gains = {k: getattr(sc_spec.gfm, k) for k in sorted(_GFM_GAIN_KEYS)}
    else:
        gains = {}
    return {
        "name": sc_spec.name,
        "grid": grid,
        "control": {"type": sc_spec.control, "q_channel_mode": sc_spec.q_mode, "gains": gains},
        "sc": {
            "enabled": sc_spec.with_sc,
            "x_sub": sc_spec.sc.x_sub,
            "r_tr": sc_spec.sc.r_tr,
            "x_tr": sc_spec.sc.x_tr,
            "e_mag": sc_spec.sc.e_mag,
        },
        "network": {k: getattr(sc_spec.network, k) for k in sorted(_NETWORK_KEYS)},
        "op": {
            "v_g_ref": sc_spec.op.v_g_ref,
            "v_turb_ref": sc_spec.op.v_turb_ref,
            "p_turb_ref": sc_spec.op.p_turb_ref,
        },
        "sim": {"dt": sc_spec.dt, "t_end": sc_spec.t_end},
        "events": [ev.to_dict() for ev in sc_spec.events],
    }


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply repeatable --set key=value entries onto a parsed config dict.

    The key is a dotted path (integer segments index lists); the value is
    parsed as a JSON literal, falling back to a bare string.
    """
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, _, val_text = item.partition("=")
        key = key.strip()
        try:
            value = json.loads(val_text)
        except json.JSONDecodeError:
            value = val_text
        parts = key.split(".")
        node = out
        for j, part in enumerate(parts[:-1]):
            nxt = parts[j + 1]
            if isinstance(node, list):
                if not part.isdigit() or int(part) >= len(node):
                    raise ConfigError(key, f"bad list index {part!r}")
                node = node[int(part)]
            else:
                if part not in node or not isinstance(node[part], (dict, list)):
                    node[part] = [] if nxt.isdigit() else {}
                node = node[part]
        leaf = parts[-1]
        if isinstance(node, list):
            if not leaf.isdigit() or int(leaf) >= len(node):
                raise ConfigError(key, f"bad list index {leaf!r}")
            node[int(leaf)] = value
        else:
            node[leaf] = value
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(path, "config file not found")
    except OSError as e:
        raise ConfigError(path, f"cannot read config file: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise ConfigError(path, f"config file is not UTF-8: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(path, f"invalid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError(path, f"config must be an object, got {raw!r}")
    return raw


def preset_scenario(case: str, control: str = GFL, with_sc: bool = True, **op_kwargs) -> Scenario:
    """Convenience constructor for the named grid cases."""
    if case not in GRID_CASES:
        raise ConfigError("grid", f"unknown case {case!r}, expected one of {sorted(GRID_CASES)}")
    return Scenario(
        name=case,
        grid=GRID_CASES[case],
        control=control,
        with_sc=with_sc,
        op=OperatingPoint(**op_kwargs) if op_kwargs else OperatingPoint(),
    )
