"""Scenario schema: parsing, validation, defaults and model assembly.

A scenario is a plain JSON-compatible dict whose sections are the frozen
dataclasses that describe the study case, each keyed by its field names:
the grid (netbase.GridCase or Impedance), the configured control's gains
(GflParams, GfmParams), the condenser (ScParams) and the network
(NetworkSpec, also importable from here), all from components, and the
operating point (OperatingPoint). control and sim hold Scenario's own
fields under their config names, and sc.enabled is Scenario.with_sc, the
one condenser switch. to_dict writes a scenario in field order, and the
default scenario so written, once at import, is the schema: one reader
checks each section against its defaults for unknown keys, each value's
type (that of its default), finiteness and the allowed control and
q-channel names, and reports problems by dotted key path so a CLI user can
find the offending entry; each class checks its own ranges, and the grid
branch's reactance is checked where build_model reads it (_grid_branch).
build_model hands that branch and the network record to SystemModel as they
are. The fully-resolved dict round-trips losslessly through
to_dict()/parse_scenario().
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

from .components import (
    CONTROLS,
    GFL,
    GFM,
    NO_CONVERTER,
    Q_MODE_REACTIVE,
    Q_MODES,
    GflParams,
    GfmParams,
    NetworkSpec,
    RefInputs,
    ScParams,
    SystemModel,
)
from .netbase import MAX_SCR, GridCase, Impedance, impedance_from_scr_xr
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
        if not 1e-6 <= self.dt <= 1e-3:
            raise ValueError(f"dt must be in [1e-6, 1e-3], got {self.dt}")
        if not 0.0 < self.t_end <= 60.0:
            raise ValueError(f"t_end must be in (0, 60], got {self.t_end}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be >= dt, got t_end {self.t_end} < dt {self.dt}")


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


def _grid_branch(grid: GridCase | Impedance) -> Impedance:
    """The Thevenin branch of a grid entry, which needs a reactance; an
    explicit branch is also at least 1 / MAX_SCR in size."""
    if isinstance(grid, Impedance) and grid.magnitude < 1.0 / MAX_SCR:
        raise ValueError(f"grid branch |z| must be >= {1.0 / MAX_SCR:g} pu, got {grid.magnitude:g}")
    z = grid if isinstance(grid, Impedance) else impedance_from_scr_xr(grid)
    if not z.x > 0.0:
        raise ValueError(f"grid x must be > 0, got {z.x}")
    return z


def build_model(sc_spec: Scenario) -> SystemModel:
    """Assemble the nonlinear plant for a scenario."""
    return SystemModel(
        grid=_grid_branch(sc_spec.grid),
        network=sc_spec.network,
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


# Each event kind's keys after t and kind, with their defaults; the kind is
# also the name of the Event constructor that checks them.
_EVENTS = {
    "fault_on": {"bus": "pcc", "r_fault": 1e-4},
    "fault_off": {"bus": "pcc"},
    "step_ref": {"channel": "p_star", "delta": 0.0},
}


def to_dict(sc_spec: Scenario) -> dict:
    """Fully-resolved config dict; parse_scenario(to_dict(s)) == s."""
    gains = {GFL: sc_spec.gfl, GFM: sc_spec.gfm}.get(sc_spec.control)
    return {
        "name": sc_spec.name,
        "grid": dict(vars(sc_spec.grid)),
        "control": {
            "type": sc_spec.control,
            "q_channel_mode": sc_spec.q_mode,
            "gains": dict(vars(gains)) if gains else {},
        },
        "sc": {"enabled": sc_spec.with_sc, **vars(sc_spec.sc)},
        "network": dict(vars(sc_spec.network)),
        "op": dict(vars(sc_spec.op)),
        "sim": {"dt": sc_spec.dt, "t_end": sc_spec.t_end},
        "events": [
            {"t": ev.t, "kind": ev.kind, **{k: getattr(ev, k) for k in _EVENTS[ev.kind]}}
            for ev in sc_spec.events
        ],
    }


# Every config key and its default: the resolved default scenario, the gains
# of each control (read only under that control) and an explicit grid branch.
_DEFAULTS = to_dict(Scenario())
_CONTROL = {**_DEFAULTS["control"], "gains": {}}
_GAINS = {GFL: vars(GflParams()), GFM: vars(GfmParams()), NO_CONVERTER: {}}
_IMPEDANCE = {"r": 0.0, "x": 0.0}


def _key(path: str, k: str) -> str:
    return f"{path}.{k}" if path else k


def _read(d: Any, table: dict[str, Any], path: str, choices: dict = {}) -> dict[str, Any]:
    """The config section d at path, with table's defaults filled in.

    A value must have its default's type: true/false, a finite number (an
    int becomes a float) or a string, one of choices[key] if given. Objects
    and lists pass as they are, for the reader of their own section.
    """
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {d!r}")
    for k in d:
        if k not in table:
            raise ConfigError(_key(path, k), "unknown key")
    out = dict(table)
    for k, default in table.items():
        if k not in d:
            continue
        v = d[k]
        if isinstance(default, bool):
            if not isinstance(v, bool):
                raise ConfigError(_key(path, k), f"expected true/false, got {v!r}")
        elif isinstance(default, (int, float)):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(_key(path, k), f"expected a number, got {v!r}")
            try:
                v = float(v)
            except OverflowError:  # an integer beyond the float range
                v = math.inf
            if not math.isfinite(v):
                raise ConfigError(_key(path, k), "must be finite")
        elif isinstance(default, str):
            if not isinstance(v, str):
                raise ConfigError(_key(path, k), f"expected a string, got {v!r}")
            if k in choices and v not in choices[k]:
                raise ConfigError(_key(path, k), f"must be {'/'.join(choices[k])}, got {v!r}")
        out[k] = v
    return out


def _build(path: str, ctor, *args, **kwargs):
    try:
        return ctor(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(path, str(e)) from e


def _parse_grid(d: Any) -> GridCase | Impedance:
    if isinstance(d, dict) and ("r" in d or "x" in d):
        grid = _build("grid", Impedance, **_read(d, _IMPEDANCE, "grid"))
    else:
        grid = GridCase(**_DEFAULTS["grid"])
        for k, v in _read(d, _DEFAULTS["grid"], "grid").items():  # an error names its field
            grid = _build(f"grid.{k}", replace, grid, **{k: v})
    _build("grid", _grid_branch, grid)
    return grid


def _section(top: dict, name: str, cls):
    return _build(name, cls, **_read(top[name], _DEFAULTS[name], name))


def _parse_events(items: Any) -> tuple[Event, ...]:
    if not isinstance(items, list):
        raise ConfigError("events", f"expected a list, got {items!r}")
    out = []
    last_t = -1.0
    for i, d in enumerate(items):
        path = f"events.{i}"
        if not isinstance(d, dict):
            raise ConfigError(path, f"expected an object, got {d!r}")
        kind = d.get("kind", "")
        if not isinstance(kind, str):
            raise ConfigError(f"{path}.kind", f"expected a string, got {kind!r}")
        if kind not in _EVENTS:
            raise ConfigError(f"{path}.kind", f"unknown event kind {kind!r}")
        values = _read(d, {"t": -1.0, "kind": kind, **_EVENTS[kind]}, path)
        del values["kind"]
        ev = _build(path, getattr(Event, kind), **values)
        if ev.t < last_t:
            raise ConfigError(f"{path}.t", "events must be sorted by time")
        last_t = ev.t
        out.append(ev)
    return tuple(out)


def parse_scenario(raw: dict) -> Scenario:
    """Validate a config dict and expand defaults into a Scenario."""
    if not isinstance(raw, dict):
        raise ConfigError("", f"config must be an object, got {raw!r}")
    top = _read(raw, _DEFAULTS, "")
    grid = _parse_grid(top["grid"])
    ctl = _read(top["control"], _CONTROL, "control", {"type": CONTROLS, "q_channel_mode": Q_MODES})
    control = ctl["type"]
    gains = _read(ctl["gains"], _GAINS[control], "control.gains")
    gfl = _build("control.gains", GflParams, **gains) if control == GFL else GflParams()
    gfm = _build("control.gains", GfmParams, **gains) if control == GFM else GfmParams()
    sc = _read(top["sc"], _DEFAULTS["sc"], "sc")
    with_sc = sc.pop("enabled")
    sc = _build("sc", ScParams, **sc)
    network = _section(top, "network", NetworkSpec)
    op = _section(top, "op", OperatingPoint)
    sim = _read(top["sim"], _DEFAULTS["sim"], "sim")
    return _build(
        "sim",
        Scenario,
        name=top["name"],
        grid=grid,
        control=control,
        q_mode=ctl["q_channel_mode"],
        with_sc=with_sc,
        sc=sc,
        gfl=gfl,
        gfm=gfm,
        network=network,
        op=op,
        events=_parse_events(top["events"]),
        **sim,
    )


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
