"""Short-circuit strength metrics and their fault-simulation counterpart.

The closed forms work on impedance magnitudes: the plain ratio divides the
rated power by the driving-point impedance at the turbine MV bus, and the
condenser enters by paralleling its branch magnitude with the grid branch.
The measurement path runs a bolted fault on the source network and reads the
settled fault current from the marched states (sim.trajectory, with no
series captured), so the closed forms can be cross-checked against the full
time-domain model. The fault lands at t = 0 on the plant's equilibrium, so
row 0 of the run is the pre-fault state and every later row is faulted: no
pre-fault hold is marched, since nothing reads it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .components import NO_CONVERTER, OMEGA0, ScParams
from .config import GRID_CASES, Scenario, build_model, preset_scenario, refs_for
from .netbase import impedance_from_scr_xr, parallel_magnitude
from .powerflow import solve_equilibrium
# integrate stays importable here for perfbench's tracer
from .sim import Event, integrate, trajectory  # noqa: F401

# Reference strength pairs (without / with the condenser, weak to strong)
# used to size the condenser branch impedance.
CALIBRATION_SCR_NO_SC = (1.6, 3.2, 4.12)
CALIBRATION_SCR_WITH_SC = (2.67, 4.28, 5.71)

# the lumped array + plant-transformer magnitude is physical, not free: keep
# it off zero and below the weakest grid branch
Z_ATF_BOUNDS = (0.01, 0.2)
FLAG_THRESHOLD = 0.10

FAULT_RESISTANCE = 1e-4
FAULT_START = 0.0
MEASUREMENT_WINDOW = 0.2
AVERAGING_WINDOW = 0.02
DRIFT_LIMIT = 0.01
# condenser branch x/r used in measurement runs; the magnitude is preserved,
# the angle is aligned with the transmission branches so the magnitude
# parallel combination stays a faithful summary
BRANCH_TIME_CONSTANT = 0.025


def _check_positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive finite magnitude, got {value}")
    return float(value)


def _check_nonnegative(name: str, value: float) -> float:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a non-negative finite magnitude, got {value}")
    return float(value)


def scr_wt(z_g: float, z_atf: float) -> float:
    """Short-circuit ratio at the turbine MV bus, behind the lumped array
    cable and plant transformer."""
    return 1.0 / (_check_positive("z_g", z_g) + _check_nonnegative("z_atf", z_atf))


def escr_with_sc(z_g: float, z_sc: float, z_atf: float) -> float:
    """Enhanced ratio with the condenser branch paralleled at the PCC."""
    _check_nonnegative("z_atf", z_atf)
    return 1.0 / (parallel_magnitude(z_g, z_sc) + z_atf)


@dataclass(frozen=True)
class CondenserFit:
    """Result of sizing the condenser branch against the reference pairs."""

    z_sc: float
    z_atf: float
    z_g: tuple[float, ...]
    targets_no_sc: tuple[float, ...]
    targets_with_sc: tuple[float, ...]
    predicted: tuple[float, ...]
    rel_errors: tuple[float, ...]
    flagged: tuple[int, ...]


def fit_condenser_impedance() -> CondenserFit:
    """Least-squares fit of one condenser branch magnitude (plus the shared
    array branch magnitude) to the reference enhancement pairs.

    The plain-ratio column is matched exactly by construction: each grid
    branch magnitude is back-solved from its target. The relative errors on
    the enhanced column are what the single-impedance model leaves over; rows
    beyond the flag threshold are reported, not hidden.
    """
    from scipy.optimize import minimize  # imported here so that wppsc starts without scipy

    t_o = CALIBRATION_SCR_NO_SC
    t_sc = CALIBRATION_SCR_WITH_SC

    def rel_errors(z_sc: float, z_atf: float) -> np.ndarray:
        out = np.empty(len(t_o))
        for i, (so, ss) in enumerate(zip(t_o, t_sc)):
            z_g = 1.0 / so - z_atf
            out[i] = (escr_with_sc(z_g, z_sc, z_atf) - ss) / ss
        return out

    def cost(u: np.ndarray) -> float:
        r = rel_errors(float(u[0]), float(u[1]))
        # tiny pull toward the lower bound makes the flat direction unique
        return float(r @ r + 1e-3 * (u[1] - Z_ATF_BOUNDS[0]))

    res = minimize(
        cost,
        x0=np.array([0.5, 0.05]),
        method="L-BFGS-B",
        bounds=[(1e-2, 10.0), Z_ATF_BOUNDS],
    )
    z_sc, z_atf = float(res.x[0]), float(res.x[1])
    z_g = tuple(1.0 / so - z_atf for so in t_o)
    errs = rel_errors(z_sc, z_atf)
    predicted = tuple(escr_with_sc(g, z_sc, z_atf) for g in z_g)
    flagged = tuple(i for i, e in enumerate(errs) if abs(e) > FLAG_THRESHOLD)
    return CondenserFit(
        z_sc=z_sc,
        z_atf=z_atf,
        z_g=z_g,
        targets_no_sc=t_o,
        targets_with_sc=t_sc,
        predicted=predicted,
        rel_errors=tuple(float(e) for e in errs),
        flagged=flagged,
    )


class MeasurementInvalid(RuntimeError):
    """The fault run gave no settled current to read a ratio from."""


@dataclass(frozen=True)
class ScrMeasurement:
    scr: float
    v_prefault: float
    i_fault: float
    drift: float


def _measurement_scenario(scenario: Scenario) -> Scenario:
    """Open the converter branch and re-angle the condenser branch.

    The closed-form ratios combine magnitudes, which is exact only when the
    paralleled branches share their X/R angle. The measurement keeps every
    branch magnitude and moves the condenser angle onto the transmission
    range so the comparison tests the model, not the angle mismatch.
    """
    sc = scenario.sc
    if scenario.with_sc:
        z = math.hypot(sc.r_tr, sc.x_sub + sc.x_tr)
        ratio = OMEGA0 * BRANCH_TIME_CONSTANT
        r = z / math.hypot(1.0, ratio)
        sc = ScParams(x_sub=r * ratio, r_tr=r, x_tr=0.0, e_mag=sc.e_mag)
    return replace(scenario, control=NO_CONVERTER, sc=sc, events=())


def measure_scr_from_fault(
    scenario: Scenario, *, window: float = MEASUREMENT_WINDOW
) -> ScrMeasurement:
    """Measure the short-circuit ratio at the turbine MV bus.

    Runs the source network (converter branch open) from its equilibrium
    into a bolted fault at the turbine bus, applied at t = 0 and held for
    the whole window, and reads v_prefault * |i_fault| once the current has
    settled: v_prefault is |v_c| at row 0, the pre-fault equilibrium, and
    |i_fault| the mean of |i_a| over the last averaging window of samples
    t = k dt. It and the window before it must agree within the drift
    limit, otherwise the run is rejected rather than reported.
    """
    if window <= 2.0 * AVERAGING_WINDOW:
        raise ValueError(
            f"window must exceed {2.0 * AVERAGING_WINDOW} s to fit both averaging windows"
        )
    meas = _measurement_scenario(scenario)
    model = build_model(meas)
    eq = solve_equilibrium(model, refs_for(meas))
    v_pre = math.hypot(*model.pair(eq.state, "v_c_d"))

    t_end, dt = FAULT_START + window, 1e-4
    run = trajectory(model, eq.state, eq.refs, t_end, dt,
                     [Event.fault_on(FAULT_START, "wt_mv", FAULT_RESISTANCE)])
    if run.diverged or run.aborted:
        raise MeasurementInvalid(f"fault run did not complete: {run.note}")

    t = np.arange(len(run.states)) * dt
    recent = t >= t_end - 2.0 * AVERAGING_WINDOW  # the two averaging windows
    mag = np.hypot(*model.pair(run.states[recent].T, "i_a_d"))
    tail = t[recent] >= t_end - AVERAGING_WINDOW
    i_tail = float(np.mean(mag[tail]))
    i_prior = float(np.mean(mag[~tail]))
    if i_tail <= 0.0:
        raise MeasurementInvalid("no fault current flowed")
    drift = abs(i_tail - i_prior) / i_tail
    if drift > DRIFT_LIMIT:
        raise MeasurementInvalid(
            f"fault current drifted {drift:.1%} between the last two averaging windows; "
            f"extend the window (case {scenario.name!r}, window {window:g} s, "
            "set by measure_scr_from_fault(window=...))"
        )
    return ScrMeasurement(scr=v_pre * i_tail, v_prefault=v_pre, i_fault=i_tail, drift=drift)


@dataclass(frozen=True)
class ScrReport:
    case: str
    scr_o: float
    scr_sc_theory: float
    scr_sc_sim: float
    rel_dev: float


def enhancement_report(base: "Scenario | None" = None) -> list[ScrReport]:
    """Closed-form vs measured enhancement for the three grid cases
    (GRID_CASES).

    `base`, when given, supplies the condenser and network parameters; the
    grid branch always comes from the case.
    """
    rows = []
    for case in GRID_CASES:
        s = preset_scenario(case, control=NO_CONVERTER, with_sc=True, p_turb_ref=0.0)
        if base is not None:
            s = replace(s, sc=base.sc, network=base.network)
        z = impedance_from_scr_xr(GRID_CASES[case])
        z_g = math.hypot(z.r, z.x)
        net = s.network
        z_atf = math.hypot(net.ra + net.rtf, net.xa + net.xtf)
        z_sc = math.hypot(s.sc.r_tr, s.sc.x_sub + s.sc.x_tr)
        scr_o = scr_wt(z_g, z_atf)
        theory = escr_with_sc(z_g, z_sc, z_atf)
        sim = measure_scr_from_fault(s).scr
        rows.append(
            ScrReport(
                case=case,
                scr_o=scr_o,
                scr_sc_theory=theory,
                scr_sc_sim=sim,
                rel_dev=(sim - theory) / theory,
            )
        )
    return rows
