"""Short-circuit-ratio metrics: closed forms, the condenser sizing fit, and
the fault-simulation cross-check."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wppsc.components import GFM, ScParams
from wppsc.config import GRID_CASES, OperatingPoint, build_model, preset_scenario, refs_for
from wppsc.netbase import parallel_magnitude
from wppsc.powerflow import solve_equilibrium
from wppsc.scr import (
    AVERAGING_WINDOW,
    FAULT_RESISTANCE,
    FAULT_START,
    MEASUREMENT_WINDOW,
    MeasurementInvalid,
    ScrMeasurement,
    ScrReport,
    _measurement_scenario,
    enhancement_report,
    escr_with_sc,
    fit_condenser_impedance,
    measure_scr_from_fault,
    scr_wt,
)
from wppsc.sim import Event, integrate, trajectory


def test_scr_wt_values():
    assert scr_wt(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert scr_wt(0.55, 0.075) == pytest.approx(1.6, rel=1e-12)
    assert scr_wt(0.2427, 0.0) == pytest.approx(4.120313, rel=1e-6)
    with pytest.raises(ValueError):
        scr_wt(0.5, -0.01)
    for z_g in (0.0, -0.5):
        with pytest.raises(ValueError, match="z_g must be a positive finite magnitude"):
            scr_wt(z_g, 0.0)


def test_escr_values():
    assert escr_with_sc(0.6, 0.6, 0.025) == pytest.approx(3.076923, rel=1e-6)
    # an absent condenser (open branch) recovers the plain ratio
    assert escr_with_sc(0.625, 1e9, 0.0907) == pytest.approx(
        scr_wt(0.625, 0.0907), rel=1e-6
    )


def test_escr_always_exceeds_plain_scr():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        z_g = rng.uniform(0.1, 2.0)
        z_sc = rng.uniform(0.05, 5.0)
        z_atf = rng.uniform(0.0, 0.2)
        assert escr_with_sc(z_g, z_sc, z_atf) > scr_wt(z_g, z_atf)
        assert parallel_magnitude(z_g, z_sc) < min(z_g, z_sc)


def test_condenser_sizing_fit():
    fit = fit_condenser_impedance()
    # the plain-ratio column is reproduced exactly by construction
    for z_g, target in zip(fit.z_g, fit.targets_no_sc):
        assert scr_wt(z_g, fit.z_atf) == pytest.approx(target, rel=1e-9)
    assert 0.01 <= fit.z_atf <= 0.2
    assert 0.3 < fit.z_sc < 1.5
    # the first two enhancement targets are matched closely; the stiffest
    # case carries the largest residual of the one-impedance model
    assert abs(fit.rel_errors[0]) < 0.05
    assert abs(fit.rel_errors[1]) < 0.05
    assert abs(fit.rel_errors[2]) < 0.10
    assert fit.flagged == ()
    for pred, target in zip(fit.predicted, fit.targets_with_sc):
        assert pred == pytest.approx(target, rel=0.10)
    # enhancement is monotone in grid strength in both columns
    assert list(fit.targets_no_sc) == sorted(fit.targets_no_sc)
    assert list(fit.predicted) == sorted(fit.predicted)


def test_fit_is_deterministic():
    a = fit_condenser_impedance()
    b = fit_condenser_impedance()
    assert a == b


def passive_scenario(case, with_sc):
    return preset_scenario(case, control="none", with_sc=with_sc,
                           v_g_ref=1.0, v_turb_ref=1.0, p_turb_ref=0.0)


def test_measured_grid_only_scr_matches_thevenin():
    s = passive_scenario("weak", with_sc=False)
    m = measure_scr_from_fault(s)
    net = s.network
    z_atf = math.hypot(net.ra + net.rtf, net.xa + net.xtf)
    theory = scr_wt(1.0 / GRID_CASES["weak"].scr, z_atf)
    assert isinstance(m, ScrMeasurement)
    # the settled current follows the series path; the reported ratio also
    # carries the (elevated) no-load prefault voltage of the weak grid
    assert m.i_fault == pytest.approx(theory, rel=0.02)
    assert m.scr == pytest.approx(m.v_prefault * m.i_fault, rel=1e-12)
    assert 1.0 < m.v_prefault < 1.1
    assert m.drift < 0.01


def test_measured_escr_close_to_theory_weak():
    s = passive_scenario("weak", with_sc=True)
    m = measure_scr_from_fault(s)
    sc = s.sc
    z_sc = math.hypot(sc.r_tr, sc.x_sub + sc.x_tr)
    net = s.network
    z_atf = math.hypot(net.ra + net.rtf, net.xa + net.xtf)
    theory = escr_with_sc(1.0 / GRID_CASES["weak"].scr, z_sc, z_atf)
    assert m.scr == pytest.approx(theory, rel=0.07)
    # the condenser visibly raises the measured strength
    base = measure_scr_from_fault(passive_scenario("weak", with_sc=False))
    assert m.scr > base.scr * 1.2


def test_measurement_rejects_unsettled_window():
    # a window too short for the grid branch time constant leaves the fault
    # current still drifting; the guard must refuse to report a number
    s = passive_scenario("normal", with_sc=False)
    with pytest.raises(MeasurementInvalid, match=r"drifted .*case 'normal', window 0.05 s"):
        measure_scr_from_fault(s, window=0.05)
    # a window that cannot hold both averaging windows is refused before any run
    with pytest.raises(ValueError, match="window must exceed 0.04 s"):
        measure_scr_from_fault(s, window=0.04)


@pytest.mark.parametrize("case", ["weak", "normal", "strong"])
def test_measurement_reads_the_captured_series(case):
    # the measurement reads the marched states; the same run captured as a
    # TimeSeries, its |i_a| and windows taken from the series' columns and
    # time axis, gives the same measurement bit for bit
    s = preset_scenario(case)
    meas = _measurement_scenario(s)
    model = build_model(meas)
    eq = solve_equilibrium(model, refs_for(meas))
    t_end = FAULT_START + MEASUREMENT_WINDOW
    ts = integrate(model, eq.state, eq.refs, t_end=t_end, dt=1e-4,
                   events=[Event.fault_on(FAULT_START, "wt_mv", FAULT_RESISTANCE)])
    assert not (ts.diverged or ts.aborted)
    mag = np.hypot(ts.columns["i_a_d"], ts.columns["i_a_q"])
    tail = ts.t >= t_end - AVERAGING_WINDOW
    prior = (ts.t >= t_end - 2.0 * AVERAGING_WINDOW) & ~tail
    i_tail, i_prior = float(np.mean(mag[tail])), float(np.mean(mag[prior]))
    v_pre = math.hypot(ts.columns["v_c_d"][0], ts.columns["v_c_q"][0])
    expected = ScrMeasurement(v_pre * i_tail, v_pre, i_tail, abs(i_tail - i_prior) / i_tail)
    assert measure_scr_from_fault(s) == expected


@pytest.mark.parametrize("case", ["weak", "normal", "strong"])
def test_faulting_at_zero_moves_the_measurement_only_by_rounding(case):
    # the same measurement with a 0.02 s pre-fault hold before the fault:
    # the hold stays on the equilibrium, so only rounding moves
    s = preset_scenario(case)
    meas = _measurement_scenario(s)
    model = build_model(meas)
    eq = solve_equilibrium(model, refs_for(meas))
    hold, dt = 0.02, 1e-4
    t_end = hold + MEASUREMENT_WINDOW
    run = trajectory(model, eq.state, eq.refs, t_end, dt,
                     [Event.fault_on(hold, "wt_mv", FAULT_RESISTANCE)])
    t = np.arange(len(run.states)) * dt
    mag = np.hypot(*model.pair(run.states.T, "i_a_d"))
    tail = t >= t_end - AVERAGING_WINDOW
    prior = (t >= t_end - 2.0 * AVERAGING_WINDOW) & ~tail
    i_tail, i_prior = float(np.mean(mag[tail])), float(np.mean(mag[prior]))
    v_pre = math.hypot(*model.pair(eq.state, "v_c_d"))
    got = measure_scr_from_fault(s)
    assert got.scr == pytest.approx(v_pre * i_tail, rel=1e-12, abs=0.0)
    assert got.i_fault == pytest.approx(i_tail, rel=1e-12, abs=0.0)
    assert got.drift == pytest.approx(abs(i_tail - i_prior) / i_tail, rel=0.0, abs=1e-12)


def test_measurement_accepts_converter_scenarios_by_opening_them():
    # a converter scenario is measured with the converter branch open, so the
    # result matches the passive measurement of the same network
    s_conv = preset_scenario("weak", control=GFM, with_sc=True)
    s_pass = passive_scenario("weak", with_sc=True)
    a = measure_scr_from_fault(s_conv)
    b = measure_scr_from_fault(s_pass)
    assert a.scr == pytest.approx(b.scr, rel=1e-9)


def test_enhancement_report():
    rows = enhancement_report()
    assert [r.case for r in rows] == ["weak", "normal", "strong"]
    for r in rows:
        assert isinstance(r, ScrReport)
        assert r.scr_sc_theory > r.scr_o
        assert r.scr_sc_sim == pytest.approx(r.scr_sc_theory, rel=0.07)
        assert r.rel_dev == pytest.approx(
            (r.scr_sc_sim - r.scr_sc_theory) / r.scr_sc_theory, abs=1e-12
        )
    # stronger grids stay stronger with the condenser connected
    sims = [r.scr_sc_sim for r in rows]
    assert sims == sorted(sims)
