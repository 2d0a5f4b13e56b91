"""Short-circuit-ratio metrics: closed forms, the condenser sizing fit, and
the fault-simulation cross-check."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wppsc.components import GFM, ScParams
from wppsc.config import GRID_CASES, OperatingPoint, preset_scenario
from wppsc.netbase import parallel_magnitude
from wppsc.scr import (
    MeasurementInvalid,
    ScrMeasurement,
    ScrReport,
    enhancement_report,
    escr_with_sc,
    fit_condenser_impedance,
    measure_scr_from_fault,
    scr_wt,
)


def test_scr_wt_values():
    assert scr_wt(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert scr_wt(0.55, 0.075) == pytest.approx(1.6, rel=1e-12)
    assert scr_wt(0.2427, 0.0) == pytest.approx(4.120313, rel=1e-6)
    with pytest.raises(ValueError):
        scr_wt(0.5, -0.01)


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
    with pytest.raises(MeasurementInvalid):
        measure_scr_from_fault(s, window=0.05)


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
