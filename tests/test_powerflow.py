"""Equilibrium solver checks.

The heavyweight oracle is an independent complex-phasor power flow built on
scipy.optimize.fsolve in the standard electrical convention. It shares no
code with the solver under test; agreement on frame-invariant quantities
(voltage magnitudes, active powers) pins down the network solution.
"""

import cmath
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import fsolve

from wppsc import powerflow
from wppsc.analysis import analyze_scenario, sweep
from wppsc.components import (
    CONTROLS, GFL, GFM, NO_CONVERTER, OMEGA0, Q_MODE_REACTIVE, Q_MODE_VOLTAGE, Q_MODES, RefInputs,
    power_pair,
)
from wppsc.config import (
    GRID_CASES, OperatingPoint, Scenario, build_model, preset_scenario, refs_for,
    standard_operating_points,
)
from wppsc.linearize import numjac
from wppsc.netbase import GridCase, impedance_from_scr_xr
from wppsc.powerflow import (
    MAX_HALVINGS,
    MAX_ITERATIONS,
    RESIDUAL_TARGET,
    VOLTAGE_BAND,
    EquilibriumPoint,
    InfeasibleError,
    NonConvergenceError,
    SolveError,
    _jacobian,
    _newton,
    _residual,
    _row_scale,
    _solve,
    initial_guess,
    solve_equilibria,
    solve_equilibrium,
)
from wppsc.scr import _measurement_scenario
from wppsc.sim import integrate


def scenario(case="normal", control=GFL, with_sc=True, op=(1.0, 1.0, 1.0), **kw):
    return Scenario(
        name="pf",
        grid=GRID_CASES[case],
        control=control,
        with_sc=with_sc,
        op=OperatingPoint(*op),
        **kw,
    )


def row_scale_table(model):
    """Newton's row scale written out from the parameters: each row's L or
    C by its state label, 1 on the controller rows and 1 on the closure
    rows."""
    net = model.network
    scale = {
        "i_g": model.grid.x / OMEGA0,
        "i_sc": model.sc.x_sub / OMEGA0 if model.has_sc else 1.0,
        "i_f": net.xf / OMEGA0,
        "v_c": 1.0 / (OMEGA0 * net.x_cf),
        "i_a": net.xa / OMEGA0 + net.xtf / OMEGA0,
        "v_pcc": net.c_pcc,
    }
    out = []
    for lab in model.labels:
        base = lab.rsplit("_", 1)[0] if lab.endswith(("_d", "_q")) else lab
        out.append(scale.get(base, 1.0))
    closures = model.has_sc + (model.control == GFL and model.q_mode == Q_MODE_REACTIVE)
    return np.array(out + [1.0] * closures)


@pytest.mark.parametrize("control", [GFL, GFM, NO_CONVERTER])
@pytest.mark.parametrize("with_sc", [True, False])
@pytest.mark.parametrize("q_mode", Q_MODES)
def test_row_scale_matches_the_parameter_table(control, with_sc, q_mode):
    model = build_model(scenario("weak", control, with_sc, q_mode=q_mode))
    got, want = _row_scale(model), row_scale_table(model)
    assert got.shape == want.shape and np.array_equal(got, want)


def phasor_oracle(case, with_sc, p, v_turb, v_g, sc=None, net=None):
    """Standard-convention power flow: P source + voltage magnitude constraint
    at the turbine bus, Thevenin grid, optional zero-P EMF branch at PCC.

    Returns (|v_pcc|, p_g) with p_g measured at the grid source, current
    oriented grid -> PCC.
    """
    z = impedance_from_scr_xr(GRID_CASES[case])
    zg = complex(z.r, z.x)
    zat = complex(0.011, 0.09)  # array cable + plant transformer defaults
    b_pcc = OMEGA0 * 1e-4
    if net is not None:
        zat = complex(net.ra + net.rtf, net.xa + net.xtf)
        b_pcc = OMEGA0 * net.c_pcc
    if sc is None:
        x_sc, r_sc, e_sc = 0.17 + 0.1, 0.08, 1.0
    else:
        x_sc, r_sc, e_sc = sc.x_sub + sc.x_tr, sc.r_tr, sc.e_mag
    zsc = complex(r_sc, x_sc)

    def eqs(u):
        v_c = complex(u[0], u[1])
        v_p = complex(u[2], u[3])
        q = u[4]
        i_a = ((p + 1j * q) / v_c).conjugate()
        i_g = (v_g - v_p) / zg
        kcl = i_a + i_g - 1j * b_pcc * v_p
        out = [abs(v_c) ** 2 - v_turb**2]
        kvl = v_c - v_p - zat * i_a
        out += [kvl.real, kvl.imag]
        if with_sc:
            phi = u[5]
            e = e_sc * cmath.exp(1j * phi)
            i_sc = (e - v_p) / zsc
            kcl += i_sc
            out += [kcl.real, kcl.imag, (e * i_sc.conjugate()).real]
        else:
            out += [kcl.real, kcl.imag]
        return out

    u0 = [v_turb, 0.0, 1.0, 0.0, 0.0] + ([0.0] if with_sc else [])
    sol, info, ier, msg = fsolve(eqs, u0, full_output=True)
    assert ier == 1, msg
    v_p = complex(sol[2], sol[3])
    i_g = (v_g - v_p) / zg
    return abs(v_p), (v_g * i_g.conjugate()).real


def test_no_load_passive_matches_linear_network():
    # at zero export the only currents are shunt-capacitor charging; the
    # network is linear so the phasor solution is exact
    s = scenario("strong", control=NO_CONVERTER, with_sc=False, op=(1.0, 1.0, 0.0))
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    assert eq.residual_norm < 1e-10

    z = impedance_from_scr_xr(GRID_CASES["strong"])
    zg = complex(z.r, z.x)
    net = model.network
    zat = complex(net.ra + net.rtf, net.xa + net.xtf)
    b_cf = 1.0 / net.x_cf
    b_pcc = OMEGA0 * net.c_pcc
    # unknowns (v_c, v_pcc): filter-cap KCL folded into the branch KVL, then
    # the PCC node law against the Thevenin source
    a = np.array(
        [
            [1.0 + 1j * b_cf * zat, -1.0],
            [-1j * b_cf, -(1.0 / zg + 1j * b_pcc)],
        ]
    )
    v_c_ph, v_p_ph = np.linalg.solve(a, np.array([0.0, -1.0 / zg]))
    i_g_ph = (1.0 - v_p_ph) / zg

    v_c = model.pair(eq.state, "v_c_d")
    v_p = model.pair(eq.state, "v_pcc_d")
    i_g = model.pair(eq.state, "i_g_d")
    assert math.hypot(*v_c) == pytest.approx(abs(v_c_ph), abs=1e-8)
    assert math.hypot(*v_p) == pytest.approx(abs(v_p_ph), abs=1e-8)
    assert math.hypot(*i_g) == pytest.approx(abs(i_g_ph), abs=1e-8)
    # light capacitive rise above the 1.0 pu source
    assert 1.0 < abs(v_p_ph) < 1.05


@pytest.mark.parametrize("with_sc", [False, True])
def test_gfm_weak_matches_independent_phasor_solution(with_sc):
    s = scenario("weak", control=GFM, with_sc=with_sc)
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    v_pcc = model.pair(eq.state, "v_pcc_d")
    got_vp = math.hypot(v_pcc[0], v_pcc[1])
    got_pg = model.measure(eq.state, eq.refs)["p_g"]

    ref_vp, ref_pg = phasor_oracle("weak", with_sc, p=1.0, v_turb=1.0, v_g=1.0)
    assert got_vp == pytest.approx(ref_vp, abs=1e-6)
    assert got_pg == pytest.approx(ref_pg, abs=1e-6)
    # exporting plant: the grid source absorbs almost 1 pu
    assert ref_pg < 0.0
    assert 0.85 <= -ref_pg <= 1.0


@pytest.mark.parametrize("case", ["weak", "normal", "strong"])
def test_gfl_reactive_matches_independent_phasor_solution(case):
    s = scenario(case, control=GFL, with_sc=True, op=(1.0, 1.08, 0.9))
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    v_pcc = model.pair(eq.state, "v_pcc_d")
    got_vp = math.hypot(v_pcc[0], v_pcc[1])
    got_pg = model.measure(eq.state, eq.refs)["p_g"]
    ref_vp, ref_pg = phasor_oracle(case, True, p=0.9, v_turb=1.08, v_g=1.0)
    assert got_vp == pytest.approx(ref_vp, abs=1e-6)
    assert got_pg == pytest.approx(ref_pg, abs=1e-6)


def test_turbine_bus_magnitude_constraint_and_solved_q():
    s = scenario("normal", control=GFL, with_sc=False, op=(1.0, 1.08, 0.8))
    assert s.q_mode == Q_MODE_REACTIVE
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    v_c = model.pair(eq.state, "v_c_d")
    assert math.hypot(v_c[0], v_c[1]) == pytest.approx(1.08, abs=1e-8)
    assert model.unknowns == ("q_star",)
    assert eq.refs.q_star != refs_for(s).q_star  # solved for, not the configured value


def test_gfm_turbine_bus_magnitude_from_voltage_loop():
    s = scenario("strong", control=GFM, with_sc=True, op=(0.92, 0.92, 1.0))
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    v_c = model.pair(eq.state, "v_c_d")
    assert math.hypot(v_c[0], v_c[1]) == pytest.approx(0.92, abs=1e-8)
    assert "q_star" not in model.unknowns
    assert eq.refs.q_star == refs_for(s).q_star


def test_postconditions_power_tracking_and_sc_float():
    for control in (GFL, GFM):
        s = scenario("normal", control=control, with_sc=True)
        model = build_model(s)
        eq = solve_equilibrium(model, refs_for(s))
        pw = model.measure(eq.state, eq.refs)
        assert pw["p_pc"] == pytest.approx(1.0, abs=1e-6)
        assert abs(pw["p_sc"]) < 0.01


def test_power_balance_closes():
    # source powers equal series-resistance dissipation: the converter and
    # condenser branches only shuffle power, they do not create it
    s = scenario("weak", control=GFM, with_sc=True)
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    pw = model.measure(eq.state, eq.refs)
    i_g = model.pair(eq.state, "i_g_d")
    i_sc = model.pair(eq.state, "i_sc_d")
    i_a = model.pair(eq.state, "i_a_d")
    net = model.network
    loss = (
        model.grid.r * (i_g @ i_g)
        + model.sc.r_tr * (i_sc @ i_sc)
        + (net.ra + net.rtf) * (i_a @ i_a)
    )
    assert pw["p_pc"] + pw["p_g"] + pw["p_sc"] == pytest.approx(loss, abs=1e-9)


def test_infeasible_point_raises():
    s = Scenario(
        name="beyond-loadability",
        grid=GridCase(scr=0.2, x_r=5.0),
        control=GFM,
        with_sc=False,
        op=OperatingPoint(1.0, 1.0, 1.0),
    )
    model = build_model(s)
    with pytest.raises(InfeasibleError) as exc:
        solve_equilibrium(model, refs_for(s))
    assert exc.value.final_residual > 1e-3
    assert exc.value.iterations > 0


@pytest.mark.parametrize("cls, text", [
    (NonConvergenceError, "no convergence after 7 iterations, residual 2.500e-05"),
    (InfeasibleError, "no equilibrium found, residual stuck at 2.500e-05"),
])
def test_solver_failures_share_one_base_and_keep_their_messages(cls, text):
    # sweep.csv's failure column prints type(e).__name__: e
    for detail, msg in (("", text), ("why", text + " (why)")):
        e = cls(7, 2.5e-5, detail)
        assert isinstance(e, SolveError) and isinstance(e, RuntimeError)
        assert str(e) == msg
        assert (e.iterations, e.final_residual, e.detail) == (7, 2.5e-5, detail)


def test_initial_guess_structure():
    s = scenario("strong", control=GFL, with_sc=True)
    model = build_model(s)
    refs = refs_for(s)
    z = initial_guess(model, [refs], _row_scale(model))[:, 0]
    x0 = z[: model.n]
    assert x0.shape == (model.n,)
    # unit voltage seeds, near-rated current seed on the export path
    assert x0[model.index("v_c_d")] == pytest.approx(1.0, rel=0.1)
    assert x0[model.index("v_pcc_d")] == pytest.approx(1.0, rel=0.1)
    assert abs(x0[model.index("i_a_d")] - 1.0) <= 0.2
    # one trailing slot for the condenser angle, solved by the power flow
    # (-0.241 rad here, no longer zero), and one for solved q, at the
    # converter's reactive power in the start state
    assert z.shape == (model.n + 2,)
    assert -math.pi / 2 < z[model.n] < 0.0
    assert z[-1] == power_pair(model.pair(x0, "v_c_d"), model.pair(x0, "i_a_d"))[1]
    # the power flow: p_star and the voltage target at the turbine bus, no
    # active power at the condenser EMF
    start = model.measure(x0, replace(refs, phi_sc=z[model.n]))
    assert start["p_pc"] == pytest.approx(refs.p_star, abs=1e-10)
    assert start["v_c_mag"] == pytest.approx(refs.v_turb_star, abs=1e-10)
    assert abs(start["p_sc"]) <= 1e-10


def premise_errors(model, eq):
    """|p_pc - p_star|, ||v_c| - v_turb_star| (with a converter) and |p_sc|
    (with the condenser) at a solved equilibrium: what the power-flow start
    assumes every control settles to."""
    pw = model.measure(eq.state, eq.refs)
    out = [abs(pw["p_pc"] - eq.refs.p_star), abs(pw["v_c_mag"] - eq.refs.v_turb_star)]
    return out * (model.control != NO_CONVERTER) + [abs(pw["p_sc"])] * model.has_sc


@pytest.mark.parametrize("case", sorted(GRID_CASES))
@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("q_mode", Q_MODES)
@pytest.mark.parametrize("with_sc", [True, False])
def test_solved_equilibria_meet_the_power_flow_premise(case, control, q_mode, with_sc):
    scenarios = [scenario(case, control, with_sc, (op.v_g_ref, op.v_turb_ref, op.p_turb_ref),
                          q_mode=q_mode) for op in standard_operating_points()]
    model = build_model(scenarios[0])
    for eq in solve_equilibria(model, [refs_for(s) for s in scenarios]):
        assert max(premise_errors(model, eq), default=0.0) < 1e-8


def test_seed_sweep_takes_one_newton_step_per_scenario():
    # the power-flow start is the equilibrium to within the 1e-10 target: each
    # scenario takes the one certifying step and no other
    reports = sweep()
    assert len(reports) == 324
    assert all(r.solved and r.newton_iterations == 1 for r in reports)


@pytest.mark.parametrize("case", sorted(GRID_CASES))
@pytest.mark.parametrize("control", [GFL, GFM])
@pytest.mark.parametrize("q_mode", Q_MODES)
@pytest.mark.parametrize("with_sc", [True, False])
def test_start_integrators_are_the_least_squares_solution(case, control, q_mode, with_sc):
    # the start's four integrators minimise the row-scaled residual of the
    # rows the controller writes, in which it is affine: moving each by one
    # gives its column J, and the gradient J^T f vanishes at the start
    scenarios = [scenario(case, control, with_sc, (op.v_g_ref, op.v_turb_ref, op.p_turb_ref),
                          q_mode=q_mode) for op in standard_operating_points()]
    model, members = build_model(scenarios[0]), [refs_for(s) for s in scenarios]
    refs, scale = RefInputs.stack(members), _row_scale(model)
    z = initial_guess(model, members, scale)

    def f(zz):
        return (scale[:, None] * _residual(model, zz, refs))[model.writes]

    f0, n = f(z), model.n
    jac = np.stack([f(z + np.eye(len(z), 1, -k)) - f0 for k in range(n - 4, n)], axis=1)
    grad = np.einsum("rkm,rm->km", jac, f0)
    assert np.max(np.abs(grad)) <= 1e-12 * np.max(np.abs(jac)) * max(1.0, np.max(np.abs(f0)))


def test_initial_guess_no_load_passive():
    # the network with its shunt capacitors (and the condenser EMF at the
    # closed-form angle without active power) is the whole plant: the guess
    # is its equilibrium, closure row included
    for case, with_sc in [("normal", False), *((c, True) for c in sorted(GRID_CASES))]:
        for v_g_ref in (0.8, 1.0, 1.2):
            s = scenario(case, control=NO_CONVERTER, with_sc=with_sc, op=(v_g_ref, 1.0, 0.0))
            model, refs = build_model(s), refs_for(s)
            z0 = initial_guess(model, [refs], _row_scale(model))[:, 0]
            assert z0.shape == (model.n + with_sc,)
            assert np.abs(_residual(model, z0, refs)).max() <= 1e-11, (case, with_sc, v_g_ref)


def passive_plants():
    """The three SCR measurement plants, then the passive presets with the
    condenser on and off."""
    yield from (_measurement_scenario(preset_scenario(case)) for case in sorted(GRID_CASES))
    for case in sorted(GRID_CASES):
        for with_sc in (True, False):
            yield preset_scenario(case, control=NO_CONVERTER, with_sc=with_sc)


# a stiff grid at a raised source voltage: the closed-form start's residual
# is 1.49e-8, above even RESIDUAL_ACCEPT
MISSED_START = Scenario(name="miss", grid=GridCase(1e4, 0.05), control=NO_CONVERTER,
                        with_sc=True, op=OperatingPoint(1.1, 1.0, 0.0))


@pytest.mark.parametrize("s", list(passive_plants()), ids=lambda s: f"{s.name}-sc{int(s.with_sc)}")
def test_passive_start_on_target_is_taken_as_it_stands(s):
    model, refs = build_model(s), refs_for(s)
    z0 = initial_guess(model, [refs], _row_scale(model))[:, 0]
    eq = solve_equilibrium(model, refs)
    assert eq.iterations == 0 and eq.residual_norm < 1e-10
    assert np.array_equal(eq.state, z0[: model.n])
    assert [getattr(eq.refs, name) for name in model.unknowns] == z0[model.n :].tolist()


def test_passive_start_that_misses_the_target_runs_newton():
    # the solve is Newton's from that start, not the continuation's
    model, refs = build_model(MISSED_START), refs_for(MISSED_START)
    scale = _row_scale(model)
    z0 = initial_guess(model, [refs], scale)
    assert np.abs(_residual(model, z0[:, 0], refs)).max() > 1e-8
    z, iters, _, _ = _newton(model, z0, RefInputs.stack([refs]), scale)
    eq = solve_equilibrium(model, refs)
    assert eq.iterations == iters[0] >= 1 and eq.residual_norm < 1e-10
    assert np.array_equal(eq.state, z[: model.n, 0])


def test_passive_batch_members_match_their_solves_alone():
    # members on target and members that miss, in one batch: each gets the
    # iterations and state it gets alone, and a member on target its residual
    model = build_model(MISSED_START)
    refs = [replace(refs_for(MISSED_START), v_g_ref=v) for v in (1.05, 1.1, 1.2, 1.0)]
    batch = solve_equilibria(model, refs)
    assert [eq.iterations == 0 for eq in batch] == [True, False, True, False]
    for eq, r in zip(batch, refs):
        alone = solve_equilibrium(model, r)
        assert eq.iterations == alone.iterations
        assert eq.residual_norm < 1e-8
        assert np.allclose(eq.state, alone.state, rtol=0.0, atol=1e-12)
        if not eq.iterations:
            assert eq.residual_norm == alone.residual_norm


def test_weak_grid_start_lands_on_the_normal_operating_point():
    # two power-flow solutions exist this close to the nose; the warm start
    # must not lead Newton to the large-angle, low-voltage one
    s = Scenario(
        name="edge",
        grid=GridCase(scr=1.3, x_r=5.0),
        control=GFM,
        with_sc=False,
        op=OperatingPoint(0.8, 1.2, 1.2),
    )
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    assert abs(math.atan2(*model.pair(eq.state, "v_c_d")[::-1])) < math.pi / 2
    assert analyze_scenario(s).stable


def test_reference_frame_choice_does_not_change_physics():
    s = scenario("weak", control=GFM, with_sc=True)
    model = build_model(s)
    refs0 = refs_for(s)
    eq0 = solve_equilibrium(model, refs0)
    from dataclasses import replace

    eq1 = solve_equilibrium(model, replace(refs0, v_g_angle=0.7))
    for eq, tag in ((eq0, "base"), (eq1, "rotated")):
        assert eq.residual_norm < 1e-8, tag
    v0 = model.pair(eq0.state, "v_pcc_d")
    v1 = model.pair(eq1.state, "v_pcc_d")
    assert math.hypot(*v0) == pytest.approx(math.hypot(*v1), abs=1e-8)
    p0 = model.measure(eq0.state, eq0.refs)
    p1 = model.measure(eq1.state, eq1.refs)
    for key in ("p_pc", "p_g", "p_sc", "q_pc"):
        assert p0[key] == pytest.approx(p1[key], abs=1e-7), key


def test_equilibrium_is_stationary_under_integration():
    # short hold; the long-horizon drift bound lives in the acceptance suite
    s = scenario("normal", control=GFM, with_sc=True)
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    ts = integrate(model, eq.state, eq.refs, t_end=1.0, dt=2e-4)
    final = np.array([ts.columns[name][-1] for name in model.labels])
    assert np.max(np.abs(final - eq.state)) < 1e-6


def test_all_three_cases_solve_at_rated_export():
    for case in ("weak", "normal", "strong"):
        for control in (GFL, GFM):
            for with_sc in (False, True):
                s = scenario(case, control=control, with_sc=with_sc)
                eq = solve_equilibrium(build_model(s), refs_for(s))
                assert eq.residual_norm < 1e-8, (case, control, with_sc)


def test_stacked_solve_falls_back_to_least_squares_for_a_singular_member_only():
    rng = np.random.default_rng(3)
    jac = rng.normal(size=(3, 4, 4))
    jac[1, :, 2] = 0.0  # member 1 is singular
    rhs = rng.normal(size=(4, 3))
    steps = _solve(jac, rhs)
    for j in (0, 2):
        assert np.allclose(steps[:, j], np.linalg.solve(jac[j], rhs[:, j]), rtol=1e-12, atol=0.0)
    assert np.allclose(steps[:, 1], np.linalg.lstsq(jac[1], rhs[:, 1], rcond=None)[0], rtol=1e-12)


def test_batch_members_match_their_solves_alone():
    # a failed member reports its solve alone; the others are unaffected
    model = build_model(scenario("weak", GFL, with_sc=False))
    refs = [refs_for(scenario("weak", GFL, False, op=op))
            for op in ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.92, 1.08, 0.1))]
    refs[1] = replace(refs[1], p_star=3.0)  # beyond the loadability limit
    batch = solve_equilibria(model, refs)
    assert isinstance(batch[1], InfeasibleError)
    with pytest.raises(InfeasibleError) as exc:
        solve_equilibrium(model, refs[1])
    assert (batch[1].iterations, batch[1].final_residual) == (exc.value.iterations,
                                                            exc.value.final_residual)
    for j in (0, 2):
        alone = solve_equilibrium(model, refs[j])
        assert batch[j].iterations == alone.iterations
        assert batch[j].residual_norm < 1e-8
        assert np.allclose(batch[j].state, alone.state, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("control", [GFL, GFM])
def test_a_column_that_leaves_stays_where_it_left(control):
    # column 0 starts at the power flow and certifies in one step; column 1
    # starts 1% off it and needs more. Once column 0 leaves, the loop still
    # evaluates it with the batch but must not move it: it ends bit for bit
    # where the same start ends in a batch that leaves at once
    model = build_model(scenario("weak", control))
    refs, scale = refs_for(scenario("weak", control)), _row_scale(model)
    z0, both = initial_guess(model, [refs], scale), RefInputs.stack([refs, refs])
    z, iters, _, ok = _newton(model, np.hstack([z0, 1.01 * z0]), both, scale)
    z_twin, iters_twin, *_ = _newton(model, np.hstack([z0, z0]), both, scale)
    assert iters[0] == 1 and iters[1] >= 3 and ok.all()
    assert iters_twin.tolist() == [1, 1]
    assert np.array_equal(z[:, 0], z_twin[:, 0])


@np.errstate(over="ignore", invalid="ignore")
def masked_newton(residual, jacobian, z, scale, norm=None, trials=None):
    """Reference for powerflow._damped_newton without its whole step and its
    one merit: every trial is merged into z and f by np.where, whatever
    accepts, and its merit and its norm are evaluated apart (norm None is
    the merit). Appends (live, better) per trial to trials, if given."""
    def l2(f):
        return np.sqrt((f * f).sum(axis=0))

    norm = norm or (lambda f: l2(scale * f))
    f = residual(z)
    iters, live = np.full(z.shape[1], MAX_ITERATIONS), np.ones(z.shape[1], dtype=bool)
    for it in range(1, MAX_ITERATIONS + 1):
        f_s = scale * f
        step, merit = _solve(jacobian(z), -f_s), l2(f_s)
        stalled = live.copy()
        for lam in (0.5**k for k in range(MAX_HALVINGS + 1)):
            z_try = z + lam * step
            f_try = residual(z_try)
            better = stalled & ((l2(scale * f_try) < merit) | (norm(f_try) < RESIDUAL_TARGET))
            if trials is not None:
                trials.append((live.copy(), better))
            z, f, stalled = np.where(better, z_try, z), np.where(better, f_try, f), stalled & ~better
            if not stalled.any():
                break
        done = live & (stalled | (norm(f) < RESIDUAL_TARGET))
        iters[done], live = it, live & ~done
        if not live.any():
            break
    return z, iters, norm(f)


# five columns of f = (arctan(z0 - 0.3), z1 - z0 / 2); the last has z0^2 + 1
# for its first row, which has no root, so that column stalls
ROOTLESS = np.array([False, False, False, False, True])
PER_COLUMN_START = np.array([[0.35, 1.3, 3.3, 12.0, 2.0], [0.0, 1.0, -1.0, 5.0, 0.5]])


def per_column_residual(z):
    return np.array([np.where(ROOTLESS, z[0] ** 2 + 1.0, np.arctan(z[0] - 0.3)), z[1] - 0.5 * z[0]])


def per_column_jacobian(z):
    jac = np.zeros((z.shape[1], 2, 2))
    jac[:, 0, 0] = np.where(ROOTLESS, 2.0 * z[0], 1.0 / (1.0 + (z[0] - 0.3) ** 2))
    jac[:, 1, 0], jac[:, 1, 1] = -0.5, 1.0
    return jac


@pytest.mark.parametrize("scale, norm", [
    (np.array([[1.0], [2.0]]), lambda f: np.abs(f).max(axis=0)),  # as the equilibrium: scaled, ∞-norm
    (1.0, None),  # as the power flow: unscaled, judged on the merit
])
def test_whole_step_is_the_masked_merge_accepting_every_column(scale, norm):
    # the columns accept at different step lengths and leave at different
    # iterations, one by stalling; while some have left, every live column
    # accepts a trial, and there the merge must still keep the ones that left
    trials = []
    ref = masked_newton(per_column_residual, per_column_jacobian, PER_COLUMN_START.copy(), scale, norm,
                        trials)
    got = powerflow._damped_newton(per_column_residual, per_column_jacobian, PER_COLUMN_START.copy(),
                                   scale, norm)
    assert len(set(ref[1].tolist())) >= 3 and ref[2][-1] > 0.5  # the rootless column stalls
    assert any(better[live].all() and not live.all() for live, better in trials)
    assert any(better.any() and not better[live].all() for live, better in trials)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_whole_step_batch_newton_matches_the_masked_merge():
    # 27 members of one model, every third started 1% off its power flow, so
    # that some certify in one step and the others leave later
    members = [refs_for(scenario("weak", GFL, True, (op.v_g_ref, op.v_turb_ref, op.p_turb_ref)))
               for op in standard_operating_points()]
    model = build_model(scenario("weak", GFL, True))
    scale, stacked = _row_scale(model), RefInputs.stack(members)
    z0 = initial_guess(model, members, scale)
    z0[:, ::3] *= 1.01
    got = _newton(model, z0, stacked, scale)
    with mock.patch.object(powerflow, "_damped_newton", masked_newton):
        ref = _newton(model, z0, stacked, scale)
    assert set(ref[1].tolist()) > {1} and ref[3].all()
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("grid, control, with_sc, op", [
    ((0.2840, 0.1086), GFL, False, (0.8063, 0.9455, 0.2016)),
    ((0.3272, 0.1028), GFM, False, (0.8317, 0.8919, 0.4946)),
    ((0.4031, 0.0618), GFM, False, (1.093, 1.168, 0.8752)),
])
def test_continuation_solves_where_the_cold_start_stalls(grid, control, with_sc, op):
    # a nearly resistive weak grid in voltage mode: Newton from the cold
    # start stalls, and the source/power ramp reaches the equilibrium
    s = Scenario(grid=GridCase(*grid), control=control, q_mode=Q_MODE_VOLTAGE, with_sc=with_sc,
                 op=OperatingPoint(*op))
    model, refs = build_model(s), refs_for(s)
    scale = _row_scale(model)
    *_, cold_ok = _newton(model, initial_guess(model, [refs], scale), RefInputs.stack([refs]), scale)
    assert not cold_ok[0]
    assert solve_equilibrium(model, refs).residual_norm < 1e-8
    assert solve_equilibria(model, [refs_for(scenario()), refs])[1].residual_norm < 1e-8


@st.composite
def valid_scenarios(draw):
    """A scenario anywhere in the validated ranges: grid SCR log-uniform in
    [1e-4, 1e4] (the config takes any SCR in (0, 1e4]), X/R from nearly
    resistive to 30, the operating box, every control and q mode, the
    condenser on or off."""
    return Scenario(
        grid=GridCase(10.0 ** draw(st.floats(-4.0, 4.0)), draw(st.floats(0.05, 30.0))),
        control=draw(st.sampled_from(CONTROLS)),
        q_mode=draw(st.sampled_from(Q_MODES)),
        with_sc=draw(st.booleans()),
        op=OperatingPoint(draw(st.floats(0.8, 1.2)), draw(st.floats(0.8, 1.2)), draw(st.floats(0.0, 1.2))),
    )


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(valid_scenarios())
def test_drawn_scenario_solves_or_fails_typed_alike_alone_and_in_a_batch(s):
    # A solved member's iteration count is not compared: the 1e-10 target sits
    # near the RHS's rounding floor from SCR ~1e3 up, so there the batch's
    # rounding can move the count past the one certifying step, by a few
    # iterations (by up to 3, in 22 of 614 solved draws of these ranges).
    model = build_model(s)
    try:
        alone = solve_equilibrium(model, refs_for(s))
    except (InfeasibleError, NonConvergenceError) as exc:
        alone = exc
    else:
        assert alone.residual_norm < 1e-8
        for lab in ("v_c_d", "v_pcc_d"):
            assert VOLTAGE_BAND[0] < math.hypot(*model.pair(alone.state, lab)) < VOLTAGE_BAND[1]
    standard = [refs_for(replace(s, op=OperatingPoint(*op))) for op in ((1.0, 1.0, 1.0), (0.92, 1.08, 0.5))]
    batch = solve_equilibria(model, [refs_for(s), *standard])[0]
    assert type(batch) is type(alone)
    if isinstance(alone, EquilibriumPoint):
        assert batch.residual_norm < 1e-8
        assert np.max(np.abs(batch.state - alone.state)) <= 1e-10 * max(1.0, np.max(np.abs(alone.state)))
    else:  # a failure is solved again alone
        assert (batch.iterations, batch.final_residual) == (alone.iterations, alone.final_residual)


def phasor_power_flow(model, v, i_sc, k, refs, m):
    """Reference for powerflow._power_flow, as it was first written: the same
    damped Newton stated on the phasors, the residual and its Jacobian one
    complex expression per equation, every pass a masked update of every
    member. Returns u (3, m) and the final merit, sum of squares, per member."""
    (v0, va, vs), (s0, sa, ss) = ((c[:k], c[k], c[k + 2]) for c in (v, i_sc))
    p, vt, e_mag = refs.p_star, refs.v_turb_star, model.sc.e_mag if model.has_sc else 0.0
    rows = np.flatnonzero([bool(model.writes)] * 2 + [model.has_sc])
    sel, d_i, d_e = np.ix_(rows, rows), np.array([[1.0], [1j], [0.0]]), np.array([[0.0], [0.0], [1j]])
    dv_i, dsc_i, d_ic = va * d_i, sa * d_i, d_i.conj()  # over (i_a d, i_a q, phi_sc)
    u, i = np.zeros((3, m)), p / vt * np.exp(1j * np.angle(v0 + vs))
    u[0], u[1] = i.real, i.imag
    if e_mag:
        g = s0 + sa * i
        u[2] = np.angle(g) + np.arccos(np.clip(-ss.real / np.abs(g), -1.0, 1.0))

    def flow(u):
        i, e = u[0] + 1j * u[1], np.exp(1j * u[2])
        vc, isc, de = v0 + va * i + vs * e, s0 + sa * i + ss * e, d_e * e
        ic, vcc, iscc, dv = i.conj(), vc.conj(), isc.conj(), dv_i + vs * de
        f = np.array([vc * ic - p, vc * vcc - vt**2, e_mag * e * iscc]).real
        jac = np.array([dv * ic + vc * d_ic, 2.0 * vcc * dv, e_mag * (de * iscc + e * (dsc_i + ss * de).conj())])
        return f[rows], jac.real[sel].transpose(2, 0, 1)

    with np.errstate(over="ignore", invalid="ignore"):
        f, jac = flow(u)
        merit, lam, step = (f * f).sum(axis=0), np.ones(m), np.zeros_like(u)
        for _ in range(MAX_ITERATIONS * (MAX_HALVINGS + 1)):
            live = (merit >= RESIDUAL_TARGET**2) & (lam >= 0.5**MAX_HALVINGS)
            if not live.any():
                break
            step[rows] = np.where(lam == 1.0, _solve(jac, -f), step[rows])
            f_try, jac_try = flow(u + lam * step)
            m_try = (f_try * f_try).sum(axis=0)
            better = live & (m_try < merit)
            u, f, merit = (np.where(better, new, old)
                           for new, old in ((u + lam * step, u), (f_try, f), (m_try, merit)))
            jac, lam = np.where(better[:, None, None], jac_try, jac), np.where(better, 1.0, 0.5 * lam)
    return u, merit


def start_power_flows(model, refs):
    """Newton's start for the members refs, with the power flow it solved and
    the reference's (u, merit) from the same network solve."""
    calls = []

    def spy(*args):
        calls.append((power_flow(*args), *phasor_power_flow(*args)))
        return calls[-1][0]

    power_flow = powerflow._power_flow
    with mock.patch.object(powerflow, "_power_flow", spy):
        z = initial_guess(model, refs, _row_scale(model))
    (u, *ref), = calls
    return z, u, *ref


@pytest.mark.parametrize("case", sorted(GRID_CASES))
@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("q_mode", Q_MODES)
@pytest.mark.parametrize("with_sc", [True, False])
def test_power_flow_lands_where_the_phasor_reference_does(case, control, q_mode, with_sc):
    # the 27 operating points as one batch, and each alone
    members = [refs_for(scenario(case, control, with_sc, (op.v_g_ref, op.v_turb_ref, op.p_turb_ref),
                                 q_mode=q_mode)) for op in standard_operating_points()]
    model = build_model(scenario(case, control, with_sc, q_mode=q_mode))
    for batch in (members, *([r] for r in members)):
        _, u, u_ref, merit = start_power_flows(model, batch)
        assert np.all(merit < RESIDUAL_TARGET**2)
        assert np.max(np.abs(u - u_ref)) <= 1e-12


@pytest.mark.parametrize("with_sc", [True, False])
def test_reused_power_flow_product_is_never_stale(with_sc):
    # a weak, nearly resistive grid at the corners of the operating box: the
    # members take different step lengths and leave at different iterations,
    # so an iterate is often a masked merge of trials, at which (h + h^T)w is
    # evaluated anew; only a trial taken whole reuses its residual's product.
    # Each member leads the batch once, so that no one column can stand for it
    corners = [OperatingPoint(v_g, v_t, p) for v_g in (0.8, 1.2) for v_t in (0.8, 1.2) for p in (0.1, 1.2)]
    group = [Scenario(grid=GridCase(1.2, 0.1), control=GFL, with_sc=with_sc, op=op)
             for op in corners[:2] + corners[3:]]  # no power flow at (0.8, 1.2, 0.1)
    model, members, runs = build_model(group[0]), [refs_for(s) for s in group], []

    def spy(residual, jacobian, z, scale, norm=None):
        calls = []
        out = damped_newton(lambda zz: calls.append(zz) or residual(zz), jacobian, z, scale, norm)
        runs.append((out[1], len(calls)))
        return out

    damped_newton = powerflow._damped_newton
    for k in range(len(members)):
        with mock.patch.object(powerflow, "_damped_newton", spy):
            _, u, u_ref, merit = start_power_flows(model, members[k:] + members[:k])
        iters, calls = runs[-1]
        assert len(set(iters.tolist())) > 1 and calls > iters.max() + 1  # a trial was halved
        assert np.all(merit < RESIDUAL_TARGET**2)
        assert np.max(np.abs(u - u_ref)) <= 1e-12


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(valid_scenarios())
def test_drawn_scenario_start_is_finite_and_a_solution_meets_its_premise(s):
    model, refs = build_model(s), refs_for(s)
    z, u, u_ref, merit = start_power_flows(model, [refs])
    assert np.isfinite(z).all()
    if merit[0] < RESIDUAL_TARGET**2:  # where the reference converges, the power flow lands with it
        assert np.max(np.abs(u - u_ref)) <= 1e-12
    try:
        eq = solve_equilibrium(model, refs)
    except (InfeasibleError, NonConvergenceError):
        return  # a typed failure; any other error fails the test
    assert max(premise_errors(model, eq), default=0.0) < 1e-8


def newton_jacobian_by_difference(model, z, refs, scale):
    """Reference: Newton's Jacobian as one central difference of the whole
    row-scaled residual over z, the (n + k)-state way; numjac's column i is
    member i % m."""
    m = z.shape[1]
    cycled = refs.take(np.arange(2 * z.shape[0] * m) % m)
    return numjac(lambda zz: scale[:, None] * _residual(model, zz, cycled), z, eps=1e-7)


@pytest.mark.parametrize("members", [1, 27])
@pytest.mark.parametrize("with_sc", [False, True])
@pytest.mark.parametrize("control, q_mode", [
    (GFL, Q_MODE_REACTIVE), (GFL, Q_MODE_VOLTAGE), (GFM, Q_MODE_REACTIVE), (NO_CONVERTER, Q_MODE_REACTIVE),
])
def test_split_jacobian_matches_the_residual_difference(control, q_mode, with_sc, members):
    # at Newton's start and at the solution, the split Jacobian is the
    # difference of the whole residual wherever the nonlinear part enters:
    # the controller's writes rows, the closure rows and the unknowns'
    # columns (the condenser source rows of b enter there). Everywhere else it
    # is the scaled network matrix bit for bit; there the reference holds only
    # the rounding of a linear difference, up to 1.5e-9 of max|J| on the
    # passive plant
    ops = standard_operating_points()[:: 27 // members]
    scenarios = [scenario("weak", control, with_sc, (op.v_g_ref, op.v_turb_ref, op.p_turb_ref),
                          q_mode=q_mode) for op in ops]
    model = build_model(scenarios[0])
    refs = [refs_for(s) for s in scenarios]
    stacked, scale, n = RefInputs.stack(refs), _row_scale(model), model.n
    z_eq = np.array([[*e.state, *(getattr(e.refs, name) for name in model.unknowns)]
                     for e in solve_equilibria(model, refs)]).T
    size = n + len(model.unknowns)
    nonlinear = np.zeros((size, size), dtype=bool)
    nonlinear[model.writes], nonlinear[n:], nonlinear[:, n:] = True, True, True
    exact = np.zeros((size, size))
    exact[:n, :n] = scale[:n, None] * model.a
    jac = _jacobian(model, scale)
    for z in (initial_guess(model, refs, scale), z_eq):
        assert z.shape == (size, members)
        got, ref = jac(z, stacked), newton_jacobian_by_difference(model, z, stacked, scale)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)[:, nonlinear], initial=0.0) <= 1e-9 * np.max(np.abs(ref))
        assert (got[:, ~nonlinear] == exact[~nonlinear]).all()
