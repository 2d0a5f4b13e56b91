"""Fixed-step integrator and event-schedule tests.

A one-state stub model gives exact analytic trajectories; the full plant
supplies the fault and energy checks.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wppsc.components import (
    GFL,
    GFM,
    NO_CONVERTER,
    OMEGA0,
    FaultSpec,
    RefInputs,
    ScParams,
)
from wppsc.config import GRID_CASES, OperatingPoint, Scenario, build_model, refs_for
from wppsc.powerflow import solve_equilibrium
from wppsc.sim import (
    DERIVED_SIGNALS,
    DIVERGENCE_LIMIT,
    Affine,
    Event,
    Run,
    ScheduleError,
    TimeSeries,
    integrate,
    march,
)


class StubModel:
    """ẋ = rate·x, optionally returning NaN once the state passes a gate,
    given as the plant's parts x' = a x + b + E g(C x): a = rate·I, b = 0,
    and g reads every state row and adds zero to each, or NaN past the gate.
    Not declared affine, so integrate steps it with RK4 as it does the
    converter plant."""

    affine = False

    def __init__(self, n=1, rate=-1.0, nan_above=None):
        self.n = n
        self.labels = tuple(f"x{i}" for i in range(n))
        self.rate = rate
        self.nan_above = nan_above
        self.a = rate * np.eye(n)
        self.source_map = np.zeros((n, 4))
        self.reads = self.writes = list(range(n))

    def treatment(self, fault, dt=None):
        return self.a, None

    def emfs(self, refs):
        return np.zeros(4)

    def controller(self, refs):
        def g(u):
            if self.nan_above is not None and max(map(abs, u)) > self.nan_above:
                return [math.nan] * self.n
            return [0.0] * self.n

        return g

    def measure(self, x, refs):
        return {name: np.zeros(np.shape(x)[1:]) for name in DERIVED_SIGNALS}


def solved(case="normal", control=GFM, with_sc=True, p=1.0, **kw):
    s = Scenario(
        name="sim",
        grid=GRID_CASES[case],
        control=control,
        with_sc=with_sc,
        op=OperatingPoint(1.0, 1.0, p),
        **kw,
    )
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    return model, eq


def test_exponential_decay_matches_closed_form():
    model = StubModel()
    ts = integrate(model, np.array([1.0]), RefInputs(), t_end=1.0, dt=1e-3)
    assert ts.t[-1] == pytest.approx(1.0, abs=1e-12)
    assert ts.columns["x0"][-1] == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert not ts.diverged and not ts.aborted


def test_rk4_step_count_and_time_axis():
    ts = integrate(StubModel(), np.array([1.0]), RefInputs(), t_end=0.01, dt=1e-3)
    assert ts.t.size == 11
    assert np.allclose(np.diff(ts.t), 1e-3, atol=1e-15)


def test_dt_and_t_end_validation():
    m = StubModel()
    with pytest.raises(ValueError):
        integrate(m, np.array([1.0]), RefInputs(), t_end=1.0, dt=5e-7)
    with pytest.raises(ValueError):
        integrate(m, np.array([1.0]), RefInputs(), t_end=1.0, dt=2e-3)
    with pytest.raises(ValueError):
        integrate(m, np.array([1.0]), RefInputs(), t_end=0.0, dt=1e-3)
    with pytest.raises(ValueError):
        integrate(m, np.array([np.nan]), RefInputs(), t_end=1.0, dt=1e-3)


def test_open_circuit_fault_is_exact_noop():
    # r_fault at or above the open threshold must not contaminate the
    # trajectory: bit-identical to running with no events at all, on the
    # converter plant (RK4) and on the passive plant (exact ZOH)
    for control, p in ((GFM, 1.0), (NO_CONVERTER, 0.0)):
        model, eq = solved("normal", control, True, p=p)
        x0 = eq.state.copy()
        x0[model.index("v_c_d")] += 1e-3
        events = [Event.fault_on(0.01, "pcc", 1e9), Event.fault_off(0.03, "pcc")]
        a = integrate(model, x0, eq.refs, t_end=0.05, dt=1e-4, events=events)
        b = integrate(model, x0, eq.refs, t_end=0.05, dt=1e-4)
        for name in model.labels:
            assert np.array_equal(a.columns[name], b.columns[name]), (control, name)


@pytest.mark.parametrize("bus", ["wt_mv", "pcc"])
def test_pinned_fault_bus_reports_node_law_voltage(bus):
    # a bolted fault (r*C << dt) makes the bus algebraic: from the first
    # post-fault sample on, the state and the derived magnitude carry the
    # node-law voltage v = i_net / (1/r - j w0 C), not a lagging copy of it
    model, eq = solved("weak", GFL, True, p=1.0)
    r_f, k, dt = 1e-4, 200, 1e-4
    ts = integrate(model, eq.state, eq.refs, t_end=0.03, dt=dt,
                   events=[Event.fault_on(k * dt, bus, r_f)])
    assert not (ts.diverged or ts.aborted)

    def pair(name):
        return ts.columns[name + "_d"] + 1j * ts.columns[name + "_q"]

    net = model.network
    if bus == "wt_mv":
        node, i_net, c_bus = "v_c", pair("i_f") - pair("i_a"), 1.0 / (OMEGA0 * net.x_cf)
    else:
        node, i_net, c_bus = "v_pcc", pair("i_g") + pair("i_sc") + pair("i_a"), net.c_pcc
    v_law = i_net / complex(1.0 / r_f, -OMEGA0 * c_bus)
    post = slice(k + 1, None)
    scale = np.max(np.abs(v_law[post]))
    assert scale < 1e-3
    assert np.max(np.abs(pair(node)[post] - v_law[post])) <= 1e-12 * scale
    assert np.allclose(ts.columns[node + "_mag"][post], np.abs(v_law[post]),
                       rtol=1e-12, atol=0.0)
    # the sample at the fault step is the pre-fault state
    assert abs(pair(node)[k]) > 0.9


def reference_loop(x0, n_steps, dt, segments):
    """One step per Python iteration, truncated as a plain loop would: a
    non-finite state is dropped and aborts, a finite one beyond the limit
    is kept and diverges. segments lists (first step, step function)."""
    states = [np.asarray(x0, dtype=float)]
    ends = [k for k, _ in segments[1:]] + [n_steps]
    for (start, step), end in zip(segments, ends):
        for k in range(start, end):
            x = step(states[-1])
            peak = float(np.abs(x).max())
            t = f"t={(k + 1) * dt:.6g} s"
            if not math.isfinite(peak):
                return Run(np.array(states), False, True, f"non-finite state at {t}; series truncated")
            states.append(x)
            if peak > DIVERGENCE_LIMIT:
                return Run(np.array(states), True, False,
                           f"state magnitude exceeded {DIVERGENCE_LIMIT:g} at {t}")
    return Run(np.array(states), False, False, "")


def classic_rk4(model, refs, fault, dt):
    """Classic RK4 step on model.rhs, one call per stage, with the
    pinned-bus write after the step."""

    def f(x):
        return model.rhs(x, refs, fault, dt)

    pinned = model.treatment(fault, dt)[1]

    def step(x):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if pinned is not None:
            k, pin = pinned
            x[k : k + 2] = pin @ x
        return x

    return step


def rk4_reference(model, x0, dt, n_steps, schedule):
    """Classic RK4 run; schedule lists (first step, refs, fault)."""
    segments = [(k, classic_rk4(model, refs, fault, dt)) for k, refs, fault in schedule]
    return reference_loop(x0, n_steps, dt, segments)


@pytest.mark.parametrize(
    "control, q_mode", [(GFL, "reactive"), (GFL, "voltage"), (GFM, "reactive")]
)
@pytest.mark.parametrize("with_sc", [True, False])
@pytest.mark.parametrize(
    "fault, dt",
    [
        (None, 2e-4),
        (FaultSpec("pcc", 0.05), 2e-6),  # r C = 5e-6 s: a shunt in the node law
        (FaultSpec("pcc", 0.05), 2e-4),  # pinned PCC
        (FaultSpec("wt_mv", 1e-4), 1e-4),  # pinned turbine bus, read by the controller
    ],
)
def test_rk4_step_is_classic_rk4_on_the_derivative(control, q_mode, with_sc, fault, dt):
    # the step folds the linear part of the four stages into maps once per
    # segment; from any state, one step is classic RK4 on rhs
    model, eq = solved("weak", control, with_sc, p=1.0, q_mode=q_mode)
    assert (model.treatment(fault, dt)[1] is None) == (fault is None or dt < 1e-5)
    events = [] if fault is None else [Event.fault_on(0.0, fault.bus, fault.r_fault)]
    step = classic_rk4(model, eq.refs, fault, dt)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = eq.state + rng.normal(scale=1e-2, size=model.n)
        ts = integrate(model, x, eq.refs, t_end=dt, dt=dt, events=events)
        got = np.array([ts.columns[name][1] for name in model.labels])
        ref = step(x)
        peak = max(np.abs(x).max(), np.abs(ref).max())
        assert np.max(np.abs(got - ref)) <= 1e-13 * peak
        assert np.max(np.abs(ref - x)) > 1e-5 * peak  # the step moves the state


@pytest.mark.parametrize("control", [GFL, GFM])
@pytest.mark.parametrize("case", ["p_star_step", "bolted_wt_mv", "shunt_pcc"])
def test_integrate_matches_rk4_on_rhs(control, case):
    # the march folds the RK4 stages once per event segment; its trajectory
    # is the one classic RK4 gives stepping rhs call by call
    model, eq = solved("weak", control, True, p=1.0)
    if case == "p_star_step":
        dt, n, delta = 1e-4, 300, 0.05
        events = [Event.step_ref(0.0, "p_star", delta)]
        schedule = [(0, replace(eq.refs, p_star=eq.refs.p_star + delta), None)]
    else:
        # a bolted turbine-bus fault is pinned at dt = 1e-4; a 0.05 pu PCC
        # fault (r C = 5e-6 s) joins the node law at dt = 2e-6
        if case == "bolted_wt_mv":
            bus, r_f, dt, n = "wt_mv", 1e-4, 1e-4, 300
        else:
            bus, r_f, dt, n = "pcc", 0.05, 2e-6, 3000
        k_on, k_off = n // 6, n // 2
        fault = FaultSpec(bus, r_f)
        assert (model.treatment(fault, dt)[1] is None) == (case == "shunt_pcc")
        events = [Event.fault_on(k_on * dt, bus, r_f), Event.fault_off(k_off * dt, bus)]
        schedule = [(0, eq.refs, None), (k_on, eq.refs, fault), (k_off, eq.refs, None)]
    ts = integrate(model, eq.state, eq.refs, t_end=n * dt, dt=dt, events=events)
    assert not (ts.diverged or ts.aborted)
    got = np.column_stack([ts.columns[name] for name in model.labels])
    ref = rk4_reference(model, eq.state, dt, n, schedule).states
    assert got.shape == ref.shape
    # a column whose peak is below 1e-3 of the state peak (GFM m_d: 8.9e-9
    # pu) is held to 1e-3 of the state peak, so roundoff there is not read
    # as a relative error
    peak = np.max(np.abs(ref), axis=0)
    scale = np.maximum(peak, 1e-3 * peak.max())
    assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-12 * scale)
    # the run moved: the event is visible in the trajectory
    assert np.max(np.abs(ref[-1] - ref[0])) > 1e-4


@pytest.mark.parametrize("p, rows", [(0.5, 599), (1.0, 538)])
def test_diverging_fault_run_truncates_like_classic_rk4(p, rows):
    # weak/GFL without the condenser loses synchronism under a cleared
    # 0.05 pu PCC fault at dt = 2e-4 (pinned bus): the run ends on the same
    # sample as a classic RK4 loop, with the same flag and note
    model, eq = solved("weak", GFL, False, p=p)
    dt, n = 2e-4, 1250
    fault = FaultSpec("pcc", 0.05)
    events = [Event.fault_on(0.05, "pcc", 0.05), Event.fault_off(0.10, "pcc")]
    ts = integrate(model, eq.state, eq.refs, t_end=n * dt, dt=dt, events=events)
    ref = rk4_reference(model, eq.state, dt, n, [(0, eq.refs, None), (250, eq.refs, fault),
                                                 (500, eq.refs, None)])
    assert ref.diverged and not ref.aborted and len(ref.states) == rows
    assert (ts.t.size, ts.diverged, ts.aborted, ts.note) == (rows, True, False, ref.note)


def test_reference_step_reaches_derived_powers_from_stepped_sample():
    # derived signals are measured with the refs in force for each sample:
    # a v_g_ref step moves p_g/q_g from the first sample after the event on
    model, eq = solved("normal", GFM, True)
    k, dt, delta = 20, 1e-4, 0.05
    ts = integrate(model, eq.state, eq.refs, t_end=0.005, dt=dt,
                   events=[Event.step_ref(k * dt, "v_g_ref", delta)])
    v_ref = np.where(np.arange(ts.t.size) > k, eq.refs.v_g_ref + delta, eq.refs.v_g_ref)
    v_g = v_ref * np.exp(1j * eq.refs.v_g_angle)
    i_g = ts.columns["i_g_d"] + 1j * ts.columns["i_g_q"]
    s_g = v_g * np.conj(i_g)
    assert np.allclose(ts.columns["p_g"], s_g.real, rtol=1e-12, atol=1e-14)
    assert np.allclose(ts.columns["q_g"], s_g.imag, rtol=1e-12, atol=1e-14)
    assert abs(ts.columns["p_g"][k + 1] - ts.columns["p_g"][k]) > 1e-3


def test_bolted_fault_collapses_turbine_bus():
    model, eq = solved("normal", GFM, True)
    events = [Event.fault_on(0.02, "wt_mv", 1e-4)]
    ts = integrate(model, eq.state, eq.refs, t_end=0.06, dt=5e-5, events=events)
    v = ts.columns["v_c_mag"]
    pre = v[ts.t < 0.015]
    post = v[ts.t > 0.04]
    assert np.min(pre) > 0.9
    assert np.max(post) < 0.01


def test_grid_fault_current_matches_thevenin_limit():
    # bolted PCC fault on the passive plant: the grid branch settles to
    # |i| = v_g / |z_g|
    s = Scenario(
        name="thevenin",
        grid=GRID_CASES["weak"],
        control=NO_CONVERTER,
        with_sc=False,
        op=OperatingPoint(1.0, 1.0, 0.0),
    )
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    ts = integrate(model, eq.state, eq.refs, t_end=0.2, dt=1e-4,
                   events=[Event.fault_on(0.02, "pcc", 1e-4)])
    i_d = ts.columns["i_g_d"][ts.t > 0.15]
    i_q = ts.columns["i_g_q"][ts.t > 0.15]
    mag = np.hypot(i_d, i_q)
    zmag = math.hypot(model.grid.r, model.grid.x)
    assert zmag == pytest.approx(0.625, rel=1e-12)
    assert np.mean(mag) == pytest.approx(1.0 / zmag, rel=5e-3)
    # the faulted bus itself is pulled to near zero
    assert np.max(ts.columns["v_pcc_mag"][ts.t > 0.15]) < 0.01


def test_cleared_fault_recovers_to_equilibrium():
    model, eq = solved("normal", NO_CONVERTER, True, p=0.0)
    events = [Event.fault_on(0.02, "pcc", 1e-4), Event.fault_off(0.06, "pcc")]
    ts = integrate(model, eq.state, eq.refs, t_end=0.7, dt=1e-4, events=events)
    final = np.array([ts.columns[name][-1] for name in model.labels])
    assert not ts.diverged and not ts.aborted
    assert np.max(np.abs(final - eq.state)) < 1e-4


def test_rk4_fourth_order_on_plant():
    # halving dt shrinks the endpoint error ~16x against a dt/8 reference
    model, eq = solved("normal", GFM, True)
    x0 = eq.state.copy()
    x0[model.index("v_c_d")] += 1e-3
    x0[model.index("i_a_q")] += 1e-3
    t_end = 0.02

    def endpoint(dt):
        ts = integrate(model, x0, eq.refs, t_end=t_end, dt=dt)
        return np.array([ts.columns[name][-1] for name in model.labels])

    ref = endpoint(2.5e-6)
    e1 = np.max(np.abs(endpoint(2e-5) - ref))
    e2 = np.max(np.abs(endpoint(1e-5) - ref))
    assert e2 > 0.0
    assert 12.0 <= e1 / e2 <= 20.0


def test_deenergized_passive_plant_dissipates():
    # zero sources: stored LC energy can only decay through the resistances
    s = Scenario(
        name="ringdown",
        grid=GRID_CASES["normal"],
        control=NO_CONVERTER,
        with_sc=True,
        sc=ScParams(e_mag=0.0),
        op=OperatingPoint(1.0, 1.0, 0.0),
    )
    model = build_model(s)
    refs = RefInputs(v_g_ref=0.0)
    rng = np.random.default_rng(11)
    x0 = rng.normal(scale=0.1, size=model.n)
    ts = integrate(model, x0, refs, t_end=0.1, dt=5e-5)

    net = model.network
    lg = model.grid.x / OMEGA0
    lsc = model.sc.x_sub / OMEGA0
    lat = (net.xa + net.xtf) / OMEGA0

    def pair(name):
        return ts.columns[name + "_d"] ** 2 + ts.columns[name + "_q"] ** 2

    energy = 0.5 * (
        lg * pair("i_g")
        + lsc * pair("i_sc")
        + lat * pair("i_a")
        + pair("v_c") / (OMEGA0 * net.x_cf)
        + net.c_pcc * pair("v_pcc")
    )
    assert energy[-1] < 0.05 * energy[0]
    growth = energy[1:] - energy[:-1] * (1.0 + 1e-9) - 1e-15
    assert np.max(growth) <= 0.0


def test_divergence_flag_and_truncation():
    model = StubModel(rate=50.0)
    ts = integrate(model, np.array([1.0]), RefInputs(), t_end=0.5, dt=1e-3)
    assert ts.diverged and not ts.aborted
    assert "exceeded" in ts.note
    # the offending sample is kept, nothing after it
    assert abs(ts.columns["x0"][-1]) > 1e6
    assert np.all(np.abs(ts.columns["x0"][:-1]) <= 1e6)
    assert ts.t.size < int(round(0.5 / 1e-3)) + 1


def test_abort_on_nonfinite_keeps_last_valid_sample():
    model = StubModel(rate=1.0, nan_above=0.5)
    ts = integrate(model, np.array([0.4]), RefInputs(), t_end=1.0, dt=1e-3)
    assert ts.aborted and not ts.diverged
    assert "non-finite" in ts.note
    assert np.all(np.isfinite(ts.columns["x0"]))
    assert ts.t.size < 1001


def scripted(rows):
    """A step rule that returns the given rows in turn, whatever the state."""
    rows = iter(np.array(rows, dtype=float))
    return lambda x: next(rows)


UNDER, OVER = np.nextafter(DIVERGENCE_LIMIT, 0.0), np.nextafter(DIVERGENCE_LIMIT, np.inf)


@pytest.mark.parametrize(
    "row, kept, diverged, aborted",
    [
        # every entry just inside, so that the sum of squares is 4x the limit's square
        ([UNDER] * 4, 4, False, False),
        # one entry just outside: kept and flagged at its row
        ([0.0, 0.0, -OVER, 0.0], 3, True, False),
        # a NaN is dropped and aborts
        ([0.0, np.nan, 0.0, 0.0], 2, False, True),
        # a squared norm that overflows is flagged, with no warning
        ([1e200] * 4, 3, True, False),
    ],
)
def test_divergence_check_reads_every_entry(row, kept, diverged, aborted):
    run = march(np.zeros(4), 3, 1e-3, [(0, scripted([[1.0] * 4, row, row]))])
    assert (len(run.states), run.diverged, run.aborted) == (kept, diverged, aborted)
    assert np.array_equal(run.states[1:], np.array([[1.0] * 4, row, row])[: kept - 1])
    if diverged or aborted:
        assert "t=0.002 s" in run.note


def reference_march(x0, n_steps, dt, segments):
    """One affine step per Python iteration (see reference_loop)."""
    steps = [(k, lambda x, phi=phi, gamma=gamma: phi @ x + gamma) for k, (phi, gamma) in segments]
    return reference_loop(x0, n_steps, dt, steps)


def spiral(growth, theta=0.1):
    c, s = math.cos(theta), math.sin(theta)
    return growth * np.array([[c, -s], [s, c]])


@pytest.mark.parametrize(
    "x0, segments, bad_row",
    [
        # a growing spiral crosses the limit inside the doubled block 512..1023
        ([1.0, 0.0], [(0, Affine(spiral(1.02), np.array([1e-3, 0.0])))], 703),
        # exact doublings cross on a block's first row (2**4) and last (2**4 - 1)
        ([22.0], [(0, Affine(np.array([[2.0]]), np.zeros(1)))], 16),
        ([40.0], [(0, Affine(np.array([[2.0]]), np.zeros(1)))], 15),
        # a NaN input aborts at row 1 and keeps row 0
        ([1.0, 1.0], [(0, Affine(np.eye(2), np.array([np.nan, 0.0])))], 1),
        # a decaying segment, then a growing one that crosses in its block 128..255
        ([1.0, 0.0], [(0, Affine(spiral(0.99), np.array([0.5, 0.0]))),
                      (300, Affine(spiral(1.05, 0.3), np.zeros(2)))], 551),
    ],
)
def test_affine_march_truncates_like_the_step_loop(x0, segments, bad_row):
    dt, n_steps = 1e-3, 2000
    ref = reference_march(x0, n_steps, dt, segments)
    run = march(np.array(x0), n_steps, dt, segments)
    assert ref.diverged or ref.aborted
    assert f"t={bad_row * dt:.6g} s" in ref.note
    assert run.states.shape == ref.states.shape
    assert (run.diverged, run.aborted, run.note) == (ref.diverged, ref.aborted, ref.note)
    scale = np.abs(ref.states).max(axis=0)
    assert np.all(np.abs(run.states - ref.states) <= 1e-12 * scale)


def test_affine_march_keeps_an_undriven_unstable_mode_at_zero():
    # the first state grows 1.1x per step but starts at and is driven by 0;
    # powers of the map overflow long before step 20,000, so the fill must
    # keep using the last finite one rather than meet inf * 0
    rule = Affine(np.diag([1.1, 0.5]), np.array([0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = march(np.zeros(2), 20_000, 1e-3, [(0, rule)])
    assert not (run.diverged or run.aborted) and run.note == ""
    assert run.states.shape == (20_001, 2)
    assert np.all(run.states[:, 0] == 0.0)
    assert run.states[-1, 1] == pytest.approx(2.0, rel=1e-14)


def test_reference_step_lands_on_grid_index():
    model, eq = solved("normal", GFM, True)
    k = 20
    dt = 1e-4
    stepped = integrate(model, eq.state, eq.refs, t_end=0.05, dt=dt,
                        events=[Event.step_ref(k * dt, "v_g_ref", 0.05)])
    flat = integrate(model, eq.state, eq.refs, t_end=0.05, dt=dt)
    col = "i_g_d"
    assert np.array_equal(stepped.columns[col][: k + 1], flat.columns[col][: k + 1])
    assert stepped.columns[col][k + 1] != flat.columns[col][k + 1]


def test_event_past_horizon_is_dropped():
    model, eq = solved("normal", GFM, True)
    late = [Event.step_ref(1.0, "p_star", 0.5)]
    a = integrate(model, eq.state, eq.refs, t_end=0.02, dt=1e-4, events=late)
    b = integrate(model, eq.state, eq.refs, t_end=0.02, dt=1e-4)
    for name in model.labels:
        assert np.array_equal(a.columns[name], b.columns[name])


def test_runs_are_deterministic():
    model, eq = solved("weak", GFM, True)
    events = [Event.fault_on(0.01, "pcc", 0.5), Event.fault_off(0.03, "pcc")]
    a = integrate(model, eq.state, eq.refs, t_end=0.05, dt=1e-4, events=events)
    b = integrate(model, eq.state, eq.refs, t_end=0.05, dt=1e-4, events=events)
    for name, col in a.columns.items():
        assert np.array_equal(col, b.columns[name]), name


def test_fault_pairing_is_validated():
    model, eq = solved("normal", GFM, True)
    double_on = [Event.fault_on(0.001, "pcc", 0.5), Event.fault_on(0.002, "wt_mv", 0.5)]
    with pytest.raises(ValueError, match="already active"):
        integrate(model, eq.state, eq.refs, t_end=0.005, dt=1e-4, events=double_on)
    orphan_off = [Event.fault_off(0.001, "pcc")]
    with pytest.raises(ValueError, match="matching"):
        integrate(model, eq.state, eq.refs, t_end=0.005, dt=1e-4, events=orphan_off)


@pytest.mark.parametrize("control, q_mode, channel", [
    (GFL, "reactive", "v_turb_star"),
    (GFL, "voltage", "q_star"),
    (GFM, "reactive", "q_star"),
    (NO_CONVERTER, "reactive", "p_star"),
])
def test_step_on_a_reference_the_plant_does_not_read_is_rejected(control, q_mode, channel):
    # the step would leave the run at its equilibrium; past the horizon it
    # is dropped before it is checked
    model, eq = solved("normal", control, True, q_mode=q_mode)
    with pytest.raises(ScheduleError, match=f"'{channel}', a reference the plant does not read"):
        integrate(model, eq.state, eq.refs, t_end=0.005, dt=1e-4,
                  events=[Event.step_ref(0.001, channel, 0.1)])
    late = integrate(model, eq.state, eq.refs, t_end=0.005, dt=1e-4,
                     events=[Event.step_ref(1.0, channel, 0.1)])
    assert not (late.diverged or late.aborted)


@pytest.mark.parametrize("control", [GFL, NO_CONVERTER])
@pytest.mark.parametrize("bus, r_f, dt", [
    ("pcc", 0.05, 2e-6),  # r C = 5e-6 s: a shunt in the node law
    ("pcc", 0.05, 2e-4),  # pinned PCC
    ("wt_mv", 1e-4, 1e-4),  # pinned turbine bus
    ("pcc", 1e9, 1e-4),  # open circuit
])
def test_faulted_run_leaves_the_fault_free_plant_untouched(control, bus, r_f, dt):
    # each fault treatment is a new matrix: after the run, the fault-free
    # network matrix and rhs are bit-identical to their values before it
    model, eq = solved("weak", control, True)
    a, dx = model.a.tobytes(), model.rhs(eq.state, eq.refs).tobytes()
    events = [Event.fault_on(5 * dt, bus, r_f), Event.fault_off(10 * dt, bus)]
    ts = integrate(model, eq.state, eq.refs, t_end=20 * dt, dt=dt, events=events)
    assert not (ts.diverged or ts.aborted)
    assert model.a.tobytes() == a
    assert model.rhs(eq.state, eq.refs).tobytes() == dx


def test_event_constructors_validate():
    with pytest.raises(ValueError):
        Event.fault_on(-1.0, "pcc", 0.5)
    with pytest.raises(ValueError):
        Event.fault_on(0.0, "nowhere", 0.5)
    with pytest.raises(ValueError):
        Event.step_ref(0.0, "not_a_channel", 0.1)
    with pytest.raises(ValueError):
        Event(t=0.0, kind="mystery")


def test_timeseries_validates_uniform_spacing():
    t = np.array([0.0, 1e-3, 2.5e-3])
    with pytest.raises(ValueError, match="uniform"):
        TimeSeries(t=t, columns={"x": np.zeros(3)}, dt=1e-3)
    with pytest.raises(ValueError, match="length"):
        TimeSeries(t=np.arange(3) * 1e-3, columns={"x": np.zeros(2)}, dt=1e-3)


def test_derived_signals_present_and_consistent():
    model, eq = solved("normal", GFM, True)
    ts = integrate(model, eq.state, eq.refs, t_end=0.01, dt=1e-4)
    for name in DERIVED_SIGNALS:
        assert name in ts.columns
    vm = np.hypot(ts.columns["v_c_d"], ts.columns["v_c_q"])
    assert np.max(np.abs(vm - ts.columns["v_c_mag"])) < 1e-12
    assert ts.column("p_pc") is ts.columns["p_pc"]
