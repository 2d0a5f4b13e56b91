"""Fixed-step integrator and event-schedule tests.

A one-state stub model gives exact analytic trajectories; the full plant
supplies the fault and energy checks.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from wppsc import sim
from wppsc.components import (
    FAULT_OPEN_THRESHOLD,
    GFL,
    GFL_LAWS,
    GFM,
    GFM_LAW,
    NO_CONVERTER,
    OMEGA0,
    ControlLaw,
    FaultSpec,
    GflParams,
    GfmParams,
    NetworkSpec,
    RefInputs,
    ScParams,
)
from wppsc.config import GRID_CASES, OperatingPoint, Scenario, build_model, preset_scenario, refs_for
from wppsc.powerflow import solve_equilibrium
from wppsc.scr import FAULT_RESISTANCE, FAULT_START, MEASUREMENT_WINDOW, _measurement_scenario
from wppsc.sim import (
    DERIVED_SIGNALS,
    DIVERGENCE_LIMIT,
    Affine,
    Event,
    Rk4,
    Run,
    ScheduleError,
    TimeSeries,
    _segment_loop,
    _step_rule,
    integrate,
    march,
    trajectory,
    zoh_step,
)

from plant_oracle import composed_rhs, faulted_matrix


# the stub's controller: zero, or NaN once its state passes the gate
STUB_LAW = ControlLaw("x0", "x0", "gate nan", "", "y", "y = 0.0 if abs(x0) <= gate else nan")


class StubModel:
    """ẋ = rate·x, optionally returning NaN once the state passes a gate,
    given as the plant's parts x' = a x + b + E g(C x): a = rate, b = 0,
    and g (STUB_LAW) reads the state and adds zero to it, or NaN past the
    gate. It has a controller, so integrate folds its ETDRK4 step as it
    does the converter plant's."""

    def __init__(self, rate=-1.0, nan_above=None):
        self.n = 1
        self.labels = ("x0",)
        self.rate = rate
        self.nan_above = nan_above
        self.a = np.array([[rate]])
        self.source_map = np.zeros((1, 4))
        self.reads = self.writes = [0]

    def treatment(self, fault):
        return self.a

    def emfs(self, refs):
        return np.zeros(4)

    def law(self, refs):
        return STUB_LAW, (math.inf if self.nan_above is None else self.nan_above, math.nan)

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
    # converter plant (ETDRK4) and on the passive plant (exact ZOH)
    for control, p in ((GFM, 1.0), (NO_CONVERTER, 0.0)):
        model, eq = solved("normal", control, True, p=p)
        x0 = eq.state.copy()
        x0[model.index("v_c_d")] += 1e-3
        events = [Event.fault_on(0.01, "pcc", 1e9), Event.fault_off(0.03, "pcc")]
        a = integrate(model, x0, eq.refs, t_end=0.05, dt=1e-4, events=events)
        b = integrate(model, x0, eq.refs, t_end=0.05, dt=1e-4)
        for name in model.labels:
            assert np.array_equal(a.columns[name], b.columns[name]), (control, name)


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


def phis(a):
    """e^A and phi_1..phi_3(A), the first block row of the exponential of
    [[A, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0]."""
    n = len(a)
    block = np.eye(4 * n, k=n)
    block[:n, :n] = a
    return np.hsplit(scipy.linalg.expm(block)[:n], 4)


def etdrk4(model, refs, fault, dt):
    """ETDRK4 step (Cox & Matthews 2002) on the plant composed component by
    component: L the oracle's faulted network matrix, N = composed_rhs - L x
    called once per stage, and the phi-functions at hL and hL/2 each from
    their own expm."""
    lin = faulted_matrix(model, fault)
    e, p1, p2, p3 = phis(dt * lin)
    e_half, h1, _, _ = phis(0.5 * dt * lin)
    half = 0.5 * dt * h1

    def n_of(x):
        return composed_rhs(model, x, refs, fault) - lin @ x

    def step(x):
        n1 = n_of(x)
        y2 = e_half @ x + half @ n1
        n2 = n_of(y2)
        n3 = n_of(e_half @ x + half @ n2)
        n4 = n_of(e_half @ y2 + half @ (2.0 * n3 - n1))
        return e @ x + dt * ((p1 - 3.0 * p2 + 4.0 * p3) @ n1 + 2.0 * (p2 - 2.0 * p3) @ (n2 + n3)
                             + (4.0 * p3 - p2) @ n4)

    return step


def etdrk4_reference(model, x0, dt, n_steps, schedule):
    """ETDRK4 run; schedule lists (first step, refs, fault)."""
    segments = [(k, etdrk4(model, refs, fault, dt)) for k, refs, fault in schedule]
    return reference_loop(x0, n_steps, dt, segments)


@pytest.mark.parametrize(
    "control, q_mode, network",
    [
        pytest.param(GFL, "reactive", NetworkSpec(), id="gfl-reactive"),
        pytest.param(GFL, "voltage", NetworkSpec(), id="gfl-voltage"),
        pytest.param(GFM, "reactive", NetworkSpec(), id="gfm-reactive"),
        # lossless branches: exact-zero weights drop out of the coupling
        # pattern, so the compiled loop runs a pattern the presets never give
        pytest.param(GFL, "reactive", NetworkSpec(rf=0.0, ra=0.0, rtf=0.0), id="gfl-reactive-lossless"),
    ],
)
@pytest.mark.parametrize("with_sc", [True, False])
@pytest.mark.parametrize(
    "fault, dt",
    [
        (None, 2e-4),
        (FaultSpec("pcc", 0.05), 2e-6),  # r C = 5e-6 s: resolved by the step
        (FaultSpec("pcc", 0.05), 2e-4),  # a PCC shunt 40x stiffer than the step
        (FaultSpec("wt_mv", 1e-4), 1e-4),  # a bolted turbine bus, read by the controller
        (FaultSpec("pcc", FAULT_OPEN_THRESHOLD), 1e-4),  # an open circuit: no fault
        (FaultSpec("wt_mv", 5.0), 1e-6),  # r C = 1.1e-3 s: resolved by the step
    ],
)
def test_rk4_step_is_classic_rk4_on_the_derivative(control, q_mode, network, with_sc, fault, dt):
    # the step folds the linear part of the four ETDRK4 stages into maps
    # once per segment; from any state, one step is ETDRK4 on the plant
    # composed component by component, faults of any stiffness included
    model, eq = solved("weak", control, with_sc, p=1.0, q_mode=q_mode, network=network)
    events = [] if fault is None else [Event.fault_on(0.0, fault.bus, fault.r_fault)]
    step = etdrk4(model, eq.refs, fault, dt)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = eq.state + rng.normal(scale=1e-2, size=model.n)
        ts = integrate(model, x, eq.refs, t_end=2 * dt, dt=dt, events=events)
        rows = np.array([ts.columns[name] for name in model.labels]).T
        # the first step's stage inputs come from the state, the second's
        # from the fused map that gave the state
        for before, got in zip(rows[:-1], rows[1:]):
            ref = step(before)
            peak = max(np.abs(before).max(), np.abs(ref).max())
            assert np.max(np.abs(got - ref)) <= 1e-13 * peak
            assert np.max(np.abs(ref - before)) > 1e-5 * peak  # the step moves the state
    # another filter reactance gives other weights on the same pattern, and
    # other gains other values of the same law: neither run compiles a new loop
    gains = {GFL: {"gfl": GflParams(kp_pll=2.0 * GflParams().kp_pll)},
             GFM: {"gfm": GfmParams(kp_v=2.0 * GfmParams().kp_v)}}[control]
    others = [solved("strong", control, with_sc, p=0.5, q_mode=q_mode, network=replace(network, xf=0.09)),
              solved("weak", control, with_sc, p=1.0, q_mode=q_mode, network=network, **gains)]
    rules = [_step_rule(m, e.refs, fault, dt) for m, e in ((model, eq), *others)]
    assert rules[0].pattern == rules[1].pattern == rules[2].pattern
    assert rules[0].weights != rules[1].weights
    assert rules[0].law is rules[2].law and rules[0].values != rules[2].values
    compiled = _segment_loop.cache_info().currsize
    for other, eq_other in others:
        integrate(other, eq_other.state, eq_other.refs, t_end=dt, dt=dt, events=events)
    assert _segment_loop.cache_info().currsize == compiled


@pytest.mark.parametrize("law", [*GFL_LAWS.values(), GFM_LAW], ids=[*GFL_LAWS, "gfm"])
def test_inlined_law_is_the_callable_law(law):
    # sim's segment loop writes each law inline, renamed to its stage's slots;
    # on floats that loop, and on row vectors the same inlined text, give the
    # outputs of the callable g bit for bit
    k_in, l_out = len(law.inputs), len(law.outputs)
    rng = np.random.default_rng(23)
    values = tuple(rng.uniform(0.5, 2.0, len(law.bound)).tolist())
    g = law.bind(values)
    # a rule whose first stage reads the state and whose step is its outputs
    first = np.zeros((4 * k_in, k_in + 1))
    first[:k_in, :k_in] = np.eye(k_in)
    step = np.zeros((5 * k_in, k_in + 1 + 4 * l_out))
    step[:l_out, k_in + 1 : k_in + 1 + l_out] = np.eye(l_out)
    rule = Rk4(first, step, law, values, (), ((),) * 4)
    u, o = [f"u{r}" for r in range(k_in)], [f"o{j}" for j in range(l_out)]
    text = law.inline({**dict(zip(law.inputs, u)), **dict(zip(law.outputs, o))})
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, k_in)
        run = march(x, 1, 1e-3, [(0, rule)])
        assert run.states[1, :l_out].tobytes() == np.array(g(x.tolist())).tobytes()
        rows = rng.uniform(-1.5, 1.5, (k_in, 7))
        namespace = {**dict(zip(u, rows)), **dict(zip(law.bound, values)),
                     "cos": np.cos, "sin": np.sin, "hypot": np.hypot}
        exec(text, namespace)
        assert np.array([namespace[name] for name in o]).tobytes() == np.array(g(list(rows))).tobytes()


def test_integrate_folds_each_segment_rule_once(monkeypatch):
    # a cleared fault returns to the pre-fault refs and network, whose rule
    # the run has already folded; an open circuit applies no fault, so its
    # events leave the run one rule, on the converter and the passive plant
    folds, fold = [], sim._step_rule
    monkeypatch.setattr(sim, "_step_rule", lambda m, r, f, dt: folds.append((r, f)) or fold(m, r, f, dt))
    for control, r_fault in ((GFM, 0.05), (GFM, 1e9), (NO_CONVERTER, 1e9)):
        model, eq = solved("normal", control, True)
        folds.clear()
        events = [Event.fault_on(0.01, "pcc", r_fault), Event.fault_off(0.02, "pcc")]
        ts = integrate(model, eq.state, eq.refs, t_end=0.03, dt=1e-4, events=events)
        faulted = [(eq.refs, FaultSpec("pcc", r_fault))] if r_fault < FAULT_OPEN_THRESHOLD else []
        assert folds == [(eq.refs, None), *faulted], (control, r_fault)
        assert not (ts.diverged or ts.aborted)


@pytest.mark.parametrize("with_sc", [True, False])
@pytest.mark.parametrize("fault, dt", [
    (None, 2e-4),
    (FaultSpec("pcc", 1e-4), 2e-4),  # bolted
    (FaultSpec("wt_mv", 5.0), 1e-6),
    (FaultSpec("pcc", FAULT_OPEN_THRESHOLD), 1e-4),
])
def test_passive_plant_steps_by_the_exact_hold(with_sc, fault, dt):
    # with no controller the ETDRK4 step is the zero-order hold of the
    # faulted network: the rule is zoh_step's map, bit for bit, and it is
    # the step ETDRK4 takes on the composed plant
    model, eq = solved("weak", NO_CONVERTER, with_sc, p=0.0)
    rule = _step_rule(model, eq.refs, fault, dt)
    hold = zoh_step(model.treatment(fault), model.source_map @ model.emfs(eq.refs), dt)
    assert all(map(np.array_equal, rule, hold))
    step = etdrk4(model, eq.refs, fault, dt)
    x = eq.state + np.random.default_rng(7).normal(scale=1e-2, size=model.n)
    ref = step(x)
    assert np.max(np.abs(rule.phi @ x + rule.gamma - ref)) <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("control", [GFL, GFM])
@pytest.mark.parametrize("case", ["p_star_step", "bolted_wt_mv", "shunt_pcc"])
def test_integrate_matches_rk4_on_rhs(control, case):
    # the march folds the ETDRK4 stages once per event segment; its
    # trajectory is the one ETDRK4 gives stepping the composed plant call
    # by call
    model, eq = solved("weak", control, True, p=1.0)
    if case == "p_star_step":
        dt, n, delta = 1e-4, 300, 0.05
        events = [Event.step_ref(0.0, "p_star", delta)]
        schedule = [(0, replace(eq.refs, p_star=eq.refs.p_star + delta), None)]
    else:
        # a bolted turbine-bus fault (r C = 2.1e-8 s) at dt = 1e-4, and a
        # 0.05 pu PCC fault (r C = 5e-6 s) at dt = 2e-6
        if case == "bolted_wt_mv":
            bus, r_f, dt, n = "wt_mv", 1e-4, 1e-4, 300
        else:
            bus, r_f, dt, n = "pcc", 0.05, 2e-6, 3000
        k_on, k_off = n // 6, n // 2
        fault = FaultSpec(bus, r_f)
        events = [Event.fault_on(k_on * dt, bus, r_f), Event.fault_off(k_off * dt, bus)]
        schedule = [(0, eq.refs, None), (k_on, eq.refs, fault), (k_off, eq.refs, None)]
    ts = integrate(model, eq.state, eq.refs, t_end=n * dt, dt=dt, events=events)
    assert not (ts.diverged or ts.aborted)
    got = np.column_stack([ts.columns[name] for name in model.labels])
    ref = etdrk4_reference(model, eq.state, dt, n, schedule).states
    assert got.shape == ref.shape
    # a column whose peak is below 1e-3 of the state peak (GFM m_d: 8.9e-9
    # pu) is held to 1e-3 of the state peak, so roundoff there is not read
    # as a relative error
    peak = np.max(np.abs(ref), axis=0)
    scale = np.maximum(peak, 1e-3 * peak.max())
    assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-12 * scale)
    # the run moved: the event is visible in the trajectory
    assert np.max(np.abs(ref[-1] - ref[0])) > 1e-4


@pytest.mark.parametrize("p, rows", [(0.5, 600), (1.0, 539)])
def test_diverging_fault_run_truncates_like_etdrk4(p, rows):
    # weak/GFL without the condenser loses synchronism under a cleared
    # 0.05 pu PCC fault at dt = 2e-4: the run ends on the same sample as an
    # ETDRK4 loop on the composed plant, with the same flag and note
    model, eq = solved("weak", GFL, False, p=p)
    dt, n = 2e-4, 1250
    fault = FaultSpec("pcc", 0.05)
    events = [Event.fault_on(0.05, "pcc", 0.05), Event.fault_off(0.10, "pcc")]
    ts = integrate(model, eq.state, eq.refs, t_end=n * dt, dt=dt, events=events)
    ref = etdrk4_reference(model, eq.state, dt, n, [(0, eq.refs, None), (250, eq.refs, fault),
                                                    (500, eq.refs, None)])
    assert ref.diverged and not ref.aborted and len(ref.states) == rows
    assert (ts.t.size, ts.diverged, ts.aborted, ts.note) == (rows, True, False, ref.note)


@pytest.mark.parametrize("case, control, bound", [("normal", GFL, 0.5), ("weak", GFM, 0.05)])
def test_cleared_fault_run_converges_in_dt(case, control, bound):
    # a cleared 0.05 pu PCC fault rings the PCC node at about 1.4 kHz; at
    # dt = 2e-4 the run after clearing stays within the bound of a dt = 1e-5
    # run, sample for sample
    model, eq = solved(case, control, True, p=0.5)
    events = [Event.fault_on(0.05, "pcc", 0.05), Event.fault_off(0.10, "pcc")]

    def states(dt):
        ts = integrate(model, eq.state, eq.refs, t_end=0.25, dt=dt, events=events)
        assert not (ts.diverged or ts.aborted)
        return np.column_stack([ts.columns[name] for name in model.labels])

    coarse, fine = states(2e-4), states(1e-5)[::20]
    after = slice(501, None)  # the samples after clearing at 0.10 s
    assert np.max(np.abs(coarse[after] - fine[after])) <= bound


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


# reads four inputs and gives the next of a script's rows
SCRIPT_LAW = ControlLaw("a b c d", "a b c d", "script", "", "y0 y1 y2 y3", "y0, y1, y2, y3 = script()")


def scripted(rows):
    """An RK4 segment on four states that steps to the given rows in turn,
    whatever the state: zero maps but the identity from the first stage's
    outputs to the next state, no couplings, and a law that gives the next
    row at the first stage of a step and zeros at the other three."""
    zeros = [0.0] * 4
    outputs = iter([out for row in rows for out in (row, zeros, zeros, zeros)])
    step = np.zeros((4 + 16, 5 + 16))
    step[:4, 5:9] = np.eye(4)
    return Rk4(np.zeros((16, 5)), step, SCRIPT_LAW, (outputs.__next__,), (), ((),) * 4)


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
        # the segment is filled past its bad row, which here is row 1: row 2
        # overflows to inf, and the rows after it stay there
        ([1.0], [(0, Affine(np.array([[1e200]]), np.zeros(1)))], 1),
        # doubling crosses at 2**20 in the block 16..31; past 2**1023 the
        # rows overflow and the fill's inf * 0 turns them NaN
        ([1.0, 1.0], [(0, Affine(np.array([[2.0, 0.0], [2.0, -2.0]]), np.zeros(2)))], 20),
    ],
)
def test_affine_march_truncates_like_the_step_loop(x0, segments, bad_row):
    dt, n_steps = 1e-3, 2000
    ref = reference_march(x0, n_steps, dt, segments)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = march(np.array(x0), n_steps, dt, segments)
    assert ref.diverged or ref.aborted
    assert f"t={bad_row * dt:.6g} s" in ref.note
    assert run.states.shape == ref.states.shape
    assert (run.diverged, run.aborted, run.note) == (ref.diverged, ref.aborted, ref.note)
    scale = np.abs(ref.states).max(axis=0)
    assert np.all(np.abs(run.states - ref.states) <= 1e-12 * scale)


@pytest.mark.parametrize("case", ["passive_measurement", "cleared_pcc", "diverging_pcc"])
def test_trajectory_is_integrate_without_the_capture(case):
    # integrate captures trajectory's run: its state columns are the run's
    # states bit for bit, with the same flags and note, on the passive
    # plant's fault measurement, a cleared PCC fault, and a run that
    # diverges under it (weak/GFL without the condenser)
    if case == "passive_measurement":
        meas = _measurement_scenario(preset_scenario("weak"))
        model = build_model(meas)
        eq = solve_equilibrium(model, refs_for(meas))
        t_end, dt = FAULT_START + MEASUREMENT_WINDOW, 1e-4
        events = [Event.fault_on(FAULT_START, "wt_mv", FAULT_RESISTANCE)]
    else:
        model, eq = solved("weak", GFL, case == "cleared_pcc", p=1.0)
        t_end, dt = 0.25, 2e-4
        events = [Event.fault_on(0.05, "pcc", 0.05), Event.fault_off(0.10, "pcc")]
    run = trajectory(model, eq.state, eq.refs, t_end, dt, events)
    ts = integrate(model, eq.state, eq.refs, t_end=t_end, dt=dt, events=events)
    captured = np.column_stack([ts.columns[name] for name in model.labels])
    assert run.states.tobytes() == captured.tobytes()
    assert (run.diverged, run.aborted, run.note) == (ts.diverged, ts.aborted, ts.note)
    assert len(run.states) == (539 if case == "diverging_pcc" else 1 + round(t_end / dt))
    assert run.diverged == (case == "diverging_pcc")


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


@pytest.mark.parametrize(
    "row, kept, diverged, aborted",
    [
        # every entry just inside: the whole segment is kept
        ([UNDER] * 4, 1201, False, False),
        # one entry just outside: kept and flagged at row 1
        ([0.0, 0.0, -OVER, 0.0], 2, True, False),
        # a NaN or an inf is dropped and aborts at row 1
        ([0.0, np.nan, 0.0, 0.0], 1, False, True),
        ([np.inf, 0.0, 0.0, 0.0], 1, False, True),
    ],
)
def test_hold_divergence_check_reads_every_entry(row, kept, diverged, aborted):
    # a zero map with offset row fills every row of the segment with row
    rule = Affine(np.zeros((4, 4)), np.array(row))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = march(np.zeros(4), 1200, 1e-3, [(0, rule)])
    assert (len(run.states), run.diverged, run.aborted) == (kept, diverged, aborted)
    assert np.array_equal(run.states[1:], np.tile(row, (kept - 1, 1)))
    if diverged or aborted:
        assert "t=0.001 s" in run.note
    else:
        assert run.note == ""


def test_zero_step_march_returns_the_initial_state():
    # no step to take: row 0 alone, neither flagged nor noted, both from
    # march on a hold segment and from trajectory on the passive plant
    run = march(np.zeros(2), 0, 1e-3, [(0, Affine(np.eye(2), np.zeros(2)))])
    assert (run.states.tolist(), run.diverged, run.aborted, run.note) == ([[0.0, 0.0]], False, False, "")
    meas = _measurement_scenario(preset_scenario("weak"))
    model = build_model(meas)
    eq = solve_equilibrium(model, refs_for(meas))
    run = trajectory(model, eq.state, eq.refs, 4e-7, 1e-6, [])
    assert np.array_equal(run.states, eq.state[None, :])
    assert (run.diverged, run.aborted, run.note) == (False, False, "")


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
    # past the horizon the schedule is as invalid as within it
    late_off = [Event.fault_off(0.5, "pcc")]
    with pytest.raises(ValueError, match="matching"):
        integrate(model, eq.state, eq.refs, t_end=0.02, dt=1e-4, events=late_off)


@pytest.mark.parametrize("control, q_mode, channel", [
    (GFL, "reactive", "v_turb_star"),
    (GFL, "voltage", "q_star"),
    (GFM, "reactive", "q_star"),
    (NO_CONVERTER, "reactive", "p_star"),
])
def test_step_on_a_reference_the_plant_does_not_read_is_rejected(control, q_mode, channel):
    # the step would leave the run at its equilibrium; whether it lands
    # within the horizon or past it, the schedule is rejected
    model, eq = solved("normal", control, True, q_mode=q_mode)
    for t in (0.001, 1.0):
        with pytest.raises(ScheduleError, match=f"'{channel}', a reference the plant does not read"):
            integrate(model, eq.state, eq.refs, t_end=0.005, dt=1e-4,
                      events=[Event.step_ref(t, channel, 0.1)])


@pytest.mark.parametrize("control", [GFL, NO_CONVERTER])
@pytest.mark.parametrize("bus, r_f, dt", [
    ("pcc", 0.05, 2e-6),  # r C = 5e-6 s: resolved by the step
    ("pcc", 0.05, 2e-4),  # a PCC shunt stiffer than the step
    ("wt_mv", 1e-4, 1e-4),  # a bolted turbine bus
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
    with pytest.raises(ValueError, match="fault bus must be one of"):
        Event.fault_off(0.0, "nowhere")
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="step delta must be finite"):
            Event.step_ref(0.0, "p_star", delta)
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
