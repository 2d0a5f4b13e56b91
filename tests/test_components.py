"""Component RHS oracles, frame invariance and fault-mode plumbing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wppsc.components import (
    FAULT_OPEN_THRESHOLD,
    FaultSpec,
    GflParams,
    GfmParams,
    NetworkSpec,
    OMEGA0,
    RefInputs,
    ScParams,
    SystemModel,
    gfl_controller,
    gfm_controller,
    power_pair,
)
from wppsc.config import Scenario, build_model
from wppsc.netbase import Impedance

from plant_oracle import (
    composed_rhs,
    filter_cable_rhs,
    filter_lc,
    grid_rhs,
    jrot,
    pcc_node_rhs,
    rotate,
    rotated_refs,
    rotated_state,
    sc_rhs,
)


def test_jrot_and_rotate():
    v = np.array([1.0, 0.0])
    assert np.allclose(jrot(v), [0.0, 1.0])
    assert np.allclose(rotate(v, math.pi / 2.0), [0.0, 1.0], atol=1e-15)
    assert np.allclose(rotate(rotate(v, 0.3), -0.3), v, atol=1e-15)


def test_power_pair_oracle():
    # frozen: v (0.98, 0.02), i (0.5, -0.1) -> p 0.488, q 0.108
    p, q = power_pair(np.array([0.98, 0.02]), np.array([0.5, -0.1]))
    assert p == pytest.approx(0.488, abs=1e-12)
    assert q == pytest.approx(0.108, abs=1e-12)


def test_grid_rhs_oracle():
    # frozen: r 0.1, x 0.5, i (0.2, 0), vg (1, 0), vpcc (0.9, 0)
    #         -> di/dt (50.265, 62.832)
    g = Impedance(r=0.1, x=0.5)
    out = grid_rhs(np.array([0.2, 0.0]), np.array([0.9, 0.0]), g)
    assert out[0] == pytest.approx(50.265, abs=1e-2)
    assert out[1] == pytest.approx(62.832, abs=1e-2)


def test_grid_rhs_vanishes_at_branch_steady_state():
    g = Impedance(r=0.1, x=0.5)
    dv = complex(1.0, 0.0) - complex(0.9, 0.05)
    i = dv / complex(g.r, -g.x)
    out = grid_rhs(np.array([i.real, i.imag]), np.array([0.9, 0.05]), g)
    assert np.allclose(out, 0.0, atol=1e-10)


def test_sc_rhs_oracle():
    # frozen: defaults, i_sc 0, vpcc (0.9575, 0), phi 0 -> (78.5398, 0)
    p = ScParams()
    out = sc_rhs(np.array([0.0, 0.0]), np.array([0.9575, 0.0]), p, 0.0)
    assert out[0] == pytest.approx(78.5398, abs=1e-3)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_sc_rhs_vanishes_at_branch_steady_state():
    p = ScParams()
    phi = 0.07
    dv = complex(math.cos(phi), math.sin(phi)) - complex(0.97, 0.02)
    i = dv / complex(p.r_tr, -(p.x_sub + p.x_tr))
    out = sc_rhs(np.array([i.real, i.imag]), np.array([0.97, 0.02]), p, phi)
    assert np.allclose(out, 0.0, atol=1e-9)


def test_filter_cable_rhs_vanishes_at_phasor_solution():
    net = NetworkSpec()
    w0 = OMEGA0
    v_c = complex(0.99, 0.03)
    v_pcc = complex(0.96, -0.01)
    z_at = complex(net.ra + net.rtf, -(net.xa + net.xtf))
    i_a = (v_c - v_pcc) / z_at
    i_f = i_a - 1j * v_c / net.x_cf
    v_inv = v_c + complex(net.rf, -net.xf) * i_f
    di_f, dv_c, di_a = filter_cable_rhs(
        np.array([i_f.real, i_f.imag]),
        np.array([v_c.real, v_c.imag]),
        np.array([i_a.real, i_a.imag]),
        np.array([v_pcc.real, v_pcc.imag]),
        np.array([v_inv.real, v_inv.imag]),
        net,
    )
    assert np.allclose(di_f, 0.0, atol=1e-8)
    assert np.allclose(dv_c, 0.0, atol=1e-8)
    assert np.allclose(di_a, 0.0, atol=1e-8)


def test_pcc_node_rhs_formula():
    net = NetworkSpec()
    v = np.array([0.95, 0.05])
    i_net = np.array([0.01, -0.02])
    out = pcc_node_rhs(v, i_net, net)
    expect = i_net / net.c_pcc + OMEGA0 * np.array([-v[1], v[0]])
    assert np.allclose(out, expect, rtol=1e-12)


def gfl_outputs(p, refs, v_c, p_pc=0.0, q_pc=0.0, q_mode="reactive", ctrl=(0.0,) * 6):
    """Bound GFL controller outputs with no filter current, i_a chosen so
    that the converter power is (p_pc, q_pc) at v_c; the outputs are
    v_inv / lf (d, q) and then the six controller rates."""
    i_a = np.linalg.solve([[v_c[0], v_c[1]], [v_c[1], -v_c[0]]], [p_pc, q_pc])
    g = gfl_controller(p, refs, q_mode, filter_lc(NetworkSpec())[0])
    return g([*map(float, v_c), 0.0, 0.0, *map(float, i_a), *ctrl])


def gfm_outputs(p, refs, p_pc, ctrl=(0.0,) * 6):
    """Bound GFM controller outputs at v_c = (1, 0) with no filter current
    and i_a = (p_pc, 0), so that the converter power is p_pc."""
    g = gfm_controller(p, refs, *filter_lc(NetworkSpec()))
    return g([1.0, 0.0, 0.0, 0.0, p_pc, 0.0, *ctrl])


def test_pll_rate_oracle():
    # frozen: kp_pll 20, locked frame sees v_q 0.05, integrator 0
    #         -> absolute synchronization rate 315.1592653589793
    p = GflParams(kp_pll=20.0, ki_pll=400.0)
    out = gfl_outputs(p, RefInputs(), np.array([0.9, 0.05]))
    assert OMEGA0 + out[2] == pytest.approx(OMEGA0 + 1.0, rel=1e-12)
    assert out[2] == pytest.approx(1.0, rel=1e-12)
    assert out[3] == pytest.approx(0.05, rel=1e-12)


def test_gfl_reactive_channel_signs():
    p = GflParams()
    refs = RefInputs(p_star=0.8, q_star=0.0)
    v_c = np.array([1.0, 0.0])
    # plant exporting too much reactive power must push i_q up
    out = gfl_outputs(p, refs, v_c, 0.8, 0.2, q_mode="reactive")
    # with no filter current, the q-axis current error is the current order i*_q
    assert out[7] > 0.0
    assert out[5] == pytest.approx(-0.2, rel=1e-12)


def test_gfl_voltage_channel_signs():
    p = GflParams()
    refs = RefInputs(p_star=0.8, v_turb_star=1.0)
    # undervoltage must raise the q-axis current order
    out = gfl_outputs(p, refs, np.array([0.95, 0.0]), 0.8, 0.0, q_mode="voltage")
    # with no filter current, the q-axis current error is the current order i*_q
    assert out[7] > 0.0
    assert out[5] == pytest.approx(0.05, rel=1e-12)


def test_gfl_power_channel_integrates_error():
    p = GflParams()
    refs = RefInputs(p_star=1.0)
    out = gfl_outputs(p, refs, np.array([1.0, 0.0]), 0.9, 0.0)
    assert out[4] == pytest.approx(0.1, rel=1e-12)


def test_gfm_swing_oracle():
    # frozen: defaults, p* 1.0, measured 0.999, omega 0 -> accel 0.005
    p = GfmParams()
    refs = RefInputs(p_star=1.0, v_turb_star=1.0)
    out = gfm_outputs(p, refs, 0.999)
    assert out[3] == pytest.approx(0.005, rel=1e-10)
    assert out[2] == 0.0


def test_gfm_swing_damping_term():
    p = GfmParams()
    ctrl = np.zeros(6)
    ctrl[1] = 0.01  # rotor speed offset
    refs = RefInputs(p_star=1.0)
    out = gfm_outputs(p, refs, 1.0, ctrl=ctrl.tolist())
    assert out[3] == pytest.approx(-p.d_p * 0.01 / p.j_vsm, rel=1e-10)


def test_model_dimensions_and_labels():
    net = NetworkSpec()
    g = Impedance(r=0.02, x=0.3)
    m = SystemModel(g, net, control="gfl", sc=ScParams())
    assert m.n == 18
    assert m.labels[:4] == ("i_g_d", "i_g_q", "i_sc_d", "i_sc_q")
    assert m.labels[-6:] == ("theta_pll", "s_pll", "gamma_d", "gamma_q", "o_d", "o_q")

    m2 = SystemModel(g, net, control="gfm", sc=None)
    assert m2.n == 16
    assert m2.labels[-6:] == ("theta_pc", "omega_pc", "m_d", "m_q", "o_d", "o_q")

    m3 = SystemModel(g, net, control="none", sc=ScParams())
    assert m3.n == 10
    m4 = SystemModel(g, net, control="none", sc=None)
    assert m4.n == 8
    assert "i_f_d" not in m4.labels


def test_model_rejects_unknown_control():
    net = NetworkSpec()
    with pytest.raises(ValueError):
        SystemModel(Impedance(r=0.02, x=0.3), net, control="droop")


def _random_state(model, rng):
    x = rng.normal(scale=0.2, size=model.n)
    # keep voltages near nominal so powers are realistic
    for lab in ("v_c_d", "v_pcc_d"):
        x[model.index(lab)] += 1.0
    return x


def _rotate_deriv(model, dx, alpha):
    out = np.array(dx, dtype=float)
    for lab in ("i_g_d", "i_sc_d", "i_f_d", "v_c_d", "i_a_d", "v_pcc_d"):
        if lab in model._idx:
            k = model.index(lab)
            out[k : k + 2] = rotate(dx[k : k + 2], alpha)
    return out


@pytest.mark.parametrize("control", ["gfl", "gfm", "none"])
@pytest.mark.parametrize("with_sc", [True, False])
def test_rhs_frame_rotation_invariance(control, with_sc):
    net = NetworkSpec()
    g = Impedance(r=0.0210668, x=0.3117878)
    model = SystemModel(g, net, control=control, sc=ScParams() if with_sc else None)
    refs = RefInputs(p_star=0.7, v_turb_star=1.0, q_star=0.05, phi_sc=0.04)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = _random_state(model, rng)
        alpha = float(rng.uniform(-math.pi, math.pi))
        dx = model.rhs(x, refs)
        dy = model.rhs(rotated_state(model, x, alpha), rotated_refs(refs, alpha))
        assert np.allclose(dy, _rotate_deriv(model, dx, alpha), atol=1e-10)


PLANTS = [
    ("gfl", "reactive"),
    ("gfl", "voltage"),
    ("gfm", "reactive"),
    ("none", "reactive"),
]

# (fault, dt): off, open-circuit threshold, resistive shunt and bolted
# (algebraic) faults at both buses
FAULT_TREATMENTS = [
    (None, None),
    (FaultSpec("pcc", FAULT_OPEN_THRESHOLD), 1e-4),
    (FaultSpec("pcc", 1.0), 1e-6),
    (FaultSpec("wt_mv", 5.0), 1e-6),
    (FaultSpec("pcc", 1e-4), 1e-4),
    (FaultSpec("wt_mv", 1e-4), 1e-4),
]


def _plant(control, q_mode, with_sc):
    g = Impedance(r=0.0210668, x=0.3117878)
    sc = ScParams() if with_sc else None
    return SystemModel(g, NetworkSpec(), control=control, sc=sc, q_mode=q_mode)


_REFS = RefInputs(
    p_star=0.7, v_turb_star=1.02, q_star=0.05, v_g_ref=0.97, v_g_angle=0.1, phi_sc=0.04
)


@pytest.mark.parametrize("control,q_mode", [p for p in PLANTS if p[0] != "none"])
def test_bound_controller_floats_match_row_vectors(control, q_mode):
    # one controller function serves one state (Python floats) and a batch
    # (row vectors); column j of the batch outputs is the float result for
    # column j
    if control == "gfl":
        g = gfl_controller(GflParams(), _REFS, q_mode, filter_lc(NetworkSpec())[0])
    else:
        g = gfm_controller(GfmParams(), _REFS, *filter_lc(NetworkSpec()))
    rng = np.random.default_rng(31)
    u = np.vstack([rng.uniform(0.5, 1.0, (6, 9)) * rng.choice([-1.0, 1.0], (6, 9)),
                   rng.uniform(-0.3, 0.3, (6, 9))])
    rows = np.array(g(list(u)))
    assert rows.shape == (8, 9)
    for j in range(u.shape[1]):
        floats = g(u[:, j].tolist())
        assert all(type(v) is float for v in floats)
        assert np.allclose(rows[:, j], floats, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("control,q_mode", PLANTS)
@pytest.mark.parametrize("with_sc", [True, False])
@pytest.mark.parametrize("fault,dt", FAULT_TREATMENTS)
def test_assembled_rhs_matches_component_composition(control, q_mode, with_sc, fault, dt):
    # rhs agrees with the plant composed component by component
    model = _plant(control, q_mode, with_sc)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = _random_state(model, rng)
        ref = composed_rhs(model, x, _REFS, fault, dt)
        got = model.rhs(x, _REFS, fault, dt)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("control,q_mode", PLANTS)
@pytest.mark.parametrize("fault,dt", FAULT_TREATMENTS)
def test_batched_rhs_matches_single_states(control, q_mode, fault, dt):
    model = _plant(control, q_mode, True)
    rng = np.random.default_rng(19)
    xs = np.column_stack([_random_state(model, rng) for _ in range(7)])
    batch = model.rhs(xs, _REFS, fault, dt)
    assert batch.shape == xs.shape
    for j in range(xs.shape[1]):
        single = model.rhs(xs[:, j], _REFS, fault, dt)
        assert np.max(np.abs(batch[:, j] - single)) <= 1e-14 * np.max(np.abs(single))


@pytest.mark.parametrize("control,q_mode", PLANTS)
def test_batched_rhs_reads_reference_columns(control, q_mode):
    # refs fields given as m-vectors apply column by column
    model = _plant(control, q_mode, True)
    rng = np.random.default_rng(23)
    m = 5
    xs = np.column_stack([_random_state(model, rng) for _ in range(m)])
    cols = {
        "p_star": rng.uniform(0.1, 1.0, m),
        "q_star": rng.uniform(-0.1, 0.1, m),
        "v_turb_star": rng.uniform(0.92, 1.08, m),
        "v_g_ref": rng.uniform(0.92, 1.08, m),
        "phi_sc": rng.uniform(-0.2, 0.2, m),
    }
    batch = model.rhs(xs, replace(_REFS, **cols))
    for j in range(m):
        refs_j = replace(_REFS, **{k: float(v[j]) for k, v in cols.items()})
        single = model.rhs(xs[:, j], refs_j)
        assert np.max(np.abs(batch[:, j] - single)) <= 1e-14 * np.max(np.abs(single))


def test_batched_measure_matches_single_states():
    model = _plant("gfl", "reactive", True)
    rng = np.random.default_rng(29)
    xs = np.column_stack([_random_state(model, rng) for _ in range(4)])
    batch = model.measure(xs, _REFS)
    for j in range(xs.shape[1]):
        single = model.measure(xs[:, j], _REFS)
        for name, value in single.items():
            assert batch[name][j] == pytest.approx(value, rel=1e-14, abs=1e-15)


def test_vacuous_fault_is_exact_noop():
    net = NetworkSpec()
    model = SystemModel(Impedance(r=0.02, x=0.3), net, control="gfl", sc=ScParams())
    rng = np.random.default_rng(5)
    x = _random_state(model, rng)
    refs = RefInputs(p_star=0.5)
    base = model.rhs(x, refs)
    faulted = model.rhs(x, refs, fault=FaultSpec("pcc", FAULT_OPEN_THRESHOLD), dt=1e-4)
    assert np.allclose(faulted, base, atol=1e-12)
    assert float(np.max(np.abs(faulted - base))) <= 1e-9


def test_bolted_fault_pins_pcc_bus():
    net = NetworkSpec()
    model = SystemModel(Impedance(r=0.02, x=0.3), net, control="none", sc=None)
    rng = np.random.default_rng(9)
    x = _random_state(model, rng)
    refs = RefInputs()
    r_f = 1e-4
    fault = FaultSpec("pcc", r_f)
    dx = model.rhs(x, refs, fault=fault, dt=2e-4)
    i_net = model.pair(x, "i_a_d") + model.pair(x, "i_g_d")
    zv = complex(i_net[0], i_net[1]) / complex(1.0 / r_f, -OMEGA0 * net.c_pcc)
    v_eff = np.array([zv.real, zv.imag])
    k = model.index("v_pcc_d")
    # the bus is algebraic: nothing moves its node state, which the
    # integrator overwrites with the pinned value, and the laws read that value
    node, pin = model.treatment(fault, 2e-4)[1]
    assert node == k
    assert np.allclose(pin @ x, v_eff, rtol=1e-10)
    assert np.array_equal(dx[k : k + 2], np.zeros(2))
    x_pinned = x.copy()
    x_pinned[k : k + 2] = v_eff
    assert np.allclose(dx[:k], model.rhs(x_pinned, refs)[:k], rtol=1e-10)


def test_resistive_fault_joins_node_law():
    net = NetworkSpec()
    model = SystemModel(Impedance(r=0.02, x=0.3), net, control="none", sc=None)
    rng = np.random.default_rng(13)
    x = _random_state(model, rng)
    refs = RefInputs()
    r_f = 1.0  # tau = 1e-4 s, resolvable at dt 1e-6
    base = model.rhs(x, refs)
    dx = model.rhs(x, refs, fault=FaultSpec("pcc", r_f), dt=1e-6)
    k = model.index("v_pcc_d")
    extra = dx[k : k + 2] - base[k : k + 2]
    assert np.allclose(extra, -x[k : k + 2] / (r_f * net.c_pcc), rtol=1e-10)
    others = np.ones(model.n, dtype=bool)
    others[k : k + 2] = False
    assert np.allclose(dx[others], base[others], rtol=1e-12)


def test_algebraic_fault_threshold_reads_the_faulted_nodes_capacitance():
    # a shunt is pinned when r C <= 2 dt, with C the faulted node's own
    # capacitance: at r = 1 and dt = 7.5e-5 s the PCC (C = 1e-4) is pinned
    # and the turbine bus (C = cf = 2.12e-4) is not
    net = NetworkSpec()
    model = SystemModel(Impedance(r=0.02, x=0.3), net, control="gfl", sc=ScParams())
    r_f, dt = 1.0, 7.5e-5
    assert r_f * net.c_pcc <= 2.0 * dt < r_f * filter_lc(net)[1]
    pcc = model.treatment(FaultSpec("pcc", r_f), dt)[1]
    assert pcc is not None and pcc[0] == model.index("v_pcc_d")
    assert model.treatment(FaultSpec("wt_mv", r_f), dt)[1] is None


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("midfeeder", 0.1)
    with pytest.raises(ValueError):
        FaultSpec("pcc", 0.0)


def test_measure_reports_interface_quantities():
    net = NetworkSpec()
    model = SystemModel(Impedance(r=0.02, x=0.3), net, control="gfl", sc=ScParams())
    x = np.zeros(model.n)
    x[model.index("v_c_d")] = 0.98
    x[model.index("v_c_q")] = 0.02
    x[model.index("i_a_d")] = 0.5
    x[model.index("i_a_q")] = -0.1
    out = model.measure(x, RefInputs())
    assert out["p_pc"] == pytest.approx(0.488, abs=1e-12)
    assert out["q_pc"] == pytest.approx(0.108, abs=1e-12)
    assert out["v_c_mag"] == pytest.approx(math.hypot(0.98, 0.02), rel=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Impedance(r=-0.01, x=0.3)
    with pytest.raises(ValueError, match="grid x must be > 0"):
        build_model(Scenario(grid=Impedance(r=0.01, x=0.0)))
    with pytest.raises(ValueError):
        ScParams(x_sub=0.0)
    with pytest.raises(ValueError):
        GflParams(kp_pll=0.0)
    with pytest.raises(ValueError):
        GfmParams(j_vsm=-0.2)
    # each network field is checked under its own name
    for bad in ({"xf": 0.0}, {"x_cf": -15.0}, {"c_pcc": 0.0}, {"rf": -0.005}, {"ra": -0.006},
                {"xa": -0.01}, {"rtf": -0.005}, {"xtf": -0.06}, {"x_cf": math.inf}, {"x_cf": 1e306},
                {"xa": 0.0, "xtf": 0.0}):
        with pytest.raises(ValueError, match=f"network {next(iter(bad))} "):
            NetworkSpec(**bad)
