"""Linearization checks against hand-derived Jacobian blocks.

The passive plant (no converter) is exactly linear, so its full A matrix has
a closed form; the central-difference Jacobian must reproduce it to numerical
roundoff. The converter paths are validated through convergence-order and
structure checks.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from wppsc.components import GFL, GFM, NO_CONVERTER, OMEGA0, Q_MODE_REACTIVE, Q_MODE_VOLTAGE, RefInputs
from wppsc.config import GRID_CASES, NetworkSpec, OperatingPoint, Scenario, build_model, refs_for
from wppsc.linearize import (
    OUTPUT_LABELS,
    LinearizationError,
    StateSpaceModel,
    linearize,
    linearize_batch,
    numjac,
    split_jacobian,
)
from wppsc.powerflow import solve_equilibrium


def passive_model(case="normal", with_sc=True):
    s = Scenario(
        name="block-oracle",
        grid=GRID_CASES[case],
        control=NO_CONVERTER,
        with_sc=with_sc,
        op=OperatingPoint(1.0, 1.0, 0.0),
    )
    return build_model(s), refs_for(s)


def analytic_passive_a(model) -> np.ndarray:
    """Closed-form state matrix of the passive (converter-free) plant."""
    w0 = OMEGA0
    rg, xg = model.grid.r, model.grid.x
    net = model.network
    lg = xg / w0
    lat = (net.xa + net.xtf) / w0
    rat = net.ra + net.rtf
    cf = 1.0 / (w0 * net.x_cf)
    cp = net.c_pcc

    n = model.n
    a = np.zeros((n, n))
    ig = model.index("i_g_d")
    vc = model.index("v_c_d")
    ia = model.index("i_a_d")
    vp = model.index("v_pcc_d")

    def couple(row, col, diag, off):
        a[row, col] += diag
        a[row, col + 1] += -off
        a[row + 1, col] += off
        a[row + 1, col + 1] += diag

    couple(ig, ig, -rg / lg, w0)
    couple(ig, vp, -1.0 / lg, 0.0)
    if model.has_sc:
        isc = model.index("i_sc_d")
        lsc = model.sc.x_sub / w0
        xt = model.sc.x_sub + model.sc.x_tr
        couple(isc, isc, -model.sc.r_tr / lsc, xt / lsc)
        couple(isc, vp, -1.0 / lsc, 0.0)
        couple(vp, isc, 1.0 / cp, 0.0)
    couple(vc, vc, 0.0, w0)
    couple(vc, ia, -1.0 / cf, 0.0)
    couple(ia, vc, 1.0 / lat, 0.0)
    couple(ia, ia, -rat / lat, w0)
    couple(ia, vp, -1.0 / lat, 0.0)
    couple(vp, ig, 1.0 / cp, 0.0)
    couple(vp, ia, 1.0 / cp, 0.0)
    couple(vp, vp, 0.0, w0)
    return a


def rel_matrix_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def test_numjac_polynomial_exact():
    # central differences are exact for quadratics up to roundoff
    def f(z):
        return np.array([z[0] ** 2 + 3.0 * z[1], z[0] * z[1]])

    z0 = np.array([0.7, -1.2])
    jac = numjac(f, z0, eps=1e-6)
    ref = np.array([[1.4, 3.0], [-1.2, 0.7]])
    assert np.max(np.abs(jac - ref)) < 1e-8


def _numjac_by_columns(f, z0, eps):
    """Reference: one pair of single-point evaluations per coordinate."""
    f0 = f(z0[:, None])[:, 0]
    jac = np.empty((f0.size, z0.size))
    for j in range(z0.size):
        h = eps * max(1.0, abs(z0[j]))
        zp = z0.copy()
        zm = z0.copy()
        zp[j] += h
        zm[j] -= h
        jac[:, j] = (f(zp[:, None])[:, 0] - f(zm[:, None])[:, 0]) / (2.0 * h)
    return jac


def test_numjac_batch_matches_column_loop():
    def f(z):
        return np.array(
            [
                np.sin(z[0]) * z[1] ** 2,
                np.exp(0.3 * z[2]) - z[0] * z[3],
                np.hypot(z[1], z[3]) / (1.0 + z[2] ** 2),
            ]
        )

    z0 = np.array([0.4, -2.5, 30.0, 1e-3])
    for eps in (1e-4, 1e-6, 1e-8):
        ref = _numjac_by_columns(f, z0, eps)
        got = numjac(f, z0, eps)
        assert got.shape == (3, 4)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_numjac_stack_is_each_point_alone():
    # the perturbed points of a member are those it gets alone, bit for bit
    def f(z):
        return np.array([np.sin(z[0]) * z[1] ** 2, np.exp(0.3 * z[2]) - z[0] * z[3]])

    z0 = np.array([[0.4, 1.1, -0.3], [-2.5, 0.2, 4.0], [30.0, -1.0, 0.5], [1e-3, 2.0, -7.0]])
    got = numjac(f, z0, 1e-6)
    assert got.shape == (3, 2, 4)
    for j in range(3):
        assert np.array_equal(got[j], numjac(f, z0[:, j], 1e-6))


def test_linearize_batch_rejects_only_the_member_off_equilibrium():
    s = Scenario(name="normal", grid=GRID_CASES["normal"], control="gfl", with_sc=True,
                 op=OperatingPoint(1.0, 1.0, 1.0))
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    eq2 = solve_equilibrium(model, refs_for(Scenario(op=OperatingPoint(0.92, 1.08, 0.5))))
    out = linearize_batch(model, [eq.state, eq.state + 1e-3, eq2.state], [eq.refs, eq.refs, eq2.refs])
    assert isinstance(out[1], LinearizationError)
    assert "not an equilibrium" in str(out[1])
    for ss, e in ((out[0], eq), (out[2], eq2)):
        alone = linearize(model, e.state, e.refs)
        for got, ref in ((ss.a, alone.a), (ss.b, alone.b), (ss.c, alone.c)):
            assert rel_matrix_err(got, ref) < 1e-9


def linearize_by_blocks(model, states, refs, in_labels, eps=1e-6):
    """Reference: three central differences over the members' stack, A over
    x with the inputs held, B over the inputs with x held, and C of the
    outputs over x; numjac's column i is member i % m in each."""
    x_eq = np.stack(states, axis=1)
    m = x_eq.shape[1]
    stacked = RefInputs.stack(refs)
    r_x = stacked.take(np.arange(2 * model.n * m) % m)
    a = numjac(lambda x: model.rhs(x, r_x), x_eq, eps)
    u0 = np.array([[getattr(r, lab) for r in refs] for lab in in_labels])
    r_u = stacked.take(np.arange(2 * len(in_labels) * m) % m)

    def f_u(u):  # one column of refs per column of inputs, each at its member's state
        return model.rhs(np.tile(x_eq, 2 * len(in_labels)), replace(r_u, **dict(zip(in_labels, u))))

    b = numjac(f_u, u0, eps)
    c = numjac(lambda x: np.array([model.measure(x, r_x)[k] for k in OUTPUT_LABELS]), x_eq, eps)
    return a, b, c


@pytest.mark.parametrize("with_sc", [False, True])
@pytest.mark.parametrize("control, q_mode", [
    (GFL, Q_MODE_REACTIVE), (GFL, Q_MODE_VOLTAGE), (GFM, Q_MODE_REACTIVE), (NO_CONVERTER, Q_MODE_REACTIVE),
])
def test_linearize_batch_matches_three_differences(control, q_mode, with_sc):
    # one difference over [x; u] holds the blocks of A, B and C, member by member
    scenarios = [Scenario(grid=GRID_CASES["normal"], control=control, q_mode=q_mode, with_sc=with_sc,
                          op=OperatingPoint(*op))
                 for op in ((1.0, 1.0, 1.0), (0.92, 1.08, 0.5), (1.08, 0.92, 0.1))]
    model = build_model(scenarios[0])
    eqs = [solve_equilibrium(model, refs_for(s)) for s in scenarios]
    states, refs = [e.state for e in eqs], [e.refs for e in eqs]
    got = linearize_batch(model, states, refs)
    ref = linearize_by_blocks(model, states, refs, got[0].input_labels)
    for j, ss in enumerate(got):
        # C is elementwise in x, so it is bit-equal. A and B carry the matmul's
        # rounding, which depends on the batch width, over 2h: up to ~5e-10
        # relative on B with the condenser's 1/L rows
        assert np.array_equal(ss.c, ref[2][j]), j
        for name, mat, r in zip("AB", (ss.a, ss.b), ref):
            assert rel_matrix_err(mat, r[j]) <= 1e-9, (name, j)


@pytest.mark.parametrize("with_sc", [False, True])
@pytest.mark.parametrize("control, q_mode", [
    (GFL, Q_MODE_REACTIVE), (GFL, Q_MODE_VOLTAGE), (GFM, Q_MODE_REACTIVE), (NO_CONVERTER, Q_MODE_REACTIVE),
])
def test_a_is_the_network_matrix_outside_the_controller_rows(control, q_mode, with_sc):
    # only the controller's writes rows are differenced: every other row of A
    # is the fault-free network matrix bit for bit, and C is the difference of
    # measure over x bit for bit, alone as in a batch
    s = Scenario(grid=GRID_CASES["weak"], control=control, q_mode=q_mode, with_sc=with_sc,
                 op=OperatingPoint(1.0, 1.0, 0.5))
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    ss = linearize(model, eq.state, eq.refs)
    rows = [k for k in range(model.n) if k not in model.writes]
    assert len(rows) == model.n - (8 if control != NO_CONVERTER else 0)
    assert np.array_equal(ss.a[rows], model.a[rows])
    _, _, c = linearize_by_blocks(model, [eq.state], [eq.refs], ss.input_labels)
    assert np.array_equal(ss.c, c[0])


def test_passive_full_matrix_matches_closed_form():
    model, refs = passive_model("normal", with_sc=True)
    assert model.n == 10
    # linear system: any state is as good as the equilibrium
    rng = np.random.default_rng(7)
    x = rng.normal(scale=0.3, size=model.n) + np.concatenate([np.zeros(4), [1, 0], np.zeros(2), [1, 0]])
    ss = linearize(model, x, refs, check_equilibrium=False)
    ref = analytic_passive_a(model)
    assert rel_matrix_err(ss.a, ref) < 1e-9


def test_passive_no_sc_matrix_matches_closed_form():
    model, refs = passive_model("weak", with_sc=False)
    assert model.n == 8
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    ss = linearize(model, x, refs, check_equilibrium=False)
    ref = analytic_passive_a(model)
    assert rel_matrix_err(ss.a, ref) < 1e-9


def test_grid_block_values():
    # weak case: |z| = 1/1.6, x/r = 5
    model, refs = passive_model("weak", with_sc=False)
    rg, xg = model.grid.r, model.grid.x
    assert math.hypot(rg, xg) == pytest.approx(0.625, rel=1e-12)
    assert xg / rg == pytest.approx(5.0, rel=1e-12)
    x = np.zeros(model.n)
    x[model.index("v_c_d")] = 1.0
    x[model.index("v_pcc_d")] = 1.0
    ss = linearize(model, x, refs, check_equilibrium=False)
    ig = model.index("i_g_d")
    rate = rg * OMEGA0 / xg
    block = ss.a[ig : ig + 2, ig : ig + 2]
    ref = np.array([[-rate, -OMEGA0], [OMEGA0, -rate]])
    assert np.max(np.abs(block - ref)) / OMEGA0 < 1e-9


def test_sc_block_values():
    model, refs = passive_model("normal", with_sc=True)
    p = model.sc
    x = np.zeros(model.n)
    x[model.index("v_c_d")] = 1.0
    x[model.index("v_pcc_d")] = 1.0
    ss = linearize(model, x, refs, check_equilibrium=False)
    k = model.index("i_sc_d")
    scale = OMEGA0 / p.x_sub
    ref = np.array(
        [
            [-p.r_tr * scale, -(p.x_sub + p.x_tr) * scale],
            [(p.x_sub + p.x_tr) * scale, -p.r_tr * scale],
        ]
    )
    block = ss.a[k : k + 2, k : k + 2]
    assert np.max(np.abs(block - ref)) / np.max(np.abs(ref)) < 1e-9


def test_filter_capacitor_rows_converter_model():
    # with a converter present the v_c node law gains the i_f feed
    s = Scenario(name="cap", grid=GRID_CASES["normal"], control=GFM, with_sc=False)
    model = build_model(s)
    refs = refs_for(s)
    eq = solve_equilibrium(model, refs)
    ss = linearize(model, eq.state, eq.refs)
    vc = model.index("v_c_d")
    fi = model.index("i_f_d")
    ia = model.index("i_a_d")
    cf = 1.0 / (OMEGA0 * model.network.x_cf)
    eye2 = np.eye(2)
    assert np.max(np.abs(ss.a[vc : vc + 2, fi : fi + 2] - eye2 / cf)) * cf < 1e-9
    assert np.max(np.abs(ss.a[vc : vc + 2, ia : ia + 2] + eye2 / cf)) * cf < 1e-9
    rot = np.array([[0.0, -OMEGA0], [OMEGA0, 0.0]])
    assert np.max(np.abs(ss.a[vc : vc + 2, vc : vc + 2] - rot)) / OMEGA0 < 1e-9


def gfl_sc_model(case="normal"):
    s = Scenario(grid=GRID_CASES[case], control=GFL, with_sc=True, op=OperatingPoint(1.0, 1.0, 0.5))
    return build_model(s), refs_for(s)


@pytest.mark.parametrize("make, angle", [(lambda: passive_model("strong", with_sc=False), 0.0),
                                         (gfl_sc_model, 0.3)], ids=["passive", "gfl-sc"])
def test_source_input_column(make, angle):
    # d(i_g dot)/d(v_g_ref) = (cos a, sin a)/L_g: a central difference of the
    # grid's rows of b, which are linear in v_g_ref
    model, refs = make()
    refs = replace(refs, v_g_angle=angle, phi_sc=0.1)
    x = np.zeros(model.n)
    x[model.index("v_c_d")] = 1.0
    x[model.index("v_pcc_d")] = 1.0
    ss = linearize(model, x, refs, check_equilibrium=False)
    col = ss.input_labels.index("v_g_ref")
    lg = model.grid.x / OMEGA0
    ig = model.index("i_g_d")
    for k, expect in enumerate((math.cos(angle) / lg, math.sin(angle) / lg)):
        if expect:
            assert ss.b[ig + k, col] == pytest.approx(expect, rel=1e-9)
        else:
            assert abs(ss.b[ig + k, col]) < 1e-6
    # nothing else sees the source directly
    others = np.delete(ss.b[:, col], [ig, ig + 1])
    assert np.max(np.abs(others)) < 1e-6


def test_power_output_rows_quadratic_exact():
    # p at the turbine bus is bilinear in (v_c, i_a): central differences
    # recover its gradient exactly
    model, refs = passive_model("normal", with_sc=True)
    rng = np.random.default_rng(3)
    x = rng.normal(scale=0.2, size=model.n)
    x[model.index("v_c_d")] += 1.0
    x[model.index("v_pcc_d")] += 1.0
    ss = linearize(model, x, refs, check_equilibrium=False)
    row = ss.output_labels.index("p_pc")
    vc = model.index("v_c_d")
    ia = model.index("i_a_d")
    v = x[vc : vc + 2]
    i = x[ia : ia + 2]
    assert ss.c[row, vc] == pytest.approx(i[0], abs=1e-9)
    assert ss.c[row, vc + 1] == pytest.approx(i[1], abs=1e-9)
    assert ss.c[row, ia] == pytest.approx(v[0], abs=1e-9)
    assert ss.c[row, ia + 1] == pytest.approx(v[1], abs=1e-9)
    qrow = ss.output_labels.index("q_pc")
    # q = v_q i_d - v_d i_q in this frame's sign convention, up to overall sign;
    # check magnitude pattern without fixing the convention here
    grad = np.array([ss.c[qrow, vc], ss.c[qrow, vc + 1], ss.c[qrow, ia], ss.c[qrow, ia + 1]])
    expect = np.array([i[1], i[0], v[1], v[0]])
    assert np.max(np.abs(np.abs(grad) - np.abs(expect))) < 1e-9


def test_richardson_convergence_full_gfm():
    # halving eps must shrink the A-matrix difference about fourfold
    s = Scenario(name="rich", grid=GRID_CASES["weak"], control=GFM, with_sc=True)
    model = build_model(s)
    eq = solve_equilibrium(model, refs_for(s))
    a1 = linearize(model, eq.state, eq.refs, eps=1e-4).a
    a2 = linearize(model, eq.state, eq.refs, eps=5e-5).a
    a3 = linearize(model, eq.state, eq.refs, eps=2.5e-5).a
    d1 = np.max(np.abs(a1 - a2))
    d2 = np.max(np.abs(a2 - a3))
    assert d2 > 0.0
    assert d1 / d2 >= 3.5


def test_a_real_and_eigenvalues_conjugate_closed():
    model, refs = passive_model("weak", with_sc=True)
    x = np.zeros(model.n)
    x[model.index("v_c_d")] = 1.0
    x[model.index("v_pcc_d")] = 1.0
    ss = linearize(model, x, refs, check_equilibrium=False)
    assert np.isrealobj(ss.a)
    w = np.linalg.eigvals(ss.a)
    w_sorted = np.sort_complex(w)
    conj_sorted = np.sort_complex(np.conj(w))
    assert np.max(np.abs(w_sorted - conj_sorted)) < 1e-6


def test_eps_range_enforced():
    model, refs = passive_model("normal", with_sc=False)
    x = np.zeros(model.n)
    with pytest.raises(ValueError):
        linearize(model, x, refs, eps=1e-9, check_equilibrium=False)
    with pytest.raises(ValueError):
        linearize(model, x, refs, eps=1e-3, check_equilibrium=False)
    with pytest.raises(ValueError, match=rf"state must have shape \({model.n},\)"):
        linearize(model, np.zeros(model.n + 1), refs, check_equilibrium=False)


def test_equilibrium_check_rejects_off_equilibrium_point():
    s = Scenario(name="offeq", grid=GRID_CASES["normal"], control=GFM, with_sc=True)
    model = build_model(s)
    refs = refs_for(s)
    eq = solve_equilibrium(model, refs)
    bad = eq.state.copy()
    bad[model.index("v_c_d")] += 0.05
    with pytest.raises(ValueError, match="equilibrium"):
        linearize(model, bad, eq.refs)
    # waiving the check makes the same call legal
    linearize(model, bad, eq.refs, check_equilibrium=False)


def test_nonfinite_state_reported_with_location():
    model, refs = passive_model("normal", with_sc=False)
    x = np.zeros(model.n)
    x[3] = np.inf
    with pytest.raises(LinearizationError) as exc:
        linearize(model, x, refs, check_equilibrium=False)
    assert "3" in str(exc.value) or exc.value.row is not None


def test_nonfinite_member_of_a_batch_is_reported_as_alone():
    # the batch tests its stack for finiteness once: the member whose state
    # holds inf gets the error, row and column it gets alone, and the others
    # their lone models, bit for bit
    s = Scenario(name="weak", grid=GRID_CASES["weak"], control=GFL, with_sc=True)
    model = build_model(s)
    ops = (OperatingPoint(1.0, 1.0, 1.0), OperatingPoint(0.92, 1.08, 0.5), OperatingPoint(1.08, 0.92, 0.1))
    eqs = [solve_equilibrium(model, refs_for(replace(s, op=op))) for op in ops]
    states = [e.state.copy() for e in eqs]
    states[1][model.index("v_c_q")] = np.inf
    out = linearize_batch(model, states, [e.refs for e in eqs], check_equilibrium=False)
    with pytest.raises(LinearizationError) as alone:
        linearize(model, states[1], eqs[1].refs, check_equilibrium=False)
    assert isinstance(out[1], LinearizationError)
    assert (str(out[1]), out[1].row, out[1].col) == (str(alone.value), alone.value.row, alone.value.col)
    assert alone.value.row is not None and alone.value.col is not None
    for j in (0, 2):
        ss = linearize(model, states[j], eqs[j].refs, check_equilibrium=False)
        for got, ref in ((out[j].a, ss.a), (out[j].b, ss.b), (out[j].c, ss.c)):
            assert np.array_equal(got, ref)


def test_state_space_shape_validation():
    with pytest.raises(ValueError):
        StateSpaceModel(
            a=np.zeros((3, 3)),
            b=np.zeros((2, 1)),
            c=np.zeros((1, 3)),
            state_labels=("a", "b", "c"),
            input_labels=("u",),
            output_labels=("y",),
        )
    # A must be square over the states, C must read every state
    for shapes, match in ((((3, 2), (3, 1), (1, 3)), "A must be 3x3"),
                          (((3, 3), (3, 1), (1, 2)), "C shape")):
        with pytest.raises(ValueError, match=match):
            StateSpaceModel(*map(np.zeros, shapes), ("a", "b", "c"), ("u",), ("y",))


def test_input_labels_by_control():
    # over control x q_mode x condenser: SystemModel states the references
    # the plant reads (B's columns) and those the solve closes, and rhs reads
    # exactly the first among the four references a scenario sets
    rng = np.random.default_rng(41)
    refs = RefInputs(p_star=0.7, v_turb_star=1.02, q_star=0.05, v_g_ref=0.97, phi_sc=0.04)
    for control, q_mode, with_sc in itertools.product(
            (GFL, GFM, NO_CONVERTER), (Q_MODE_REACTIVE, Q_MODE_VOLTAGE), (False, True)):
        case = (control, q_mode, with_sc)
        s = Scenario(name="io", grid=GRID_CASES["normal"], control=control, q_mode=q_mode,
                     with_sc=with_sc, op=OperatingPoint(1.0, 1.0, 0.5))
        model = build_model(s)
        reads_q = control == GFL and q_mode == Q_MODE_REACTIVE
        expected = (("v_g_ref",) if control == NO_CONVERTER
                    else ("p_star", "v_g_ref", "q_star" if reads_q else "v_turb_star"))
        assert model.inputs == expected, case
        assert model.unknowns == ("phi_sc",) * with_sc + ("q_star",) * reads_q, case
        x = rng.uniform(-1.0, 1.0, model.n)
        base = model.rhs(x, refs)
        for name in ("p_star", "q_star", "v_turb_star", "v_g_ref"):
            moved = model.rhs(x, replace(refs, **{name: getattr(refs, name) + 0.01}))
            assert (not np.array_equal(moved, base)) == (name in model.inputs), (case, name)
        ss = _quick_ss(s)
        assert ss.input_labels == model.inputs, case
        assert ss.output_labels == ("p_pc", "v_c_mag", "q_pc"), case


def _quick_ss(scenario):
    model = build_model(scenario)
    refs = refs_for(scenario)
    eq = solve_equilibrium(model, refs)
    return linearize(model, eq.state, eq.refs)


_PRESETS = [(grid, control, with_sc) for grid in sorted(GRID_CASES)
            for control in (GFL, GFM, NO_CONVERTER) for with_sc in (False, True)]


def _emfs_derivative(model, field, refs):
    """d emfs / d field, analytically, as the (4, m) columns of the members;
    emfs reads v_g_ref, v_g_angle and phi_sc alone."""
    v, a, phi = np.broadcast_arrays(*(np.atleast_1d(getattr(refs, k))
                                      for k in ("v_g_ref", "v_g_angle", "phi_sc")))
    zero, e = np.zeros(v.shape), model.e_mag
    return np.array({"v_g_angle": (-v * np.sin(a), v * np.cos(a), zero, zero),
                     "phi_sc": (zero, zero, -e * np.sin(phi), e * np.cos(phi))}.get(field, (zero,) * 4))


@pytest.mark.parametrize("fields", [("v_g_angle", "phi_sc", "p_star", "q_star"), ("p_star", "q_star")],
                         ids=["moves-b", "leaves-b"])
@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("grid, control, with_sc", _PRESETS)
def test_split_jacobian_differences_the_whole_source_vector(grid, control, with_sc, members, fields):
    # split_jacobian puts b = S emfs(refs) into its source rows over any field,
    # also those no caller differences (v_g_angle; phi_sc in linearize's
    # sense): each is S d(emfs)/d(field) to 1e-7 of max|S|. A field that no
    # law binds writes nothing else; a row that neither b nor the controller
    # writes is exactly zero in every field column, and the state block is a
    # outside the controller's rows, bit for bit. With only p_star and q_star
    # no field moves b, which is then one value per row
    model = build_model(Scenario(grid=GRID_CASES[grid], control=control, with_sc=with_sc))
    n, s, rng = model.n, model.source_map, np.random.default_rng(members)
    sources = np.flatnonzero(s.any(axis=1))
    assert model.sources == sources.tolist()  # b's rows: the nonzero rows of S
    refs = RefInputs.stack([RefInputs(v_g_ref=1.02, v_g_angle=0.3, phi_sc=-0.4, v_turb_star=1.0)] * members)
    z = np.vstack((rng.normal(0.0, 0.5, (n, members)),
                   [rng.uniform(-1.0, 1.0, members) for _ in fields]))
    jac = split_jacobian(model, fields, (), lambda xs, r: [], 0)(z, refs, 1e-6)
    assert jac.shape == (members, n, n + len(fields))
    at_z = replace(refs, **dict(zip(fields, z[n:])))
    others = np.setdiff1d(np.arange(n), [*sources, *model.writes])
    for j, field in enumerate(fields):
        col = jac[:, :, n + j]
        expected = (s[sources] @ _emfs_derivative(model, field, at_z)).T
        assert np.abs(col[:, sources] - expected).max() <= 1e-7 * np.abs(s).max(), field
        if field not in ("v_g_angle", "phi_sc"):
            assert (col[:, sources] == 0.0).all(), field
        unwritten = others if field in ("p_star", "q_star") else np.setdiff1d(np.arange(n), sources)
        assert (col[:, unwritten] == 0.0).all(), field
    rows = np.setdiff1d(np.arange(n), model.writes)
    assert (jac[:, rows, :n] == model.a[rows]).all()
