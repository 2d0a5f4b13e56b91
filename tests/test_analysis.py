import math
from dataclasses import replace

import numpy as np
import pytest

from wppsc.analysis import (
    NULL_MODE_TOL,
    EigenRecord,
    StabilityReport,
    analyze_group,
    analyze_scenario,
    classify,
    eigenvalues,
    spectra,
    step_input,
    step_response,
    sweep,
)
from wppsc.components import OMEGA0, SystemModel
from wppsc.config import (
    GRID_CASES,
    OperatingPoint,
    Scenario,
    build_model,
    refs_for,
    scenario_key,
    standard_operating_points,
)
from wppsc.linearize import LinearizationError, StateSpaceModel, linearize, linearize_batch
from wppsc.netbase import GridCase
from wppsc.powerflow import solve_equilibria, solve_equilibrium
from wppsc.sim import zoh_step

from plant_oracle import rotated_refs, rotated_state


def make_ss(a, n_in=1, n_out=1):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return StateSpaceModel(
        a=a,
        b=np.zeros((n, n_in)),
        c=np.zeros((n_out, n)),
        state_labels=tuple(f"x{i}" for i in range(n)),
        input_labels=("p_star",)[:n_in],
        output_labels=("p_pc",)[:n_out],
    )


def solved_ss(case="normal", control="gfl", with_sc=False, op=None):
    s = Scenario(
        name=case,
        grid=GRID_CASES[case],
        control=control,
        with_sc=with_sc,
        op=op or OperatingPoint(1.0, 1.0, 1.0),
    )
    model = build_model(s)
    refs = refs_for(s)
    eq = solve_equilibrium(model, refs)
    return model, eq, linearize(model, eq.state, eq.refs)


def damping(lam: complex):
    """zeta = -re/|lam|; None marks the undefined case of a null mode."""
    mag = abs(lam)
    if mag == 0.0:
        return None
    return -lam.real / mag


def test_damping_triple():
    assert damping(complex(-1.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
    assert damping(complex(-1.0, 1.0)) == pytest.approx(0.7071, abs=1e-4)
    assert damping(complex(4.0, 3.0)) == pytest.approx(-0.8, rel=1e-12)
    assert damping(0.0) is None


def test_eigenvalues_known_quadratic():
    recs = eigenvalues(make_ss([[0.0, 1.0], [-1.0, -1.0]]))
    assert len(recs) == 1
    r = recs[0]
    assert r.conjugate_pair
    assert r.re == pytest.approx(-0.5, rel=1e-12)
    assert r.im == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert r.damping == pytest.approx(0.5, rel=1e-12)


def test_eigenvalues_diagonal():
    recs = eigenvalues(make_ss(np.diag([-1.0, -2.0, -3.0])))
    assert [r.re for r in recs] == pytest.approx([-1.0, -2.0, -3.0])
    assert all(r.damping == pytest.approx(1.0) for r in recs)
    assert all(not r.conjugate_pair for r in recs)


def test_eigenvalues_grid_branch_block():
    # series R-L branch in the rotating frame: lightly damped 50 Hz pair
    rg, xg = 0.1, 0.5
    rate = rg * OMEGA0 / xg
    a = np.array([[-rate, -OMEGA0], [OMEGA0, -rate]])
    recs = eigenvalues(make_ss(a))
    assert len(recs) == 1
    r = recs[0]
    assert r.re == pytest.approx(-62.83, abs=0.01)
    assert r.im == pytest.approx(314.16, abs=0.01)
    assert r.freq_hz == pytest.approx(50.0, rel=1e-12)
    assert r.damping == pytest.approx(0.196, abs=1e-3)
    assert r.damping == pytest.approx(1.0 / math.sqrt(26.0), rel=1e-9)


def test_eigen_records_satisfy_damping_identity():
    _, _, ss = solved_ss("weak", "gfm", with_sc=True)
    recs = eigenvalues(ss)
    assert recs
    for r in recs:
        mag = math.hypot(r.re, r.im)
        assert r.damping * mag == pytest.approx(-r.re, abs=1e-12 * max(1.0, mag))
        assert -1.0 <= r.damping <= 1.0
        assert r.freq_hz == pytest.approx(abs(r.im) / (2.0 * math.pi), rel=1e-12)


def test_null_mode_filtered_and_counted():
    recs = eigenvalues(make_ss(np.diag([-1.0, 0.0])))
    assert len(recs) == 1
    assert recs[0].re == pytest.approx(-1.0)


def test_no_null_modes_in_solved_plants():
    for control, budget in (("gfl", 0), ("gfm", 1)):
        model, _, ss = solved_ss("normal", control)
        recs = eigenvalues(ss)
        counted = sum(2 if r.conjugate_pair else 1 for r in recs)
        assert model.n - counted <= budget


def rec(lam):
    z = damping(lam)
    return EigenRecord(
        re=lam.real,
        im=abs(lam.imag),
        damping=z,
        freq_hz=abs(lam.imag) / (2.0 * math.pi),
        dominant_states=("x0",),
        conjugate_pair=lam.imag != 0.0,
    )


def test_classify_stable_and_unstable():
    stable = classify([rec(complex(-1.0, 5.0)), rec(complex(-0.2, 0.0))])
    assert stable.stable
    unstable = classify([rec(complex(-1.0, 5.0)), rec(complex(5.0, 0.0))])
    assert not unstable.stable
    assert unstable.max_re == pytest.approx(5.0)


def test_classify_flags_poorly_damped_near_sync():
    report = classify([rec(complex(-10.0, 310.0))])
    assert report.stable
    assert len(report.poorly_damped_near_sync) == 1
    flagged = report.poorly_damped_near_sync[0]
    assert flagged.damping == pytest.approx(0.032, abs=2e-3)
    assert 40.0 <= flagged.freq_hz <= 60.0
    # well damped or out of band -> no flag
    assert not classify([rec(complex(-300.0, 310.0))]).poorly_damped_near_sync
    assert not classify([rec(complex(-10.0, 800.0))]).poorly_damped_near_sync


def test_classify_monotone_in_max_re():
    rng = np.random.default_rng(7)
    for _ in range(200):
        base = [rec(complex(rng.uniform(-5, 5), rng.uniform(0, 400))) for _ in range(4)]
        before = classify(base)
        extra = rec(complex(before.max_re + rng.uniform(0.0, 3.0), rng.uniform(0, 400)))
        after = classify(base + [extra])
        assert not (after.stable and not before.stable)
        assert after.max_re >= before.max_re


def test_min_damping_below_100hz_ignores_fast_modes():
    report = classify([rec(complex(-5.0, 2.0 * math.pi * 50.0)),
                       rec(complex(-5.0, 2.0 * math.pi * 900.0)),
                       rec(complex(-4.0, 0.0))])
    slow = damping(complex(-5.0, 2.0 * math.pi * 50.0))
    assert report.min_damping_below_100hz == pytest.approx(slow, rel=1e-12)


def test_spectrum_invariant_under_frame_rotation():
    model, eq, ss = solved_ss("normal", "gfl", with_sc=True)
    alpha = 0.6
    x_rot = rotated_state(model, eq.state, alpha)
    refs_rot = rotated_refs(eq.refs, alpha)
    ss_rot = linearize(model, x_rot, refs_rot)
    w0 = np.sort_complex(np.linalg.eigvals(ss.a))
    w1 = np.sort_complex(np.linalg.eigvals(ss_rot.a))
    scale = np.maximum(1.0, np.abs(w0))
    assert np.max(np.abs(w0 - w1) / scale) < 1e-8


def test_step_response_first_order_analytic():
    ss = StateSpaceModel(
        a=np.array([[-1.0]]),
        b=np.array([[1.0]]),
        c=np.array([[1.0]]),
        state_labels=("x",),
        input_labels=("p_star",),
        output_labels=("p_pc",),
    )
    ts = step_response(ss, "power", 1.0, t_end=1.0, dt=1e-3)
    y = ts.columns["p_pc"]
    assert y[0] == 0.0
    assert y[-1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_step_response_matches_extended_precision_march():
    # the doubled fill against the same hold map stepped one sample at a
    # time in long double, on a gate-8 linear model
    _, _, ss = solved_ss("strong", "gfm", True, op=OperatingPoint(1.0, 1.0, 0.5))
    dt, n_steps, magnitude = 2e-4, 2000, 1e-3
    ts = step_response(ss, "power", magnitude, t_end=n_steps * dt, dt=dt)
    j = ss.input_labels.index("p_star")
    phi, gamma = (v.astype(np.longdouble) for v in zoh_step(ss.a, ss.b[:, j] * magnitude, dt))
    xs = np.zeros((n_steps + 1, ss.a.shape[0]), dtype=np.longdouble)
    for k in range(n_steps):
        xs[k + 1] = phi @ xs[k] + gamma
    ref = (xs @ ss.c.T.astype(np.longdouble)).astype(float)
    for i, name in enumerate(ss.output_labels):
        peak = np.max(np.abs(ref[:, i]))
        assert np.max(np.abs(ts.columns[name] - ref[:, i])) <= 1e-11 * peak, name


def test_step_response_is_exact_on_stiff_modes():
    # dt * |lambda| = 100: far outside any explicit method's stability
    # region, exact under zero-order hold
    lam = 1e6
    ss = StateSpaceModel(
        a=np.array([[-lam]]),
        b=np.array([[1.0]]),
        c=np.array([[1.0]]),
        state_labels=("x",),
        input_labels=("p_star",),
        output_labels=("p_pc",),
    )
    ts = step_response(ss, "power", 1.0, t_end=1e-2, dt=1e-4)
    assert not (ts.diverged or ts.aborted)
    assert ts.t.size == 101
    expected = -np.expm1(-lam * ts.t) / lam
    assert np.allclose(ts.columns["p_pc"], expected, rtol=1e-12, atol=0.0)


def test_step_response_zero_magnitude_is_zero():
    _, _, ss = solved_ss("strong", "gfm")
    ts = step_response(ss, "power", 0.0, t_end=0.1, dt=1e-4)
    assert np.max(np.abs(ts.columns["p_pc"])) == 0.0
    assert np.max(np.abs(ts.columns["v_c_mag"])) == 0.0


def test_step_response_voltage_channel_picks_live_input():
    _, _, ss_gfl = solved_ss("normal", "gfl")  # reactive mode: q_star input
    ts = step_response(ss_gfl, "voltage", 1e-3, t_end=0.05, dt=1e-4)
    assert "input=q_star" in ts.meta
    _, _, ss_gfm = solved_ss("normal", "gfm")
    ts2 = step_response(ss_gfm, "voltage", 1e-3, t_end=0.05, dt=1e-4)
    assert "input=v_turb_star" in ts2.meta


def test_step_response_rejects_bad_channel():
    _, _, ss = solved_ss("strong", "gfm")
    with pytest.raises(ValueError):
        step_response(ss, "frequency", 1e-3, 0.1, 1e-4)
    # an unknown channel, a known one that drives none of the inputs, and a bad horizon or step
    with pytest.raises(ValueError, match="channel must be one of"):
        step_input("frequency", ("p_star", "v_g_ref"))
    with pytest.raises(ValueError, match="needs one of"):
        step_input("voltage", ("p_star", "v_g_ref"))
    for t_end, dt, match in ((0.0, 1e-4, "t_end > 0"), (math.inf, 1e-4, "t_end > 0"),
                             (0.1, 0.2, "dt must satisfy"), (0.1, math.nan, "dt must satisfy")):
        with pytest.raises(ValueError, match=match):
            step_response(ss, "power", 1e-3, t_end, dt)


def test_weak_gfl_step_divergence_cured_by_sc():
    mag = 1e-3
    _, _, ss = solved_ss("weak", "gfl", with_sc=False)
    ts = step_response(ss, "power", mag, t_end=5.0, dt=2e-4)
    assert np.max(np.abs(ts.columns["p_pc"])) > 10.0 * mag
    _, _, ss_sc = solved_ss("weak", "gfl", with_sc=True)
    ts_sc = step_response(ss_sc, "power", mag, t_end=5.0, dt=2e-4)
    tail = ts_sc.columns["p_pc"][ts_sc.t >= 3.0]
    assert np.max(np.abs(tail - mag)) < 0.02 * mag


def test_sweep_shape_order_and_determinism():
    ops = standard_operating_points()[:2]
    cases = {"normal": GRID_CASES["normal"]}
    reports = sweep(grid_cases=cases, ops=ops, controls=("gfl",), sc_states=(False, True))
    assert len(reports) == 4
    keys = [r.scenario_key for r in reports]
    assert keys == sorted(keys)
    again = sweep(grid_cases=cases, ops=ops, controls=("gfl",), sc_states=(False, True))
    assert [r.scenario_key for r in again] == keys
    assert [r.max_re for r in again] == [r.max_re for r in reports]
    assert all(r.solved for r in reports)


def test_sweep_captures_individual_failures():
    # an SCR 0.2 grid cannot carry 1 pu: that cell fails, the batch survives
    cases = {"feeble": GridCase(scr=0.2, x_r=5.0)}
    ops = [OperatingPoint(1.0, 1.0, 1.0), OperatingPoint(1.0, 1.0, 0.1)]
    reports = sweep(grid_cases=cases, ops=ops, controls=("gfl",), sc_states=(False,))
    assert len(reports) == 2
    failed = [r for r in reports if not r.solved]
    assert failed
    assert all(r.failure for r in failed)
    assert all(not r.stable for r in failed)


def test_analyze_scenario_propagates_programming_errors(monkeypatch):
    # only solver and linearisation failures become unsolved rows
    def broken(self, x, refs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(SystemModel, "rhs", broken)
    s = Scenario(name="normal", grid=GRID_CASES["normal"], control="gfl", with_sc=False)
    with pytest.raises(ValueError, match="broadcast"):
        analyze_scenario(s)


def test_eigenvalues_rejects_nonfinite_matrix_with_typed_error():
    with pytest.raises(LinearizationError):
        eigenvalues(make_ss([[0.0, np.nan], [1.0, -1.0]]))


def test_eigenvalues_reports_eigensolver_failure_with_typed_error(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing)
    with pytest.raises(LinearizationError, match="eigensolver failed"):
        eigenvalues(make_ss([[0.0, 1.0], [-1.0, -1.0]]))


def test_spectra_isolate_a_nonfinite_member():
    good = [make_ss([[0.0, 1.0], [-1.0, -1.0]]), make_ss(np.diag([-1.0, -2.0]))]
    bad = make_ss([[0.0, np.nan], [1.0, -1.0]])
    out = spectra([good[0], bad, good[1]])
    assert isinstance(out[1], LinearizationError)
    assert out[0] == eigenvalues(good[0])
    assert out[2] == eigenvalues(good[1])


def test_spectra_retry_a_failed_stack_one_matrix_at_a_time(monkeypatch):
    # the eigensolver rejects any stack holding the marked matrix
    real_eig = np.linalg.eig
    marked = make_ss([[7.0, 1.0], [0.0, -3.0]])

    def picky(a):
        if np.any(np.all(a == marked.a, axis=(-2, -1))):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eig(a)

    good = [make_ss([[0.0, 1.0], [-1.0, -1.0]]), make_ss(np.diag([-1.0, -2.0]))]
    expected = [eigenvalues(ss) for ss in good]
    monkeypatch.setattr(np.linalg, "eig", picky)
    out = spectra([good[0], marked, good[1]])
    assert isinstance(out[1], LinearizationError)
    assert "eigensolver failed" in str(out[1])
    assert [out[0], out[2]] == expected


def mode_by_mode_records(ss):
    """The records of ss built one mode at a time from Python complex
    numbers, the way spectra's stacked construction must reproduce bit for
    bit."""
    w, vr = np.linalg.eig(ss.a)
    part = np.abs(np.linalg.inv(vr).T * vr)
    records = []
    for k, lam in enumerate(map(complex, w.tolist())):
        if lam.imag >= 0.0 and abs(lam) >= NULL_MODE_TOL:
            top = np.argsort(-part[:, k], kind="stable")[:3].tolist()
            records.append(EigenRecord(lam.real, lam.imag, damping(lam), abs(lam.imag) / (2.0 * math.pi),
                                       tuple(ss.state_labels[i] for i in top), lam.imag > 0.0))
    return sorted(records, key=lambda r: (-r.re, r.im))


def test_spectra_records_match_a_mode_by_mode_reference():
    base = Scenario(name="weak", grid=GRID_CASES["weak"], control="gfl", with_sc=True)
    model = build_model(base)
    eqs = solve_equilibria(model, [refs_for(replace(base, op=op)) for op in standard_operating_points()])
    plants = linearize_batch(model, [e.state for e in eqs], [e.refs for e in eqs])
    # with null modes, a real spectrum, and a repeated eigenvalue
    small = [make_ss(np.diag([0.0, -1.0, -1.0])), make_ss([[0.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])]
    for group in (plants, small):
        for got, ss in zip(spectra(group), group):
            want = mode_by_mode_records(ss)
            assert [tuple(vars(r).values()) for r in got] == [tuple(vars(r).values()) for r in want]
            assert all(type(r.re) is float and type(r.damping) is float and type(r.conjugate_pair) is bool
                       and all(type(lab) is str for lab in r.dominant_states) for r in got)


def assert_same_report(got, ref):
    """Equal classification and solver diagnostics, eigenvalues to 1e-8
    relative."""
    assert got.scenario_key == ref.scenario_key
    assert (got.solved, got.stable, got.null_modes_filtered, got.newton_iterations) == (
        ref.solved, ref.stable, ref.null_modes_filtered, ref.newton_iterations)
    assert got.failure == ref.failure
    assert len(got.eigen) == len(ref.eigen)
    for e, f in zip(got.eigen, ref.eigen):
        assert abs(complex(e.re, e.im) - complex(f.re, f.im)) <= 1e-8 * math.hypot(f.re, f.im)


@pytest.mark.parametrize("case", ["weak", "strong"])
@pytest.mark.parametrize("control", ["gfl", "gfm"])
@pytest.mark.parametrize("with_sc", [True, False])
def test_analyze_group_matches_each_scenario_alone(case, control, with_sc):
    # a group and a lone scenario share every line of the chain: this guards
    # against a path that depends on the number of members
    base = Scenario(name=case, grid=GRID_CASES[case], control=control, with_sc=with_sc)
    group = [replace(base, op=op) for op in standard_operating_points()]
    reports = analyze_group(group)
    assert len(reports) == 27
    for s, got in zip(group, reports):
        assert got.solved
        assert_same_report(got, analyze_scenario(s))


@pytest.mark.parametrize("members", [1, 27])
def test_analyze_group_takes_one_eig_and_one_inv_per_group(monkeypatch, members):
    # the group is decomposed as one stack, whatever its size
    calls = []
    for name in ("eig", "inv"):
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, fn=getattr(np.linalg, name), **kw:
                            calls.append(name) or fn(*a, **kw))
    base = Scenario(name="weak", grid=GRID_CASES["weak"], control="gfl", with_sc=True)
    reports = analyze_group([replace(base, op=op) for op in standard_operating_points()[:members]])
    assert len(reports) == members and all(r.solved for r in reports)
    assert sorted(calls) == ["eig", "inv"]


def test_analyze_group_isolates_an_infeasible_member():
    # an SCR 0.2 grid cannot carry 1 pu; it carries 0.1 pu
    base = Scenario(name="feeble", grid=GridCase(scr=0.2, x_r=5.0), control="gfl", with_sc=False)
    ops = [OperatingPoint(1.0, 1.0, 0.1), OperatingPoint(1.0, 1.0, 1.0),
           OperatingPoint(1.08, 1.0, 0.1), OperatingPoint(1.0, 1.08, 0.1)]
    group = [replace(base, op=op) for op in ops]
    reports = analyze_group(group)
    assert [r.solved for r in reports] == [True, False, True, True]
    assert reports[1].failure.startswith("InfeasibleError")
    for s, got in zip(group, reports):
        assert_same_report(got, analyze_scenario(s))


def test_analyze_group_reports_are_classify_with_the_scenario_fields():
    # each report is the public classify of the member's own records, with
    # the scenario's fields and solver diagnostics filled in
    base = Scenario(name="weak", grid=GRID_CASES["weak"], control="gfl", with_sc=True)
    group = [replace(base, op=op) for op in standard_operating_points()]
    model = build_model(base)
    eqs = solve_equilibria(model, [refs_for(s) for s in group])
    plants = linearize_batch(model, [e.state for e in eqs], [e.refs for e in eqs])
    reports = analyze_group(group)
    assert len(reports) == 27
    for s, eq, ss, records, got in zip(group, eqs, plants, spectra(plants), reports):
        null_modes = ss.a.shape[0] - sum(2 if r.conjugate_pair else 1 for r in records)
        want = replace(classify(records, null_modes=null_modes), scenario_key=scenario_key(s),
                       grid_case=s.name, control=s.control, with_sc=s.with_sc, op=s.op,
                       newton_iterations=eq.iterations, residual_norm=eq.residual_norm)
        for name, value in vars(want).items():
            assert getattr(got, name) == value, name
        assert got == want


def classify_then_fill(s, eq, ss, records):
    """Reference for one analyze_group report, built from classify: its
    report with blank scenario fields, rebuilt from its vars() with the
    scenario, the solve and, for a member that failed, the failure."""
    if isinstance(records, Exception):
        fields = {**vars(classify([])), "stable": False, "max_re": math.nan, "solved": False,
                  "failure": f"{type(records).__name__}: {records}"}
    else:
        null_count = ss.a.shape[0] - sum(2 if r.conjugate_pair else 1 for r in records)
        fields = vars(classify(records, null_modes=null_count))
    residual = eq.final_residual if isinstance(eq, Exception) else eq.residual_norm
    return StabilityReport(**{**fields, "scenario_key": scenario_key(s), "grid_case": s.name,
                              "control": s.control, "with_sc": s.with_sc, "op": s.op,
                              "newton_iterations": eq.iterations, "residual_norm": residual})


def test_one_report_per_scenario_changes_no_field():
    # a group with one member that has no equilibrium (an SCR 0.2 grid cannot
    # carry 1 pu): each report, solved or not, is field for field the one
    # classify's blank report gives once its scenario fields are filled in
    base = Scenario(name="feeble", grid=GridCase(scr=0.2, x_r=5.0), control="gfl", with_sc=True)
    group = [replace(base, op=OperatingPoint(1.0, 1.0, p)) for p in (0.1, 1.0, 0.05)]
    model = build_model(base)
    eqs = solve_equilibria(model, [refs_for(s) for s in group])
    solved = [e for e in eqs if not isinstance(e, Exception)]
    plants = iter(linearize_batch(model, [e.state for e in solved], [e.refs for e in solved]))
    systems = [e if isinstance(e, Exception) else next(plants) for e in eqs]
    ok = [ss for ss in systems if not isinstance(ss, Exception)]
    spectrum = iter(spectra(ok))
    records = [ss if isinstance(ss, Exception) else next(spectrum) for ss in systems]
    reports = analyze_group(group)
    assert [r.solved for r in reports] == [True, False, True]
    for s, eq, ss, recs, got in zip(group, eqs, systems, records, reports):
        want = classify_then_fill(s, eq, ss, recs)
        for name, value in vars(want).items():
            mine = getattr(got, name)
            assert type(mine) is type(value), name
            assert mine == value or (mine != mine and value != value), name  # nan is nan
    blank = classify(records[0], null_modes=2)
    assert (blank.scenario_key, blank.grid_case, blank.control, blank.with_sc, blank.op) == ("", "", "", False,
                                                                                           None)
    assert (blank.newton_iterations, blank.null_modes_filtered, blank.solved, blank.failure) == (0, 2, True, "")
    assert math.isnan(blank.residual_norm)


@pytest.mark.parametrize("stage", ["spectra", "analyze_group", "linearize_batch", "solve_equilibria"])
def test_an_empty_batch_gives_no_results(stage):
    model = build_model(Scenario())
    calls = {
        "spectra": lambda: spectra([]),
        "analyze_group": lambda: analyze_group([]),
        "linearize_batch": lambda: linearize_batch(model, [], []),
        "solve_equilibria": lambda: solve_equilibria(model, []),
    }
    assert calls[stage]() == []


def test_analyze_group_rejects_scenarios_with_different_models():
    a = Scenario(name="weak", grid=GRID_CASES["weak"], control="gfl", with_sc=True)
    others = (
        replace(a, with_sc=False),
        replace(a, gfl=replace(a.gfl, kp_pll=a.gfl.kp_pll + 1.0)),  # a nested gain
        replace(a, name="other"),
    )
    for b in others:
        with pytest.raises(ValueError, match="operating point"):
            analyze_group([a, b])


def test_report_carries_the_solver_diagnostics():
    s = Scenario(name="normal", grid=GRID_CASES["normal"], control="gfm", with_sc=True)
    eq = solve_equilibrium(build_model(s), refs_for(s))
    report = analyze_scenario(s)
    assert (report.newton_iterations, report.residual_norm) == (eq.iterations, eq.residual_norm)
    assert report.residual_norm < 1e-8
    infeasible = analyze_scenario(replace(s, grid=GridCase(scr=0.2, x_r=5.0), with_sc=False))
    assert not infeasible.solved
    assert infeasible.newton_iterations > 0
    assert infeasible.residual_norm > 1e-3


def test_sweep_with_a_pool_matches_the_serial_sweep():
    cases = {k: GRID_CASES[k] for k in ("weak", "strong")}
    ops = standard_operating_points()[::9]
    kwargs = dict(grid_cases=cases, ops=ops, controls=("gfl",), sc_states=(False, True))
    serial = sweep(**kwargs)
    pooled = sweep(**kwargs, jobs=2)
    assert [(r.scenario_key, r.solved, r.stable, r.max_re) for r in pooled] == [
        (r.scenario_key, r.solved, r.stable, r.max_re) for r in serial]


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that maps in this process and
    records the worker count it was asked for."""

    workers: list = []

    def __init__(self, max_workers=None):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, controls, sc_states, workers", [
    (64, ("gfl", "gfm"), (False, True), [4]), (3, ("gfl", "gfm"), (False, True), [3]),
    (2, ("gfl", "gfm"), (True,), [2]), (64, ("gfl",), (True,), []),
])
def test_sweep_starts_no_more_workers_than_groups(monkeypatch, jobs, controls, sc_states, workers):
    # one grid case: a group per control and condenser state, and a pool
    # only for two groups or more
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "workers", [])
    kwargs = dict(grid_cases={"weak": GRID_CASES["weak"]}, ops=standard_operating_points()[::13],
                  controls=controls, sc_states=sc_states)
    pooled = sweep(**kwargs, jobs=jobs)
    assert _SerialPool.workers == workers
    assert pooled == sweep(**kwargs)
