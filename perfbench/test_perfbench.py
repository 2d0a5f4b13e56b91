"""Tests for the benchmark's own helpers: percentile rule, span arithmetic,
tracer wrapping and the correctness checks."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks, stats
from perfbench.trace import Span, Tracer, nearest_ancestor, self_times

# -- percentile rule -----------------------------------------------------------


def test_percentile_matches_numpy_interpolation():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for p in (0.0, 25.0, 50.0, 90.0, 100.0):
        assert stats.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


@pytest.mark.parametrize(
    "n, expected",
    [(50, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    got = stats.tail([float(i) for i in range(n)])
    assert (got[0] if got else None) == expected
    if got:
        assert stats.samples_beyond(n, got[0]) >= stats.MIN_BEYOND


def test_unsupported_percentile_reports_zero():
    assert stats.percentile_if_supported([1.0] * 99, 90.0) == 0.0
    assert stats.percentile_if_supported([float(i) for i in range(100)], 90.0) == pytest.approx(89.1)
    assert stats.percentile_if_supported([], 50.0) == 0.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101.0)


# -- span arithmetic -------------------------------------------------------------


def _tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]
    return [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("c", 6.0, 7.0, 2, 1),
    ]


def test_self_time_subtracts_children_only():
    assert self_times(_tree()) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, -1, 1), Span("x", 1.0, 4.0, 0, 1), Span("y", 3.0, 6.0, 0, 1)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_times_sum_to_root_duration():
    assert sum(self_times(_tree())) == pytest.approx(10.0)


def test_nearest_ancestor():
    assert nearest_ancestor(_tree(), frozenset({"root"})) == [-1, 0, 0, 0]
    assert nearest_ancestor(_tree(), frozenset({"b"})) == [-1, -1, -1, 2]


def test_tracer_records_nesting_scopes_and_restores():
    box = SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return box.inner(x) * 2

    box.inner, box.outer = inner, outer
    tracer = Tracer()
    tracer.patch(box, "inner", "layer.inner", value=float)
    tracer.patch(box, "outer", "layer.outer", new_scope=True)
    assert box.outer(1) == 4
    assert box.outer(2) == 6
    tracer.unpatch_all()
    assert box.inner is inner and box.outer is outer
    spans = tracer.finish()
    assert [s.name for s in spans] == ["layer.outer", "layer.inner"] * 2
    assert [s.parent for s in spans] == [-1, 0, -1, 2]
    assert spans[0].scope == spans[1].scope != spans[2].scope == spans[3].scope
    assert spans[1].value == 2.0
    assert all(s.end >= s.start for s in spans)


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "layer.boom")
    with pytest.raises(KeyError):
        wrapped()
    (span,) = tracer.finish()
    assert span.end >= span.start and span.value is None


# -- correctness checks ----------------------------------------------------------


def _report(key, solved=True, stable=True, null=0, failure=""):
    return SimpleNamespace(scenario_key=key, solved=solved, stable=stable,
                           null_modes_filtered=null, failure=failure)


def test_sweep_checks_reject_unsolved_and_mismatch():
    good = [_report("a"), _report("b", stable=False)]
    assert checks.unsolved(good) == []
    assert checks.unsolved([_report("c", solved=False, failure="boom")]) == ["c: boom"]
    assert checks.parallel_mismatch(good, list(reversed(good))) == []
    flipped = [_report("a"), _report("b", stable=True)]
    assert checks.parallel_mismatch(good, flipped) == ["b"]
    assert checks.parallel_mismatch(good, good[:1]) == ["b"]


def test_sweep_digest_sees_a_flipped_classification():
    good = [_report("a"), _report("b", stable=False)]
    assert checks.sweep_digest(good) == checks.sweep_digest(list(reversed(good)))
    assert checks.sweep_digest(good) != checks.sweep_digest([_report("a"), _report("b")])
    assert checks.sweep_digest(good) != checks.sweep_digest([_report("a", null=1), good[1]])


def _scr_rows(**changes):
    rows = [
        {"case": case, "scr_o": "1.5", "scr_sc_theory": "2.5", "scr_sc_sim": "2.55", "rel_dev": "0.02"}
        for case in checks.SCR_CASES
    ]
    rows[0].update(changes)
    return rows


def test_scr_checks_accept_good_rows_and_reject_bad_ones():
    assert checks.scr_row_problems(_scr_rows()) == []
    assert checks.scr_row_problems(_scr_rows(rel_dev="0.07"))
    assert checks.scr_row_problems(_scr_rows(rel_dev="-0.08"))
    assert checks.scr_row_problems(_scr_rows(scr_sc_theory="1.5"))
    assert checks.scr_row_problems(_scr_rows(rel_dev="nan"))
    assert checks.scr_row_problems(_scr_rows(rel_dev="x"))
    assert checks.scr_row_problems(_scr_rows()[:2])


def _series(p, diverged=False, aborted=False):
    return SimpleNamespace(columns={"p_pc": np.asarray(p, dtype=float)}, diverged=diverged,
                           aborted=aborted, note="")


def test_transient_checks_reject_divergence_and_a_wide_gap():
    y = 1e-3 * (1.0 - np.exp(-np.linspace(0.0, 5.0, 200)))
    p_eq = 0.5
    assert checks.step_problems(_series(y), _series(y + p_eq), p_eq) == []
    assert checks.step_problems(_series(y), _series(1.01 * y + p_eq), p_eq) == []
    assert checks.step_problems(_series(y), _series(1.05 * y + p_eq), p_eq)
    assert checks.step_problems(_series(y), _series(y + p_eq, diverged=True), p_eq)
    assert checks.step_problems(_series(y, aborted=True), _series(y + p_eq), p_eq)
    assert checks.step_problems(_series(y[:-1]), _series(y + p_eq), p_eq)
    assert checks.series_problems("fault", _series(y, diverged=True))
    assert checks.series_problems("fault", _series(y)) == []


# -- per-layer arithmetic and failure counting -----------------------------------


def test_layer_metrics_on_hand_built_spans():
    workloads = pytest.importorskip("perfbench.workloads")
    spans = [
        Span("powerflow.solve_equilibrium", 0.0, 10.0, -1, 1, 4.0),
        Span("linearize.numjac", 1.0, 5.0, 0, 1),
        Span("components.rhs", 1.0, 2.0, 1, 1),
        Span("components.rhs", 3.0, 4.0, 1, 1),
        Span("sim.integrate", 11.0, 15.0, -1, 2, 10.0),
        Span("components.rhs", 11.0, 12.0, 4, 2),
        Span("components.measure", 13.0, 13.5, 4, 2),
    ]
    m = workloads.layer_metrics(spans, wall=20.0)
    assert set(m) | {"analysis.pool_overhead_s", "trace.overhead_s", "trace.overhead_share"} == set(
        workloads.LAYER_UNITS
    )
    assert m["components.rhs_calls"] == 3
    assert m["powerflow.rhs_calls_per_solve"] == 2
    assert m["powerflow.newton_iters_mean"] == 4
    assert m["powerflow.share"] == pytest.approx(0.5)
    assert m["sim.steps"] == 10
    assert m["sim.rhs_calls_per_step"] == pytest.approx(0.1)
    assert m["sim.capture_share"] == pytest.approx(0.125)
    assert m["powerflow.self_s"] == pytest.approx(6.0)
    assert m["linearize.self_s"] == pytest.approx(2.0)
    assert m["components.self_s"] == pytest.approx(3.5)
    assert m["sim.self_s"] == pytest.approx(2.5)
    assert m["scr.fault_runs"] == 0 and m["cli.overhead_ms"] == 0.0


def test_outcome_counts_failed_operations():
    workloads = pytest.importorskip("perfbench.workloads")
    out = workloads.Outcome()
    out.add(10, [])
    out.add(3, ["bad row"])
    out.add(324, ["digest"], failed=324)
    out.add(1, ["x", "y"])
    assert (out.attempted, out.failed) == (338, 326)
    assert out.problems == ["bad row", "digest", "x", "y"]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    workloads = pytest.importorskip("perfbench.workloads")
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.LAYER_UNITS
