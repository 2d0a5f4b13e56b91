"""The network stated once, as a netlist: every netlist assembles to a
passive network (port-Hamiltonian form, M = diag(lc)), and each preset
law's self block rotates at the rate the model states."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wppsc.components import FAULT_BUSES, OMEGA0, FaultSpec, assemble_network
from wppsc.config import GRID_CASES, Scenario, build_model

PRESETS = [(grid, control, with_sc) for grid in sorted(GRID_CASES)
           for control in ("gfl", "gfm", "none") for with_sc in (False, True)]
_BUS_NODES = {"pcc": "v_pcc_d", "wt_mv": "v_c_d"}  # the node row each fault bus names


def _preset(grid, control, with_sc):
    return build_model(Scenario(grid=GRID_CASES[grid], control=control, with_sc=with_sc))


def _fault(a, lc, k, r_fault):
    """a with the shunt conductance 1 / r_fault in the node law of row k, as
    SystemModel.treatment applies it."""
    a = a.copy()
    a[k : k + 2, k : k + 2] -= np.eye(2) / (r_fault * lc[k])
    return a


def _assert_passive(a, lc, loss, rng):
    """sym(M a) = -diag(loss) (R on a branch row, G on a faulted node row,
    else 0), and x^T M (a x) = -sum loss x^2 at drawn states x."""
    ma = np.asarray(lc)[:, None] * a
    scale = max(1.0, np.abs(ma).max())
    sym = 0.5 * (ma + ma.T)
    assert np.abs(sym - np.diag(-loss)).max() <= 1e-13 * scale
    for x in rng.normal(size=(3, len(lc))):
        assert x @ (ma @ x) == pytest.approx(-(loss * x * x).sum(), rel=1e-9, abs=1e-12 * scale * (x @ x))


_POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def _netlists(draw):
    """A netlist over 2-8 nodes v0.. in any order: a random tree of branches,
    up to as many mesh branches again, and up to three branches fed from a
    source or from nowhere; with each entry's dissipation R or G by state,
    and the fault resistance of each faulted node."""
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    pairs = [(f"v{draw(st.integers(0, k - 1))}", k) for k in range(1, n)]
    pairs += [(f"v{i}", k) for i, k in draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                                                      max_size=n))]
    pairs += draw(st.lists(st.tuples(st.sampled_from([None, "e_g", "e_sc"]), node), max_size=3))
    branches, loss = [], {}
    for j, (start, end) in enumerate(pairs):
        loss[f"i{j}"] = draw(st.floats(0.0, 1e3))
        branches.append((f"i{j}", draw(_POSITIVE), loss[f"i{j}"], draw(_POSITIVE), start, f"v{end}"))
    faults = draw(st.dictionaries(st.sampled_from([f"v{k}" for k in range(n)]), _POSITIVE))
    nodes = [(f"v{k}", draw(_POSITIVE), None) for k in range(n)]
    loss.update({f"v{k}": 1.0 / faults[f"v{k}"] if f"v{k}" in faults else 0.0 for k in range(n)})
    return draw(st.permutations(branches + nodes)), loss, faults


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_netlists(), st.integers(0, 2**32 - 1))
def test_any_netlist_is_passive(drawn, seed):
    netlist, loss, faults = drawn
    labels, lc, a, source_map = assemble_network(netlist)
    states = [entry[0] for entry in netlist]
    assert labels == tuple(f"{state}_{dq}" for state in states for dq in "dq")
    assert lc == tuple(entry[1] for entry in netlist for _ in "dq")
    assert a.shape == (len(lc), len(lc)) and source_map.shape == (len(lc), 4)
    for node, r_fault in faults.items():
        a = _fault(a, lc, labels.index(node + "_d"), r_fault)
    _assert_passive(a, lc, np.repeat([loss[state] for state in states], 2), np.random.default_rng(seed))


@pytest.mark.parametrize("grid,control,with_sc", PRESETS)
def test_preset_networks_are_passive(grid, control, with_sc):
    model = _preset(grid, control, with_sc)
    net, k = model.network, len(model.lc)
    r = {"i_g": model.grid.r, "i_sc": with_sc and model.sc.r_tr, "i_f": net.rf, "i_a": net.ra + net.rtf}
    loss = np.array([r.get(label[:-2], 0.0) for label in model.labels[:k]])
    assert not model.a[k:].any() and not model.a[:, k:].any()  # the controller's own states
    rng = np.random.default_rng(3)
    _assert_passive(model.a[:k, :k], model.lc, loss, rng)
    for bus in FAULT_BUSES:
        row = model.index(_BUS_NODES[bus])
        faulted = loss.copy()
        faulted[row : row + 2] = 1.0 / 0.05
        a = model.treatment(FaultSpec(bus, 0.05))
        assert np.array_equal(a, _fault(model.a, model.lc, row, 0.05))
        _assert_passive(a[:k, :k], model.lc, faulted, rng)


@pytest.mark.parametrize("grid,control,with_sc", PRESETS)
def test_each_law_rotates_at_omega0_but_the_condenser(grid, control, with_sc):
    # every law's self block rotates at omega0, but the condenser branch's:
    # its law divides by L = x_sub / omega0 and rotates by x_sub + x_tr
    model = _preset(grid, control, with_sc)
    for k in range(0, len(model.lc), 2):
        sc = model.sc if model.labels[k] == "i_sc_d" else None
        rate = OMEGA0 * ((sc.x_sub + sc.x_tr) / sc.x_sub if sc else 1.0)
        eig = np.linalg.eigvals(model.a[k : k + 2, k : k + 2])
        assert sorted(eig.imag) == pytest.approx([-rate, rate], rel=1e-12)
    if with_sc:  # at the defaults: -147.8 +- 499.0j rad/s, 79.4 Hz in the dq frame
        k = model.index("i_sc_d")
        eig = np.linalg.eigvals(model.a[k : k + 2, k : k + 2])
        assert eig[0].real == pytest.approx(-147.8, abs=0.05)
        assert abs(eig[0].imag) / (2 * np.pi) == pytest.approx(79.4, abs=0.05)
