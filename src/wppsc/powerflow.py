"""Equilibrium solver: damped Newton on the assembled RHS plus closure
equations.

Free unknowns beyond the state vector (SystemModel.unknowns, in that order):
the condenser EMF angle (closed by zero condenser active power at the EMF)
and, for the grid-following converter in reactive-power mode, the reactive
reference that places the turbine terminal voltage on its target. The grid
source angle is fixed at zero, which removes the rotational null space from
the Newton system.

One damped Newton (_damped_newton) solves both the equilibrium and its
start, on the columns of z: one Jacobian stack and one stacked solve per
iteration, every column evaluated at each trial, and a column that leaves
(converged or stalled) masked out of the update; a trial that every column
takes is taken as it stands, without the masked merge. For the equilibrium
(_newton) it iterates on a row-scaled residual (each branch/node row times
its inductance/capacitance) so the Jacobian is well conditioned;
convergence is judged after a step on the true unscaled RHS, with target
1e-10 and acceptance RESIDUAL_ACCEPT = 1e-8 (linearize's equilibrium bound)
in the ∞-norm. A cold start that stalls is retried along a source/power ramp
(continuation) before the case is declared non-convergent (residual stuck
between 1e-8 and 1e-3) or infeasible (stuck above 1e-3, e.g. power beyond
the loadability limit).

Newton starts at the plant's power flow (initial_guess): every control
settles with p_pc = p_star and |v_c| = v_turb_star at the turbine bus (a PV
bus) and no active power at the condenser EMF, and the network is linear, so
the same Newton, unscaled, on i_a and phi_sc (_power_flow) gives the whole
state. On a converter plant Newton's first step certifies that start: a
step whose true residual lands below target is taken whole, so a start at
the solution takes one step, unhalved. One call pays for one network solve,
three to five power-flow iterations of a few stacked products each, one
controller call over five probes and the certifying step; a member adds
only its columns to that arithmetic. On 2 x86-64 vCPUs (numpy 2.4) one
weak-grid member costs about 0.35-0.4 ms to start and 0.2 ms to certify,
and each further member of a group about 6 µs to the start and 14 µs to
the certifying step.

The passive plant (no controller) is the exception: its start is exact in
closed form, so its true residual is evaluated once, and a member whose
∞-norm is below target is taken as it stands, with no Newton step
(iterations 0); only a member that misses goes on to Newton. Its whole
solve is then the network solve, the closed-form EMF angle and that one
residual evaluation: 0.10-0.15 ms on the same machine, against 0.36-0.39
ms with a certifying step.

solve_equilibria solves the operating points of one model as one such
Newton. A column that fails is solved again alone, where a cold start that
stalls takes the continuation, so that its error is the one it has alone.

The Jacobian is linearize.split_jacobian over the unknowns: the network
matrix exactly, plus one central difference of the controller, the
condenser's source rows of b and the closure rows over the controller's
inputs, i_sc and the closure unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .components import GFM, RefInputs, SystemModel, power_pair
# numjac stays importable here for perfbench's tracer
from .linearize import RESIDUAL_ACCEPT, numjac, split_jacobian  # noqa: F401

RESIDUAL_TARGET = 1e-10
INFEASIBLE_FLOOR = 1e-3
MAX_ITERATIONS = 50
MAX_HALVINGS = 8
VOLTAGE_BAND = (0.5, 1.5)


class SolveError(RuntimeError):
    """The equilibrium solve failed after `iterations` Newton iterations at
    the true residual ∞-norm `final_residual`, as the subclass's `message`
    says; detail, if any, says why."""

    def __init__(self, iterations: int, final_residual: float, detail: str = ""):
        msg = self.message.format(iterations=iterations, final_residual=final_residual)
        super().__init__(f"{msg} ({detail})" if detail else msg)
        self.iterations = iterations
        self.final_residual = final_residual
        self.detail = detail


class NonConvergenceError(SolveError):
    """Newton stalled with a small-but-not-converged residual."""

    message = "no convergence after {iterations} iterations, residual {final_residual:.3e}"


class InfeasibleError(SolveError):
    """Residual stagnated far from zero: no equilibrium at this operating
    point (e.g. requested power beyond the network's loadability)."""

    message = "no equilibrium found, residual stuck at {final_residual:.3e}"


@dataclass(frozen=True)
class EquilibriumPoint:
    """A solved operating point: state, resolved reference inputs, and
    solver diagnostics. iterations == 0 means the closed-form start of a
    passive plant met the residual target as it stood, and Newton did not
    run; residual_norm is then that start's true residual."""

    state: np.ndarray
    refs: RefInputs
    residual_norm: float
    iterations: int


def _refs_from_z(model: SystemModel, z: np.ndarray, refs: RefInputs) -> RefInputs:
    """refs with the model's unknowns read from z, where they follow the
    state; rows of z are m-vectors when z holds a batch of points as columns."""
    names = model.unknowns
    return replace(refs, **dict(zip(names, z[model.n :]))) if names else refs


def _residual(model: SystemModel, z: np.ndarray, refs: RefInputs) -> np.ndarray:
    """Plant RHS plus closure rows at z, of shape (size,) or (size, m)."""
    if z.ndim == 2 and z.shape[1] == 1:  # one column: as one state
        return _residual(model, z[:, 0], refs.take(0))[:, None]
    x, r = z[: model.n], _refs_from_z(model, z, refs)
    out = np.empty(z.shape)
    out[: model.n] = model.rhs(x, r)
    for k, row in enumerate(_closures(model, x, r), model.n):
        out[k] = row
    return out


def _closures(model: SystemModel, x, r: RefInputs) -> list:
    """The closure rows at the states x (an array, or a list of state rows):
    zero active power at the condenser EMF, then |v_c| on its target, each
    where its unknown is solved for."""
    unknowns, out = model.unknowns, []
    if "phi_sc" in unknowns:
        e, i_sc = model.emfs(r), model.pair(x, "i_sc_d")
        out.append(e[2] * i_sc[0] + e[3] * i_sc[1])
    if "q_star" in unknowns:
        v_c = model.pair(x, "v_c_d")
        out.append(np.hypot(v_c[0], v_c[1]) - r.v_turb_star)
    return out


def _jacobian(model: SystemModel, scale: np.ndarray):
    """Newton's Jacobian of the row-scaled residual, bound for the model as
    jac(z, refs) (split_jacobian over the closure unknowns): its nonlinear
    part adds the condenser's source rows of b and the closure rows, which
    read v_c among the controller's reads."""
    n = model.n
    fields = model.unknowns
    k_sc = [model.index("i_sc_d") + i for i in (0, 1)] if model.has_sc else []
    s_sc = model.source_map[k_sc]

    def extra(xs: list, r: RefInputs) -> list:
        return [*(s_sc @ model.emfs(r)), *_closures(model, xs, r)]

    jac = split_jacobian(model, fields, k_sc, extra, [*k_sc, *range(n, n + len(fields))])
    return lambda z, refs: scale[:, None] * jac(z, refs, 1e-7)


def _row_scale(model: SystemModel) -> np.ndarray:
    """Multipliers that undo the stiff 1/L, 1/C factors row by row: each
    network row's L or C (SystemModel.lc), and 1 on every other row."""
    out = np.ones(model.n + len(model.unknowns))
    out[: len(model.lc)] = model.lc
    return out


def _l2_norm(f: np.ndarray) -> np.ndarray:
    return np.sqrt((f * f).sum(axis=0))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite trial is never taken
def _damped_newton(residual, jacobian, z: np.ndarray, scale, norm) -> tuple:
    """Damped Newton on each column of z for residual(z) = 0, jacobian(z)
    stacking those of scale * residual. Each column takes at least one step,
    a step that lowers the merit ||scale f||_2 or lands norm(f) below target,
    and leaves once below target or when no step length lowers that merit;
    it is evaluated at every trial, but masked out of the update once it
    leaves. With norm None the merit is also the norm (the power flow:
    unscaled and ℓ2). Each trial's merit and norm are evaluated once: they
    serve its acceptance test, and an accepted trial's are kept for the next
    iteration and the result. When every column takes a trial, z and f are
    that trial's own arrays: the masked merge with nothing masked, the same
    bits without the merge. Returns (z, iterations, norm(f)), per column."""
    f = residual(z)
    merit = _l2_norm(scale * f)
    f_norm = merit if norm is None else norm(f)
    iters, live = np.full(z.shape[1], MAX_ITERATIONS), np.ones(z.shape[1], dtype=bool)
    for it in range(1, MAX_ITERATIONS + 1):
        step = _solve(jacobian(z), -(scale * f))
        stalled = live.copy()  # until a step lowers the merit
        for lam in (0.5**k for k in range(MAX_HALVINGS + 1)):
            z_try = z + lam * step
            f_try = residual(z_try)
            m_try = _l2_norm(scale * f_try)
            n_try = m_try if norm is None else norm(f_try)
            better = stalled & ((m_try < merit) | (n_try < RESIDUAL_TARGET))
            if better.all():  # every column takes this trial whole
                z, f, merit, f_norm, stalled = z_try, f_try, m_try, n_try, ~better
                break
            z, f = np.where(better, z_try, z), np.where(better, f_try, f)
            merit, f_norm = np.where(better, m_try, merit), np.where(better, n_try, f_norm)
            stalled &= ~better
            if not stalled.any():
                break
        done = live & (stalled | (f_norm < RESIDUAL_TARGET))  # converged or stalled
        iters[done], live = it, live & ~done
        if not live.any():
            break
    return z, iters, f_norm


def _newton(model: SystemModel, z0: np.ndarray, refs: RefInputs, scale: np.ndarray) -> tuple:
    """The equilibrium's damped Newton on each column of z0 (size, m), refs
    stacked likewise: _damped_newton on the row-scaled residual, judged on
    the true residual's ∞-norm. Returns (z, iterations, true residual
    norms, converged), per column."""
    jac, inf_norm = _jacobian(model, scale), lambda f: np.abs(f).max(axis=0)
    z, iters, norm = _damped_newton(lambda z: _residual(model, z, refs), lambda z: jac(z, refs),
                                    np.array(z0, dtype=float), scale[:, None], inf_norm)
    return z, iters, norm, norm < RESIDUAL_ACCEPT


def _solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Columns s_j of the stacked systems jac[j] s_j = rhs[:, j]; a singular
    member alone falls back to least squares."""
    try:
        return np.linalg.solve(jac, rhs.T[..., None])[..., 0].T
    except np.linalg.LinAlgError:
        if len(jac) == 1:
            return np.linalg.lstsq(jac[0], rhs, rcond=None)[0]
        return np.hstack([_solve(jac[j : j + 1], rhs[:, j : j + 1]) for j in range(len(jac))])


def initial_guess(model: SystemModel, refs: Sequence[RefInputs], scale: np.ndarray) -> np.ndarray:
    """Newton's start for each member of refs, as the columns of z: the
    plant's power flow. scale is Newton's row scale (_row_scale), which
    keeps the linear solve well conditioned at any grid strength.

    One linear solve of the fault-free network, with the rows the controller
    writes holding i_a and the controller states, gives the state per grid
    source, per unit i_a and per condenser EMF at angle 0 and pi/2 (each
    right-hand side from SystemModel.source_map); the state is their
    superposition at the i_a and phi_sc of _power_flow. The controller angle
    is that of v_c (negated for the grid-forming frame), and the four
    integrators minimise Newton's row-scaled residual on the rows the
    controller writes: g is affine in them, so its value with each set to
    one gives their columns."""
    return _start(model, RefInputs.stack(refs), len(refs), scale)


def _start(model: SystemModel, stacked: RefInputs, m: int, scale: np.ndarray) -> np.ndarray:
    """initial_guess for the m members whose refs are stacked."""
    n, unknowns = model.n, model.unknowns
    a, s, reads, writes = model.a, model.source_map, model.reads, model.writes
    kv, ka = model.index("v_c_d"), model.index("i_a_d")
    v_g = model.emfs(stacked)[:2].reshape(2, -1)  # the grid source: shared, or one per member
    k, scale, e_mag = v_g.shape[1], scale[:n, None], model.sc.e_mag if model.has_sc else 0.0
    # the grid source, unit i_a (d, q), then the EMF at angle 0 (d) and pi/2 (q)
    lhs, rhs = scale * a, np.hstack((-scale * (s[:, :2] @ v_g), np.zeros((n, 2)), -e_mag * scale * s[:, 2:]))
    if writes:  # the i_f rows hold i_a, the controller rows hold their states
        lhs[writes], lhs[writes, [ka, ka + 1, *writes[2:]]] = 0.0, 1.0
        rhs[writes[:2], [k, k + 1]] = 1.0
    ks = model.index("i_sc_d") if model.has_sc else kv  # i_sc's row, if any
    x = np.linalg.solve(lhs, rhs)
    u = _power_flow(model, x[kv] + 1j * x[kv + 1], x[ks] + 1j * x[ks + 1], k, stacked, m)
    z = np.zeros((n + len(unknowns), m))  # the closure unknowns last, phi_sc first
    z[:n] = x[:, :k] + x[:, k:] @ np.array([u[0], u[1], np.cos(u[2]), np.sin(u[2])])
    z[n : n + model.has_sc] = u[2]
    if not writes:  # the passive plant: the network is the whole plant
        return z
    if "q_star" in unknowns:
        z[-1] = power_pair(z[kv : kv + 2], z[ka : ka + 2])[1]
    z[n - 6] = np.arctan2(z[kv + 1], z[kv]) * (-1.0 if model.control == GFM else 1.0)
    # the writes rows at five probes per member: the integrators at zero, then each at one
    g, probes = model.controller(_refs_from_z(model, z, stacked)), np.eye(5, 4, -1).T[..., None]
    f = np.repeat((a[writes] @ z[:n])[:, None], 5, axis=1)
    for row, out in zip(f, g([*z[reads[:-4]], *probes])):
        row += out
    f *= scale[writes, :, None]
    jt = (f[:, 1:] - f[:, :1]).transpose(2, 1, 0)  # per member, the integrators' columns as rows
    z[n - 4 : n] = -_solve(jt @ jt.transpose(0, 2, 1), (jt @ f[:, 0].T[..., None])[..., 0].T)
    return z


def _power_flow(model: SystemModel, v, i_sc, k: int, refs: RefInputs, m: int) -> np.ndarray:
    """The plant's power flow of m members, as the columns of u: i_a (d, q)
    and phi_sc with p_pc = p_star and |v_c| = v_turb_star at the turbine bus
    and no active power at the condenser EMF, on the equations whose
    unknowns the plant has; v and i_sc are the v_c and i_sc phasors of the
    columns of initial_guess's network solve. It starts from i_a at
    p_star / vt in phase with v_c at zero i_a and, with the condenser, the
    EMF angle without power at that i_a, which is exact for the passive
    plant; a converter plant's flow is then _damped_newton, unscaled and
    judged on the ℓ2 norm.

    v_c and i_sc are affine in w = (1, i_a d, i_a q, cos phi_sc, sin phi_sc),
    so each equation is a quadratic form w^T h w, built once per call, and
    its gradient over w is (h + h^T) w: an iteration is a few stacked products.
    The Jacobian at an iterate taken whole, the very array whose residual was
    just evaluated, reuses that residual's (h + h^T) w; any other iterate,
    such as a masked merge of trials, is evaluated anew."""
    (v0, va, vs), (s0, sa, ss) = ((c[:k], c[k], c[k + 2]) for c in (v, i_sc))
    p, vt, e_mag = refs.p_star, refs.v_turb_star, model.sc.e_mag if model.has_sc else 0.0
    u, i = np.zeros((3, m)), p / vt * np.exp(1j * np.angle(v0 + vs))
    u[0], u[1] = i.real, i.imag
    if e_mag:  # Re(e conj(g)) = -Re(ss) on the EMF e, g the i_sc with the EMF shorted
        g = s0 + sa * i
        u[2] = np.angle(g) + np.arccos(np.clip(-ss.real / np.abs(g), -1.0, 1.0))
    if not model.writes:  # the passive plant: no i_a, so the EMF angle's closed form is exact
        return u
    size = 2 + model.has_sc  # the equations, and their unknowns
    vi, lin = np.array([v.real, v.imag, i_sc.real, i_sc.imag]), np.empty((k, 4, 5))
    lin[..., 0], lin[..., 1:] = vi[:, :k].T, vi[:, k:]  # (v_c d, q, i_sc d, q) over w, per member
    vc, h = lin[:, :2], np.zeros((m, 3, 5, 5))  # v_c . i_a - p, |v_c|^2 - vt^2, e_mag (cos, sin) . i_sc
    h[:, 0, 1:3], h[:, 1], h[:, 2, 3:] = vc, vc.transpose(0, 2, 1) @ vc, e_mag * lin[:, 2:]
    h[:, 0, 0, 0], h[:, 1, 0, 0] = -p, h[:, 1, 0, 0] - vt**2
    h = (h[:, :size] + h[:, :size].transpose(0, 1, 3, 2)).reshape(m, -1, 5)
    w, dw = np.ones((m, 5)), np.zeros((m, 5, 3))  # w and dw/du, filled at each u
    dw[:, 1, 0] = dw[:, 2, 1] = 1.0
    last = [None, None]  # the array hw last filled w at, and its product there

    def hw(z: np.ndarray) -> np.ndarray:  # (h + h^T) w per member; fills w and dw at the unknowns z
        if z is last[0]:  # the iterate the residual has just evaluated, taken whole
            return last[1]
        u[:size] = z
        w[:, 1:3], w[:, 3], w[:, 4] = u[:2].T, np.cos(u[2]), np.sin(u[2])
        dw[:, 3, 2], dw[:, 4, 2] = -w[:, 4], w[:, 3]
        last[:] = z, (h @ w[..., None]).reshape(m, -1, 5)
        return last[1]

    u[:size] = _damped_newton(lambda z: 0.5 * (hw(z) @ w[..., None])[..., 0].T,
                              lambda z: hw(z) @ dw[..., :size], u[:size].copy(), 1.0, None)[0]
    return u


def _ramped_refs(refs: RefInputs, lam: float) -> RefInputs:
    p0 = min(0.1, refs.p_star)
    return replace(
        refs,
        v_g_ref=1.0 + (refs.v_g_ref - 1.0) * lam,
        v_turb_star=1.0 + (refs.v_turb_star - 1.0) * lam,
        p_star=p0 + (refs.p_star - p0) * lam,
    )


def solve_equilibrium(model: SystemModel, refs: RefInputs) -> EquilibriumPoint:
    """Find the equilibrium for the given reference inputs (one-member
    solve_equilibria).

    Raises NonConvergenceError or InfeasibleError when no acceptable solution
    is found; a converged solution outside the (0.5, 1.5) pu voltage sanity
    band is also reported infeasible.
    """
    (eq,) = solve_equilibria(model, [refs])
    if isinstance(eq, Exception):
        raise eq
    return eq


def solve_equilibria(model: SystemModel, refs: Sequence[RefInputs]) -> list:
    """Equilibria of one model for each member of refs, solved as one batch.
    Member j is its EquilibriumPoint, or the NonConvergenceError or
    InfeasibleError that solve_equilibrium would raise for it alone."""
    if not refs:
        return []
    scale, stacked = _row_scale(model), RefInputs.stack(refs)
    z = _start(model, stacked, len(refs), scale)
    if model.writes:
        z, iters, norms, oks = _newton(model, z, stacked, scale)
    else:  # the passive start is exact in closed form: a member on target, judged on its
        # own residual as it is alone, is taken as it stands; one that misses goes to Newton
        norms = np.array([np.abs(_residual(model, col, r)).max() for col, r in zip(z.T, refs)])
        iters = np.zeros(len(refs), dtype=int)
        miss = ~(norms < RESIDUAL_TARGET)
        if miss.any():
            sub = RefInputs.stack([r for r, m in zip(refs, miss) if m])
            z[:, miss], iters[miss], norms[miss], _ = _newton(model, z[:, miss], sub, scale)
        oks = norms < RESIDUAL_ACCEPT
    if len(refs) == 1 and not oks[0]:
        # continuation: walk the sources/power from an easy point to the target
        (r,), warm = refs, None
        for lam in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
            r_lam = _ramped_refs(r, lam)
            z_s = warm if warm is not None else initial_guess(model, [r_lam], scale)
            z_s, it_s, _, ok_s = _newton(model, z_s, RefInputs.stack([r_lam]), scale)
            iters = iters + it_s
            if not ok_s[0]:
                break
            warm = z_s
        if warm is not None:
            z, it_w, norms, oks = _newton(model, warm, RefInputs.stack([r]), scale)
            iters = iters + it_w
    kv, kp = model.index("v_c_d"), model.index("v_pcc_d")
    with np.errstate(over="ignore"):  # a member that failed may lie past float range
        mags = np.hypot(z[[kv, kp]], z[[kv + 1, kp + 1]]).T.tolist()  # |v_c|, |v_pcc| per member
    out = [_equilibrium(model, *member)
           for member in zip(z.T.tolist(), mags, refs, iters.tolist(), norms.tolist(), oks.tolist())]
    if len(refs) > 1:  # a member that fails is solved alone, without the batch's rounding
        out = [solve_equilibria(model, [r])[0] if isinstance(eq, Exception) else eq
               for eq, r in zip(out, refs)]
    return out


def _equilibrium(model: SystemModel, z: list, mags: list, refs: RefInputs, iterations, true_norm, ok):
    """The EquilibriumPoint of a Newton result z, or the error that rejects
    it; mags are its |v_c| and |v_pcc|."""
    if not ok:
        if true_norm > INFEASIBLE_FLOOR:
            return InfeasibleError(iterations, true_norm)
        return NonConvergenceError(iterations, true_norm)
    for lab, mag in zip(("v_c", "v_pcc"), mags):
        if not VOLTAGE_BAND[0] < mag < VOLTAGE_BAND[1]:
            return InfeasibleError(
                iterations,
                true_norm,
                detail=f"|{lab}| = {mag:.3f} pu outside the sanity band {VOLTAGE_BAND}",
            )
    return EquilibriumPoint(
        state=np.array(z[: model.n]),
        refs=_refs_from_z(model, z, refs),  # plain floats in the result
        residual_norm=true_norm,
        iterations=iterations,
    )
