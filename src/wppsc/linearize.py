"""Numerical linearization of the plant ODE around an operating point.

numjac takes central differences with a per-coordinate step
eps*max(1, |z_j|), second-order accurate on the control nonlinearities, of a
function that maps a (size, M) array of points, one per column, to the
(k, M) array of their values; one call covers one base point or m.

The plant is x' = a x + b + E g(C x) (SystemModel.split), so split_jacobian
takes the network matrix a as it is and makes one numjac call on the
nonlinear part alone, over the inputs it reads. Newton's Jacobian
(powerflow) and linearize_batch are built that way; linearize_batch
linearizes m equilibria of one model with one call, its outputs (which read
only v_c and i_a) differenced with the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .components import (
    GFL,
    NO_CONVERTER,
    Q_MODE_REACTIVE,
    RefInputs,
    SystemModel,
    power_pair,
)

OUTPUT_LABELS = ("p_pc", "v_c_mag", "q_pc")


class LinearizationError(ValueError):
    """A derivative entry came out non-finite; carries the offending entry."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


def numjac(f: Callable[[np.ndarray], np.ndarray], z0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Dense central-difference Jacobian of f at z0 of shape (size,), or the
    (m, k, size) stack of them at the m columns of z0 of shape (size, m).

    f is called once, on (size, 2*size*m) points, and must return one column
    of values per column of points: column p*m + c is member c moved by
    +h_p e_p (p < size) or -h_(p-size) e_(p-size), h_j = eps*max(1, |z_j|).
    """
    z0 = np.asarray(z0, dtype=float)
    z = z0.reshape(z0.shape[0], -1)
    size, m = z.shape
    h = eps * np.maximum(1.0, np.abs(z))
    steps = np.eye(size)[:, :, None] * h[:, None]
    points = z[:, None] + np.concatenate([steps, -steps], axis=1)
    values = np.asarray(f(points.reshape(size, -1)), dtype=float).reshape(-1, 2 * size, m)
    jac = (values[:, :size] - values[:, size:]) / (2.0 * h)
    return jac[..., 0] if z0.ndim == 1 else jac.transpose(2, 0, 1)


@dataclass(frozen=True)
class StateSpaceModel:
    """Dense small-signal model dx = A x + B u, y = C x.

    Inputs are the reference channels (active power, grid source voltage and
    the live q-channel reference); outputs are converter power, terminal
    voltage magnitude and converter reactive power.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    state_labels: tuple[str, ...]
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.state_labels)
        if self.a.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}, got {self.a.shape}")
        if self.b.shape[0] != n or self.b.shape[1] != len(self.input_labels):
            raise ValueError(f"B shape {self.b.shape} does not match labels")
        if self.c.shape[1] != n or self.c.shape[0] != len(self.output_labels):
            raise ValueError(f"C shape {self.c.shape} does not match labels")


def input_labels(model: SystemModel) -> tuple[str, ...]:
    """The references the model's B columns are taken over, in order."""
    if model.control == NO_CONVERTER:
        return ("v_g_ref",)
    if model.control == GFL and model.q_mode == Q_MODE_REACTIVE:
        return ("p_star", "v_g_ref", "q_star")
    return ("p_star", "v_g_ref", "v_turb_star")


def linearize(
    model: SystemModel,
    x_eq: np.ndarray,
    refs: RefInputs,
    eps: float = 1e-6,
    check_equilibrium: bool = True,
) -> StateSpaceModel:
    """Linearize the assembled ODE at (x_eq, refs); one-member linearize_batch.

    The point must be an equilibrium (RHS below 1e-8) unless the check is
    explicitly waived; eps is the relative perturbation and must lie in
    [1e-8, 1e-4].
    """
    x_eq = np.asarray(x_eq, dtype=float)
    if x_eq.shape != (model.n,):
        raise ValueError(f"state must have shape ({model.n},), got {x_eq.shape}")
    (ss,) = linearize_batch(model, [x_eq], [refs], eps, check_equilibrium)
    if isinstance(ss, LinearizationError):
        raise ss
    return ss


def split_jacobian(
    model: SystemModel,
    fields: Sequence[str],
    rows: Sequence[int],
    extra: Callable[[list, RefInputs], list],
    extra_rows: Sequence[int],
) -> Callable[[np.ndarray, RefInputs, float], np.ndarray]:
    """The Jacobian of [x; the refs fields] -> [x'; extra outputs], bound for
    the model as jac(z, refs, eps): its (m, n + outputs, size) stack at the
    columns of z (size, m), refs stacked likewise. The state block is the
    network matrix a (SystemModel.a), exact, plus one numjac call on the
    nonlinear part: the controller outputs, into its writes rows, and
    extra(xs, r), into extra_rows (a state row, or n + i for output i), over
    the controller's reads, the state rows `rows` and the fields. xs holds
    the state rows read (None elsewhere), r the refs with the fields rebound."""
    n, reads = model.n, model.reads
    inputs = np.array([*reads, *(k for k in rows if k not in reads), *range(n, n + len(fields))], int)
    k = len(inputs) - len(fields)  # the state rows first
    shape = (n + sum(r >= n for r in extra_rows), n + len(fields))
    # the flat offsets of the (output row, input) pairs in one member's matrix
    at = (np.array([*model.writes, *extra_rows], int)[:, None] * shape[1] + inputs).ravel()

    def jac(z: np.ndarray, refs: RefInputs, eps: float) -> np.ndarray:
        m = z.shape[1]
        out = np.zeros((m, *shape))
        out[:, :n, :n] = model.a
        if len(inputs):
            # numjac's column i is member i % m; a batch of one broadcasts as it is
            cycled = refs.take(np.arange(2 * len(inputs) * m) % m) if m > 1 else refs

            def f(u: np.ndarray) -> list:
                r = replace(cycled, **dict(zip(fields, u[k:]))) if fields else cycled
                xs = [None] * n
                for i, row in zip(inputs[:k].tolist(), u):
                    xs[i] = row
                return [*model.controller(r)([xs[i] for i in reads]), *extra(xs, r)]

            out.reshape(m, -1)[:, at] += numjac(f, z[inputs], eps).reshape(m, -1)
        return out

    return jac


def _outputs(model: SystemModel, x) -> list:
    """The OUTPUT_LABELS values at x, as SystemModel.measure gives them."""
    v_c = model.pair(x, "v_c_d")
    p, q = power_pair(v_c, model.pair(x, "i_a_d"))
    return [p, np.hypot(v_c[0], v_c[1]), q]


def linearize_batch(
    model: SystemModel,
    states: Sequence[np.ndarray],
    refs: Sequence[RefInputs],
    eps: float = 1e-6,
    check_equilibrium: bool = True,
) -> list:
    """linearize at each (states[j], refs[j]): member j is its
    StateSpaceModel, or the LinearizationError that rejects it alone."""
    if not 1e-8 <= eps <= 1e-4:
        raise ValueError(f"eps must be in [1e-8, 1e-4], got {eps}")
    if not states:
        return []
    x_eq = np.stack(states, axis=1)
    n, m = x_eq.shape
    stacked = RefInputs.stack(refs)
    in_labels = input_labels(model)
    fields = [lab for lab in in_labels if lab != "v_g_ref"]
    u0 = np.array([[getattr(r, lab) for r in refs] for lab in fields]).reshape(-1, m)
    kv, ka = model.index("v_c_d"), model.index("i_a_d")
    difference = split_jacobian(model, fields, [kv, kv + 1, ka, ka + 1],
                                lambda xs, r: _outputs(model, xs), range(n, n + len(OUTPUT_LABELS)))
    jac = difference(np.concatenate((x_eq, u0)), stacked, eps)
    # b is linear in v_g_ref: its column is the sources at v_g_ref = 1 less those at 0
    s1, s0 = (model.sources(RefInputs(v_g_ref=v, v_g_angle=stacked.v_g_angle)) for v in (1.0, 0.0))
    col = n + in_labels.index("v_g_ref")
    jac = np.concatenate((jac[..., :col], np.zeros((*jac.shape[:2], 1)), jac[..., col:]), axis=2)
    for k in s1:
        jac[:, k, col] = s1[k] - s0[k]
    a, b, c = jac[:, :n, :n], jac[:, :n, n:], jac[:, n:, :n]

    residual = np.abs(model.rhs(x_eq, stacked)).max(axis=0) if check_equilibrium else np.zeros(m)
    finite = np.isfinite(jac).all(axis=(1, 2)).tolist()
    return [
        LinearizationError(f"not an equilibrium: RHS inf-norm {r:.3e} >= 1e-8")
        if not r < 1e-8
        else _checked(model, a[j], b[j], c[j], in_labels, finite[j])
        for j, r in enumerate(residual.tolist())
    ]


def _checked(model: SystemModel, a, b, c, in_labels: tuple[str, ...], finite: bool):
    """The state-space model of A, B, C, or, unless they are known to be
    finite, the LinearizationError naming the first non-finite entry."""
    labels = (model.labels, in_labels, model.labels)
    for name, mat, col_labels in () if finite else zip("ABC", (a, b, c), labels):
        ok = np.isfinite(mat)
        if not ok.all():
            i, j = (int(k) for k in np.argwhere(~ok)[0])
            row_lab = model.labels[i] if name in ("A", "B") else OUTPUT_LABELS[i]
            return LinearizationError(
                f"non-finite {name} entry at row {i} ({row_lab}), column {j} ({col_labels[j]})",
                row=i,
                col=j,
            )
    return StateSpaceModel(
        a=a,
        b=b,
        c=c,
        state_labels=model.labels,
        input_labels=in_labels,
        output_labels=OUTPUT_LABELS,
    )
