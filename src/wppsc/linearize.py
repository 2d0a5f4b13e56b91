"""Numerical linearization of the plant ODE around an operating point.

numjac takes central differences with a per-coordinate step
eps*max(1, |z_j|), second-order accurate on the control nonlinearities, of a
function that maps a (size, M) array of points, one per column, to the
(k, M) array of their values; one call covers one base point or m.

The plant is x' = a x + b + E g(C x) (see components), so split_jacobian
takes the network matrix a as it is and makes one numjac call on the
nonlinear part alone, over the inputs it reads. Newton's Jacobian
(powerflow) and linearize_batch are built that way; linearize_batch
linearizes m equilibria of one model with one call, its outputs (which read
only v_c and i_a) and the grid's rows of b (which read v_g_ref) differenced
with the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .components import RefInputs, SystemModel, power_pair

OUTPUT_LABELS = ("p_pc", "v_c_mag", "q_pc")

# the RHS inf-norm below which a point is an equilibrium: linearize's check,
# and the bound the equilibrium solve accepts a solution at
RESIDUAL_ACCEPT = 1e-8


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

    Inputs are the references the plant reads (SystemModel.inputs); outputs
    are converter power, terminal voltage magnitude and converter reactive
    power.
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


def linearize(
    model: SystemModel,
    x_eq: np.ndarray,
    refs: RefInputs,
    eps: float = 1e-6,
    check_equilibrium: bool = True,
) -> StateSpaceModel:
    """Linearize the assembled ODE at (x_eq, refs); one-member linearize_batch.

    The point must be an equilibrium (RHS inf-norm below RESIDUAL_ACCEPT)
    unless the check is explicitly waived; eps is the relative perturbation
    and must lie in [1e-8, 1e-4]. B's columns are the model's inputs.
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


@np.errstate(invalid="ignore", over="ignore")  # a non-finite entry is a LinearizationError
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
    u0 = np.empty((len(model.inputs), m))
    for row, lab in zip(u0, model.inputs):
        row[:] = getattr(stacked, lab)  # one value shared by the members, or one each
    kv, ka, kg = model.index("v_c_d"), model.index("i_a_d"), model.index("i_g_d")
    grid = model.source_map[kg : kg + 2]  # the grid's rows of b, which read v_g_ref
    difference = split_jacobian(model, model.inputs, [kv, kv + 1, ka, ka + 1],
                                lambda xs, r: [*(grid @ model.emfs(r)), *_outputs(model, xs)],
                                [kg, kg + 1, *range(n, n + len(OUTPUT_LABELS))])
    jac = difference(np.concatenate((x_eq, u0)), stacked, eps)
    a, b, c = jac[:, :n, :n], jac[:, :n, n:], jac[:, n:, :n]

    residual = np.abs(model.rhs(x_eq, stacked)).max(axis=0) if check_equilibrium else np.zeros(m)
    finite = np.isfinite(jac).all(axis=(1, 2)).tolist()
    return [
        LinearizationError(f"not an equilibrium: RHS inf-norm {r:.3e} >= {RESIDUAL_ACCEPT:g}")
        if not r < RESIDUAL_ACCEPT
        else _checked(model, a[j], b[j], c[j], finite[j])
        for j, r in enumerate(residual.tolist())
    ]


def _checked(model: SystemModel, a, b, c, finite: bool):
    """The state-space model of A, B, C, or, unless they are known to be
    finite, the LinearizationError naming the first non-finite entry."""
    labels = (model.labels, model.inputs, model.labels)
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
        input_labels=model.inputs,
        output_labels=OUTPUT_LABELS,
    )
