"""Numerical linearization of the plant ODE around an operating point.

Central differences with a per-coordinate step eps*max(1, |z_j|) give exact
Jacobians on the linear network blocks and second-order accuracy on the
control nonlinearities (trig terms, the voltage magnitude and the power
products).

numjac evaluates every perturbed point in one call: the function it
differentiates maps a (size, m) array of points, one per column, to the
(k, m) array of their values. SystemModel.rhs and SystemModel.measure both
accept such column batches.
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
)

OUTPUT_LABELS = ("p_pc", "v_c_mag", "q_pc")


class LinearizationError(ValueError):
    """A derivative entry came out non-finite; carries the offending entry."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


def numjac(f: Callable[[np.ndarray], np.ndarray], z0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Dense central-difference Jacobian of f at z0.

    f is called once, on the (size, 2*size) array whose column j is z0 + h_j e_j
    and column size + j is z0 - h_j e_j, and must return one column of
    values per column of points.
    """
    z0 = np.asarray(z0, dtype=float)
    h = eps * np.maximum(1.0, np.abs(z0))
    steps = np.diag(h)
    values = np.asarray(f(z0[:, None] + np.hstack([steps, -steps])), dtype=float)
    return (values[:, : z0.size] - values[:, z0.size :]) / (2.0 * h)


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


def _input_labels(model: SystemModel) -> tuple[str, ...]:
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
    """Linearize the assembled ODE at (x_eq, refs).

    The point must be an equilibrium (RHS below 1e-8) unless the check is
    explicitly waived; eps is the relative perturbation and must lie in
    [1e-8, 1e-4].
    """
    if not 1e-8 <= eps <= 1e-4:
        raise ValueError(f"eps must be in [1e-8, 1e-4], got {eps}")
    x_eq = np.asarray(x_eq, dtype=float)
    if x_eq.shape != (model.n,):
        raise ValueError(f"state must have shape ({model.n},), got {x_eq.shape}")
    if check_equilibrium:
        r = float(np.max(np.abs(model.rhs(x_eq, refs))))
        if not r < 1e-8:
            raise LinearizationError(f"not an equilibrium: RHS inf-norm {r:.3e} >= 1e-8")

    a = numjac(lambda x: model.rhs(x, refs), x_eq, eps)

    in_labels = _input_labels(model)
    u0 = np.array([getattr(refs, lab) for lab in in_labels])

    def f_u(u: np.ndarray) -> np.ndarray:
        # one column of refs per column of inputs, all at the equilibrium state
        r = replace(refs, **dict(zip(in_labels, u)))
        return model.rhs(np.repeat(x_eq[:, None], u.shape[1], axis=1), r)

    b = numjac(f_u, u0, eps)

    def g(x: np.ndarray) -> np.ndarray:
        m = model.measure(x, refs)
        return np.array([m[k] for k in OUTPUT_LABELS])

    c = numjac(g, x_eq, eps)

    for name, mat, col_labels in (
        ("A", a, model.labels),
        ("B", b, in_labels),
        ("C", c, model.labels),
    ):
        bad = np.argwhere(~np.isfinite(mat))
        if bad.size:
            i, j = int(bad[0][0]), int(bad[0][1])
            row_lab = model.labels[i] if name in ("A", "B") else OUTPUT_LABELS[i]
            raise LinearizationError(
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
