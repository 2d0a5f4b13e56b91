"""Per-unit impedance algebra shared by the network model and SCR studies.

All quantities are per-unit on the single plant MVA base. An impedance is
stored as a rectangular (r, x) pair; grid strength is expressed through the
short-circuit ratio (SCR) and X/R ratio of the Thevenin equivalent seen at
the connection bus. Branches combine by the scalar magnitude convention of
the standard SCR formulas, which treats every branch as |Z|; that is exact
when the combined branches share their X/R angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Grid strength beyond this SCR (a Thevenin branch below 1 / MAX_SCR pu) is
# far outside physical grids, and there the equilibrium solve turns erratic.
MAX_SCR = 1e4


@dataclass(frozen=True)
class Impedance:
    """Series R-X branch impedance in pu.

    Resistance must be non-negative and the magnitude strictly positive;
    a zero-magnitude branch is not a usable circuit element.
    """

    r: float
    x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and math.isfinite(self.x)):
            raise ValueError(f"impedance components must be finite, got ({self.r}, {self.x})")
        if self.r < 0.0:
            raise ValueError(f"impedance resistance must be >= 0, got {self.r}")
        if self.magnitude == 0.0:
            raise ValueError("impedance magnitude must be > 0")

    @property
    def magnitude(self) -> float:
        return math.hypot(self.r, self.x)


@dataclass(frozen=True)
class GridCase:
    """External grid strength: short-circuit ratio and X/R of the Thevenin branch."""

    scr: float
    x_r: float

    def __post_init__(self) -> None:
        if not 0.0 < self.scr <= MAX_SCR:
            raise ValueError(f"grid case scr must be in (0, {MAX_SCR:g}], got {self.scr}")
        if not (math.isfinite(self.x_r) and self.x_r >= 0.0):
            raise ValueError(f"grid case x_r must be >= 0, got {self.x_r}")


def impedance_from_scr_xr(case: GridCase) -> Impedance:
    """Rectangular Thevenin impedance for a grid case.

    |Z| = 1/SCR at 1 pu voltage on the plant base, split so that x/r equals
    the requested X/R ratio.
    """
    mag = 1.0 / case.scr
    r = mag / math.sqrt(1.0 + case.x_r * case.x_r)
    return Impedance(r, case.x_r * r)


def parallel_magnitude(z1: float, z2: float) -> float:
    """Scalar-parallel combination z1*z2/(z1+z2) on magnitudes.

    This is the convention of the closed-form SCR expressions, which combine
    branch magnitudes as if they were aligned.
    """
    if not (z1 > 0.0 and z2 > 0.0) or not (math.isfinite(z1) and math.isfinite(z2)):
        raise ValueError(f"parallel_magnitude requires positive finite magnitudes, got ({z1}, {z2})")
    return z1 * z2 / (z1 + z2)
