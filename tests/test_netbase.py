"""Impedance algebra oracles and properties."""

import math

import numpy as np
import pytest

from wppsc.netbase import (
    GridCase,
    Impedance,
    impedance_from_scr_xr,
    parallel_magnitude,
)


def parallel_complex(z1: Impedance, z2: Impedance) -> Impedance:
    """Exact complex parallel combination of two branch impedances."""
    c1, c2 = complex(z1.r, z1.x), complex(z2.r, z2.x)
    if abs(c1 + c2) < 1e-12 * (z1.magnitude + z2.magnitude):
        raise ValueError("parallel_complex is singular: z1 + z2 is (near) zero")
    z = c1 * c2 / (c1 + c2)
    return Impedance(z.real, z.imag)


def test_thevenin_from_strength_weak_case():
    # frozen: strength 1.6 at X/R 5 -> r 0.12257, x 0.61286
    # oracle: |Z| = 1/1.6 = 0.625, r = 0.625/sqrt(26), x = 5 r
    z = impedance_from_scr_xr(GridCase(scr=1.6, x_r=5.0))
    assert z.r == pytest.approx(0.625 / math.sqrt(26.0), rel=1e-12)
    assert z.r == pytest.approx(0.12257, abs=1e-5)
    assert z.x == pytest.approx(0.61287, abs=1e-5)
    assert z.magnitude == pytest.approx(1.0 / 1.6, rel=1e-12)


def test_thevenin_from_strength_normal_case():
    # frozen: strength 3.2 at X/R 14.8 -> r 0.021067, x 0.31179
    z = impedance_from_scr_xr(GridCase(scr=3.2, x_r=14.8))
    assert z.r == pytest.approx(0.3125 / math.sqrt(1.0 + 14.8**2), rel=1e-12)
    assert z.r == pytest.approx(0.021067, abs=1e-5)
    assert z.x == pytest.approx(0.31179, abs=1e-5)
    assert z.x / z.r == pytest.approx(14.8, rel=1e-12)


def test_thevenin_round_trip_properties():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        scr = float(rng.uniform(0.5, 20.0))
        xr = float(rng.uniform(0.1, 30.0))
        z = impedance_from_scr_xr(GridCase(scr=scr, x_r=xr))
        assert z.magnitude == pytest.approx(1.0 / scr, rel=1e-12)
        assert z.x / z.r == pytest.approx(xr, rel=1e-11)


def test_parallel_magnitude_oracle():
    # frozen: 0.6 || 0.3 -> 0.2
    assert parallel_magnitude(0.6, 0.3) == pytest.approx(0.2, rel=1e-12)


def test_parallel_magnitude_huge_second_branch():
    assert parallel_magnitude(0.5, 1e9) == pytest.approx(0.5, abs=1e-9)


def test_parallel_magnitude_properties():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = float(rng.uniform(1e-3, 10.0))
        b = float(rng.uniform(1e-3, 10.0))
        p = parallel_magnitude(a, b)
        assert p == pytest.approx(parallel_magnitude(b, a), rel=1e-12)
        assert p < min(a, b)
        assert p > 0.0


def test_parallel_complex_oracle():
    z = parallel_complex(Impedance(1.0, 0.0), Impedance(0.0, 1.0))
    assert z.r == pytest.approx(0.5, rel=1e-12)
    assert z.x == pytest.approx(0.5, rel=1e-12)
    # the magnitude convention is exact for branches sharing their X/R angle
    a, b = Impedance(0.02, 0.3), Impedance(0.05, 0.75)
    exact = parallel_complex(a, b).magnitude
    assert parallel_magnitude(a.magnitude, b.magnitude) == pytest.approx(exact, rel=1e-12)


def test_parallel_complex_rejects_resonant_pair():
    with pytest.raises(ValueError):
        parallel_complex(Impedance(0.0, 1.0), Impedance(0.0, -1.0))
    # the magnitude form takes positive finite magnitudes only
    for z1, z2 in ((0.0, 1.0), (1.0, -0.5), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="positive finite magnitudes"):
            parallel_magnitude(z1, z2)


def test_impedance_validation():
    with pytest.raises(ValueError):
        Impedance(r=-0.01, x=0.3)
    with pytest.raises(ValueError):
        Impedance(r=0.0, x=0.0)
    with pytest.raises(ValueError):
        Impedance(r=float("nan"), x=0.3)


def test_grid_case_validation():
    with pytest.raises(ValueError):
        GridCase(scr=0.0, x_r=5.0)
    with pytest.raises(ValueError):
        GridCase(scr=3.2, x_r=-1.0)
