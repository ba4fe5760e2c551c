"""Tests of the benchmark's oracle against hand-derived values.

Run with ``python3 -m pytest bench/test_oracle.py``.  The oracle never
imports greenvar, and neither do these tests.
"""

import math

import numpy as np
import pytest

import oracle

TWO_PI = 2.0 * math.pi


def test_dilation_closed_form_at_center_is_one_over_two_pi():
    for b in (0.5, 0.3 - 0.6j, 0.0 + 0.9j):
        assert oracle.dilation_variation(0.0, b) == pytest.approx(1.0 / TWO_PI, abs=1e-16)


def test_dilation_closed_form_off_center():
    # a conj(b) = -i/4, Re 1/(1 + i/4) = 16/17, so the value is 15/(34 pi)
    assert oracle.dilation_variation(0.5, 0.5j) == pytest.approx(15.0 / (34.0 * math.pi),
                                                                 rel=1e-15)


def test_hadamard_dilation_of_unit_disk():
    # P(., 0) = -1/(2 pi) and the Poisson kernel integrates to -1
    value, magnitude = oracle.hadamard([1.0], lambda z: z, 0.0, 0.5)
    assert value == pytest.approx(1.0 / TWO_PI, rel=1e-14)
    assert magnitude == pytest.approx(value, rel=1e-14)


def test_hadamard_matches_closed_form_off_center():
    value, _ = oracle.hadamard([1.0], lambda z: z, 0.5, 0.5j)
    assert value == pytest.approx(15.0 / (34.0 * math.pi), rel=1e-13)


def test_hadamard_on_scaled_disk():
    # f = 2z, h = 2z: G_{2(1+t)D}(a, b) = G_{(1+t)D}(a/2, b/2), so
    # a = 1, b = i is the off-center case above
    value, _ = oracle.hadamard([2.0], lambda z: 2.0 * z, 1.0, 1.0j)
    assert value == pytest.approx(15.0 / (34.0 * math.pi), rel=1e-13)


def test_hadamard_rotation_is_zero():
    # v = i z is tangent to the circle, so v . n vanishes node by node
    # up to the rounding of |e^{i theta}|^2
    # the magnitude keeps |v| = 1: the integral of |P_a P_b|
    value, magnitude = oracle.hadamard([1.0], lambda z: 1j * z, 0.0, 0.5)
    assert abs(value) < 1e-15
    assert magnitude == pytest.approx(1.0 / TWO_PI, rel=1e-14)


def test_triple_at_center():
    # three factors of -1/(2 pi) over a circle of length 2 pi
    assert oracle.triple([1.0], 0.0, 0.0, 0.0) == pytest.approx(
        -1.0 / (4.0 * math.pi ** 2), rel=1e-15)


def test_area():
    assert oracle.area([1.0]) == pytest.approx(math.pi, rel=1e-15)
    assert oracle.area([2.0]) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert oracle.area([1.0, 0.1]) == pytest.approx(1.02 * math.pi, rel=1e-15)
    assert oracle.area([1.0, 0.0, 0.1j]) == pytest.approx(1.03 * math.pi, rel=1e-15)


def test_polynomial_helpers():
    c = [1.0, 0.1]
    assert oracle.polyval(c, 0.5) == pytest.approx(0.525, rel=1e-15)
    assert oracle.polyder(c, 0.5) == pytest.approx(1.1, rel=1e-15)
    assert oracle.pole_preimage(c, 0.525) == pytest.approx(0.5, abs=1e-15)
    assert oracle.pole_preimage([2.0], 1.0j) == pytest.approx(0.5j, abs=1e-15)


def test_pole_preimage_outside_raises():
    with pytest.raises(ValueError):
        oracle.pole_preimage([1.0], 1.5)


def test_trapezoid_tol():
    assert oracle.trapezoid_tol(0.5, 256) == 1e-9
    assert oracle.trapezoid_tol(0.94, 256) == pytest.approx(10.0 * 0.94 ** 256, rel=1e-15)
    assert oracle.trapezoid_tol(0.94, 256) > 1e-7
    assert np.isfinite(oracle.trapezoid_tol(0.99, 4))
