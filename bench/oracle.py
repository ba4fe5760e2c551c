"""Reference values for the benchmark, computed without greenvar.

Everything here is plain numpy on the unit-circle parametrization of a
polynomial domain ``Omega = f(D)``, ``f(z) = c_1 z + ... + c_K z^K``.
Coefficient lists are ascending (``coeffs[k]`` is ``c_{k+1}``), points
are complex numbers.

Conformal transport gives every boundary quantity in closed form on the
circle ``z = e^{i theta}``: the normal derivative of ``G_Omega(., a)`` at
``f(z)`` is ``P(z, w) / |f'(z)|`` with ``w = f^{-1}(a)`` and

    P(z, w) = -(1 / 2 pi) (1 - |w|^2) / |z - w|^2,

and arclength is ``|f'(z)| d theta``.  The integrands are analytic and
periodic, so the trapezoid rule converges geometrically at the rate set by
the largest pole-preimage modulus.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
# Trapezoid nodes on the circle: the integrals below converge like
# r^NODES, r the largest pole-preimage modulus, so 2048 nodes leave
# rounding as the only error for r up to 0.98.
NODES = 2048


def dilation_variation(a: complex, b: complex) -> float:
    """``d/dt G_{(1+t)D}(a, b)`` at ``t = 0`` on the unit disk.

    ``G_{(1+t)D}(a, b) = G_D(a/(1+t), b/(1+t))``; differentiating the
    closed-form disk kernel gives ``(1/2pi)(2 Re(1/(1 - a conj(b))) - 1)``.
    """
    return (2.0 * (1.0 / (1.0 - a * np.conj(b))).real - 1.0) / TWO_PI


def polyval(coeffs: Sequence[complex], z):
    """``sum_k coeffs[k] z^(k+1)`` (no constant term)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = (out + c) * z
    return out


def polyder(coeffs: Sequence[complex], z):
    """Derivative of :func:`polyval` in ``z``."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for k in range(len(coeffs), 0, -1):
        out = out * z + k * coeffs[k - 1]
    return out


def pole_preimage(coeffs: Sequence[complex], x: complex) -> complex:
    """The root of ``f(z) = x`` inside the unit disk, by ``np.roots``."""
    poly = [complex(c) for c in coeffs[::-1]] + [-complex(x)]
    roots = np.roots(poly)
    w = roots[np.argmin(np.abs(roots))]
    if abs(w) >= 1.0:
        raise ValueError(f"{x!r} has no preimage in the open unit disk")
    return complex(w)


def _circle():
    z = np.exp(2j * np.pi * np.arange(NODES) / NODES)
    return z, TWO_PI / NODES


def _poisson(z, w):
    return -(1.0 - abs(w) ** 2) / np.abs(z - w) ** 2 / TWO_PI


def hadamard(coeffs: Sequence[complex], velocity: Callable, a: complex,
             b: complex):
    """Hadamard integral ``oint (dG_a/dn)(dG_b/dn) (v . n) ds`` on ``f(D)``.

    ``velocity(z)`` is the complex velocity at the boundary point ``f(z)``.
    Returns ``(value, magnitude)``: the trapezoid sum, and the same sum with
    ``|v|`` in place of ``v . n`` and absolute kernels, the scale against
    which an estimate's error is judged (it stays positive for tangential
    velocities, whose value is 0).
    """
    z, dth = _circle()
    fp = polyder(coeffs, z)
    wa, wb = pole_preimage(coeffs, a), pole_preimage(coeffs, b)
    # outward normal is z f'/|f'|; v . n = Re(v conj(z f')) / |f'|
    v = velocity(z)
    vn = (v * np.conj(z * fp)).real / np.abs(fp)
    kernel = _poisson(z, wa) * _poisson(z, wb) / np.abs(fp)
    return math.fsum(kernel * vn * dth), math.fsum(np.abs(kernel * v) * dth)


def triple(coeffs: Sequence[complex], a: complex, b: complex, c: complex) -> float:
    """``oint (dG_a/dn)(dG_b/dn)(dG_c/dn) ds`` on ``f(D)``."""
    z, dth = _circle()
    fp = polyder(coeffs, z)
    vals = np.ones(NODES)
    for p in (a, b, c):
        vals = vals * _poisson(z, pole_preimage(coeffs, p))
    return math.fsum(vals / np.abs(fp) ** 2 * dth)


def area(coeffs: Sequence[complex]) -> float:
    """Area of ``f(D)``: ``pi * sum_k k |c_k|^2``."""
    return math.pi * sum((k + 1) * abs(c) ** 2 for k, c in enumerate(coeffs))


def trapezoid_tol(r_max: float, m: int) -> float:
    """Relative tolerance for an ``m``-node boundary estimate.

    The trapezoid error decays like ``r_max^m`` (Trefethen and Weideman,
    SIAM Rev. 2014); the factor 10 covers the constant, and the floor
    covers rounding in the summands.
    """
    return max(1e-9, 10.0 * r_max ** m)
