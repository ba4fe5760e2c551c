"""Dirichlet Green functions of the disk and its conformal images.

Unit-disk closed form, with ``x`` and ``a`` packed as complex numbers:

    G(x, a) = (1 / 2 pi) * log( |1 - x conj(a)| / |x - a| )

Sign convention: ``-Lap G = delta_a``, ``G >= 0`` inside, outward normal
derivative ``<= 0``.  On an image domain ``Omega = f(D)`` the Green function
transports conformally, ``G_Omega(f(z), f(w)) = G_D(z, w)``, which is what
:class:`GreenFunction` evaluates; gradients follow by the chain rule through
``f`` so no finite differencing is involved anywhere.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .conformal import (BoundaryGrid, ConformalMap, _multiplication_matrix,
                        pullback_metric, to_complex, to_points)
from .errors import CoincidentPoleError, DomainError
from .quadrature import QuadratureRule, disk_rule, integrate
from .tensors import MetricField, VectorField, volume_density

__all__ = [
    "disk_green",
    "disk_green_gradient",
    "poisson_normal_derivative",
    "GreenFunction",
    "green_gradient_field",
    "interior_rule",
    "mutual_energy",
]

TWO_PI = 2.0 * np.pi

# Hard error threshold for coincident evaluation and source points.
COINCIDENCE_TOL = 1e-12

# Slack for "on the closed disk" checks of evaluation points.
BOUNDARY_SLACK = 1e-9


def _cx(p):
    """Coerce points, complex arrays, or scalars to complex ndarray."""
    arr = np.asarray(p)
    if arr.dtype.kind in "fi" and arr.ndim >= 1 and arr.shape[-1] == 2:
        return to_complex(arr)
    return np.asarray(p, dtype=complex)


def _check_pole(w):
    if np.any(np.abs(w) >= 1.0 - COINCIDENCE_TOL):
        raise DomainError("source point must lie in the open domain")


def _check_eval(z):
    if np.any(np.abs(z) > 1.0 + BOUNDARY_SLACK):
        raise DomainError("evaluation point outside the closed domain")


def _check_separation(z, w):
    if np.min(np.abs(z - w)) < COINCIDENCE_TOL:
        raise CoincidentPoleError(
            f"evaluation within {COINCIDENCE_TOL:g} of the source point"
        )


def _disk_value(z, w):
    return (np.log(np.abs(1.0 - z * np.conj(w))) - np.log(np.abs(z - w))) / TWO_PI


def _disk_gradient(z, w):
    # complex-packed gradient of G(. , w) at z, for the unit disk
    return -np.conj(1.0 / (z - w) + np.conj(w) / (1.0 - z * np.conj(w))) / TWO_PI


def disk_green(x, a):
    """Unit-disk Green function; ``x`` on the closed disk, ``a`` interior."""
    z, w = _cx(x), _cx(a)
    _check_eval(z)
    _check_pole(w)
    _check_separation(z, w)
    val = _disk_value(z, w)
    return float(val) if np.ndim(val) == 0 else val

def disk_green_gradient(x, a):
    """Gradient of ``disk_green`` in ``x``, returned as real pairs."""
    z, w = _cx(x), _cx(a)
    _check_eval(z)
    _check_pole(w)
    _check_separation(z, w)
    return to_points(_disk_gradient(z, w))


def poisson_normal_derivative(x, a):
    """Outward normal derivative on the unit circle.

    Closed form ``-(1 / 2 pi) (1 - |a|^2) / |x - a|^2``; requires ``|x| = 1``
    within 1e-8.  Integrates to -1 against arclength (harmonic measure).
    """
    z, w = _cx(x), _cx(a)
    if np.any(np.abs(np.abs(z) - 1.0) > 1e-8):
        raise DomainError("poisson_normal_derivative expects |x| = 1")
    _check_pole(w)
    val = -(1.0 - np.abs(w) ** 2) / (np.abs(z - w) ** 2) / TWO_PI
    return float(val) if np.ndim(val) == 0 else val


class GreenFunction:
    """Green function of ``Omega = f(D)`` for a fixed conformal map ``f``."""

    def __init__(self, fmap: Optional[ConformalMap] = None):
        self.map = fmap if fmap is not None else ConformalMap.identity()

    def pole_preimage(self, a):
        w = self.map.inverse(_cx(a))
        _check_pole(w)
        return w

    def value(self, x, a):
        """``G_Omega(x, a)`` with ``x`` on the closure, ``a`` interior."""
        z = self.map.inverse(_cx(x))
        w = self.pole_preimage(a)
        _check_separation(_cx(x), _cx(a))
        _check_separation(z, w)
        val = _disk_value(z, w)
        return float(val) if np.ndim(val) == 0 else val

    def gradient(self, x, a):
        """Gradient in ambient coordinates, as real pairs ``(..., 2)``."""
        z = self.map.inverse(_cx(x))
        w = self.pole_preimage(a)
        _check_separation(_cx(x), _cx(a))
        return to_points(self.gradient_z(z, w))

    def gradient_z(self, z, w):
        """Complex-packed ambient gradient at ``x = f(z)``.

        Chain rule for a real scalar through the holomorphic ``f``:
        ``grad_x = grad_z * conj(1 / f'(z))``.
        """
        _check_separation(z, w)
        g = _disk_gradient(z, w)
        if self.map.is_identity:
            return g
        return g * np.conj(1.0 / self.map.derivative(z))

    def normal_derivative(self, grid: BoundaryGrid, a):
        """Outward normal derivative at the nodes of a boundary grid.

        Conformal transport: the disk's Poisson kernel at the node's
        preimage ``e^{i theta}``, divided by ``|f'(e^{i theta})|``.
        """
        kernel = poisson_normal_derivative(grid.params, self.pole_preimage(a))
        return kernel / np.abs(self.map.derivative(grid.params))


def green_gradient_field(fmap: ConformalMap, c) -> VectorField:
    """The vector field ``v = grad G_Omega(. , c)`` with analytic Jacobian.

    The complex gradient is ``conj(W(z))`` with ``W`` holomorphic away from
    the pole, so the Jacobian is the symmetric traceless matrix built from
    ``A' = W'(z) / f'(z)`` (harmonic Hessian structure).
    """
    fmap = fmap if fmap is not None else ConformalMap.identity()
    green = GreenFunction(fmap)
    w = green.pole_preimage(c)

    def func(x):
        z = fmap.inverse(to_complex(x))
        return to_points(green.gradient_z(z, w))

    def jac(x):
        z = fmap.inverse(to_complex(x))
        _check_separation(z, w)
        fp = fmap.derivative(z)
        s1 = 1.0 / (z - w) + np.conj(w) / (1.0 - z * np.conj(w))
        s2 = -1.0 / (z - w) ** 2 + np.conj(w) ** 2 / (1.0 - z * np.conj(w)) ** 2
        dW = -(s2 / fp - s1 * fmap.second_derivative(z) / fp**2) / TWO_PI
        # u -> conj(A) conj(u): multiplication by conj(A) after conjugation
        J = _multiplication_matrix(np.conj(dW / fp))
        J[..., :, 1] *= -1.0
        return J

    return VectorField(2, func, jac, name="green gradient field")


def interior_rule(fmap: Optional[ConformalMap], poles=(), n_r: int = 64,
                  n_theta: int = 128, n_patch: int = 32) -> QuadratureRule:
    """Disk rule with patches at the preimages of ambient pole points.

    The rule always lives on the unit disk; integrands over ``f(D)`` must be
    pulled back (evaluate at ``f(z)`` and multiply by ``|f'(z)|^2``, or
    evaluate a density against the pulled-back metric ``f^* g``).
    """
    fmap = fmap if fmap is not None else ConformalMap.identity()
    zs = [complex(fmap.inverse(_cx(p))) for p in poles]
    _check_pole(np.asarray(zs))
    return disk_rule(n_r, n_theta, poles=zs, n_patch=n_patch)


def mutual_energy(fmap: Optional[ConformalMap], a, b,
                  rule: Optional[QuadratureRule] = None,
                  metric: Optional[MetricField] = None) -> float:
    """Mutual Dirichlet energy ``int grad G_a . grad G_b`` over the domain.

    Equals ``G_Omega(a, b)`` for the Dirichlet Green function.  The
    integrand is a density, evaluated on the disk: with the disk gradients
    and, given a ``metric``, ``alpha_i beta_j g^{ij} sqrt(det g)`` for the
    pulled-back ``g = f^* metric``.  Its value is metric-independent in two
    dimensions (conformal invariance of the Dirichlet pairing); this is
    exercised by tests rather than assumed.
    """
    fmap = fmap if fmap is not None else ConformalMap.identity()
    green = GreenFunction(fmap)
    wa, wb = green.pole_preimage(a), green.pole_preimage(b)
    if abs(wa - wb) < COINCIDENCE_TOL:
        raise CoincidentPoleError("mutual energy needs distinct source points")
    if rule is None:
        rule = interior_rule(fmap, poles=[a, b])
    disk = GreenFunction()
    met = pullback_metric(fmap, metric) if metric is not None else None

    def integrand(points):
        z = to_complex(points)
        alpha = disk.gradient_z(z, wa)
        beta = disk.gradient_z(z, wb)
        if met is None:
            return np.real(alpha * np.conj(beta))
        phi = np.einsum("...i,...ij,...j->...", to_points(alpha), met.inverse(points),
                        to_points(beta))
        return phi * volume_density(met, points)

    return integrate(rule, integrand).value
