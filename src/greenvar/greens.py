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

import struct
from itertools import combinations
from typing import Optional

import numpy as np

from .conformal import (BOUNDARY_SLACK, RECENT_POLES, BoundaryGrid, ConformalMap,
                        _multiplication_matrix, as_map, pullback_metric, to_complex,
                        to_points)
from .errors import CoincidentPoleError, ConfigError, DomainError
from .quadrature import N_PATCH, N_R, N_THETA, QuadratureRule, disk_rule, held, integrate
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


def _cx(p):
    """Coerce points, complex arrays, or scalars to complex ndarray."""
    arr = np.asarray(p)
    if arr.dtype.kind in "fi" and arr.ndim >= 1 and arr.shape[-1] == 2:
        return to_complex(arr)
    return np.asarray(p, dtype=complex)


def _one_point(p):
    """``complex(_cx(p))``, bit for bit (signed zeros included), for a pole that is
    one point: an ``(x, y)`` pair of reals or a number; None for anything else."""
    if type(p) is complex or type(p) is float:
        return complex(p)
    if type(p) in (tuple, list) and len(p) == 2 and type(p[0]) is type(p[1]) is float:
        return p[0] + 1j * p[1]     # _cx's arithmetic on Python floats: the same bits
    try:
        arr = np.asarray(p)
    except ValueError:              # a ragged sequence
        return None
    if (arr.shape == (2,) and arr.dtype.kind in "fi"
            or arr.shape == () and arr.dtype.kind in "fic"):
        return complex(_cx(arr))
    return None


def _points(*poles):
    """:func:`_one_point` of each pole; :class:`ConfigError` naming the first
    argument that is not one point."""
    pts = [_one_point(p) for p in poles]
    if None in pts:
        raise ConfigError(f"pole argument {pts.index(None)} must be an (x, y) pair or a number")
    return pts


def _check_pole(w):
    if np.any(np.abs(w) >= 1.0 - COINCIDENCE_TOL):
        raise DomainError("source point must lie in the open domain")
    return w


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


def _poisson(z, w):
    # outward normal derivative of G(. , w) at z on the unit circle
    return -(1.0 - np.abs(w) ** 2) / (np.abs(z - w) ** 2) / TWO_PI


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
    val = _poisson(z, w)
    return float(val) if np.ndim(val) == 0 else val


class GreenFunction:
    """Green function of ``Omega = f(D)`` for the fixed map ``f = as_map(fmap)``."""

    def __init__(self, fmap: Optional[ConformalMap] = None):
        self.map = as_map(fmap)

    def pole_preimage(self, a):
        """``f^{-1}(a)`` for one pole ``a``; :class:`DomainError` unless it lies in the open disk.

        The map holds the checked preimages of its last ``RECENT_POLES``
        poles, keyed on the exact bits of each pole's complex number (see
        :meth:`pole_preimages`), and returns the held numpy scalar.
        """
        z, = _points(a)
        return held(self.map._preimages, struct.pack("dd", z.real, z.imag), RECENT_POLES,
                    lambda: _check_pole(self.map.inverse(z)))

    def pole_preimages(self, *poles):
        """:meth:`pole_preimage` of each pole, inverted once, after checking that
        each is one point, an ``(x, y)`` pair of reals or a number (:class:`ConfigError`
        naming the argument otherwise), and that no two are within ``COINCIDENCE_TOL``
        (:class:`CoincidentPoleError`): the one path from ambient poles to the disk.
        Each pole is read once, as the complex number of :func:`_one_point`."""
        pts = _points(*poles)
        for (i, p), (j, q) in combinations(enumerate(pts), 2):
            if abs(p - q) < COINCIDENCE_TOL:
                raise CoincidentPoleError(f"coincident poles (arguments {i} and {j})")
        return [self.pole_preimage(p) for p in pts]

    def value(self, x, a):
        """``G_Omega(x, a)`` with ``x`` on the closure, ``a`` one interior pole."""
        x, (p,) = _cx(x), _points(a)
        z, w = self.map.inverse(x), self.pole_preimage(p)
        _check_separation(x, p)
        _check_separation(z, w)
        val = _disk_value(z, w)
        return float(val) if np.ndim(val) == 0 else val

    def gradient(self, x, a):
        """Gradient in ambient coordinates, as real pairs ``(..., 2)``."""
        x, (p,) = _cx(x), _points(a)
        z, w = self.map.inverse(x), self.pole_preimage(p)
        _check_separation(x, p)
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
        """Outward normal derivative at the nodes of a boundary grid of this
        function's map (:class:`ConfigError` for another map's grid).

        Conformal transport: the disk's Poisson kernel at the node's
        preimage ``e^{i theta}``, divided by ``|f'(e^{i theta})|``.
        """
        if grid.map is not self.map:
            raise ConfigError("boundary grid belongs to another conformal map")
        return _normal_derivative(grid, self.pole_preimage(a))


def _normal_derivative(grid: BoundaryGrid, w):
    """:meth:`GreenFunction.normal_derivative` on ``grid`` for the pole
    preimage ``w`` on ``grid.map``."""
    return _poisson(grid.params, w) / grid.speed


def green_gradient_field(fmap: ConformalMap, c) -> VectorField:
    """The vector field ``v = grad G_Omega(. , c)`` with analytic Jacobian.

    The complex gradient is ``conj(W(z))`` with ``W`` holomorphic away from
    the pole, so the Jacobian is the symmetric traceless matrix built from
    ``A' = W'(z) / f'(z)`` (harmonic Hessian structure).
    """
    green = GreenFunction(fmap)
    fmap, w = green.map, green.pole_preimage(c)

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


def interior_rule(fmap: Optional[ConformalMap], poles=(), n_r: int = N_R.default,
                  n_theta: int = N_THETA.default,
                  n_patch: int = N_PATCH.default) -> QuadratureRule:
    """Disk rule with patches at the preimages of ambient pole points.

    The rule always lives on the unit disk; integrands over ``f(D)`` must be
    pulled back (evaluate at ``f(z)`` and multiply by ``|f'(z)|^2``, or
    evaluate a density against the pulled-back metric ``f^* g``).
    """
    return disk_rule(n_r, n_theta, poles=GreenFunction(fmap).pole_preimages(*poles),
                     n_patch=n_patch)


def mutual_energy(fmap: Optional[ConformalMap], a, b,
                  rule: Optional[QuadratureRule] = None,
                  metric: Optional[MetricField] = None) -> float:
    """Mutual Dirichlet energy ``int grad G_a . grad G_b`` over the domain.

    Equals ``G_Omega(a, b)`` for the Dirichlet Green function.  The
    integrand is a density, evaluated on the disk: with the disk gradients
    and, given a ``metric``, ``alpha_i beta_j g^{ij} sqrt(det g)`` for the
    pulled-back ``g = f^* metric``.  Its value is metric-independent in two
    dimensions (conformal invariance of the Dirichlet pairing); this is
    exercised by tests rather than assumed.  A given ``rule`` must have pole
    patches at both preimages (:class:`ConfigError` otherwise).
    """
    green = GreenFunction(fmap)
    wa, wb = green.pole_preimages(a, b)
    if rule is None:
        rule = disk_rule(poles=[wa, wb])
    elif not all(np.any(rule.poles == w) for w in (wa, wb)):
        raise ConfigError("rule has no pole patches at the preimages of a and b")
    met = pullback_metric(green.map, metric) if metric is not None else None

    def integrand(points):
        z = to_complex(points)
        alpha = _disk_gradient(z, wa)
        beta = _disk_gradient(z, wb)
        if met is None:
            return np.real(alpha * np.conj(beta))
        phi = np.einsum("...i,...ij,...j->...", to_points(alpha), met.inverse(points),
                        to_points(beta))
        return phi * volume_density(met, points)

    return integrate(rule, integrand, check=False).value
