"""Pointwise tensor calculus for low-dimensional Riemannian metrics.

Everything here operates on plain numpy arrays.  A point is an array of
shape ``(n,)`` and any operation also accepts a batch of points of shape
``(..., n)``, in which case the result gains the same leading axes.
Metric matrices are symmetric positive definite; violations raise
:class:`~greenvar.errors.DegenerateMetricError`.

Metrics built by :func:`conformal_metric` and :func:`euclidean_metric`
(``phi = 0``) keep their conformal factor, so ``g^{-1} = exp(-2 phi)
delta``, ``sqrt(det g) = exp(n phi)`` and the Christoffel symbols are closed
forms, with no batched factorization.  A :class:`MetricField` built from a
matrix callback (and finite differences, when it has no derivative) is the
general reference path.

Index conventions
-----------------
* metric derivative arrays follow ``dg[..., k, i, j] = d g_ij / d x^k``
* vector-field Jacobians follow ``J[..., i, j] = d v^i / d x^j``
* Christoffel arrays follow ``gamma[..., k, i, j] = Gamma^k_ij``
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetricError, DimensionMismatchError

__all__ = [
    "MetricField",
    "VectorField",
    "euclidean_metric",
    "conformal_metric",
    "christoffel",
    "raise_index",
    "lower_index",
    "covariant_derivative_vector",
    "strain_tensor",
    "divergence",
    "volume_density",
    "trace_tensor",
]

# Relative step for centered finite differences of field callbacks.
FD_STEP = 1e-5

# Tolerance on symmetry of user-supplied metric matrices.
SYMMETRY_TOL = 1e-9


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise DimensionMismatchError(
            f"expected points with last axis {dim}, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    return x


def _checked(value, shape, what: str):
    out = np.asarray(value, dtype=float)
    if out.shape != shape:
        raise DimensionMismatchError(
            f"{what} callback returned shape {out.shape}, expected {shape}")
    return out


def _central_differences(func, x):
    """``out[..., k] = d func / d x^k`` by centered differences with step
    ``h = FD_STEP * (1 + |x|)``, one scalar per point."""
    h = FD_STEP * (1.0 + np.linalg.norm(x, axis=-1))
    cols = []
    for k in range(x.shape[-1]):
        dx = np.zeros_like(x)
        dx[..., k] = h
        d = func(x + dx) - func(x - dx)
        cols.append(d / (2.0 * h).reshape(h.shape + (1,) * (d.ndim - h.ndim)))
    return np.stack(cols, axis=-1)


class MetricField:
    """A metric tensor field ``g_ij(x)`` with optional analytic derivative.

    Parameters
    ----------
    dim : int
        Dimension ``n >= 2`` of the underlying space.
    matrix : callable
        Maps points ``(..., n)`` to symmetric matrices ``(..., n, n)``.
    derivative : callable, optional
        Maps points to ``(..., n, n, n)`` arrays ``dg[k, i, j] = d_k g_ij``.
        When omitted, centered finite differences with step
        ``FD_STEP * (1 + |x|)`` are used.
    phi, grad_phi : callable, optional
        Declare the metric conformally flat, ``g = exp(2 phi) delta``, in
        place of ``matrix``: ``phi`` maps points to ``(...)`` and
        ``grad_phi`` to ``(..., n)`` (omitted: centered differences of
        ``phi``).  The matrix, inverse, derivative, volume density and
        Christoffel symbols of such a metric are evaluated in closed form.
    """

    def __init__(self, dim: int, matrix: Optional[Callable] = None,
                 derivative: Optional[Callable] = None,
                 name: str = "metric", phi: Optional[Callable] = None,
                 grad_phi: Optional[Callable] = None):
        if dim < 2:
            raise DimensionMismatchError("metric dimension must be >= 2")
        if matrix is None and phi is None:
            raise DimensionMismatchError("a metric needs a matrix or a conformal factor")
        self.dim = int(dim)
        self._matrix = matrix
        self._derivative = derivative
        self._phi = phi
        self._grad_phi = grad_phi
        self.name = name

    @property
    def is_conformal(self) -> bool:
        return self._phi is not None

    def conformal_factor(self, x):
        """``phi(x)`` of a conformally flat metric ``exp(2 phi) delta``."""
        x = _as_points(x, self.dim)
        return _checked(self._phi(x), x.shape[:-1], "conformal factor")

    def conformal_gradient(self, x):
        """``d_k phi(x)`` as ``(..., n)``, analytic or by centered differences."""
        x = _as_points(x, self.dim)
        if self._grad_phi is None:
            return _central_differences(self.conformal_factor, x)
        return _checked(self._grad_phi(x), x.shape, "conformal gradient")

    def _scale(self, x):
        # exp(2 phi): the positive-definiteness gate of a conformal metric
        with np.errstate(over="ignore", under="ignore"):
            s = np.exp(2.0 * self.conformal_factor(x))
        if not np.all(np.isfinite(s) & (s > 0.0)):
            raise DegenerateMetricError(
                "conformal factor exp(2 phi) is not finite and positive")
        return s

    def __call__(self, x):
        if self.is_conformal:
            return self._scale(x)[..., None, None] * np.eye(self.dim)
        x = _as_points(x, self.dim)
        g = _checked(self._matrix(x), x.shape[:-1] + (self.dim, self.dim), "metric")
        asym = np.max(np.abs(g - np.swapaxes(g, -2, -1)), initial=0.0)
        if asym > SYMMETRY_TOL:
            raise DegenerateMetricError(f"metric matrix asymmetric by {asym:.3e}")
        return g

    def derivative(self, x):
        """Return ``dg[..., k, i, j] = d_k g_ij`` at ``x``."""
        if self.is_conformal:
            # d_k g_ij = 2 phi_k exp(2 phi) delta_ij
            s = self._scale(x)
            dphi = self.conformal_gradient(x)
            return 2.0 * (dphi * s[..., None])[..., :, None, None] * np.eye(self.dim)
        x = _as_points(x, self.dim)
        if self._derivative is not None:
            return _checked(self._derivative(x), x.shape[:-1] + (self.dim,) * 3,
                            "metric derivative")
        return np.moveaxis(_central_differences(self, x), -1, -3)

    def inverse(self, x):
        if self.is_conformal:
            return (1.0 / self._scale(x))[..., None, None] * np.eye(self.dim)
        g = self(x)
        _cholesky(g)  # SPD gate; raises on degeneracy
        return np.linalg.inv(g)

    def __repr__(self):
        return f"MetricField(dim={self.dim}, name={self.name!r})"


class VectorField:
    """A vector field ``v^i(x)`` with optional analytic Jacobian.

    ``jacobian`` maps points to ``(..., n, n)`` arrays with
    ``J[i, j] = d v^i / d x^j``; omitted means centered finite differences.
    """

    def __init__(self, dim: int, func: Callable, jacobian: Optional[Callable] = None,
                 name: str = "vector field"):
        self.dim = int(dim)
        self._func = func
        self._jacobian = jacobian
        self.name = name

    def __call__(self, x):
        x = _as_points(x, self.dim)
        return _checked(self._func(x), x.shape, "vector")

    def jacobian(self, x):
        x = _as_points(x, self.dim)
        if self._jacobian is not None:
            return _checked(self._jacobian(x), x.shape[:-1] + (self.dim, self.dim),
                            "jacobian")
        return _central_differences(self, x)

    def __repr__(self):
        return f"VectorField(dim={self.dim}, name={self.name!r})"


def euclidean_metric(dim: int = 2) -> MetricField:
    """The flat metric ``delta_ij``: the conformal metric with ``phi = 0``."""
    return MetricField(dim, phi=lambda x: np.zeros(x.shape[:-1]),
                       grad_phi=np.zeros_like, name="euclidean")


def conformal_metric(phi: Callable, grad_phi: Optional[Callable] = None) -> MetricField:
    """Planar conformally flat metric ``g_ij = exp(2 phi(x)) delta_ij``.

    Parameters
    ----------
    phi : callable
        Scalar conformal factor, vectorized over points ``(..., 2) -> (...)``.
    grad_phi : callable, optional
        Gradient ``(..., 2) -> (..., 2)``.  Omitted: centered differences
        of ``phi``.
    """
    return MetricField(2, phi=phi, grad_phi=grad_phi, name="conformal")


def _cholesky(g):
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        # locate the offending point for the error message
        gm = g.reshape((-1,) + g.shape[-2:])
        for idx in range(gm.shape[0]):
            try:
                np.linalg.cholesky(gm[idx])
            except np.linalg.LinAlgError:
                raise DegenerateMetricError(
                    f"metric not positive definite (batch entry {idx}):\n{gm[idx]}"
                ) from None
        raise DegenerateMetricError("metric not positive definite") from None


def christoffel(metric: MetricField, x):
    """Christoffel symbols ``Gamma^k_ij`` of the Levi-Civita connection.

    A conformal metric ``exp(2 phi) delta`` has the closed form
    ``Gamma^k_ij = delta^k_i phi_j + delta^k_j phi_i - delta_ij phi_k``.
    Otherwise ``Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)``.
    Either way the result is exactly symmetric in the lower index pair.
    """
    if metric.is_conformal:
        # Gamma^k_ij = sum_l phi_l E[l, k, i, j]; every sum has at most one
        # nonzero term, so the result is exact and exactly symmetric
        dphi = metric.conformal_gradient(x)
        n = metric.dim
        e = np.eye(n)
        E = (e[None, :, :, None] * e[:, None, None, :]
             + e[None, :, None, :] * e[:, None, :, None]
             - e[None, None, :, :] * e[:, :, None, None])
        return (dphi @ E.reshape(n, n**3)).reshape(dphi.shape[:-1] + (n, n, n))
    ginv = metric.inverse(x)
    dg = metric.derivative(x)
    # S[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    S = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, S)
    return 0.5 * (gamma + np.swapaxes(gamma, -2, -1))


def _check_rank1(metric: MetricField, comps, what: str):
    comps = np.asarray(comps, dtype=float)
    if comps.shape[-1] != metric.dim:
        raise DimensionMismatchError(
            f"{what} of dimension {comps.shape[-1]} against metric of dim {metric.dim}"
        )
    return comps


def raise_index(metric: MetricField, x, alpha):
    """Raise the index of a covector: ``alpha^i = g^{ij} alpha_j``."""
    comps = _check_rank1(metric, alpha, "covector")
    return np.einsum("...ij,...j->...i", metric.inverse(x), comps)


def lower_index(metric: MetricField, x, v):
    """Lower the index of a vector: ``v_i = g_ij v^j``."""
    comps = _check_rank1(metric, v, "vector")
    return np.einsum("...ij,...j->...i", metric(x), comps)


def covariant_derivative_vector(metric: MetricField, v: VectorField, x):
    """Covariant derivative ``M[i, j] = v^i_{;j} = d_j v^i + Gamma^i_jk v^k``."""
    J = v.jacobian(x)
    gamma = christoffel(metric, x)
    return J + np.einsum("...ijk,...k->...ij", gamma, v(x))


def strain_tensor(metric: MetricField, v: VectorField, x):
    """Deformation (strain) tensor ``D_ij = (v_{i;j} + v_{j;i}) / 2``.

    Equals half the Lie derivative of the metric along ``v``; vanishes
    identically when ``v`` is a Killing field.  Output is exactly symmetric.
    """
    M = covariant_derivative_vector(metric, v, x)
    low = metric(x) @ M  # v_{i;j}
    return 0.5 * (low + np.swapaxes(low, -2, -1))


def divergence(metric: MetricField, v: VectorField, x):
    """Covariant divergence ``v^j_{;j}``."""
    M = covariant_derivative_vector(metric, v, x)
    return np.einsum("...ii->...", M)


def volume_density(metric: MetricField, x):
    """Riemannian volume density ``sqrt(det g)``; ``exp(n phi)`` when conformal."""
    if metric.is_conformal:
        return metric._scale(x) ** (0.5 * metric.dim)
    L = _cholesky(metric(x))
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    return np.prod(diag, axis=-1)


def trace_tensor(metric: MetricField, x, T):
    """Metric trace ``g^{ij} T_ij`` of a covariant rank-2 tensor."""
    comps = np.asarray(T, dtype=float)
    if comps.shape[-2:] != (metric.dim, metric.dim):
        raise DimensionMismatchError(
            f"tensor block {comps.shape[-2:]} against metric of dim {metric.dim}"
        )
    return np.einsum("...ij,...ij->...", metric.inverse(x), comps)
