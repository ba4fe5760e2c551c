"""Polarized energy-momentum tensor of a Green-function pair.

For distinct interior poles ``a != b`` write ``alpha = dG(., a)`` and
``beta = dG(., b)`` for the coordinate gradients of the two Green
functions (covector fields; in two dimensions they are unchanged by a
conformal rescaling of the metric).  The polarized tensor and its scalar
are

    T_ij = alpha_i beta_j + alpha_j beta_i - Phi g_ij,    Phi = alpha_k beta^k,

so ``g^{ij} T_ij = (2 - n) Phi``, identically zero in the plane.  Note the
normalization: ``T`` is twice the symmetrized gradient product used in
parts of the physics literature; every identity in this package assumes
the convention above.

Away from the poles the covariant divergence ``T^{ij}{}_{;j}`` vanishes;
at the poles it concentrates into point sources whose pairing with a
velocity field ``v`` is the metric-free contraction

    source_pairing(v) = v(b) . alpha(b) + v(a) . beta(a),

finite whenever ``a != b`` and symmetric under swapping the poles.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .conformal import ConformalMap, to_complex
from .errors import CoincidentPoleError, DimensionMismatchError, DomainError
from .greens import green_gradient_field
from .tensors import MetricField, christoffel, euclidean_metric, trace_tensor

__all__ = [
    "PolarizedEMT",
    "source_pairing",
]

# Minimum pole clearance, in multiples of the FD step, for divergence().
FD_CLEARANCE = 10.0


class PolarizedEMT:
    """Evaluator for ``T(x; a, b)`` built from two gradient callbacks.

    Parameters
    ----------
    a, b : points
        Distinct interior poles, as real pairs.
    alpha, beta : callable
        Covector fields ``(..., 2) -> (..., 2)``: the coordinate gradients
        of the Green functions with poles ``a`` and ``b``.  Synthetic
        callbacks are accepted, e.g. for scaling checks.
    metric : MetricField, optional
        Defaults to the flat metric.
    domain : ConformalMap, optional
        When given, finite-difference evaluations also check clearance
        from the domain boundary (via the preimage margin).
    """

    def __init__(self, a, b, alpha: Callable, beta: Callable,
                 metric: Optional[MetricField] = None,
                 domain: Optional[ConformalMap] = None):
        self.a = np.asarray(a, dtype=float).reshape(2)
        self.b = np.asarray(b, dtype=float).reshape(2)
        if np.hypot(*(self.a - self.b)) < 1e-12:
            raise CoincidentPoleError("poles a and b coincide")
        self.alpha = alpha
        self.beta = beta
        self.metric = metric if metric is not None else euclidean_metric(2)
        if self.metric.dim != 2:
            raise DimensionMismatchError("polarized tensor is two-dimensional")
        self.domain = domain

    @classmethod
    def from_map(cls, fmap: Optional[ConformalMap], a, b,
                 metric: Optional[MetricField] = None) -> "PolarizedEMT":
        """Build both gradients from the Green function of ``f(D)``."""
        fmap = fmap if fmap is not None else ConformalMap.identity()
        return cls(a, b, green_gradient_field(fmap, to_complex(np.asarray(a, float))),
                   green_gradient_field(fmap, to_complex(np.asarray(b, float))),
                   metric=metric, domain=fmap)

    # ----- pointwise evaluation

    def phi(self, x):
        """``Phi = alpha_k g^{kl} beta_l``; flat case is the plain dot."""
        al = np.asarray(self.alpha(x), dtype=float)
        be = np.asarray(self.beta(x), dtype=float)
        ginv = self.metric.inverse(x)
        return np.einsum("...kl,...k,...l->...", ginv, al, be)

    def emt_cov(self, x):
        """``T_ij`` as arrays ``(..., 2, 2)`` (symmetric, trace-free)."""
        al = np.asarray(self.alpha(x), dtype=float)
        be = np.asarray(self.beta(x), dtype=float)
        g = self.metric(x)
        ginv = self.metric.inverse(x)
        phi = np.einsum("...kl,...k,...l->...", ginv, al, be)
        outer = al[..., :, None] @ be[..., None, :]
        return outer + np.swapaxes(outer, -2, -1) - phi[..., None, None] * g

    def emt_contra(self, x):
        """``T^{ij}``: both indices raised with the inverse metric."""
        al = np.asarray(self.alpha(x), dtype=float)
        be = np.asarray(self.beta(x), dtype=float)
        ginv = self.metric.inverse(x)
        alu = np.einsum("...ij,...j->...i", ginv, al)
        beu = np.einsum("...ij,...j->...i", ginv, be)
        phi = np.einsum("...k,...k->...", alu, be)
        outer = alu[..., :, None] @ beu[..., None, :]
        return outer + np.swapaxes(outer, -2, -1) - phi[..., None, None] * ginv

    def trace(self, x):
        """``g^{ij} T_ij = (2 - n) Phi``, i.e. zero in two dimensions."""
        return trace_tensor(self.metric, x, self.emt_cov(x))

    # ----- divergence and sources

    def divergence(self, x, h: float = 1e-4):
        """Covariant divergence ``T^{ij}{}_{;j}`` by central differences.

        Returns ``(..., 2)`` vectors, expected to vanish away from the
        poles up to the O(h^2) discretization error.  Every point must
        clear both poles (and the boundary, when the domain is known) by
        more than ``FD_CLEARANCE * h``; the distributional content at the
        poles is not FD-resolvable and is checked in integrated form only.
        """
        x = np.asarray(x, dtype=float)
        self._check_clearance(x, h)
        T = self.emt_contra(x)
        dT = np.empty(x.shape[:-1] + (2, 2, 2))  # dT[..., j, i, l] = d_j T^{il}
        for j in range(2):
            dx = np.zeros_like(x)
            dx[..., j] = h
            dT[..., j, :, :] = (self.emt_contra(x + dx) - self.emt_contra(x - dx)) / (2.0 * h)
        div = np.einsum("...jij->...i", dT)
        gamma = christoffel(self.metric, x)
        div = div + np.einsum("...ijk,...kj->...i", gamma, T)
        div = div + np.einsum("...jjk,...ik->...i", gamma, T)
        return div

    def source_pairing(self, v: Callable) -> float:
        """``v(b) . alpha(b) + v(a) . beta(a)``: the pole sources paired
        with a velocity field.

        The contraction of a vector with a covector needs no metric.  For
        the rotation field the value is zero by rotational invariance of
        the disk Green function; for the dilation field ``v = x`` with
        ``a = 0`` it equals ``-1/(2 pi)``.
        """
        va = np.asarray(v(self.a), dtype=float).reshape(2)
        vb = np.asarray(v(self.b), dtype=float).reshape(2)
        al_b = np.asarray(self.alpha(self.b), dtype=float).reshape(2)
        be_a = np.asarray(self.beta(self.a), dtype=float).reshape(2)
        return float(np.dot(vb, al_b) + np.dot(va, be_a))

    def _check_clearance(self, x, h):
        lim = FD_CLEARANCE * float(h)
        d = np.minimum(np.hypot(x[..., 0] - self.a[0], x[..., 1] - self.a[1]),
                       np.hypot(x[..., 0] - self.b[0], x[..., 1] - self.b[1]))
        if np.any(d <= lim):
            raise DomainError(
                f"FD divergence needs pole clearance > {lim:.2e}; got {np.min(d):.2e}"
            )
        if self.domain is not None:
            margin = 1.0 - np.abs(self.domain.inverse(to_complex(x)))
            if np.any(margin <= lim):
                raise DomainError(
                    f"FD divergence needs boundary margin > {lim:.2e}; "
                    f"got {np.min(margin):.2e}"
                )

    def __repr__(self):
        return (f"PolarizedEMT(a={tuple(self.a)}, b={tuple(self.b)}, "
                f"metric={self.metric.name!r})")


def source_pairing(fmap: Optional[ConformalMap], v: Callable, a, b) -> float:
    """Pairing of ``v`` against the point sources of the Green pair of ``f(D)``."""
    return PolarizedEMT.from_map(fmap, a, b).source_pairing(v)
