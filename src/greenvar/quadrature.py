"""Interior and boundary quadrature for the unit disk.

The interior rule is a Gauss-Legendre (radial) times uniform (angular)
background grid over the whole disk.  Integrands with ``1/|x - p|`` type
singularities at known pole points are handled by replacing each disk of
radius ``rho`` around a pole with a pole-centered polar patch whose radial
nodes follow the grading ``r ~ rho * (k / N_patch)^2``.  The handoff between
background and patch uses a smooth radial partition-of-unity window: the
background integrates ``(1 - chi) f`` (its nodes inside the flat core of the
window are dropped outright), the patch integrates ``chi f``.  Patch weights
are normalized so the whole rule integrates constants exactly, independent
of how well the background grid resolves the window.

Boundary integrals use the periodic trapezoid rule (spectrally accurate for
analytic boundary data), assembled by :func:`greenvar.conformal.boundary_grid`.

Summation is exactly rounded (``math.fsum``) and therefore deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    PatchRadiusError,
    PoleSeparationError,
)

__all__ = [
    "QuadratureRule",
    "IntegrationResult",
    "disk_rule",
    "integrate",
    "boundary_integrate",
]

# Pole patch radius when not given: RHO_FACTOR * min(pole separation,
# pole-to-boundary distance).  0.2 keeps the window transition wide enough
# for the background grid to resolve; smaller factors stall convergence.
RHO_FACTOR = 0.2

# Window shape: chi = 1 for r <= WINDOW_FLAT * rho (background nodes there
# are dropped), then a C^5 polynomial smoothstep down to 0 at r = rho.
WINDOW_FLAT = 0.1
SMOOTHSTEP_ORDER = 5

# Angular nodes of a pole patch, as a multiple of its radial count.
PATCH_ANGULAR_FACTOR = 2

_MIN_NR = 4
_MIN_NTHETA = 8
_MIN_NPATCH = 8


def _smoothstep_coeffs(order: int) -> np.ndarray:
    # ascending coefficients of S_N(w) = w^{N+1} sum_k C(N+k,k) C(2N+1,N-k) (-w)^k
    c = np.zeros(2 * order + 2)
    for k in range(order + 1):
        c[order + 1 + k] = ((-1) ** k * math.comb(order + k, k)
                            * math.comb(2 * order + 1, order - k))
    return c

_SS_COEFFS = _smoothstep_coeffs(SMOOTHSTEP_ORDER)


def _smoothstep(w):
    w = np.clip(w, 0.0, 1.0)
    out = np.zeros_like(w)
    for c in _SS_COEFFS[::-1]:
        out = out * w + c
    return out


def _window(dist, rho):
    """Radial partition-of-unity window: 1 at the pole, 0 beyond rho."""
    u = np.asarray(dist, dtype=float) / rho
    w = (u - WINDOW_FLAT) / (1.0 - WINDOW_FLAT)
    return np.where(u >= 1.0, 0.0, np.where(u <= WINDOW_FLAT, 1.0,
                                            1.0 - _smoothstep(w)))


def require_integers(**counts):
    """Raise :class:`ConfigError` unless every count is an integer (not a bool)."""
    for name, n in counts.items():
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {n!r}")


@lru_cache(maxsize=64)
def _gauss_legendre(n: int, lo: float, hi: float):
    """Nodes and weights on ``[lo, hi]``; cached, hence read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    nodes, weights = lo + half * (x + 1.0), half * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(eq=False)
class QuadratureRule:
    """Positive-weight rule over the open unit disk.

    ``nodes`` has shape ``(N, 2)``; all nodes are strictly interior and none
    lies within 1e-10 of a pole center.  ``sum(weights)`` equals the disk
    area pi to machine precision by construction.
    """

    nodes: np.ndarray
    weights: np.ndarray
    poles: np.ndarray          # complex pole centers, possibly empty
    rho: Optional[float]
    n_r: int
    n_theta: int
    n_patch: int
    tol: float = 1e-3
    _coarse: Optional["QuadratureRule"] = field(default=None, repr=False)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def total_weight(self) -> float:
        return math.fsum(self.weights)

    def coarse(self) -> "QuadratureRule":
        """The same rule at half resolution (used for convergence flags)."""
        if self._coarse is None:
            self._coarse = disk_rule(
                max(_MIN_NR, self.n_r // 2),
                max(_MIN_NTHETA, self.n_theta // 2),
                poles=self.poles,
                rho=self.rho,
                n_patch=max(_MIN_NPATCH, self.n_patch // 2),
                tol=self.tol,
            )
        return self._coarse

    def __repr__(self):
        return (f"QuadratureRule(n_r={self.n_r}, n_theta={self.n_theta}, "
                f"poles={len(self.poles)}, nodes={self.node_count})")


def _as_pole_list(poles) -> np.ndarray:
    out = []
    for p in poles:
        if isinstance(p, (complex, np.complexfloating)):
            out.append(complex(p))
        else:
            arr = np.asarray(p, dtype=float)
            if arr.shape != (2,):
                raise ConfigError(f"pole must be complex or a coordinate pair, got {p!r}")
            out.append(complex(arr[0], arr[1]))
    return np.asarray(out, dtype=complex)


def disk_rule(n_r: int = 64, n_theta: int = 128, poles: Sequence = (),
              rho: Optional[float] = None, n_patch: int = 32,
              tol: float = 1e-3) -> QuadratureRule:
    """Build the disk rule, optionally refined around pole points.

    Parameters
    ----------
    n_r, n_theta : int
        Background resolution (Gauss-Legendre radial x uniform angular).
    poles : sequence of complex or coordinate pairs
        Points (in disk coordinates) where integrands may blow up like
        ``1/|x - p|``.  Pairwise separation must exceed ``2 rho`` and each
        pole must be farther than ``rho`` from the boundary.
    rho : float, optional
        Patch radius; default ``RHO_FACTOR * min(separation, boundary gap)``.
    n_patch : int
        Radial node count of each pole patch.
    """
    require_integers(n_r=n_r, n_theta=n_theta, n_patch=n_patch)
    if n_r < _MIN_NR or n_theta < _MIN_NTHETA:
        raise ConfigError(f"resolution too small: n_r={n_r}, n_theta={n_theta}")
    pole_arr = _as_pole_list(poles)

    r, wr = _gauss_legendre(n_r, 0.0, 1.0)
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z_bg = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    w_bg = (wr * r)[:, None].repeat(n_theta, axis=1).ravel() * (2.0 * np.pi / n_theta)

    if pole_arr.size == 0:
        return QuadratureRule(
            nodes=np.stack([z_bg.real, z_bg.imag], axis=-1),
            weights=w_bg, poles=pole_arr, rho=None,
            n_r=n_r, n_theta=n_theta, n_patch=n_patch, tol=tol,
        )

    if n_patch < _MIN_NPATCH:
        raise ConfigError(f"n_patch must be at least {_MIN_NPATCH}, got {n_patch}")
    mods = np.abs(pole_arr)
    if np.any(mods >= 1.0):
        raise DomainError("quadrature poles must lie inside the unit disk")
    gap = float(np.min(1.0 - mods))
    if pole_arr.size > 1:
        diff = pole_arr[:, None] - pole_arr[None, :]
        sep = float(np.min(np.abs(diff[np.triu_indices(pole_arr.size, 1)])))
    else:
        sep = np.inf
    if rho is None:
        rho = RHO_FACTOR * min(sep, gap)
    rho = float(rho)
    if not 0.0 < rho < gap:
        raise PatchRadiusError(f"rho = {rho:g} reaches the boundary (gap {gap:g})")
    if sep <= 2.0 * rho:
        raise PoleSeparationError(
            f"pole separation {sep:g} must exceed 2 rho = {2 * rho:g}")

    # background: multiply by (1 - sum of windows), drop the dead nodes
    fac = np.ones_like(w_bg)
    b_chi = np.empty(pole_arr.size)
    for i, p in enumerate(pole_arr):
        chi = _window(np.abs(z_bg - p), rho)
        b_chi[i] = math.fsum(w_bg * chi)
        fac = fac - chi
    keep = fac > 1e-14
    nodes = [z_bg[keep]]
    weights = [w_bg[keep] * fac[keep]]

    # pole patches: graded polar rule over B(p, rho), windowed by chi,
    # rescaled so the patch contributes exactly what the background gave up
    s_split = math.sqrt(WINDOW_FLAT)
    n_half = max(4, n_patch // 2)
    s1, ws1 = _gauss_legendre(n_half, 0.0, s_split)
    s2, ws2 = _gauss_legendre(max(4, n_patch - n_half), s_split, 1.0)
    s = np.concatenate([s1, s2])
    ws = np.concatenate([ws1, ws2])
    rad = rho * s**2                       # grading r ~ rho (k/N)^2
    wrad = 2.0 * rho**2 * s**3 * ws        # r dr with dr = 2 rho s ds
    m_t = max(8, PATCH_ANGULAR_FACTOR * n_patch)
    phi = 2.0 * np.pi * np.arange(m_t) / m_t
    ring = np.exp(1j * phi)
    chi_r = _window(rad, rho)
    for i, p in enumerate(pole_arr):
        z_patch = (p + rad[:, None] * ring[None, :]).ravel()
        w_patch = (wrad * chi_r)[:, None].repeat(m_t, axis=1).ravel()
        w_patch = w_patch * (2.0 * np.pi / m_t)
        raw = math.fsum(w_patch)
        if raw <= 0.0:
            raise ConfigError("pole patch has no weight; increase n_patch")
        # Normalize so the patch contributes exactly the weight the windowed
        # background gave up.  A background too coarse to see the window at
        # all (b_chi = 0) degrades gracefully: the patch drops out.
        w_patch = w_patch * (b_chi[i] / raw)
        good = w_patch > 0.0
        nodes.append(z_patch[good])
        weights.append(w_patch[good])

    z_all = np.concatenate(nodes)
    w_all = np.concatenate(weights)
    # invariant guards: strict interior, clear of pole centers
    if np.any(np.abs(z_all) >= 1.0):
        raise DomainError("constructed node on or outside the boundary")
    for p in pole_arr:
        d = np.min(np.abs(z_all - p))
        if d < 1e-10:
            raise ConfigError(f"node within {d:.2e} of pole {p:.6g}")
    return QuadratureRule(
        nodes=np.stack([z_all.real, z_all.imag], axis=-1),
        weights=w_all, poles=pole_arr, rho=rho,
        n_r=n_r, n_theta=n_theta, n_patch=n_patch, tol=tol,
    )


@dataclass(frozen=True)
class IntegrationResult:
    """Value of an integral plus a self-consistency convergence flag."""

    value: float
    converged: bool
    coarse_value: float
    rel_change: float

    def __float__(self):
        return self.value


def _apply(rule: QuadratureRule, f) -> float:
    vals = np.asarray(f(rule.nodes), dtype=float)
    if vals.shape != (rule.node_count,):
        raise EvaluationError(
            f"integrand returned shape {vals.shape}, expected ({rule.node_count},)")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        raise EvaluationError(
            f"non-finite integrand value at node {i} = {tuple(rule.nodes[i])}")
    return math.fsum(rule.weights * vals)


def integrate(rule: QuadratureRule, f: Callable, check: bool = True) -> IntegrationResult:
    """Apply the rule to a vectorized integrand ``f((N, 2) nodes) -> (N,)``.

    The convergence flag compares against the same rule at half resolution;
    it is True when the relative change is below the rule's declared ``tol``.
    With ``check=False`` the flag is reported True without the comparison.
    """
    value = _apply(rule, f)
    if not check:
        return IntegrationResult(value, True, value, 0.0)
    coarse = _apply(rule.coarse(), f)
    scale = max(abs(value), abs(coarse), 1e-9)
    rel = abs(value - coarse) / scale
    return IntegrationResult(value, rel < rule.tol, coarse, rel)


def boundary_integrate(grid, f: Union[Callable, np.ndarray]) -> float:
    """Periodic trapezoid integral over a boundary grid.

    ``f`` is either per-node values or a vectorized callable on the nodes.
    """
    vals = np.asarray(f(grid.nodes) if callable(f) else f, dtype=float)
    if vals.shape != grid.weights.shape:
        raise EvaluationError(
            f"boundary data shape {vals.shape} does not match grid "
            f"({grid.weights.shape})")
    if not np.all(np.isfinite(vals)):
        i = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise EvaluationError(
            f"non-finite boundary value at node {i} = {tuple(grid.nodes[i])}")
    return math.fsum(grid.weights * vals)
