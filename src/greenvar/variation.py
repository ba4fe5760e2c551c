"""Estimators of the domain variation ``d/dt G_Omega(t)(a, b)`` at ``t = 0``.

Four independent routes to the same number:

* ``boundary_variation``: the classical Hadamard form, the boundary
  integral of ``(dG_a/dn)(dG_b/dn) * delta_n``.  Conformally invariant,
  so the flat computation is also the value for any conformally flat
  metric on the same domain.
* ``volume_variation``: the interior integral of ``T^{ij} D_ij`` against
  the Riemannian volume, minus the source pairing ``v(b).alpha(b) +
  v(a).beta(a)``.  The integrand is a density, so it is evaluated on the
  disk against the pulled-back metric ``f^* g`` (conformal metrics pull
  back to conformal metrics, with closed forms).  In two dimensions the
  integrand vanishes pointwise whenever the deformation velocity is
  holomorphic and the metric is conformally flat (``T`` is trace-free and
  ``D`` is then a multiple of ``g``), so the pairing term carries the
  value; the quadrature still certifies the strain/Christoffel pipeline,
  since any error there breaks the cancellation.
* ``flux_variation``: the boundary flux ``T^{ij} v_i nu_j`` against the
  induced boundary measure; equals the Hadamard integrand pointwise on
  the boundary, where both gradients are normal.
* ``fd_oracle``: a central difference of Green values across the family,
  with the poles held fixed in ambient coordinates.

``triple_variation`` is the special case ``v = grad G(., c)``: the
boundary integral of the product of the three normal derivatives, fully
symmetric in ``(a, b, c)`` and negative by positivity of the kernel.

``variation_report`` bundles the four estimates with their pairwise
discrepancies; relative discrepancies use the larger magnitude with a
floor of ``REL_FLOOR``, so near-zero (Killing) cases compare absolutely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Optional

import numpy as np

from .conformal import (ConformalMap, DomainFamily, boundary_grid, normal_speed,
                        pullback_metric, pullback_vector_field, to_complex,
                        to_points)
from .energy_momentum import PolarizedEMT, source_pairing
from .errors import CoincidentPoleError, ConfigError, GreenvarError
from .greens import GreenFunction, interior_rule
from .quadrature import IntegrationResult, boundary_integrate, integrate
from .tensors import (MetricField, VectorField, euclidean_metric, strain_tensor,
                      volume_density)

__all__ = [
    "VolumeEstimate",
    "VariationReport",
    "boundary_variation",
    "volume_variation",
    "volume_integrand",
    "flux_variation",
    "fd_oracle",
    "triple_variation",
    "variation_report",
    "boundary_nodes",
    "DEFAULT_BOUNDARY_NODES",
    "DEFAULT_FD_FACTOR",
    "TOL_MUTUAL",
    "TOL_VOLUME",
    "REL_FLOOR",
]

# Range and error target of the boundary resolution (see boundary_nodes).
DEFAULT_BOUNDARY_NODES = 256
MAX_BOUNDARY_NODES = 2**14
BOUNDARY_RATE_TARGET = 1e-16

# FD oracle step as a fraction of the family's injectivity range.
DEFAULT_FD_FACTOR = 1e-4

# Default agreement tolerances: boundary/flux/fd are spectrally accurate,
# the volume route carries the |x - pole|^{-1} quadrature burden.
TOL_MUTUAL = 1e-5
TOL_VOLUME = 5e-3

# Denominator floor for relative discrepancies; below it the comparison
# degenerates to an absolute one (Killing fields drive every estimate
# to ~1e-12, where ratios of noise are meaningless).
REL_FLOOR = 1e-2


def _base_map(family) -> ConformalMap:
    if family is None:
        return ConformalMap.identity()
    if isinstance(family, DomainFamily):
        return family.map_at(0.0)
    if isinstance(family, ConformalMap):
        return family
    raise ConfigError(f"expected DomainFamily or ConformalMap, got {type(family).__name__}")


def _check_distinct(*points):
    pts = [np.asarray(p, dtype=float).reshape(2) for p in points]
    for (i, p), (j, q) in combinations(enumerate(pts), 2):
        if np.hypot(*(p - q)) < 1e-12:
            raise CoincidentPoleError(f"coincident poles (arguments {i} and {j})")


def _velocity(family, velocity, disk: bool = False) -> VectorField:
    """The deformation velocity on ``f(D)``, or pulled back to the disk."""
    if velocity is not None:
        return pullback_vector_field(_base_map(family), velocity) if disk else velocity
    if not isinstance(family, DomainFamily):
        raise ConfigError("a bare ConformalMap carries no velocity; pass velocity=")
    return family.disk_velocity_field() if disk else family.velocity_field()


def boundary_nodes(fmap: ConformalMap, *poles) -> int:
    """The smallest power of two ``m >= DEFAULT_BOUNDARY_NODES`` with ``r^m <=
    BOUNDARY_RATE_TARGET``, at most ``MAX_BOUNDARY_NODES``: the trapezoid rule
    converges like ``r^m`` (Trefethen and Weideman, SIAM Rev. 2014), ``r =
    min(|s|, 1/|s|)`` for the singularity ``s`` of the integrand nearest the
    circle: a pole preimage, or a zero of ``f'`` (the integrand carries
    ``h/f'`` and ``1/|f'|``)."""
    crit = np.abs(np.roots(fmap.coeffs[::-1] * np.arange(fmap.degree, 0, -1)))
    r = max([abs(fmap.inverse(to_complex(np.asarray(p, float)))) for p in poles]
            + [min(c, 1.0 / c) for c in crit])
    m = DEFAULT_BOUNDARY_NODES
    while m < MAX_BOUNDARY_NODES and r**m > BOUNDARY_RATE_TARGET:
        m *= 2
    return m


def _normal_derivatives(family, m: Optional[int], *poles):
    """The boundary grid (``boundary_nodes`` nodes unless ``m`` is given) and
    the outward normal derivative of ``G(., p)`` at its nodes, per pole."""
    _check_distinct(*poles)
    fmap = _base_map(family)
    grid = boundary_grid(fmap, m=m if m is not None else boundary_nodes(fmap, *poles))
    green = GreenFunction(fmap)
    return grid, [green.normal_derivative(grid, p) for p in poles]


def boundary_variation(family, a, b, m: Optional[int] = None,
                       velocity: Optional[VectorField] = None) -> float:
    """Hadamard boundary integral ``∮ (dG_a/dn)(dG_b/dn) delta_n dsigma``.

    ``delta_n = v . n`` is the outward normal speed of the deformation.
    The value is metric-free: under a conformally flat metric the three
    boundary factors pick up conformal weights that cancel exactly.
    """
    grid, (pa, pb) = _normal_derivatives(family, m, a, b)
    dn = normal_speed(grid, _velocity(family, velocity))
    return boundary_integrate(grid, pa * pb * dn)


@dataclass(frozen=True)
class VolumeEstimate:
    """Volume-route estimate with its quadrature provenance.

    ``value = float(quadrature) - pairing``; the non-convergence flag of
    the interior quadrature rides along instead of being swallowed.
    """

    value: float
    pairing: float
    quadrature: IntegrationResult

    @property
    def converged(self) -> bool:
        return self.quadrature.converged

    def __float__(self) -> float:
        return self.value


def volume_integrand(family, a, b, metric: Optional[MetricField] = None,
                     velocity: Optional[VectorField] = None):
    """The interior integrand ``T^{ij} D_ij sqrt(det g)`` on disk points.

    ``T^{ij} D_ij vol_g`` is a density, so it is evaluated on the disk
    against the pulled-back metric ``f^* g``, with the disk Green gradients
    and the velocity pulled back by ``f`` (the family velocity by default):
    no node is mapped to ``f(z)`` and inverted again, and the factor
    ``|f'|^2`` is inside ``vol_{f^* g}``.  Returns ``(N, 2) -> (N,)``.
    """
    fmap = _base_map(family)
    v = _velocity(family, velocity, disk=True)
    disk = PolarizedEMT.from_map(
        None, *(to_points(fmap.inverse(to_complex(np.asarray(p, float)))) for p in (a, b)),
        metric=pullback_metric(fmap, metric if metric is not None else euclidean_metric(2)))

    def integrand(z):
        T = disk.emt_contra(z)
        D = strain_tensor(disk.metric, v, z)
        return np.einsum("...ij,...ij->...", T, D) * volume_density(disk.metric, z)

    return integrand


def volume_variation(family, a, b, metric: Optional[MetricField] = None,
                     velocity: Optional[VectorField] = None,
                     n_r: int = 64, n_theta: int = 128, n_patch: int = 32,
                     check: bool = True) -> VolumeEstimate:
    """Interior estimate ``∫ T^{ij} D_ij vol_g  -  source_pairing(v)``.

    The integral is taken on the disk (see :func:`volume_integrand`), with
    a rule at the given resolution whose pole patches sit at the preimages
    of ``a`` and ``b``.  The pairing term is evaluated exactly at the two
    poles, in ambient coordinates, never quadratured.
    """
    _check_distinct(a, b)
    fmap = _base_map(family)
    v = _velocity(family, velocity)
    integrand = volume_integrand(family, a, b, metric=metric, velocity=velocity)
    rule = interior_rule(fmap, poles=(a, b), n_r=n_r, n_theta=n_theta, n_patch=n_patch)
    quad = integrate(rule, integrand, check=check)
    pairing = source_pairing(fmap, v, a, b)
    return VolumeEstimate(value=float(quad) - pairing, pairing=pairing,
                          quadrature=quad)


def flux_variation(family, a, b, m: Optional[int] = None,
                   metric: Optional[MetricField] = None,
                   velocity: Optional[VectorField] = None) -> float:
    """Boundary flux ``∮ T^{ij} v_i nu_j dsigma_g``.

    ``nu`` is the outward unit conormal of ``g`` and ``dsigma_g`` the
    induced length element; for the flat metric both reduce to the
    Euclidean normal and arclength.
    """
    _check_distinct(a, b)
    fmap = _base_map(family)
    grid = boundary_grid(fmap, m=m if m is not None else boundary_nodes(fmap, a, b))
    emt = PolarizedEMT.from_map(fmap, a, b, metric=metric)
    met = emt.metric
    v = _velocity(family, velocity)

    x = grid.nodes
    T = emt.emt_contra(x)
    g = met(x)
    ginv = met.inverse(x)
    v_low = np.einsum("mij,mj->mi", g, v(x))
    n = grid.normals
    # unit conormal: the flat normal covector, normalized in g^{-1}
    nu = n / np.sqrt(np.einsum("mij,mi,mj->m", ginv, n, n))[:, None]
    # induced length element: g-length of the flat unit tangent
    t = np.stack([-n[:, 1], n[:, 0]], axis=-1)
    stretch = np.sqrt(np.einsum("mij,mi,mj->m", g, t, t))
    vals = np.einsum("mij,mi,mj->m", T, v_low, nu) * stretch
    return boundary_integrate(grid, vals)


def fd_oracle(family: DomainFamily, a, b, dt: Optional[float] = None) -> float:
    """Central difference ``(G_{Omega(dt)} - G_{Omega(-dt)}) / (2 dt)``.

    The poles stay fixed in the ambient plane while the domain moves;
    they must remain inside both perturbed domains.  O(dt^2) accurate;
    the default step is ``DEFAULT_FD_FACTOR * t_max``.
    """
    _check_distinct(a, b)
    if not isinstance(family, DomainFamily):
        raise ConfigError("fd_oracle needs a DomainFamily, not a bare map")
    if dt is None:
        dt = DEFAULT_FD_FACTOR * family.t_max
    dt = float(dt)
    if not 0.0 < dt <= family.t_max:
        raise ConfigError(f"fd step {dt:g} outside (0, t_max={family.t_max:g}]")
    gp = GreenFunction(family.map_at(+dt)).value(a, b)
    gm = GreenFunction(family.map_at(-dt)).value(a, b)
    return (gp - gm) / (2.0 * dt)


def triple_variation(family, a, b, c, m: Optional[int] = None) -> float:
    """Fully symmetric variation ``∮ (dG_a/dn)(dG_b/dn)(dG_c/dn) dsigma``.

    This is the Hadamard integral for the deformation ``v = grad G(., c)``,
    whose normal speed on the boundary is the third normal derivative.
    Invariant under all six orderings of ``(a, b, c)``; strictly negative,
    since each factor is negative where the kernel is positive.
    """
    grid, (pa, pb, pc) = _normal_derivatives(family, m, a, b, c)
    return boundary_integrate(grid, pa * pb * pc)


def _rel_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), REL_FLOOR)


@dataclass(frozen=True)
class VariationReport:
    """Four estimates plus reconciliation, computed fresh from the values.

    ``estimates`` maps ``boundary / volume / flux / fd_oracle`` to floats
    (or ``None`` when skipped; the reason then sits in ``params["skips"]``).
    Discrepancies and the pass verdict are properties derived from the
    estimates on every access, so they cannot drift out of sync.
    """

    estimates: Dict[str, Optional[float]]
    params: Dict[str, object] = field(default_factory=dict)
    tol_mutual: float = TOL_MUTUAL
    tol_volume: float = TOL_VOLUME

    _NAMES = ("boundary", "volume", "flux", "fd_oracle")

    def __post_init__(self):
        missing = set(self._NAMES) - set(self.estimates)
        if missing:
            raise ConfigError(f"report missing estimates: {sorted(missing)}")

    @property
    def discrepancies(self) -> Dict[str, object]:
        present = {k: v for k, v in self.estimates.items() if v is not None}
        abs_gaps, rel_gaps = {}, {}
        for (na, va), (nb, vb) in combinations(present.items(), 2):
            key = f"{na}_vs_{nb}"
            abs_gaps[key] = abs(va - vb)
            rel_gaps[key] = _rel_gap(va, vb)
        return {
            "abs": abs_gaps,
            "rel": rel_gaps,
            "max_rel": max(rel_gaps.values(), default=math.nan),
        }

    @property
    def passes(self) -> bool:
        est = self.estimates
        if any(est[name] is None for name in self._NAMES):
            return False
        rel = self.discrepancies["rel"]
        for key, gap in rel.items():
            tol = self.tol_volume if "volume" in key else self.tol_mutual
            if not gap < tol:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "estimates": dict(self.estimates),
            "discrepancies": self.discrepancies,
            "params": dict(self.params),
            "passes": self.passes,
        }


def variation_report(family: DomainFamily, a, b, m: Optional[int] = None,
                     n_r: int = 64, n_theta: int = 128, n_patch: int = 32,
                     dt: Optional[float] = None,
                     metric: Optional[MetricField] = None,
                     tol_mutual: float = TOL_MUTUAL,
                     tol_volume: float = TOL_VOLUME,
                     strict: bool = True) -> VariationReport:
    """Run all four estimators and reconcile them.

    With ``strict=False`` an estimator failing with a package error is
    recorded as skipped instead of raising; the report then cannot pass.
    The FD oracle is evaluated at ``dt`` and ``dt/2`` and the Richardson
    gap recorded, as a self-estimate of its own discretization error.
    ``m`` defaults to :func:`boundary_nodes` of the two poles.
    """
    if m is None:
        m = boundary_nodes(_base_map(family), a, b)
    if dt is None:
        dt = DEFAULT_FD_FACTOR * family.t_max
    estimates: Dict[str, Optional[float]] = {}
    params: Dict[str, object] = {
        "m_boundary": m, "n_r": n_r, "n_theta": n_theta, "n_patch": n_patch,
        "fd_dt": dt,
    }
    skips: Dict[str, str] = {}

    def attempt(name, thunk):
        try:
            estimates[name] = float(thunk())
        except GreenvarError as exc:
            if strict:
                raise
            estimates[name] = None
            skips[name] = f"{type(exc).__name__}: {exc}"

    attempt("boundary", lambda: boundary_variation(family, a, b, m=m))

    def run_volume():
        vol = volume_variation(family, a, b, metric=metric,
                               n_r=n_r, n_theta=n_theta, n_patch=n_patch)
        params["volume_pairing"] = vol.pairing
        params["volume_converged"] = vol.converged
        params["volume_rel_change"] = vol.quadrature.rel_change
        return vol

    attempt("volume", run_volume)
    attempt("flux", lambda: flux_variation(family, a, b, m=m, metric=metric))

    def run_fd():
        full = fd_oracle(family, a, b, dt=dt)
        half = fd_oracle(family, a, b, dt=dt / 2.0)
        params["fd_richardson_gap"] = abs(full - half)
        return full

    attempt("fd_oracle", run_fd)
    if skips:
        params["skips"] = skips
    return VariationReport(estimates=estimates, params=params,
                           tol_mutual=tol_mutual, tol_volume=tol_volume)
