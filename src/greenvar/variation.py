"""Estimators of the domain variation ``d/dt G_Omega(t)(a, b)`` at ``t = 0``.

Four independent routes to the same number:

* ``boundary_variation``: the classical Hadamard form, the boundary
  integral of ``(dG_a/dn)(dG_b/dn) * delta_n``.  Conformally invariant,
  so the flat computation is also the value for any conformally flat
  metric on the same domain.
* ``volume_variation``: the interior integral of ``T^{ij} D_ij`` against
  the Riemannian volume, minus the source pairing ``v(b).alpha(b) +
  v(a).beta(a)``.  For a conformal metric the integrand does not depend on
  the conformal factor (``T`` is conformally invariant and trace-free) and
  is the Beltrami-differential form ``2 Re(A B dbar v)`` of Schiffer's
  interior variation, ``A = alpha_1 - i alpha_2``, ``B`` likewise.  It is
  evaluated on the disk in that closed form, ``2 Re(conj(g_a g_b) (dbar
  v)(f(z)) conj(f') / f')``.  The disk Green gradient is ``g_w =
  -conj(s_w) / 2 pi`` with ``s_w = 1/(z - w) + conj(w)/(1 - z conj(w)) =
  (1 - |w|^2)/((z - w)(1 - z conj(w)))``, so ``conj(g_a g_b) = C / ((z -
  w_a)(1 - z conj(w_a))(z - w_b)(1 - z conj(w_b)))`` with ``C = (1 -
  |w_a|^2)(1 - |w_b|^2) / 4 pi^2``; for a holomorphic (family) velocity
  ``dbar v = 0`` and the pairing term carries the value.  Each rule sums an
  integrand once, and that sum also runs the tensor route
  (:func:`volume_integrand`: EMT, strain and Christoffel symbols against the
  pulled-back metric ``f^* g``) at ``CROSS_CHECK_NODES`` nodes of the rule
  and raises :class:`EvaluationError` if the two disagree, so the paper's
  formula stays checked inside every estimate.
* ``flux_variation``: the boundary flux ``T^{ij} v_i nu_j`` against the
  induced boundary measure; equals the Hadamard integrand pointwise on
  the boundary, where both gradients are normal.  The density is
  conformally invariant and is evaluated on the unit circle as ``Re(conj(g_a
  g_b) v~ e) dtheta``, ``e = e^{i theta}``, with the disk velocity ``v~``:
  the boundary twin of the volume closed form.
* ``fd_oracle``: a central difference of Green values across the family,
  with the poles held fixed in ambient coordinates.

``triple_variation`` is the special case ``v = grad G(., c)``: the
boundary integral of the product of the three normal derivatives, fully
symmetric in ``(a, b, c)`` and negative by positivity of the kernel.

``variation_report`` bundles the four estimates with their pairwise
discrepancies; relative discrepancies use the larger magnitude with a
floor of ``REL_FLOOR``, so near-zero (Killing) cases compare absolutely.

The Green functions here are those of the flat Laplacian, which are the
Green functions of ``Delta_g`` only for a conformal ``g``: every route that
takes a metric raises :class:`ConfigError` for any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Optional

import numpy as np

from .conformal import (BOUNDARY_SLACK, DEFAULT_BOUNDARY_NODES, MAX_BOUNDARY_NODES,
                        ConformalMap, DomainFamily, _is_number, _newton_rows, as_map,
                        boundary_grid, normal_speed, pullback_metric, pullback_vector_field,
                        to_complex, to_points)
from .energy_momentum import PolarizedEMT
from .errors import (ConfigError, DomainError, EvaluationError, GreenvarError,
                     NonConformalMetricError)
from .greens import (GreenFunction, _check_pole, _check_separation, _disk_value,
                     _normal_derivative, _points)
from .quadrature import (BLOCK, N_PATCH, N_R, N_THETA, IntegrationResult, boundary_integrate,
                         disk_rule, integrate)
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
    "fd_oracles",
    "triple_variation",
    "variation_report",
    "boundary_nodes",
    "DEFAULT_BOUNDARY_NODES",
    "DEFAULT_FD_FACTOR",
    "TOL_MUTUAL",
    "TOL_VOLUME",
    "REL_FLOOR",
]

# Error target of the boundary resolution (see boundary_nodes).
BOUNDARY_RATE_TARGET = 1e-16

# FD oracle step as a fraction of the family's injectivity range.
DEFAULT_FD_FACTOR = 1e-4

# Default agreement tolerances: boundary/flux/fd are spectrally accurate,
# the volume route carries the |x - pole|^{-1} quadrature burden.
TOL_MUTUAL = 1e-5
TOL_VOLUME = 5e-3


def _is_tolerance(v) -> bool:
    """The rule of every tolerance: a positive finite real number, not a bool."""
    return _is_number(v) and 0.0 < v < math.inf


def _check_tolerances(**tols):
    for name, tol in tols.items():
        if not _is_tolerance(tol):
            raise ConfigError(f"{name} must be a positive finite real number, got {tol!r}")


# Denominator floor for relative discrepancies; below it the comparison
# degenerates to an absolute one (Killing fields drive every estimate
# to ~1e-12, where ratios of noise are meaningless).
REL_FLOOR = 1e-2

# The closed-form interior integrand is checked against the tensor route at
# this many nodes of every rule, spread over the node index range (so the
# pole patches, stored last, are included), to CROSS_CHECK_TOL of the node's
# |T| |D| vol.
CROSS_CHECK_NODES = 32
CROSS_CHECK_TOL = 1e-12


def _require_family(domain, route: str):
    """:class:`ConfigError` naming the type unless ``domain`` is a :class:`DomainFamily`:
    the rule of every route that reads a family's velocity, ``t_max`` or maps."""
    if not isinstance(domain, DomainFamily):
        raise ConfigError(f"{route} needs a DomainFamily, got {type(domain).__name__}")


def _require_conformal(metric: Optional[MetricField], x) -> bool:
    """True once the scale ``exp(2 phi)`` of ``metric`` is evaluated at ``x``: :class:`ConfigError`
    where not conformal, :class:`DegenerateMetricError` where not finite and positive."""
    if metric is not None:
        metric._scale(x)
    return True


def _velocity(family, velocity, disk: bool = False) -> VectorField:
    """The deformation velocity on ``f(D)``, or pulled back to the disk."""
    if velocity is not None:
        return pullback_vector_field(as_map(family), velocity) if disk else velocity
    _require_family(family, "a route without velocity=")
    return family.disk_velocity_field() if disk else family.velocity_field()


def boundary_nodes(fmap: ConformalMap, *poles) -> int:
    """The smallest power of two ``m >= DEFAULT_BOUNDARY_NODES`` with ``r^m <=
    BOUNDARY_RATE_TARGET``, at most ``MAX_BOUNDARY_NODES``: the trapezoid rule
    converges like ``r^m`` (Trefethen and Weideman, SIAM Rev. 2014), ``r =
    min(|s|, 1/|s|)`` for the singularity ``s`` of the integrand nearest the
    circle: a pole preimage, or a zero of ``f'`` (the integrand carries
    ``h/f'`` and ``1/|f'|``).  The poles are checked as by
    :meth:`GreenFunction.pole_preimages`, whose preimages the map holds.
    :class:`DomainError` names ``r`` where even the cap's rate is above ``TOL_MUTUAL``."""
    green = GreenFunction(fmap)
    r, source = max([(abs(w), "a pole preimage") for w in green.pole_preimages(*poles)]
                    + [(min(c, 1.0 / c), "a zero of f'")
                       for c in np.abs(green.map._critical_points)])
    rate = r**MAX_BOUNDARY_NODES
    if rate > TOL_MUTUAL:
        raise DomainError(f"the boundary rule cannot resolve r = {r:.6g} ({source}): "
                          f"rate r^{MAX_BOUNDARY_NODES} = {rate:.2g} > {TOL_MUTUAL:g}")
    m = DEFAULT_BOUNDARY_NODES
    while m < MAX_BOUNDARY_NODES and r**m > BOUNDARY_RATE_TARGET:
        m *= 2
    return m


def _boundary_grid(family, m: Optional[int], *poles):
    """The pole preimages (each pole inverted once) and the boundary grid on
    the base map, ``boundary_nodes`` nodes unless ``m`` is given."""
    ws = GreenFunction(family).pole_preimages(*poles)
    return ws, boundary_grid(family, m=m if m is not None else boundary_nodes(family, *poles))


def boundary_variation(family, a, b, m: Optional[int] = None,
                       velocity: Optional[VectorField] = None) -> float:
    """Hadamard boundary integral ``∮ (dG_a/dn)(dG_b/dn) delta_n dsigma``.

    ``delta_n = v . n`` is the outward normal speed of the deformation; the
    family velocity is ``h`` at the node preimages ``e^{i theta}``, so no
    node is inverted.  The value is metric-free: under a conformally flat
    metric the three boundary factors pick up conformal weights that cancel
    exactly.
    """
    ws, grid = _boundary_grid(family, m, a, b)
    pa, pb = (_normal_derivative(grid, w) for w in ws)
    if velocity is None and isinstance(family, DomainFamily):
        dn = np.einsum("mi,mi->m", to_points(family.h(grid.params)), grid.normals)
    else:
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


def _tensor_route(family, wa, wb, metric: Optional[MetricField],
                  velocity: Optional[VectorField]):
    """``z -> (T^{ij}, D_ij, sqrt(det g))`` at disk points, against ``f^* g``
    (``g`` flat by default), for the poles with preimages ``wa`` and ``wb``
    and the velocity pulled back by ``f``."""
    v = _velocity(family, velocity, disk=True)
    g = pullback_metric(as_map(family), metric if metric is not None else euclidean_metric(2))
    disk = PolarizedEMT.from_map(None, to_points(wa), to_points(wb), metric=g)
    return lambda z: (disk.emt_contra(z), strain_tensor(g, v, z), volume_density(g, z))


def _pole_product(z, wa, wb, p=None, t=None):
    """``(C, P)``, ``conj(g_a g_b) = C / P`` (module docstring); ``P`` into ``p``, scratch ``t``."""
    c = (1.0 - abs(wa) ** 2) * (1.0 - abs(wb) ** 2) / (4.0 * math.pi ** 2)
    p = np.subtract(z, wa, out=p)
    p *= np.subtract(1.0, np.multiply(z, np.conj(wa), out=t), out=t)
    p *= np.subtract(z, wb, out=t)
    p *= np.subtract(1.0, np.multiply(z, np.conj(wb), out=t), out=t)
    return c, p


def _complex_emt(z, wa, wb):
    """``conj(g_a g_b) = T_11 - i T_12`` of the flat disk EMT of the poles with
    preimages ``wa`` and ``wb``, ``C / P`` (:func:`_pole_product`): one complex
    division per point.  ``T`` is symmetric and trace-free, so ``T(u, n) =
    Re(conj(g_a g_b) u n)`` for complex-packed ``u`` and ``n``."""
    c, p = _pole_product(z, wa, wb)
    return c / p


def _beltrami_kernel(z, wa, wb, J, fp, out, tmp):
    """``2 Re(conj(g_a g_b) dbar v conj(f') / f')`` from the Jacobian ``J`` of ``v``
    at ``f(z)`` and ``fp = f'(z)``, with no complex division: ``2 C Re(dbar
    conj(P u^2)) / |P|^2``, ``u = f' / |f'|``, ``2 dbar = (J_11 - J_22) + i (J_21 + J_12)``:
    into ``out`` in that order, with ``tmp``, complex ``(3, n)`` and real ``(2, n)``, as scratch."""
    (p, t, u), (a, b) = (buf[:, :z.size] for buf in tmp)
    c, p = _pole_product(z, wa, wb, p, t)
    np.multiply(fp, np.divide(1.0, np.abs(fp, out=a), out=a), out=u)
    w = np.multiply(np.multiply(p, u, out=t), u, out=t)
    np.multiply(np.subtract(J[:, 0, 0], J[:, 1, 1], out=a), w.real, out=a)
    a += np.multiply(np.add(J[:, 1, 0], J[:, 0, 1], out=b), w.imag, out=b)
    np.multiply(c, a, out=out)
    return np.divide(out, np.add(np.square(p.real, out=a), np.square(p.imag, out=b), out=a), out)


def _contract(T, D, vol):
    return np.einsum("...ij,...ij->...", T, D) * vol


def volume_integrand(family, a, b, metric: Optional[MetricField] = None,
                     velocity: Optional[VectorField] = None):
    """The interior integrand ``T^{ij} D_ij sqrt(det g)`` on disk points.

    ``T^{ij} D_ij vol_g`` is a density, so it is evaluated on the disk
    against the pulled-back metric ``f^* g``, with the disk Green gradients
    and the velocity pulled back by ``f`` (the family velocity by default):
    no node is mapped to ``f(z)`` and inverted again, and the factor
    ``|f'|^2`` is inside ``vol_{f^* g}``.  Returns ``(N, 2) -> (N,)``.
    This is the tensor route; :func:`volume_variation` evaluates the same
    integrand in closed form and checks it against this one.
    """
    wa, wb = GreenFunction(family).pole_preimages(a, b)
    pieces = _tensor_route(family, wa, wb, metric, velocity)
    return lambda z: _contract(*pieces(z))


def _images(fmap: ConformalMap, points):
    """``(z, f(z))`` per block of ``BLOCK`` disk points: ``z`` complex, ``f(z)`` real points."""
    z = np.ascontiguousarray(points, dtype=float).view(np.complex128)[:, 0]
    for lo in range(0, z.size, BLOCK):
        yield z[lo:lo + BLOCK], fmap(z[lo:lo + BLOCK]).view(np.float64).reshape(-1, 2)


def _closed_form_integrand(family, fmap: ConformalMap, rule,
                           metric: Optional[MetricField],
                           velocity: Optional[VectorField]):
    """``2 Re(A B (dbar v)(f(z)) conj(f'(z)) / f'(z))`` at disk points, by
    :func:`_beltrami_kernel` with the poles of ``rule``; 0 for the (holomorphic)
    family velocity.  It reads no metric value: the closed form has no conformal
    factor.  A stream (see :func:`integrate`): each call yields the values in blocks
    of ``BLOCK``, written into one reused buffer.  After the last block it evaluates
    :func:`_tensor_route` (against ``metric``) at ``CROSS_CHECK_NODES`` nodes and raises
    :class:`EvaluationError` where the two disagree, reading the values it yielded
    there; :func:`volume_variation` sums it once per rule."""
    wa, wb = rule.poles
    pieces = _tensor_route(family, wa, wb, metric, velocity)

    def integrand(points):
        n = len(points)
        idx = np.unique(np.linspace(0, n - 1, CROSS_CHECK_NODES).astype(int))
        got, out = np.empty(idx.size), np.zeros(min(n, BLOCK))     # 0 for the family's
        if velocity is not None:
            images = _images(fmap, points)
            tmp = np.empty((3, out.size), complex), np.empty((2, out.size))
        for lo in range(0, n, BLOCK):
            vals = out[:min(BLOCK, n - lo)]
            if velocity is not None:
                zb, x = next(images)
                _beltrami_kernel(zb, wa, wb, velocity.jacobian(x), fmap.derivative(zb),
                                 vals, tmp)
            at = slice(*np.searchsorted(idx, (lo, lo + vals.size)))
            got[at] = vals[idx[at] - lo]
            yield vals
        T, D, vol = pieces(points[idx])
        ref = _contract(T, D, vol)
        scale = np.linalg.norm(T, axis=(-2, -1)) * np.linalg.norm(D, axis=(-2, -1)) * vol
        bad = np.flatnonzero(np.isfinite(got) & ~(np.abs(got - ref) <= CROSS_CHECK_TOL * scale))
        if bad.size:
            i = int(idx[bad[0]])
            raise EvaluationError(
                f"closed-form interior integrand {got[bad[0]]:.17g} disagrees with the "
                f"tensor route {ref[bad[0]]:.17g} at node {i} = {tuple(points[i])}")

    return integrand


def volume_variation(family, a, b, metric: Optional[MetricField] = None,
                     velocity: Optional[VectorField] = None,
                     n_r: int = N_R.default, n_theta: int = N_THETA.default,
                     n_patch: int = N_PATCH.default, check: bool = True) -> VolumeEstimate:
    """Interior estimate ``∫ T^{ij} D_ij vol_g  -  source_pairing(v)``.

    The integral is taken on the disk, in the closed form ``2 Re(A B dbar
    v)`` (see the module docstring), with a rule at the given resolution
    whose pole patches sit at the preimages of ``a`` and ``b``.  Before any
    integrand call, ``metric`` must be conformal (:class:`ConfigError`
    otherwise) at every image node of the rule and, with ``check``, of its
    coarse twin: checked once per rule, metric and map.  Each rule sums the
    integrand of a family, metric and velocity (the objects, held weakly)
    once, checked against the tensor route :func:`volume_integrand`, and holds
    the sum.  The pairing term ``v(b) . alpha(b) + v(a) . beta(a)`` is exact,
    never quadratured: the velocity at the two poles against the Green
    gradients at their preimages.  The family velocity at a pole is ``h`` at
    its preimage; a given ``velocity`` is evaluated at the ambient pole.
    """
    fmap = as_map(family)
    v = _velocity(family, velocity)
    green = GreenFunction(fmap)
    pa, pb = _points(a, b)
    wa, wb = green.pole_preimages(pa, pb)
    rule = disk_rule(n_r, n_theta, poles=[wa, wb], n_patch=n_patch)
    if metric is not None:      # conformal at every image node, checked once per rule
        for r in (rule, rule.coarse()) if check else (rule,):
            r.recall("metric", (metric, fmap), lambda: all(
                _require_conformal(metric, x) for _, x in _images(fmap, r.nodes)))
    integrand = _closed_form_integrand(family, fmap, rule, metric, velocity)
    quad = integrate(rule, integrand, check=check, key=(family, metric, velocity))
    # numpy scalars, so the value is PolarizedEMT.source_pairing's to the bit
    va, vb = (v(to_points(p)) if velocity is not None else to_points(family.h(w))
              for p, w in ((pa, wa), (pb, wb)))
    pairing = float(np.dot(vb, to_points(green.gradient_z(wb, wa)))
                    + np.dot(va, to_points(green.gradient_z(wa, wb))))
    return VolumeEstimate(value=float(quad) - pairing, pairing=pairing,
                          quadrature=quad)


def flux_variation(family, a, b, m: Optional[int] = None,
                   metric: Optional[MetricField] = None,
                   velocity: Optional[VectorField] = None) -> float:
    """Boundary flux ``∮ T^{ij} v_i nu_j dsigma_g``.

    ``nu`` is the outward unit conormal of ``g`` and ``dsigma_g`` the
    induced length element.  The density is conformally invariant, so it is
    evaluated on the unit circle as ``Re(conj(g_a g_b) v~ e) dtheta`` at ``e
    = e^{i theta}``: the :func:`_complex_emt` kernel, the disk velocity ``v~``
    (``h / f'`` for the family) and the flat outward normal ``e``.  The
    arclength weight ``2 pi / m`` is ``grid.weights / grid.speed``; no node
    is inverted.  ``metric`` is only validated, at the grid nodes: it must
    be conformal (:class:`ConfigError` otherwise).
    """
    (wa, wb), grid = _boundary_grid(family, m, a, b)
    v = _velocity(family, velocity, disk=True)
    _require_conformal(metric, grid.nodes)
    e = grid.params
    vals = np.real(_complex_emt(e, wa, wb) * to_complex(v(to_points(e))) * e)
    return boundary_integrate(grid, vals / grid.speed)


def fd_oracle(family: DomainFamily, a, b, dt: Optional[float] = None) -> float:
    """Central difference ``(G_{Omega(dt)} - G_{Omega(-dt)}) / (2 dt)``.

    The poles stay fixed in the ambient plane while the domain moves;
    they must remain inside both perturbed domains.  O(dt^2) accurate;
    the default step is ``DEFAULT_FD_FACTOR * t_max``.  See :func:`fd_oracles`.
    """
    _require_family(family, "fd_oracle")
    return fd_oracles(family, a, b, [DEFAULT_FD_FACTOR * family.t_max if dt is None else dt])[0]


def _is_fd_step(dt, t_max: float) -> bool:
    return _is_number(dt) and 0.0 < dt <= t_max


def _fd_step(dt, t_max: float) -> float:
    """``dt`` as a double: :class:`ConfigError` naming it unless it is a real number
    (:func:`~greenvar.conformal._is_number`) in ``(0, t_max]`` (:func:`_is_fd_step`)."""
    if not _is_fd_step(dt, t_max):
        raise ConfigError(f"fd step {dt!r} must be a real number in (0, t_max={t_max:g}]")
    return float(dt)


def fd_oracles(family: DomainFamily, a, b, steps) -> list:
    """:func:`fd_oracle` at each of ``steps``: ``G_D(z_a, z_b)`` for the preimages
    under ``f + t h``, ``t = +-dt``, every ``(t, pole)`` row solved by one
    :func:`~greenvar.conformal._newton_rows` call with the fallback of
    :meth:`ConformalMap.inverse`, so the values and errors are those of one map
    per ``t``, bit for bit, with no map built: steps in order, ``+dt`` first, ``a``
    before ``b``."""
    _require_family(family, "fd_oracles")
    pts = _points(a, b)
    GreenFunction(family.base).pole_preimages(*pts)
    steps = [_fd_step(dt, family.t_max) for dt in steps]
    ts = np.repeat([t for dt in steps for t in (dt, -dt)], 2)
    coeffs = family._coeffs_at(ts)
    x = np.tile(np.array(pts), len(steps) * 2)[:, None]
    with np.errstate(all="ignore"):
        z = x / coeffs[:, :1]
        if coeffs.shape[1] > 1:
            z = _newton_rows(coeffs, x, z)
    z, solved = z[:, 0], np.abs(z[:, 0]) <= 1.0 + BOUNDARY_SLACK
    g = []
    for r in range(0, len(ts), 2):
        za, zb = (z[k] if solved[k] else ConformalMap._least_root(coeffs[k], x[k, 0])
                  for k in (r, r + 1))
        _check_pole(zb)
        _check_separation(za, zb)
        g.append(float(_disk_value(za, zb)))
    return [(gp - gm) / (2.0 * dt) for dt, gp, gm in zip(steps, g[::2], g[1::2])]


def triple_variation(family, a, b, c, m: Optional[int] = None) -> float:
    """Fully symmetric variation ``∮ (dG_a/dn)(dG_b/dn)(dG_c/dn) dsigma``.

    This is the Hadamard integral for the deformation ``v = grad G(., c)``,
    whose normal speed on the boundary is the third normal derivative.
    Invariant under all six orderings of ``(a, b, c)``; strictly negative,
    since each factor is negative where the kernel is positive.
    """
    ws, grid = _boundary_grid(family, m, a, b, c)
    pa, pb, pc = (_normal_derivative(grid, w) for w in ws)
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
        _check_tolerances(tol_mutual=self.tol_mutual, tol_volume=self.tol_volume)

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
                     n_r: int = N_R.default, n_theta: int = N_THETA.default,
                     n_patch: int = N_PATCH.default, dt: Optional[float] = None,
                     metric: Optional[MetricField] = None,
                     tol_mutual: float = TOL_MUTUAL,
                     tol_volume: float = TOL_VOLUME,
                     strict: bool = True) -> VariationReport:
    """Run all four estimators and reconcile them.

    With ``strict=False`` an estimator failing with a package error is
    recorded as skipped instead of raising; the report then cannot pass.
    The FD oracle is evaluated at ``dt`` and ``dt/2`` and the Richardson
    gap recorded, as a self-estimate of its own discretization error.
    ``m`` defaults to :func:`boundary_nodes` of the two poles.  Before any
    estimator runs, whatever ``strict``, a domain that is not a family, a
    tolerance that is not a positive finite real number and a metric not
    conformal at the poles raise :class:`ConfigError`, coincident poles
    :class:`CoincidentPoleError` and a pole outside the open domain
    :class:`DomainError` (both checked by :meth:`GreenFunction.pole_preimages`):
    bad input is not an estimator failure, nor is a metric an estimator finds
    not conformal (:class:`~greenvar.errors.NonConformalMetricError`).
    """
    _require_family(family, "variation_report")
    _check_tolerances(tol_mutual=tol_mutual, tol_volume=tol_volume)
    pts = _points(a, b)
    GreenFunction(family).pole_preimages(*pts)
    _require_conformal(metric, to_points(pts))
    m = boundary_nodes(family, a, b) if m is None else m
    dt = DEFAULT_FD_FACTOR * family.t_max if dt is None else dt
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
            if strict or isinstance(exc, NonConformalMetricError):
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
        full, half = fd_oracles(family, a, b, [dt, _fd_step(dt, family.t_max) / 2.0])
        params["fd_richardson_gap"] = abs(full - half)
        return full

    attempt("fd_oracle", run_fd)
    if skips:
        params["skips"] = skips
    return VariationReport(estimates=estimates, params=params,
                           tol_mutual=tol_mutual, tol_volume=tol_volume)
