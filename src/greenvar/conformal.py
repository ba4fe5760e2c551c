"""Planar domains as conformal polynomial images of the unit disk.

A domain is ``Omega = f(D)`` where ``f(z) = c_1 z + ... + c_K z^K`` is
injective on the closed disk with ``f(0) = 0``.  A one-parameter family
``f_t = f + t h`` (``h`` another polynomial with ``h(0) = 0``) moves the
domain; its velocity field at ``t = 0`` is ``v(x) = h(f^{-1}(x))``.

Points are real pairs ``(x^1, x^2)``; internally everything is complex
arithmetic with ``x = x^1 + i x^2``.

Densities on ``Omega`` are integrated on the disk, by pullback through
``f``: :func:`pullback_metric`, :func:`pullback_vector_field` and
:meth:`DomainFamily.disk_velocity_field` evaluate at disk points directly,
with no inversion of ``f``.  Only a conformal metric pulls back: ``f^*
(exp(2 phi) delta)`` is conformal again, and a matrix-built metric enters
through its conformal factor, read off by value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    InjectivityError,
)
from .quadrature import Count, held
from .tensors import MetricField, VectorField

__all__ = [
    "ConformalMap",
    "DomainFamily",
    "BoundaryGrid",
    "as_map",
    "boundary_grid",
    "normal_speed",
    "enclosed_area",
    "pullback_metric",
    "pullback_vector_field",
    "to_complex",
    "to_points",
    "dilation_family",
    "rotation_family",
    "quadratic_bump_family",
    "cubic_mix_family",
    "BUILTIN_FAMILIES",
]

# A boundary node where |f'| <= GATE_FLOOR makes the parametrization degenerate;
# a point within BOUNDARY_SLACK outside the closed disk counts as on it.
GATE_FLOOR = 1e-9
BOUNDARY_SLACK = 1e-9

NEWTON_MAXITER = 50
NEWTON_TOL = 1e-14

# A map holds its last RECENT_POLES pole preimages (a config's three poles,
# or a few pole sets), its last RECENT_GRIDS boundary grids (`converge` asks
# for two at each m, `triple` seven times at one m), and on each grid the
# normal derivatives of its last RECENT_TRACES poles (a triple's three, the
# most any route or command reads on one grid).
RECENT_POLES = 8
RECENT_GRIDS = 2
RECENT_TRACES = 3

# An omitted t_max is 0.5 min(t*, T_MAX_CAP) (DomainFamily).  t* reads a root within
# CROSSING_TOL of the circle as on it and a t within CROSSING_TOL |t| of the real line as
# real; a declared t_max stays below (1 - CROSSING_TOL) t*, for a double root's rounding.
T_MAX_CAP = 4.0
CROSSING_TOL = 1e-6

# Most coefficients of a map or perturbation, and largest conformal_phi exponent:
# 4x the largest in use (16); t* solves one crossing polynomial of degree <= 126.
MAX_DEGREE = 64


def to_complex(points):
    """Pack real points ``(..., 2)`` into complex numbers."""
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != 2:
        raise DomainError(f"expected planar points, got shape {p.shape}")
    return p[..., 0] + 1j * p[..., 1]


def to_points(z):
    """Unpack complex numbers into real points ``(..., 2)``, a C-ordered float copy."""
    z = np.asarray(z, dtype=complex)
    return np.array(z, order="C", ndmin=1).view(np.float64).reshape(z.shape + (2,))


def _multiplication_matrix(w):
    """Real ``(..., 2, 2)`` matrices of ``u -> w u`` on complex-packed vectors."""
    M = np.empty(np.shape(w) + (2, 2))
    M[..., 0, 0] = w.real
    M[..., 0, 1] = -w.imag
    M[..., 1, 0] = w.imag
    M[..., 1, 1] = w.real
    return M


def _holomorphic_field(preimage, value, slope, name: str) -> VectorField:
    """The field ``value(z)``, ``z = preimage(points)``, whose Jacobian is
    multiplication by the complex derivative ``slope(z)``."""
    return VectorField(2, lambda p: to_points(value(preimage(p))),
                       lambda p: _multiplication_matrix(slope(preimage(p))), name=name)


def _horner(coeffs, z):
    """Ascending-coefficient polynomial at complex ``z``; 0 when empty.  The
    coefficients run along the first axis, each broadcast against ``z``: in place
    for 1-d ones on an array ``z`` (numpy rounds 0-d complex products apart)."""
    if coeffs.size == 0:
        return np.zeros_like(z)
    acc = np.full_like(z, coeffs[-1])
    in_place = coeffs.ndim == 1 and acc.ndim
    for c in coeffs[-2::-1]:
        acc = np.add(np.multiply(acc, z, out=acc), c, out=acc) if in_place else acc * z + c
    return acc


def _as_coeffs(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.array(coeffs, dtype=complex))
    if c.ndim != 1 or not 0 < c.size <= MAX_DEGREE:
        raise ConfigError(f"coefficient list must be 1-d, of 1 to {MAX_DEGREE} entries")
    return c


def _derivative(coeffs) -> np.ndarray:
    """``d/dz sum_k a_k z^k`` from ``(a_1, a_2, ...)`` on the last axis."""
    return coeffs * np.arange(1, coeffs.shape[-1] + 1)


def _newton_rows(coeffs, x, z):
    """Newton on rows of maps: row ``r`` of ``coeffs`` (``(R, K)``, ``c_1`` first)
    is one map, ``x[r]`` its points and ``z[r]`` their starts.  Each row steps
    all its points until every residual ``|f(z) - x|`` of the row has been at
    most ``NEWTON_TOL max(1, |x|)``, then once more, and stops; NaN where the
    residual test never held in ``NEWTON_MAXITER`` steps."""
    c, d = coeffs.T[:, :, None], _derivative(coeffs).T[:, :, None]
    tol = NEWTON_TOL * np.maximum(1.0, np.abs(x))
    met = np.zeros(x.shape, dtype=bool)
    out, rows = np.empty_like(z), np.arange(len(z))
    for _ in range(NEWTON_MAXITER):
        if not rows.size:
            return out
        res = _horner(c, z) * z - x
        met |= np.abs(res) <= tol
        z = z - res / _horner(d, z)
        done = met.all(axis=1)
        if done.any():
            out[rows[done]] = z[done]
            keep = ~done
            rows, c, d, x, z, tol, met = (rows[keep], c[:, keep], d[:, keep], x[keep],
                                          z[keep], tol[keep], met[keep])
    out[rows] = np.where(met, z, np.nan)
    return out


class ConformalMap:
    """Polynomial map ``f(z) = c_1 z + ... + c_K z^K`` of the unit disk.

    ``coeffs[k]`` is ``c_{k+1}``; the constant term is absent so ``f(0) = 0``.
    Construction runs the injectivity gate (``f'`` has no zero on the closed
    disk, certified by :meth:`gate_min_derivative`) unless ``check=False``.
    A map holds its pole preimages, boundary grids and the zeros of ``f'``,
    so ``coeffs`` (a copy of the argument) is not writeable.
    """

    def __init__(self, coeffs, check: bool = True):
        self.coeffs = _as_coeffs(coeffs)
        with np.errstate(over="ignore", invalid="ignore"):  # the gate refuses inf, NaN
            self._dcoeffs = _derivative(self.coeffs)  # f'(z) = c_1 + 2 c_2 z + ...
            self._ddcoeffs = _derivative(self._dcoeffs[1:])
        for arr in (self.coeffs, self._dcoeffs, self._ddcoeffs):
            arr.flags.writeable = False
        self._preimages, self._grids = [], []
        if check and not self.passes_gate():
            cause = ("non-finite coefficients" if np.isnan(self.gate_min_derivative())
                     else "c_1 = 0" if self.coeffs[0] == 0 else
                     f"a zero of f' of modulus {min(abs(self._critical_points)):.6g} <= 1")
            raise InjectivityError(f"injectivity gate failed: {cause}")

    @staticmethod
    @cache
    def identity() -> "ConformalMap":
        """The unit disk's map: one instance, so what it holds serves every caller."""
        return ConformalMap([1.0 + 0.0j], check=False)

    @property
    def degree(self) -> int:
        return self.coeffs.size

    @property
    def is_identity(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 1.0 + 0.0j

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        acc = _horner(self.coeffs, z)       # Horner on f(z)/z, times z
        return np.multiply(acc, z, out=acc) if z.ndim else acc * z

    def derivative(self, z):
        return _horner(self._dcoeffs, np.asarray(z, dtype=complex))

    def second_derivative(self, z):
        return _horner(self._ddcoeffs, np.asarray(z, dtype=complex))

    def gate_min_derivative(self) -> float:
        """Certified lower bound of ``|f'|`` on the closed disk: positive iff ``f'``
        has no zero there, NaN for a non-finite coefficient."""
        return self._certificate[0]

    def passes_gate(self) -> bool:
        return self.gate_min_derivative() > 0  # NaN fails

    @cached_property
    def _certificate(self):
        """The gate's bound and the zeros of ``f' = c_1 prod_j (1 - mu_j z)``, the finite ``1 /
        mu``.  ``mu`` are the eigenvalues of the reversed companion matrix (backward stable:
        Edelman and Murakami, Math. Comp. 1995): 0 for a vanishing leading coefficient, inf
        where the matrix is not finite (``c_1 = 0``).  ``bound = |c_1| prod_j max(1 - |mu_j|, 0)
        <= |f'|`` on the closed disk, positive iff no zero is there; NaN for a non-finite f'."""
        d = self._dcoeffs
        with np.errstate(all="ignore"):  # mu = 0 or subnormal: no finite zero
            companion = np.eye(d.size - 1, k=-1, dtype=complex)
            companion[:1] = -d[1:] / d[0]
            mu = (np.linalg.eigvals(companion) if np.isfinite(companion).all()
                  else np.full(d.size - 1, np.inf, dtype=complex))
            # abs of the 1-d d[:1]: numpy's scalar abs of d[0] rounds apart
            bound = np.abs(d[:1]) * np.prod(np.maximum(1.0 - np.abs(mu), 0.0))
            zeros = 1.0 / mu
        return float(bound[0]) if np.isfinite(d).all() else np.nan, zeros[np.isfinite(zeros)]

    _critical_points = property(lambda self: self._certificate[1])

    def inverse(self, x):
        """Preimage ``z = f^{-1}(x)`` for ``x`` in the image of the closed disk.

        :func:`_newton_rows` on this map's one row, from ``z_0 = x / c_1``
        (exact for degree 1).  A point left non-finite or outside the disk is
        solved by :meth:`_least_root`.  Raises :class:`DomainError` for a
        non-finite ``x`` or a preimage of modulus above ``1 + BOUNDARY_SLACK``.
        The identity's inverse of a point in the closed disk is a copy of it.
        """
        x = np.asarray(x, dtype=complex)
        if not np.all(np.isfinite(x)):
            raise DomainError("cannot invert a non-finite point")
        if self.is_identity and np.all(np.abs(x) <= 1.0 + BOUNDARY_SLACK):
            return x.copy()[()]
        xf = x.ravel()
        with np.errstate(all="ignore"):
            z = xf / self.coeffs[0]
            if self.degree > 1:
                z = _newton_rows(self.coeffs[None], xf[None], z[None])[0]
        for i in np.flatnonzero(~(np.abs(z) <= 1.0 + BOUNDARY_SLACK)):
            z[i] = self._least_root(self.coeffs, xf[i])
        return z.reshape(x.shape)[()]

    @staticmethod
    def _least_root(coeffs, xi):
        """The least-modulus root of ``f(z) - xi``, ``f`` the map with ``coeffs``,
        polished by one Newton step."""
        roots = np.roots(np.append(coeffs[::-1], -xi))
        z = roots[np.argmin(np.abs(roots))] if roots.size else np.inf
        if abs(z) > 1.0 + BOUNDARY_SLACK:
            raise DomainError(f"point outside the mapped disk: preimage modulus {abs(z):.6g}")
        z0 = np.asarray(z)  # 0-d, for ufunc arithmetic: numpy scalars round a product apart
        d = _horner(_derivative(coeffs), z0)
        return z - (_horner(coeffs, z0) * z0 - xi) / d if d != 0 else z

    def __repr__(self):
        return f"ConformalMap({np.array2string(self.coeffs, precision=4)})"


class DomainFamily:
    """One-parameter family ``Omega(t) = (base + t * perturbation)(D)``.

    ``h`` is the perturbation map, built once; ``perturbation`` is its
    read-only ``coeffs``.  Every ``|t| < t*`` passes the injectivity gate
    (:meth:`_first_crossing`).  ``t_max``, the admissible range, is ``0.5 min(t*, T_MAX_CAP)``
    when omitted; a declared one needs ``t_max (1 + 1e-12) < (1 - CROSSING_TOL) t*``
    (:meth:`map_at` reaches ``1e-12`` past it), else :class:`InjectivityError` names ``t*``.
    """

    def __init__(self, base, perturbation, t_max: Optional[float] = None):
        self.base = base if isinstance(base, ConformalMap) else ConformalMap(base)
        self.h = ConformalMap(perturbation, check=False)
        t_star = self._first_crossing()
        if t_max is None:
            t_max = 0.5 * min(t_star, T_MAX_CAP)
        if not (_is_number(t_max) and 0 < t_max < np.inf):
            raise ConfigError(f"t_max must be positive and finite, got {t_max!r}")
        self.t_max = float(t_max)
        if not self.t_max * (1.0 + 1e-12) < (1.0 - CROSSING_TOL) * t_star:
            raise InjectivityError(f"injectivity gate fails inside |t| <= {self.t_max:.6g}: f' + "
                                   f"t h' has a zero on the closed disk at |t| = t* = {t_star:.6g}")

    perturbation = property(lambda self: self.h.coeffs)

    def _coeffs_at(self, ts) -> np.ndarray:
        """The coefficients of ``base + t * perturbation``, one row per ``t``."""
        c = np.zeros((len(ts), max(self.base.degree, self.perturbation.size)), dtype=complex)
        c[:, : self.base.degree] += self.base.coeffs
        c[:, : self.perturbation.size] += np.asarray(ts, dtype=float)[:, None] * self.perturbation
        return c

    def _first_crossing(self) -> float:
        """``t*``, the least ``|t|`` with a zero of ``f' + t h'`` on the closed disk (inf if none).
        The zeros lie outside at ``t = 0`` and move continuously (Hurwitz), so one enters across the
        circle, where ``t = -f'/h'`` is real: at a root of ``z^(n-1) (f' conj(h') - conj(f') h')``
        (``p = f'``, ``q = h'`` padded to ``n``), or at ``z = 0`` if that is 0 (``h' = lam f'``)."""
        if not self.base.passes_gate():
            raise InjectivityError("injectivity gate fails at t = 0")
        p, q = np.zeros((2, max(self.base.degree, self.h.degree)), dtype=complex)
        p[: self.base.degree], q[: self.h.degree] = self.base._dcoeffs, self.h._dcoeffs
        with np.errstate(all="ignore"):  # h' = 0 at a candidate: t is not finite
            cross = np.convolve(p, q[::-1].conj()) - np.convolve(p[::-1].conj(), q)
            if not np.isfinite(cross).all():
                raise InjectivityError("f' + t h' is not finite: h' is not, or overflows")
            z = np.roots(cross[::-1]).astype(complex)
            z = np.append(z[np.abs(np.abs(z) - 1.0) <= CROSSING_TOL], 0.0)
            t = -_horner(p, z) / _horner(q, z)
            real = np.abs(t.imag) <= CROSSING_TOL * np.abs(t)
        return float(np.min(np.abs(t.real[real]), initial=np.inf))

    def map_at(self, t: float) -> ConformalMap:
        if abs(t) > self.t_max * (1.0 + 1e-12):
            raise DomainError(f"|t| = {abs(t):.6g} exceeds t_max = {self.t_max:.6g}")
        return ConformalMap(self._coeffs_at([t])[0], check=False)

    def velocity_field(self) -> VectorField:
        """Deformation velocity on ``Omega(0)`` with analytic Jacobian.

        ``v(x) = h(f^{-1}(x))`` packed as a real vector field; the Jacobian
        comes from the complex derivative ``h'(z) / f'(z)`` (Cauchy-Riemann
        structure), so no finite differencing is involved.
        """
        base, pert = self.base, self.h
        return _holomorphic_field(lambda x: base.inverse(to_complex(x)), pert,
                                  lambda z: pert.derivative(z) / base.derivative(z),
                                  "family velocity")

    def disk_velocity_field(self) -> VectorField:
        """The velocity pulled back to the disk by ``f``: ``h(z) / f'(z)``.

        Holomorphic, so its Jacobian is multiplication by the complex
        derivative ``(h' f' - h f'') / f'^2``; nothing is inverted.  ``f'`` and
        ``h`` are evaluated once per point set, for both (:func:`_held`).
        """
        base, pert, slot = self.base, self.h, []
        held = lambda z: _held(slot, z, lambda z: (base.derivative(z), pert(z)))

        def value(z):
            fp, hz = held(z)
            return hz / fp

        def slope(z):
            fp, hz = held(z)
            return (pert.derivative(z) * fp - hz * base.second_derivative(z)) / fp**2

        return _holomorphic_field(to_complex, value, slope, "family velocity on the disk")

    def to_json(self) -> dict:
        pack = lambda c: [[float(v.real), float(v.imag)] for v in c]
        return {
            "base": pack(self.base.coeffs),
            "perturbation": pack(self.perturbation),
            "t_max": self.t_max,
        }

    @classmethod
    def from_json(cls, obj: Union[str, dict]) -> "DomainFamily":
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"family JSON is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("family spec must be a JSON object")
        unknown = set(obj) - {"base", "perturbation", "t_max"}
        if unknown:
            raise ConfigError(f"unknown family fields: {sorted(unknown)}")
        missing = {"base", "perturbation"} - set(obj)
        if missing:
            raise ConfigError(f"family spec missing fields: {sorted(missing)}")
        return cls(
            _unpack_coeffs(obj["base"], "base"),
            _unpack_coeffs(obj["perturbation"], "perturbation"),
            t_max=obj.get("t_max"),
        )

    def __repr__(self):
        return (f"DomainFamily(base={self.base!r}, "
                f"perturbation={np.array2string(self.perturbation, precision=4)}, "
                f"t_max={self.t_max:g})")


def _is_number(v) -> bool:
    """A real number, not a bool, that converts to a double: a float, an int (from
    2^1024 - 2^970 up ints overflow) or a numpy floating scalar (a long double may
    exceed the double range); inf and NaN pass, for each field's own rule to refuse."""
    if isinstance(v, np.floating):
        return not np.isfinite(v) or bool(abs(v) <= np.finfo(float).max)
    return isinstance(v, float) or (type(v) is int and abs(v) < 2**1024 - 2**970)


def _unpack_coeffs(raw, field: str) -> np.ndarray:
    if not isinstance(raw, list) or not 0 < len(raw) <= MAX_DEGREE:
        raise ConfigError(f"family field '{field}' must be a list of 1 to {MAX_DEGREE} pairs")
    out = np.empty(len(raw), dtype=complex)
    for k, pair in enumerate(raw):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(_is_number(v) for v in pair)):
            raise ConfigError(
                f"family field '{field}' entry {k} must be a [re, im] pair"
            )
        out[k] = complex(pair[0], pair[1])
        if not np.isfinite(out[k]):
            raise ConfigError(f"family field '{field}' entry {k} must be finite")
    return out


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """Trapezoidal boundary rule on ``d Omega(t)``.

    ``nodes`` are the boundary points, ``normals`` the outward unit normals,
    ``weights`` the arclength weights ``|gamma'(theta)| * 2 pi / M``,
    ``params`` the unit-circle parameters ``exp(i theta_m)``, and ``speed``
    the stretch ``|f'(params)|`` of the grid's ``map``.  ``_traces`` holds
    the normal derivatives of the last ``RECENT_TRACES`` poles read on the
    grid, ``(key, array)`` pairs dropped when the map hands out another ``m``'s grid.
    """

    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    params: np.ndarray
    speed: np.ndarray
    map: ConformalMap
    _traces: list = field(default_factory=list, repr=False)


# Boundary nodes m: variation.boundary_nodes picks a power of two from the
# default to MAX_BOUNDARY_NODES; the ceiling is its largest pick at the last
# rung of `converge` levels 8, 2^7 times (a 0.34 s, 218 MB peak build).
DEFAULT_BOUNDARY_NODES = 256
MAX_BOUNDARY_NODES = 2**14
BOUNDARY_NODES = Count(4, DEFAULT_BOUNDARY_NODES, MAX_BOUNDARY_NODES * 2**7)


def as_map(domain) -> ConformalMap:
    """The map a domain argument names: the shared unit disk for ``None``, a family's
    ``t = 0`` map ``base``, the map itself; else :class:`ConfigError` naming the type."""
    if domain is None:
        return ConformalMap.identity()
    if isinstance(domain, DomainFamily):
        return domain.base
    if isinstance(domain, ConformalMap):
        return domain
    raise ConfigError(f"expected DomainFamily or ConformalMap, got {type(domain).__name__}")


def boundary_grid(family, m: int = DEFAULT_BOUNDARY_NODES) -> BoundaryGrid:
    """The M-node periodic trapezoid rule on ``d f(D)``, ``f = as_map(family)``, its arrays
    held by the map for its last ``RECENT_GRIDS`` ``m``: read-only.  Every grid of one ``m``
    shares the traces held with the arrays; handing out a grid drops the other ``m``'s."""
    BOUNDARY_NODES.check("m", m)
    fmap = as_map(family)
    *arrays, traces = held(fmap._grids, m, RECENT_GRIDS, lambda: (*_grid_arrays(fmap, m), []))
    for _, (*_, older) in fmap._grids[:-1]:
        older.clear()
    return BoundaryGrid(*arrays, map=fmap, _traces=traces)


def _grid_arrays(fmap: ConformalMap, m: int):
    """``(nodes, normals, weights, params, speed)`` of :func:`boundary_grid`,
    frozen (the map holds these, not the grid, which refers back to the map)."""
    th = 2.0 * np.pi * np.arange(m) / m
    e = np.exp(1j * th)
    fp = fmap.derivative(e)
    speed = np.abs(fp)
    if np.any(speed <= GATE_FLOOR):
        raise InjectivityError("boundary parametrization degenerate: |f'| ~ 0")
    # tangent is i e f'; outward normal is the tangent rotated by -90 degrees
    normal = e * fp / speed
    arrays = (to_points(fmap(e)), to_points(normal), speed * (2.0 * np.pi / m), e, speed)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def normal_speed(grid: BoundaryGrid, v: VectorField) -> np.ndarray:
    """Normal velocity ``delta n = v(x_m) . n_m`` at the grid nodes."""
    return np.einsum("mi,mi->m", v(grid.nodes), grid.normals)


def enclosed_area(grid: BoundaryGrid) -> float:
    """Area of the domain from the boundary rule, via div(x) = 2."""
    return 0.5 * float(np.dot(np.einsum("mi,mi->m", grid.nodes, grid.normals),
                              grid.weights))


def _held(slot: list, p: np.ndarray, compute):
    """The arrays ``compute(p)``, read-only (0-d for one point), held in ``slot`` for the
    last ``p`` only, keyed on its shape and bytes (never its identity)."""
    key = (p.shape, p.tobytes())
    if slot[:1] != [key]:
        slot[:] = key, tuple(map(np.asarray, compute(p)))
        for arr in slot[1]:
            arr.flags.writeable = False
    return slot[1]


def _held_image(slot: list, p: np.ndarray, fmap: ConformalMap, at_image):
    """``(z, f(z) as points, f'(z), at_image(f(z)))`` at disk points ``p``, held (:func:`_held`)."""
    def compute(p):
        z = to_complex(p)
        x = to_points(fmap(z))
        x.flags.writeable = False       # before at_image, which may be the user's
        return z, x, fmap.derivative(z), at_image(x)

    return _held(slot, p, compute)


def pullback_metric(fmap: ConformalMap, metric: MetricField) -> MetricField:
    """The metric ``f^* g`` on the disk for a conformal ``g = exp(2 phi) delta``.

    It is the conformal metric with ``phi~(z) = phi(f(z)) + log|f'(z)|``, whose
    complex-packed gradient is ``conj(f') grad phi(f(z)) + conj(f'' / f')``.
    ``phi`` is :meth:`MetricField.conformal_factor`: a matrix-built metric
    raises :class:`ConfigError` where it is not conformal.  ``f``, ``f'`` and
    ``phi(f(z))`` are evaluated once per point set, for both (:func:`_held_image`).
    """
    if metric.dim != 2:
        raise DimensionMismatchError("only a planar metric pulls back to the disk")
    slot = []

    def phi(p):
        _, _, fp, phi_x = _held_image(slot, p, fmap, metric.conformal_factor)
        return phi_x + np.log(np.abs(fp))

    def grad_phi(p):
        z, x, fp, _ = _held_image(slot, p, fmap, metric.conformal_factor)
        grad = to_complex(metric.conformal_gradient(x))
        return to_points(np.conj(fp) * grad + np.conj(fmap.second_derivative(z) / fp))

    return MetricField(2, phi=phi, grad_phi=grad_phi, name=f"{metric.name}, pulled back")


def pullback_vector_field(fmap: ConformalMap, v: VectorField) -> VectorField:
    """The vector field ``F^{-1} v(f(z))`` on the disk.

    Its Jacobian is ``F^{-1} J_v(f(z)) F + d(F^{-1}) v``, where the second
    term is multiplication by ``-v f'' / f'^2`` in complex packing.  ``f``,
    ``f'`` and ``v(f(z))`` are held per point set (:func:`_held_image`).
    """
    if fmap.is_identity:
        return v
    slot, at_image = [], lambda x: to_complex(v(x))

    def func(p):
        _, _, fp, vx = _held_image(slot, p, fmap, at_image)
        return to_points(vx / fp)

    def jac(p):
        z, x, fp, vx = _held_image(slot, p, fmap, at_image)
        J = _multiplication_matrix(1.0 / fp) @ v.jacobian(x) @ _multiplication_matrix(fp)
        return J + _multiplication_matrix(-vx * fmap.second_derivative(z) / fp**2)

    return VectorField(2, func, jac, name=f"{v.name}, pulled back")


def dilation_family() -> DomainFamily:
    """Uniform dilation: h(z) = z, velocity v(x) = x."""
    return DomainFamily([1.0], [1.0], t_max=0.5)


def rotation_family() -> DomainFamily:
    """Rigid rotation at t = 0: h(z) = i z, velocity v(x) = i x (Killing)."""
    return DomainFamily([1.0], [1.0j], t_max=1.0)


def quadratic_bump_family() -> DomainFamily:
    """Quadratic boundary bump: h(z) = 0.1 z^2."""
    return DomainFamily([1.0], [0.0, 0.1], t_max=2.0)


def cubic_mix_family() -> DomainFamily:
    """Mixed perturbation h(z) = 0.05 z^2 + 0.03 z^3."""
    return DomainFamily([1.0], [0.0, 0.05, 0.03], t_max=2.5)


BUILTIN_FAMILIES = {
    "dilation": dilation_family,
    "rotation": rotation_family,
    "quadratic_bump": quadratic_bump_family,
    "cubic_mix": cubic_mix_family,
}
