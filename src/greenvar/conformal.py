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
with no inversion of ``f``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    InjectivityError,
)
from .quadrature import require_integers
from .tensors import MetricField, VectorField

__all__ = [
    "ConformalMap",
    "DomainFamily",
    "BoundaryGrid",
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

# Injectivity gate resolution: |f'| is checked on a 720-node boundary grid
# and a 50 x 72 interior polar grid; the gate fails if min |f'| <= GATE_FLOOR.
GATE_BOUNDARY_NODES = 720
GATE_RADIAL = 50
GATE_ANGULAR = 72
GATE_FLOOR = 1e-9
_GATE_POINTS = np.concatenate([
    np.exp(1j * np.linspace(0.0, 2.0 * np.pi, GATE_BOUNDARY_NODES, endpoint=False)),
    (((np.arange(GATE_RADIAL) + 0.5) / GATE_RADIAL)[:, None]
     * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, GATE_ANGULAR, endpoint=False))).ravel(),
])

NEWTON_MAXITER = 50
NEWTON_TOL = 1e-14

# Families constructed without an explicit t_max scan |t| up to this cap.
T_SCAN_CAP = 4.0
T_SCAN_STEPS = 64


def to_complex(points):
    """Pack real points ``(..., 2)`` into complex numbers."""
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != 2:
        raise DomainError(f"expected planar points, got shape {p.shape}")
    return p[..., 0] + 1j * p[..., 1]


def to_points(z):
    """Unpack complex numbers into real points ``(..., 2)``."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1)


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
    """Ascending-coefficient polynomial at complex ``z``; 0 when empty."""
    if coeffs.size == 0:
        return np.zeros_like(z)
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _as_coeffs(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ConfigError("coefficient list must be a non-empty 1-d sequence")
    return c


class ConformalMap:
    """Polynomial map ``f(z) = c_1 z + ... + c_K z^K`` of the unit disk.

    ``coeffs[k]`` is ``c_{k+1}``; the constant term is absent so ``f(0) = 0``.
    Construction runs the injectivity gate (``c_1 != 0`` and ``|f'| > 0`` on
    the fixed boundary/interior check grids) unless ``check=False``.
    """

    def __init__(self, coeffs, check: bool = True):
        self.coeffs = _as_coeffs(coeffs)
        # derivative coefficients of f'(z) = c_1 + 2 c_2 z + ...
        k = np.arange(1, self.coeffs.size + 1)
        self._dcoeffs = self.coeffs * k
        self._ddcoeffs = (self.coeffs * k * (k - 1))[1:]
        if check:
            if self.coeffs[0] == 0:
                raise InjectivityError("leading coefficient c_1 must be nonzero")
            m = self.gate_min_derivative()
            if m <= GATE_FLOOR:
                raise InjectivityError(
                    f"injectivity gate failed: min |f'| = {m:.3e} on check grids"
                )

    @classmethod
    def identity(cls) -> "ConformalMap":
        return cls([1.0 + 0.0j], check=False)

    @property
    def degree(self) -> int:
        return self.coeffs.size

    @property
    def is_identity(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 1.0 + 0.0j

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return _horner(self.coeffs, z) * z  # Horner on f(z)/z, times z

    def derivative(self, z):
        return _horner(self._dcoeffs, np.asarray(z, dtype=complex))

    def second_derivative(self, z):
        return _horner(self._ddcoeffs, np.asarray(z, dtype=complex))

    def gate_min_derivative(self) -> float:
        """Min of ``|f'|`` over the boundary and interior check grids."""
        return float(np.min(np.abs(self.derivative(_GATE_POINTS))))

    def passes_gate(self) -> bool:
        return self.coeffs[0] != 0 and self.gate_min_derivative() > GATE_FLOOR

    def inverse(self, x):
        """Preimage ``z = f^{-1}(x)`` for ``x`` in the image of the closed disk.

        Newton from ``z_0 = x / c_1`` (exact for degree 1) until every
        residual ``|f(z) - x|`` is at most ``NEWTON_TOL max(1, |x|)``, then one
        more step.  A point left non-finite or outside the disk is solved by
        :meth:`_least_root`.  Raises :class:`DomainError` for a non-finite
        ``x`` or a preimage of modulus above ``1 + 1e-9``.
        """
        x = np.asarray(x, dtype=complex)
        if not np.all(np.isfinite(x)):
            raise DomainError("cannot invert a non-finite point")
        xf = x.ravel()
        with np.errstate(all="ignore"):
            z = xf / self.coeffs[0]
            if self.degree > 1:
                z = self._newton(xf, z)
        for i in np.flatnonzero(~(np.abs(z) <= 1.0 + 1e-9)):
            z[i] = self._least_root(xf[i])
        return z.reshape(x.shape)[()]

    def _newton(self, x, z):
        """Newton sweeps over all points; NaN where the residual test never held."""
        tol = NEWTON_TOL * np.maximum(1.0, np.abs(x))
        met = np.zeros(x.shape, dtype=bool)
        for _ in range(NEWTON_MAXITER):
            res = self(z) - x
            met |= np.abs(res) <= tol
            z = z - res / self.derivative(z)
            if met.all():
                return z
        return np.where(met, z, np.nan)

    def _least_root(self, xi):
        """The least-modulus root of ``f(z) - xi``, polished by one Newton step."""
        roots = np.roots(np.append(self.coeffs[::-1], -xi))
        z = roots[np.argmin(np.abs(roots))] if roots.size else np.inf
        if abs(z) > 1.0 + 1e-9:
            raise DomainError(f"point outside the mapped disk: preimage modulus {abs(z):.6g}")
        d = self.derivative(z)
        return z - (self(z) - xi) / d if d != 0 else z

    def contains(self, x) -> bool:
        """Whether the point lies in the closed image ``f(cl D)``."""
        try:
            self.inverse(x)
        except DomainError:
            return False
        return True

    def __repr__(self):
        return f"ConformalMap({np.array2string(self.coeffs, precision=4)})"


class DomainFamily:
    """One-parameter family ``Omega(t) = (base + t * perturbation)(D)``.

    ``t_max`` bounds the admissible parameter range.  When omitted it is set
    to half the smallest ``|t|`` at which the injectivity gate first fails on
    a coarse scan (cap ``T_SCAN_CAP`` when the gate never fails).
    """

    def __init__(self, base, perturbation, t_max: Optional[float] = None):
        self.base = base if isinstance(base, ConformalMap) else ConformalMap(base)
        self.perturbation = _as_coeffs(perturbation)
        if t_max is None:
            t_max = self._scan_t_max()
        if (not isinstance(t_max, (int, float)) or isinstance(t_max, bool)
                or not (t_max > 0 and np.isfinite(t_max))):
            raise ConfigError(f"t_max must be positive and finite, got {t_max!r}")
        self.t_max = float(t_max)
        self._check_range()

    def _gate_ok(self, ts) -> np.ndarray:
        """Per ``t``, whether ``base + t * perturbation`` passes the gate
        (``f' + t h'`` is affine in ``t``: ``f'``, ``h'`` are evaluated once)."""
        fp = self.base.derivative(_GATE_POINTS)
        hp = ConformalMap(self.perturbation, check=False).derivative(_GATE_POINTS)
        c1 = self.base.coeffs[0] + ts * self.perturbation[0]
        return (c1 != 0) & np.array([np.min(np.abs(fp + t * hp)) > GATE_FLOOR for t in ts])

    def _scan_t_max(self) -> float:
        ts = T_SCAN_CAP * np.arange(1, T_SCAN_STEPS + 1) / T_SCAN_STEPS
        ok = self._gate_ok(ts) & self._gate_ok(-ts)
        return 0.5 * (T_SCAN_CAP if ok.all() else float(ts[np.argmin(ok)]))

    def _check_range(self):
        ts = np.linspace(-self.t_max, self.t_max, 17)
        ok = self._gate_ok(ts)
        if not ok.all():
            raise InjectivityError(f"injectivity gate fails inside |t| <= {self.t_max} "
                                   f"(at t = {ts[np.argmin(ok)]:.6g})")

    def map_at(self, t: float) -> ConformalMap:
        if abs(t) > self.t_max * (1.0 + 1e-12):
            raise DomainError(f"|t| = {abs(t):.6g} exceeds t_max = {self.t_max:.6g}")
        c = np.zeros(max(self.base.degree, self.perturbation.size), dtype=complex)
        c[: self.base.degree] += self.base.coeffs
        c[: self.perturbation.size] += float(t) * self.perturbation
        return ConformalMap(c, check=False)

    def velocity_field(self) -> VectorField:
        """Deformation velocity on ``Omega(0)`` with analytic Jacobian.

        ``v(x) = h(f^{-1}(x))`` packed as a real vector field; the Jacobian
        comes from the complex derivative ``h'(z) / f'(z)`` (Cauchy-Riemann
        structure), so no finite differencing is involved.
        """
        base, pert = self.base, ConformalMap(self.perturbation, check=False)
        return _holomorphic_field(lambda x: base.inverse(to_complex(x)), pert,
                                  lambda z: pert.derivative(z) / base.derivative(z),
                                  "family velocity")

    def disk_velocity_field(self) -> VectorField:
        """The velocity pulled back to the disk by ``f``: ``h(z) / f'(z)``.

        Holomorphic, so its Jacobian is multiplication by the complex
        derivative ``(h' f' - h f'') / f'^2``; nothing is inverted.
        """
        base, pert = self.base, ConformalMap(self.perturbation, check=False)

        def slope(z):
            fp = base.derivative(z)
            return (pert.derivative(z) * fp - pert(z) * base.second_derivative(z)) / fp**2

        return _holomorphic_field(to_complex, lambda z: pert(z) / base.derivative(z),
                                  slope, "family velocity on the disk")

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


def _unpack_coeffs(raw, field: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"family field '{field}' must be a non-empty list")
    out = np.empty(len(raw), dtype=complex)
    for k, pair in enumerate(raw):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(v, (int, float)) for v in pair)):
            raise ConfigError(
                f"family field '{field}' entry {k} must be a [re, im] pair"
            )
        out[k] = complex(pair[0], pair[1])
    return out


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """Trapezoidal boundary rule on ``d Omega(t)``.

    ``nodes`` are the boundary points, ``normals`` the outward unit normals,
    ``weights`` the arclength weights ``|gamma'(theta)| * 2 pi / M``, and
    ``params`` the unit-circle parameters ``exp(i theta_m)``.
    """

    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    params: np.ndarray
    map: ConformalMap


def boundary_grid(family, m: int = 256) -> BoundaryGrid:
    """The M-node periodic trapezoid rule on ``d f(D)`` (a family's ``t = 0``)."""
    require_integers(m=m)
    if m < 4:
        raise ConfigError(f"boundary grid needs at least 4 nodes, got {m}")
    fmap = family.map_at(0.0) if isinstance(family, DomainFamily) else family
    th = 2.0 * np.pi * np.arange(m) / m
    e = np.exp(1j * th)
    fp = fmap.derivative(e)
    speed = np.abs(fp)
    if np.any(speed <= GATE_FLOOR):
        raise InjectivityError("boundary parametrization degenerate: |f'| ~ 0")
    # tangent is i e f'; outward normal is the tangent rotated by -90 degrees
    normal = e * fp / speed
    return BoundaryGrid(
        nodes=to_points(fmap(e)),
        normals=to_points(normal),
        weights=speed * (2.0 * np.pi / m),
        params=e,
        map=fmap,
    )


def normal_speed(grid: BoundaryGrid, v: VectorField) -> np.ndarray:
    """Normal velocity ``delta n = v(x_m) . n_m`` at the grid nodes."""
    return np.einsum("mi,mi->m", v(grid.nodes), grid.normals)


def enclosed_area(grid: BoundaryGrid) -> float:
    """Area of the domain from the boundary rule, via div(x) = 2."""
    return 0.5 * float(np.dot(np.einsum("mi,mi->m", grid.nodes, grid.normals),
                              grid.weights))


def pullback_metric(fmap: ConformalMap, metric: MetricField) -> MetricField:
    """The metric ``f^* g`` on the disk: ``F^T g(f(z)) F``, ``F`` the Jacobian of ``f``.

    A conformal ``g = exp(2 phi) delta`` pulls back to the conformal metric
    with ``phi~(z) = phi(f(z)) + log|f'(z)|``, whose complex-packed gradient
    is ``conj(f') grad phi(f(z)) + conj(f'' / f')``.
    """
    if metric.dim != 2:
        raise DimensionMismatchError("only a planar metric pulls back to the disk")
    if fmap.is_identity:
        return metric
    name = f"{metric.name}, pulled back"
    if metric.is_conformal:
        def phi(p):
            z = to_complex(p)
            return (metric.conformal_factor(to_points(fmap(z)))
                    + np.log(np.abs(fmap.derivative(z))))

        def grad_phi(p):
            z = to_complex(p)
            fp = fmap.derivative(z)
            grad = to_complex(metric.conformal_gradient(to_points(fmap(z))))
            return to_points(np.conj(fp) * grad + np.conj(fmap.second_derivative(z) / fp))

        return MetricField(2, phi=phi, grad_phi=grad_phi, name=name)

    def matrix(p):
        z = to_complex(p)
        F = _multiplication_matrix(fmap.derivative(z))
        return np.swapaxes(F, -2, -1) @ metric(to_points(fmap(z))) @ F

    def derivative(p):
        # d_k (F^T g F) = S_k + S_k^T + F^T (d_c g F_ck) F with S_k = dF_k^T g F,
        # dF_k the multiplication by f'' times the k-th unit (1, then i)
        z = to_complex(p)
        x, F = to_points(fmap(z)), _multiplication_matrix(fmap.derivative(z))
        Ft = np.swapaxes(F, -2, -1)[..., None, :, :]
        chain = np.einsum("...ck,...cij->...kij", F, metric.derivative(x))
        dF = np.stack([_multiplication_matrix(u * fmap.second_derivative(z))
                       for u in (1.0, 1j)], axis=-3)
        S = np.swapaxes(dF, -2, -1) @ (metric(x) @ F)[..., None, :, :]
        return S + np.swapaxes(S, -2, -1) + Ft @ chain @ F[..., None, :, :]

    return MetricField(2, matrix, derivative, name=name)


def pullback_vector_field(fmap: ConformalMap, v: VectorField) -> VectorField:
    """The vector field ``F^{-1} v(f(z))`` on the disk.

    Its Jacobian is ``F^{-1} J_v(f(z)) F + d(F^{-1}) v``, where the second
    term is multiplication by ``-v f'' / f'^2`` in complex packing.
    """
    if fmap.is_identity:
        return v

    def func(p):
        z = to_complex(p)
        return to_points(to_complex(v(to_points(fmap(z)))) / fmap.derivative(z))

    def jac(p):
        z = to_complex(p)
        x = to_points(fmap(z))
        fp = fmap.derivative(z)
        J = _multiplication_matrix(1.0 / fp) @ v.jacobian(x) @ _multiplication_matrix(fp)
        return J + _multiplication_matrix(-to_complex(v(x)) * fmap.second_derivative(z) / fp**2)

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
