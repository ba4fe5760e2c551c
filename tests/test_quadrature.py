"""Disk quadrature: exactness, positivity, pole patches, convergence."""

import math

import numpy as np
import pytest
from scipy.special import ellipe

from greenvar import quadrature
from greenvar.conformal import ConformalMap, boundary_grid
from greenvar.errors import (
    ConfigError,
    DomainError,
    EvaluationError,
    PatchRadiusError,
    PoleSeparationError,
)
from greenvar.quadrature import (
    IntegrationResult,
    WINDOW_FLAT,
    _window,
    boundary_integrate,
    disk_rule,
    integrate,
)

PI = np.pi


def inverse_distance(a):
    az = complex(a[0], a[1]) if np.ndim(a) else complex(a)

    def f(pts):
        return 1.0 / np.abs(pts[..., 0] + 1j * pts[..., 1] - az)

    return f


@pytest.mark.parametrize("n_r,n_theta", [(4, 8), (16, 32), (64, 128)])
def test_weights_sum_to_disk_area(n_r, n_theta):
    rule = disk_rule(n_r, n_theta)
    assert abs(rule.total_weight - PI) < 1e-14
    with_poles = disk_rule(n_r, n_theta, poles=[0.3 + 0.1j, -0.4j], n_patch=8)
    assert abs(with_poles.total_weight - PI) < 1e-14


def test_weights_positive_nodes_interior():
    rule = disk_rule(32, 64, poles=[0.5 + 0j, -0.2 + 0.3j], n_patch=16)
    assert np.all(rule.weights > 0.0)
    z = rule.nodes[:, 0] + 1j * rule.nodes[:, 1]
    assert np.max(np.abs(z)) < 1.0
    for p in rule.poles:
        assert np.min(np.abs(z - p)) > 1e-10


def test_coarse_background_drops_patch():
    # window so narrow no background node sees it: kappa = 0, patch vanishes
    rule = disk_rule(8, 16, poles=[0.3 + 0j], rho=0.008, n_patch=8)
    assert abs(rule.total_weight - PI) < 1e-14
    assert np.all(rule.weights > 0.0)


def test_singular_integrand_reference_value():
    # int_D |x - a|^{-1} dA = 4 E(|a|^2), complete elliptic of the 2nd kind
    for a, tol in [(0.3 + 0.0j, 2e-6), (0.25 + 0.35j, 1e-4)]:
        rule = disk_rule(poles=[a])
        exact = 4.0 * ellipe(abs(a) ** 2)
        assert abs(integrate(rule, inverse_distance(a)).value - exact) < tol


def test_singular_integrand_converges_fast():
    a = 0.3 + 0.0j
    exact = 4.0 * ellipe(abs(a) ** 2)
    errs = []
    for n_r, n_theta, n_patch in [(16, 32, 8), (32, 64, 16), (64, 128, 32)]:
        rule = disk_rule(n_r, n_theta, poles=[a], n_patch=n_patch)
        errs.append(abs(integrate(rule, inverse_distance(a), check=False).value
                        - exact))
    assert errs[1] < errs[0] / 4.0
    assert errs[2] < errs[1] / 4.0


def test_polynomial_background_exactness():
    rule = disk_rule(8, 16)
    val = integrate(rule, lambda p: p[..., 0] ** 2 + p[..., 1] ** 2,
                    check=False).value
    assert val == pytest.approx(PI / 2.0, rel=1e-14)


def test_pole_separation_guard():
    with pytest.raises(PoleSeparationError):
        disk_rule(16, 32, poles=[0.10 + 0j, 0.15 + 0j], rho=0.05, n_patch=8)


def test_patch_radius_guard():
    with pytest.raises(PatchRadiusError):
        disk_rule(16, 32, poles=[0.9 + 0j], rho=0.2, n_patch=8)


def test_pole_outside_disk_rejected():
    with pytest.raises(DomainError):
        disk_rule(16, 32, poles=[1.1 + 0j], n_patch=8)


def test_resolution_floors():
    with pytest.raises(ConfigError):
        disk_rule(3, 32)
    with pytest.raises(ConfigError):
        disk_rule(16, 4)
    with pytest.raises(ConfigError):
        disk_rule(16, 32, poles=[0.2 + 0j], n_patch=4)
    with pytest.raises(ConfigError):
        disk_rule(16, 32, poles=[(0.1, 0.2, 0.3)])


@pytest.mark.parametrize("kw", [dict(n_r=16.5), dict(n_theta=32.5), dict(n_r=True),
                                dict(n_patch=8.0, poles=[0.2 + 0j])])
def test_resolutions_must_be_integers(kw):
    with pytest.raises(ConfigError, match="must be an integer"):
        disk_rule(**kw)


def test_boundary_resolution_must_be_an_integer():
    fmap = ConformalMap.identity()
    for m in (256.5, True):
        with pytest.raises(ConfigError, match="must be an integer"):
            boundary_grid(fmap, m=m)
    assert boundary_grid(fmap, m=np.int64(64)).nodes.shape == (64, 2)
    assert disk_rule(np.int64(8), np.int32(16)).n_theta == 16


def test_coarse_rule_halves_and_caches():
    rule = disk_rule(32, 64, poles=[0.3 + 0j], n_patch=16)
    c = rule.coarse()
    assert (c.n_r, c.n_theta, c.n_patch) == (16, 32, 8)
    assert rule.coarse() is c
    floor = disk_rule(4, 8).coarse()
    assert (floor.n_r, floor.n_theta) == (4, 8)


def test_integration_result_fields():
    rule = disk_rule(16, 32)
    res = integrate(rule, lambda p: np.ones(p.shape[0]))
    assert isinstance(res, IntegrationResult)
    assert float(res) == res.value == pytest.approx(PI, rel=1e-15)
    assert res.converged
    assert res.rel_change < 1e-14
    unchecked = integrate(rule, lambda p: np.ones(p.shape[0]), check=False)
    assert unchecked.converged and unchecked.rel_change == 0.0


def test_convergence_flag_detects_unresolved():
    a = 0.25 + 0.35j
    rule = disk_rule(16, 32, poles=[a], n_patch=8, tol=1e-12)
    assert not integrate(rule, inverse_distance(a)).converged


def test_nonfinite_integrand_rejected():
    rule = disk_rule(8, 16)

    def bad(pts):
        out = np.ones(pts.shape[0])
        out[3] = np.nan
        return out

    with pytest.raises(EvaluationError):
        integrate(rule, bad)


def test_integrand_shape_checked():
    rule = disk_rule(8, 16)
    with pytest.raises(EvaluationError):
        integrate(rule, lambda p: 1.0)


def test_boundary_integrate_callable_and_values():
    grid = boundary_grid(ConformalMap.identity(), m=128)
    assert boundary_integrate(grid, lambda x: np.ones(len(x))) == pytest.approx(
        2.0 * PI, rel=1e-15
    )
    vals = grid.nodes[:, 0] ** 2
    # int_0^{2pi} cos^2 = pi, trapezoid is exact for this harmonic
    assert boundary_integrate(grid, vals) == pytest.approx(PI, rel=1e-14)


def test_boundary_integrate_validates_input():
    grid = boundary_grid(ConformalMap.identity(), m=16)
    with pytest.raises(EvaluationError):
        boundary_integrate(grid, np.ones(7))
    bad = np.ones(16)
    bad[5] = np.inf
    with pytest.raises(EvaluationError):
        boundary_integrate(grid, bad)


def test_window_shape():
    rho = 0.2
    assert _window(0.0, rho) == 1.0
    assert _window(0.5 * WINDOW_FLAT * rho, rho) == 1.0
    assert _window(rho, rho) == 0.0
    assert _window(2.0 * rho, rho) == 0.0
    mid = _window(0.5 * rho, rho)
    assert 0.0 < mid < 1.0
    r = np.linspace(0.0, rho, 200)
    w = _window(r, rho)
    assert np.all(np.diff(w) <= 1e-15)


def test_window_transition_is_smooth():
    # C^5 handoff: one-sided slopes at both window edges are O(eps^5)
    rho = 1.0
    eps = 1e-3
    lo = (_window(WINDOW_FLAT + eps, rho) - 1.0) / eps
    hi = _window(1.0 - eps, rho) / eps
    assert abs(lo) < 1e-9
    assert abs(hi) < 1e-9


def test_gauss_legendre_nodes_cached_read_only():
    first = disk_rule(16, 32, poles=[0.3 + 0.1j], n_patch=16)
    second = disk_rule(16, 32, poles=[0.3 + 0.1j], n_patch=16)
    assert np.array_equal(first.nodes, second.nodes)
    assert np.array_equal(first.weights, second.weights)
    r, w = quadrature._gauss_legendre(16, 0.0, 1.0)
    assert quadrature._gauss_legendre(16, 0.0, 1.0)[0] is r
    for arr in (r, w):
        with pytest.raises(ValueError):
            arr[0] = 0.5
