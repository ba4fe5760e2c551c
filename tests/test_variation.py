"""Domain-variation estimators: four routes, one number."""

import numpy as np
import pytest

from greenvar.conformal import (
    ConformalMap,
    DomainFamily,
    to_complex,
    to_points,
    cubic_mix_family,
    dilation_family,
    rotation_family,
)
from greenvar.energy_momentum import PolarizedEMT
from greenvar.errors import CoincidentPoleError, ConfigError, DomainError
from greenvar.greens import GreenFunction, green_gradient_field, interior_rule
from greenvar.tensors import (MetricField, VectorField, conformal_metric,
                              strain_tensor, volume_density)
from greenvar.variation import (
    REL_FLOOR,
    VariationReport,
    VolumeEstimate,
    boundary_nodes,
    boundary_variation,
    fd_oracle,
    flux_variation,
    triple_variation,
    variation_report,
    volume_integrand,
    volume_variation,
)

from conftest import interior_points

TWO_PI = 2.0 * np.pi
A0, B0 = (0.0, 0.0), (0.5, 0.0)


def linear_phi(c=0.2):
    def phi(x):
        return c * x[..., 0]

    def grad(x):
        g = np.zeros_like(x)
        g[..., 0] = c
        return g

    return conformal_metric(phi, grad)


# f = z + 0.1 z^2, h = 0.05 z^2 + 0.03 z^3, phi = 0.2 x + 0.1 y^2
CURVED_A, CURVED_B = (0.1, 0.05), (-0.3, 0.2)


def curved_family():
    return DomainFamily([1.0, 0.1], [0.0, 0.05, 0.03])


def curved_metric():
    return conformal_metric(
        lambda p: 0.2 * p[..., 0] + 0.1 * p[..., 1] ** 2,
        lambda p: np.stack([np.full(p.shape[:-1], 0.2), 0.2 * p[..., 1]], axis=-1))


def square_velocity():
    """``v = (x^2, x y)``: smooth, not holomorphic, so ``T : D`` is not 0."""
    def jac(p):
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 0] = 2.0 * p[..., 0]
        J[..., 1, 0] = p[..., 1]
        J[..., 1, 1] = p[..., 0]
        return J

    return VectorField(2, lambda p: np.stack([p[..., 0] ** 2, p[..., 0] * p[..., 1]],
                                             axis=-1), jac)


def dilation_value(a, b):
    # d/dt G((1+t)D)(a, b) at t=0 for fixed poles, from the disk closed form
    ab = complex(*a) * complex(*b).conjugate()
    return (1.0 + (2.0 * ab / (1.0 - ab)).real) / TWO_PI


def test_dilation_all_routes_agree():
    fam = dilation_family()
    exact = 1.0 / TWO_PI
    assert boundary_variation(fam, A0, B0) == pytest.approx(exact, rel=1e-9)
    assert flux_variation(fam, A0, B0) == pytest.approx(exact, rel=1e-9)
    assert fd_oracle(fam, A0, B0) == pytest.approx(exact, rel=1e-6)
    vol = volume_variation(fam, A0, B0)
    assert float(vol) == pytest.approx(exact, rel=5e-3)
    assert vol.converged
    assert vol.pairing == pytest.approx(-exact, rel=1e-14)


def test_dilation_general_poles_closed_form(rng):
    fam = dilation_family()
    for _ in range(5):
        z, w = interior_points(rng, 2, radius=0.6)
        if abs(z - w) < 0.15:
            continue
        a, b = (z.real, z.imag), (w.real, w.imag)
        val = boundary_variation(fam, a, b)
        assert val == pytest.approx(dilation_value(a, b), rel=1e-9)


def test_rotation_is_killing():
    fam = rotation_family()
    assert abs(boundary_variation(fam, A0, B0)) < 1e-12
    assert abs(flux_variation(fam, A0, B0)) < 1e-12
    assert abs(float(volume_variation(fam, A0, B0))) < 1e-12
    assert abs(fd_oracle(fam, A0, B0)) < 1e-8


def test_boundary_symmetric_in_poles():
    fam = cubic_mix_family()
    a, b = (0.2, -0.1), (-0.3, 0.35)
    assert boundary_variation(fam, a, b) == pytest.approx(
        boundary_variation(fam, b, a), rel=1e-14)


def test_boundary_linear_in_velocity():
    h2 = DomainFamily([1.0], [0.0, 0.1], t_max=1.0)
    h3 = DomainFamily([1.0], [0.0, 0.0, 0.05], t_max=1.0)
    both = DomainFamily([1.0], [0.0, 0.1, 0.05], t_max=1.0)
    a, b = (0.1, 0.25), (-0.35, -0.1)
    total = boundary_variation(both, a, b)
    parts = boundary_variation(h2, a, b) + boundary_variation(h3, a, b)
    assert total == pytest.approx(parts, rel=1e-13)


def test_explicit_velocity_override():
    fam = cubic_mix_family()
    a, b = (0.15, 0.0), (-0.2, 0.3)
    v = fam.velocity_field()
    assert boundary_variation(fam, a, b) == boundary_variation(
        fam, a, b, velocity=v)
    assert flux_variation(fam, a, b) == flux_variation(fam, a, b, velocity=v)


def test_bare_map_requires_velocity():
    with pytest.raises(ConfigError):
        boundary_variation(ConformalMap.identity(), A0, B0)


def test_estimators_agree_on_curved_family(rng):
    fam = cubic_mix_family()
    rep = variation_report(fam, (0.1, 0.2), (-0.3, -0.15))
    assert rep.passes
    assert rep.discrepancies["max_rel"] < 5e-3
    # the three spectral routes agree far tighter than the volume one
    assert rep.discrepancies["rel"]["boundary_vs_flux"] < 1e-9
    assert rep.discrepancies["rel"]["boundary_vs_fd_oracle"] < 1e-6


def test_volume_route_with_conformal_metric():
    fam = dilation_family()
    flat_fd = fd_oracle(fam, A0, B0)
    curved = volume_variation(fam, A0, B0, metric=linear_phi())
    assert float(curved) == pytest.approx(flat_fd, rel=1e-2)


def test_flux_is_metric_independent():
    fam = cubic_mix_family()
    a, b = (0.2, 0.1), (-0.25, 0.2)
    flat = flux_variation(fam, a, b)
    curved = flux_variation(fam, a, b, metric=linear_phi())
    assert curved == pytest.approx(flat, rel=1e-12)


def test_volume_estimate_structure():
    est = volume_variation(dilation_family(), A0, B0, n_r=32, n_theta=64,
                           n_patch=16)
    assert isinstance(est, VolumeEstimate)
    assert float(est) == est.value
    assert est.value == pytest.approx(float(est.quadrature) - est.pairing,
                                      rel=1e-15)


def test_fd_oracle_validates_step():
    fam = dilation_family()
    with pytest.raises(ConfigError):
        fd_oracle(fam, A0, B0, dt=0.0)
    with pytest.raises(ConfigError):
        fd_oracle(fam, A0, B0, dt=fam.t_max * 2.0)
    with pytest.raises(ConfigError):
        fd_oracle(ConformalMap.identity(), A0, B0)


def test_fd_oracle_rejects_escaping_pole():
    # shrinking by half leaves a pole at radius 0.7 outside the domain
    with pytest.raises(DomainError):
        fd_oracle(dilation_family(), (0.7, 0.0), (0.1, 0.0), dt=0.5)


def test_triple_reference_value():
    val = triple_variation(None, A0, B0, (0.0, 0.5))
    assert val == pytest.approx(-15.0 / (68.0 * np.pi**2), rel=1e-12)


def test_triple_symmetric_and_negative(rng):
    pts = [(0.1, 0.2), (-0.3, 0.1), (0.25, -0.35)]
    vals = [triple_variation(None, *perm) for perm in
            [(pts[0], pts[1], pts[2]), (pts[0], pts[2], pts[1]),
             (pts[1], pts[0], pts[2]), (pts[1], pts[2], pts[0]),
             (pts[2], pts[0], pts[1]), (pts[2], pts[1], pts[0])]]
    assert max(vals) - min(vals) < 1e-13
    assert all(v < 0.0 for v in vals)


def test_triple_is_gradient_velocity_variation():
    c = (0.0, 0.5)
    direct = triple_variation(None, A0, B0, c)
    via_velocity = boundary_variation(ConformalMap.identity(), A0, B0,
                                      velocity=green_gradient_field(None, c))
    assert direct == pytest.approx(via_velocity, rel=1e-10)


def test_triple_rejects_coincident_points():
    with pytest.raises(CoincidentPoleError):
        triple_variation(None, A0, A0, (0.0, 0.5))


def test_report_requires_all_estimators():
    with pytest.raises(ConfigError):
        VariationReport(estimates={"boundary": 1.0, "volume": 1.0})


def test_report_discrepancy_arithmetic():
    rep = VariationReport(estimates={
        "boundary": 1.0, "volume": 1.001, "flux": 1.0, "fd_oracle": 1.0})
    d = rep.discrepancies
    assert d["abs"]["boundary_vs_volume"] == pytest.approx(1e-3)
    assert d["rel"]["boundary_vs_flux"] == 0.0
    assert d["max_rel"] == pytest.approx(1e-3 / 1.001)
    assert rep.passes
    assert not VariationReport(rep.estimates, tol_volume=1e-4).passes


def test_report_relative_floor():
    # near zero the comparison degrades to absolute against REL_FLOOR
    rep = VariationReport(estimates={
        "boundary": 1e-8, "volume": 2e-8, "flux": 1.2e-8, "fd_oracle": 0.0})
    assert rep.discrepancies["max_rel"] == pytest.approx(2e-8 / REL_FLOOR)
    assert rep.passes


def test_report_strict_false_records_skip():
    fam = dilation_family()
    rep = variation_report(fam, A0, B0, dt=10.0, strict=False)
    assert rep.estimates["fd_oracle"] is None
    assert not rep.passes
    assert "fd_oracle" in rep.params["skips"]
    assert "ConfigError" in rep.params["skips"]["fd_oracle"]
    assert rep.estimates["boundary"] == pytest.approx(1.0 / TWO_PI, rel=1e-9)


def test_report_json_layout():
    rep = variation_report(dilation_family(), A0, B0, n_r=32, n_theta=64,
                           n_patch=16, m=128)
    doc = rep.to_json()
    assert set(doc) == {"estimates", "discrepancies", "params", "passes"}
    assert doc["passes"] is True
    assert doc["params"]["volume_converged"] is True
    assert doc["params"]["fd_richardson_gap"] < 1e-8
    assert set(doc["estimates"]) == {"boundary", "volume", "flux", "fd_oracle"}


def test_pulled_back_integrand_matches_ambient_pieces():
    # the disk integrand against f^*g equals the x-space T^{ij} D_ij
    # sqrt(det g) |f'|^2, node by node.  The x-space Green gradients are
    # taken at the nodes' own preimages: Newton's 1e-14 residual would cost
    # up to 1e-9 relative at patch nodes 1e-5 from a pole.
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    fmap = fam.base
    rule = interior_rule(fmap, poles=[CURVED_A, CURVED_B], n_r=32, n_theta=64,
                         n_patch=16)
    z = to_complex(rule.nodes)
    x = to_points(fmap(z))
    green = GreenFunction(fmap)
    wa, wb = green.pole_preimage(CURVED_A), green.pole_preimage(CURVED_B)
    emt = PolarizedEMT(CURVED_A, CURVED_B,
                       lambda p: to_points(green.gradient_z(z, wa)),
                       lambda p: to_points(green.gradient_z(z, wb)), metric=met)
    T, D = emt.emt_contra(x), strain_tensor(met, v, x)
    jac = np.abs(fmap.derivative(z)) ** 2
    want = np.sum(T * D, axis=(-2, -1)) * volume_density(met, x) * jac
    scale = (np.linalg.norm(T, axis=(-2, -1)) * np.linalg.norm(D, axis=(-2, -1))
             * volume_density(met, x) * jac)
    got = volume_integrand(fam, CURVED_A, CURVED_B, metric=met, velocity=v)(rule.nodes)
    assert np.max(np.abs(got - want) / scale) < 1e-12
    assert np.max(np.abs(want) / scale) > 0.1  # the integrand is not identically 0


def test_general_metric_pullback_matches_conformal():
    # the same metric as an untagged MetricField: matrix, chain-rule derivative
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    general = MetricField(2, met, met.derivative)
    kw = dict(velocity=v, n_r=32, n_theta=64, n_patch=16, check=False)
    closed = volume_variation(fam, CURVED_A, CURVED_B, metric=met, **kw)
    ref = volume_variation(fam, CURVED_A, CURVED_B, metric=general, **kw)
    assert float(closed) == pytest.approx(float(ref), rel=1e-12)


def test_non_holomorphic_volume_gap_shrinks():
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    exact = boundary_variation(fam, CURVED_A, CURVED_B, velocity=v)
    gaps = []
    for n_r, n_theta, n_patch in [(32, 64, 16), (64, 128, 32), (128, 256, 64)]:
        est = volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=v,
                               n_r=n_r, n_theta=n_theta, n_patch=n_patch)
        gaps.append(abs(float(est) - exact) / abs(exact))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6


def test_boundary_nodes_follow_the_pole_preimages():
    fam = dilation_family()
    fmap = fam.map_at(0.0)
    assert boundary_nodes(fmap, A0, B0) == 256
    assert boundary_nodes(fmap, (0.94, 0.0), (0.0, 0.5)) == 1024
    assert boundary_nodes(fmap, (0.999, 0.0)) == 2**14
    assert boundary_nodes(curved_family().map_at(0.0), CURVED_A, CURVED_B) == 256


def test_default_boundary_resolution_near_the_margin():
    # r^m at m = 256 and r = 0.94 is 1.3e-7: the default must refine
    fam = dilation_family()
    a, b, c = (0.94, 0.0), (0.0, 0.5), (-0.3, -0.4)
    assert boundary_variation(fam, a, b) == boundary_variation(fam, a, b, m=1024)
    assert flux_variation(fam, a, b) == flux_variation(fam, a, b, m=1024)
    assert triple_variation(fam, a, b, c) == triple_variation(fam, a, b, c, m=1024)
    assert boundary_variation(fam, a, b) == pytest.approx(dilation_value(a, b), rel=1e-14)
    rep = variation_report(fam, a, b, n_r=32, n_theta=64, n_patch=16)
    assert rep.params["m_boundary"] == 1024
    assert rep.estimates["boundary"] == boundary_variation(fam, a, b)


def test_boundary_nodes_follow_the_critical_points():
    # the integrand carries h/f' and 1/|f'|, so the zero of f' nearest the
    # circle (modulus 1.014 here) sets the trapezoid rate, not the poles
    fam = DomainFamily([1.0, 0.01 - 0.22j, -0.11 - 0.01j, -0.17], [0.0, 0.05, 0.03],
                       t_max=0.1)
    a, b = (0.1, 0.05), (-0.3, 0.2)
    assert boundary_nodes(fam.map_at(0.0), a, b) == 4096
    rep = variation_report(fam, a, b)
    assert rep.params["m_boundary"] == 4096
    assert rep.passes
    assert rep.discrepancies["max_rel"] < 1e-8
    assert boundary_variation(fam, a, b, m=256) != pytest.approx(rep.estimates["boundary"],
                                                                 rel=1e-2)
