"""Domain-variation estimators: four routes, one number."""

import gc
import math
import re
import weakref

import numpy as np
import pytest

from greenvar.conformal import (
    ConformalMap,
    DomainFamily,
    as_map,
    boundary_grid,
    pullback_metric,
    pullback_vector_field,
    to_complex,
    to_points,
    cubic_mix_family,
    dilation_family,
    rotation_family,
)
from greenvar.energy_momentum import PolarizedEMT
from greenvar import conformal, energy_momentum, greens, quadrature, variation
from greenvar.errors import (CoincidentPoleError, ConfigError, DegenerateMetricError,
                             DomainError, EvaluationError, GreenvarError,
                             NonConformalMetricError)
from greenvar.greens import GreenFunction, green_gradient_field, interior_rule, mutual_energy
from greenvar.quadrature import integrate
from greenvar.tensors import (MetricField, VectorField, conformal_metric,
                              euclidean_metric, strain_tensor, volume_density)
from greenvar.variation import (
    REL_FLOOR,
    VariationReport,
    VolumeEstimate,
    boundary_nodes,
    boundary_variation,
    fd_oracle,
    fd_oracles,
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
    # None is no family either: the message names what the route needs
    for d, name in ((None, "NoneType"), (ConformalMap.identity(), "ConformalMap")):
        for route in (boundary_variation, flux_variation):
            with pytest.raises(ConfigError, match="a route without velocity= needs a "
                                                  f"DomainFamily, got {name}$"):
                route(d, A0, B0)


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


def riemannian_flux_density(fam, a, b, m, metric, velocity):
    """``T^{ij} v_i nu_j dsigma_g / dtheta`` at the nodes of the ``m``-node
    grid, assembled as tensors on the unit circle against ``f^* g``: the
    disk EMT, the lowered velocity, the ``g``-unit conormal of the flat
    normal ``e^{i theta}`` and the ``g``-length of the flat unit tangent."""
    fmap = fam.base
    wa, wb = GreenFunction(fmap).pole_preimages(a, b)
    g = pullback_metric(fmap, metric if metric is not None else euclidean_metric(2))
    emt = PolarizedEMT.from_map(None, to_points(wa), to_points(wb), metric=g)
    v = (fam.disk_velocity_field() if velocity is None
         else pullback_vector_field(fmap, velocity))
    x = n = to_points(boundary_grid(fam, m=m).params)
    gx, ginv = g(x), g.inverse(x)
    v_low = np.einsum("mij,mj->mi", gx, v(x))
    nu = n / np.sqrt(np.einsum("mij,mi,mj->m", ginv, n, n))[:, None]
    t = np.stack([-n[:, 1], n[:, 0]], axis=-1)
    stretch = np.sqrt(np.einsum("mij,mi,mj->m", gx, t, t))
    return np.einsum("mij,mi,mj->m", emt.emt_contra(x), v_low, nu) * stretch


FLUX_CASES = ([(curved_family, CURVED_A, CURVED_B, m, metric, velocity)
               for m in (256, 1024)
               for metric in (None, curved_metric())
               for velocity in (None, square_velocity())]
              + [(dilation_family, A0, B0, 256, metric, None)
                 for metric in (None, linear_phi())])


@pytest.mark.parametrize("factory, a, b, m, metric, velocity", FLUX_CASES)
def test_flux_closed_form_is_the_riemannian_boundary_form(factory, a, b, m, metric,
                                                          velocity):
    # the paper's boundary form, with g, g^{-1}, T^{ij}, the conormal and the
    # induced length as tensors, against Re(conj(g_a g_b) v~ e) node by node;
    # the metric cancels in the first and is never evaluated in the second
    fam = factory()
    want = riemannian_flux_density(fam, a, b, m, metric, velocity)
    grid = boundary_grid(fam, m=m)
    e = grid.params
    wa, wb = GreenFunction(fam.base).pole_preimages(a, b)
    vt = to_complex(variation._velocity(fam, velocity, disk=True)(to_points(e)))
    got = np.real(variation._complex_emt(e, wa, wb) * vt * e)
    scale = np.abs(greens._disk_gradient(e, wa) * greens._disk_gradient(e, wb) * vt)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    assert np.max(np.abs(want)) > 0.0
    value = flux_variation(fam, a, b, m=m, metric=metric, velocity=velocity)
    oracle = math.fsum(grid.weights * want / grid.speed)
    assert value == pytest.approx(oracle, rel=1e-14, abs=0.0)


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


def fd_reference(family, a, b, dt):
    """The FD oracle one map at a time: ``GreenFunction(family.map_at(+-dt)).value``."""
    gp, gm = (GreenFunction(family.map_at(t)).value(a, b) for t in (dt, -dt))
    return (gp - gm) / (2.0 * dt)


def outcome(run):
    """``run()``'s value by ``float.hex``, or its package error's class and message."""
    try:
        return run().hex()
    except GreenvarError as exc:
        return f"{type(exc).__name__}: {exc}"


# z + (0.01-0.22i) z^2 + (-0.11-0.01i) z^3 - 0.17 z^4, univalent; Newton from
# x / c_1 ends outside the disk at this point on the maps at t = +-1e-5
QUARTIC_FAMILY = ([1.0, 0.01 - 0.22j, -0.11 - 0.01j, -0.17], [0.0, 0.05, 0.03], 0.1)
QUARTIC_FALLBACK_POLE = (0.75066882125073, -0.21444354393581483)


@pytest.mark.parametrize("factory", [dilation_family, rotation_family, cubic_mix_family,
                                     curved_family, lambda: DomainFamily(*QUARTIC_FAMILY)])
def test_fd_oracle_gives_the_bits_of_one_map_per_step(factory, monkeypatch):
    # degree-1 rows (no Newton), an identity base, a curved base, and a row
    # that reaches the least-root fallback: one batched Newton call gives the
    # per-map bits at every step, the Richardson gap included
    fam = factory()
    rng = np.random.default_rng(11)
    w = 0.9 * np.sqrt(rng.uniform(size=(6, 2))) * np.exp(2j * np.pi * rng.uniform(size=(6, 2)))
    poles = [tuple(tuple(to_points(fam.base(p))) for p in pair) for pair in w]
    fallbacks = []
    if fam.base.degree == 4:
        poles.append((QUARTIC_FALLBACK_POLE, CURVED_B))
        least_root = ConformalMap._least_root
        monkeypatch.setattr(ConformalMap, "_least_root", staticmethod(
            lambda c, xi: fallbacks.append(xi) or least_root(c, xi)))
    steps = [variation.DEFAULT_FD_FACTOR * fam.t_max, 0.5e-4 * fam.t_max, 1e-2 * fam.t_max]
    for a, b in poles:
        want = [fd_reference(fam, a, b, s).hex() for s in steps]
        reference_fallbacks = len(fallbacks)
        assert fd_oracle(fam, a, b).hex() == want[0]
        assert [v.hex() for v in fd_oracles(fam, a, b, steps)] == want
    # the fallback pole reached _least_root in the reference and in fd_oracles
    assert (reference_fallbacks > 0 and len(fallbacks) > reference_fallbacks) == (
        fam.base.degree == 4)
    a, b, dt = *poles[0], steps[0]
    rep = variation_report(fam, a, b, m=256, **SMALL_RULE)
    gap = abs(fd_reference(fam, a, b, dt) - fd_reference(fam, a, b, dt / 2.0))
    assert rep.estimates["fd_oracle"].hex() == fd_reference(fam, a, b, dt).hex()
    assert rep.params["fd_richardson_gap"].hex() == gap.hex()


def test_fd_oracle_fails_as_one_map_at_a_time_does():
    # the point a and the pole b leaving the +dt or the -dt map raise the
    # per-map class and message, +dt before -dt, a before b, the larger step first
    bump = DomainFamily([1.0], [0.0, 1.0], t_max=0.4)  # f_t(+-1) = +-1 + t
    shrink = DomainFamily([1.0], [-1.0], t_max=0.5)
    cases = [
        (dilation_family(), (0.7, 0.0), (0.1, 0.0), [0.5]),    # a outside at -dt
        (shrink, (0.7, 0.0), (0.1, 0.0), [0.5]),               # a outside at +dt
        (dilation_family(), (0.1, 0.0), (0.7, 0.0), [0.5]),    # b outside at -dt
        (dilation_family(), (0.1, 0.0), (0.5, 0.0), [0.5]),    # b on the -dt circle
        (bump, (-0.95, 0.0), (0.95, 0.0), [0.1]),               # a at +dt, b at -dt
        (bump, (0.95, 0.0), (-0.95, 0.0), [0.1]),               # b at +dt, a at -dt
        (bump, (-0.95, 0.0), (0.95, 0.0), [0.04, 0.1]),         # only the second step
        (bump, (0.95, 0.0), (-0.9, 0.0), [0.1]),   # b on the +dt circle, then a out at -dt
        (dilation_family(), (0.1, 0.0), (0.7, 0.0), [0.5, 0.4]),
    ]
    seen = set()
    for fam, a, b, steps in cases:
        got = outcome(lambda: np.float64(fd_oracles(fam, a, b, steps)[-1]))
        want = outcome(lambda: np.float64([fd_reference(fam, a, b, s) for s in steps][-1]))
        assert got == want, (a, b, steps)
        assert outcome(lambda: fd_oracle(fam, a, b, dt=steps[0])) == outcome(
            lambda: fd_reference(fam, a, b, steps[0]))
        seen.add(want.split(":")[1])
    assert seen == {" point outside the mapped disk", " source point must lie in the open domain"}


def test_fd_oracle_runs_one_newton_call_and_no_inverse(monkeypatch):
    # the base map holds the poles: every (t, pole) row of every step is
    # solved by one Newton call on coefficient rows, none by ConformalMap.inverse
    fam = curved_family()
    GreenFunction(fam.base).pole_preimages(CURVED_A, CURVED_B)
    rows, inverted = [], []
    newton, inverse = conformal._newton_rows, ConformalMap.inverse
    counted = lambda c, x, z: rows.append(len(c)) or newton(c, x, z)
    monkeypatch.setattr(conformal, "_newton_rows", counted)
    monkeypatch.setattr(variation, "_newton_rows", counted)
    monkeypatch.setattr(ConformalMap, "inverse",
                        lambda self, x: inverted.append(self) or inverse(self, x))
    fd_oracle(fam, CURVED_A, CURVED_B)
    assert (rows, inverted) == ([4], [])
    rows.clear()
    variation_report(fam, CURVED_A, CURVED_B, **SMALL_RULE)
    assert rows == [8]


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


POLE_ENTRY_POINTS = {
    "boundary_nodes": lambda fam, a, b: boundary_nodes(fam.base, a, b),
    "volume_integrand": lambda fam, a, b: volume_integrand(fam, a, b),
    "interior_rule": lambda fam, a, b: interior_rule(fam.base, poles=[a, b], n_r=16,
                                                     n_theta=32, n_patch=8),
    "mutual_energy": lambda fam, a, b: mutual_energy(fam.base, a, b),
    "boundary_variation": lambda fam, a, b: boundary_variation(fam, a, b),
    "volume_variation": lambda fam, a, b: volume_variation(fam, a, b, n_r=16, n_theta=32,
                                                           n_patch=8),
    "flux_variation": lambda fam, a, b: flux_variation(fam, a, b),
    "fd_oracle": lambda fam, a, b: fd_oracle(fam, a, b),
    "triple_variation": lambda fam, a, b: triple_variation(fam, a, b, (-0.3, 0.2)),
    "variation_report": lambda fam, a, b: variation_report(fam, a, b, n_r=16, n_theta=32,
                                                           n_patch=8),
    "variation_report_lenient": lambda fam, a, b: variation_report(
        fam, a, b, m=256, n_r=16, n_theta=32, n_patch=8, strict=False),
}


@pytest.mark.parametrize("entry", sorted(POLE_ENTRY_POINTS))
def test_every_entry_point_rejects_bad_poles(entry):
    # bad poles are bad input, not an estimator failure: every entry point
    # raises, variation_report whatever strict, and boundary_nodes no longer
    # returns a resolution for them
    run, fam = POLE_ENTRY_POINTS[entry], cubic_mix_family()
    with pytest.raises(CoincidentPoleError):
        run(fam, (0.2, 0.1), (0.2, 0.1))
    with pytest.raises(DomainError):
        run(fam, (1.0, 0.0), (0.2, 0.1))


X_PTS = np.array([[0.05, -0.1], [-0.2, 0.3], [0.4, 0.1]])

# Every public entry point that reads a map from its domain argument, as
# ``run(domain, velocity)``; the velocity only reaches the routes that take one.
DOMAIN_ENTRY_POINTS = {
    "boundary_grid": lambda d, v: boundary_grid(d, m=64).nodes,
    "GreenFunction": lambda d, v: GreenFunction(d).value(X_PTS, CURVED_A),
    "green_gradient_field": lambda d, v: green_gradient_field(d, CURVED_C).jacobian(X_PTS),
    "interior_rule": lambda d, v: interior_rule(d, poles=[CURVED_A, CURVED_B], n_r=16,
                                                n_theta=32, n_patch=8).nodes,
    "mutual_energy": lambda d, v: mutual_energy(d, CURVED_A, CURVED_B),
    "PolarizedEMT.from_map": lambda d, v: PolarizedEMT.from_map(
        d, CURVED_A, CURVED_B).divergence(X_PTS),  # reads the map for the margin
    "boundary_nodes": lambda d, v: boundary_nodes(d, CURVED_A, CURVED_B),
    "boundary_variation": lambda d, v: boundary_variation(d, CURVED_A, CURVED_B,
                                                          velocity=v),
    "volume_variation": lambda d, v: volume_variation(
        d, CURVED_A, CURVED_B, velocity=v, n_r=16, n_theta=32, n_patch=8).value,
    "volume_integrand": lambda d, v: volume_integrand(d, CURVED_A, CURVED_B,
                                                      velocity=v)(0.5 * X_PTS),
    "flux_variation": lambda d, v: flux_variation(d, CURVED_A, CURVED_B, velocity=v),
    "triple_variation": lambda d, v: triple_variation(d, CURVED_A, CURVED_B, CURVED_C),
}


@pytest.mark.parametrize("entry", sorted(DOMAIN_ENTRY_POINTS))
def test_every_entry_point_reads_its_domain_by_one_rule(entry):
    # None is the unit disk, a family is its t = 0 map: the same bits as the
    # bare base map; anything else is a ConfigError naming the type
    run, fam, v = DOMAIN_ENTRY_POINTS[entry], curved_family(), square_velocity()
    run(None, v)
    run(fam, None)
    assert np.asarray(run(fam, v)).tobytes() == np.asarray(run(fam.base, v)).tobytes()
    for bad in ("x", 3):
        for vel in (None, v):
            with pytest.raises(ConfigError, match=f"got {type(bad).__name__}$"):
                run(bad, vel)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("domain", ["none", "bare map"])
def test_family_routes_refuse_a_bare_domain(domain, strict, monkeypatch):
    # the FD oracle and the report read t_max and the perturbed maps: a
    # domain without them is bad input, refused before any estimator runs
    for route in ("boundary_variation", "volume_variation", "flux_variation", "fd_oracle"):
        monkeypatch.setattr(variation, route, lambda *a, **k: pytest.fail("an estimator ran"))
    d = curved_family().base if domain == "bare map" else None
    name = type(d).__name__
    with pytest.raises(ConfigError, match=f"fd_oracle needs a DomainFamily, got {name}$"):
        fd_oracle(d, CURVED_A, CURVED_B)
    with pytest.raises(ConfigError,
                       match=f"variation_report needs a DomainFamily, got {name}$"):
        variation_report(d, CURVED_A, CURVED_B, dt=1e-4, strict=strict)


def test_boundary_variation_runs_no_newton_sweep(monkeypatch):
    # the t = 0 map of cubic_mix is its identity base, not the base padded
    # to the perturbation's degree, so the poles invert in closed form
    sweeps = []
    newton = conformal._newton_rows
    monkeypatch.setattr(conformal, "_newton_rows",
                        lambda c, x, z: sweeps.append(x.size) or newton(c, x, z))
    fam = cubic_mix_family()
    boundary_variation(fam, (0.2, 0.1), (-0.3, 0.2))
    assert sweeps == []
    boundary_variation(curved_family(), CURVED_A, CURVED_B)
    assert sweeps == [1, 1]


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


def test_an_fd_step_is_a_real_number():
    # a float, a numpy floating scalar or an int within the double range, taken
    # as its double; anything else is a ConfigError naming the step, a skip
    # with strict=False
    fam, a, b = rotation_family(), (0.1, 0.0), (0.0, 0.3)
    for dt, same in ((np.float64(1e-4), 1e-4), (np.float32(1e-4), float(np.float32(1e-4))),
                     (1, 1.0)):
        assert fd_oracle(fam, a, b, dt=dt).hex() == fd_oracle(fam, a, b, dt=same).hex()
        assert fd_oracles(fam, a, b, [dt]) == fd_oracles(fam, a, b, [same])
    for bad in ("1e-4", True, np.bool_(True), 10**400, 1e-4 + 0j, [1e-4]):
        with pytest.raises(ConfigError, match=f"fd step {re.escape(repr(bad))} must be a real"):
            fd_oracle(fam, a, b, dt=bad)
        with pytest.raises(ConfigError, match="fd step"):
            fd_oracles(fam, a, b, [1e-4, bad])
        with pytest.raises(ConfigError, match="fd step"):
            variation_report(fam, a, b, m=64, n_r=16, n_theta=32, n_patch=8, dt=bad)
        rep = variation_report(fam, a, b, m=64, n_r=16, n_theta=32, n_patch=8, dt=bad,
                               strict=False)
        assert rep.estimates["fd_oracle"] is None and "fd_richardson_gap" not in rep.params
        assert rep.params["skips"] == {"fd_oracle": f"ConfigError: fd step {bad!r} must be a "
                                                    "real number in (0, t_max=1]"}


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


def pole_routes(fam, met, v):
    """Every public route that takes poles, on ``fam`` with the metric and velocity."""
    kw = dict(n_r=16, n_theta=32, n_patch=8)
    return {
        "boundary": lambda a, b: boundary_variation(fam, a, b),
        "boundary velocity": lambda a, b: boundary_variation(fam, a, b, velocity=v),
        "flux": lambda a, b: flux_variation(fam, a, b, metric=met, velocity=v),
        "fd": lambda a, b: fd_oracle(fam, a, b),
        "triple": lambda a, b: triple_variation(fam, a, b, (0.25, -0.35)),
        "nodes": lambda a, b: boundary_nodes(fam.base, a, b),
        "volume": lambda a, b: volume_variation(fam, a, b, metric=met, **kw).value,
        "volume velocity": lambda a, b: volume_variation(fam, a, b, metric=met, velocity=v,
                                                         **kw).value,
        "report": lambda a, b: variation_report(fam, a, b, metric=met, **kw).to_json(),
    }


def test_every_route_refuses_a_pole_that_is_not_one_point():
    # (0.1,) ran as (0.1, 0) and [[0.1, 0.05]] as one pole (fd_oracle returned
    # an array); (0.1, 0.05, 0) ended in numpy's ambiguous truth value
    for name, route in pole_routes(curved_family(), curved_metric(), square_velocity()).items():
        for bad in ((0.1,), np.array([[0.1, 0.05]]), (0.1, 0.05, 0.0), ((0.1, 0.05), 0.2)):
            with pytest.raises(ConfigError, match="pole argument 1"):
                route(CURVED_A, bad)


def test_a_complex_pole_gives_the_bits_of_its_pair():
    # variation_report's metric check and the volume route's pairing with a
    # given velocity raised TypeError on a complex pole
    routes = pole_routes(curved_family(), curved_metric(), square_velocity())
    a, b = (complex(*p) for p in (CURVED_A, CURVED_B))
    for name, route in routes.items():
        assert repr(route(a, b)) == repr(route(CURVED_A, CURVED_B)), name


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


def constant_metric(matrix):
    """An untagged ``MetricField`` with the constant ``matrix``."""
    g = np.asarray(matrix, dtype=float)
    return MetricField(2, lambda p: np.broadcast_to(g, p.shape[:-1] + (2, 2)),
                       lambda p: np.zeros(p.shape[:-1] + (2, 2, 2)))


def test_closed_form_integrand_matches_the_tensor_route(monkeypatch):
    # 2 Re(A B dbar v conj(f') / f') against T^{ij} D_ij vol of f^*g, node by
    # node, on a velocity whose integrand is not 0, under a tagged and a
    # matrix-built conformal metric; the 128x256x64 rule spans several
    # closed-form blocks and ends in a partial one
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    fmap = fam.base
    block = variation.BLOCK
    for n_r, n_theta, n_patch in ((32, 64, 16), (128, 256, 64)):
        rule = interior_rule(fmap, poles=[CURVED_A, CURVED_B], n_r=n_r,
                             n_theta=n_theta, n_patch=n_patch)
        for metric in (met, MetricField(2, met, met.derivative)):
            want = volume_integrand(fam, CURVED_A, CURVED_B, metric=metric,
                                    velocity=v)(rule.nodes)
            integrand = variation._closed_form_integrand(fam, fmap, rule, metric, v)
            got = integrand(rule.nodes)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
            assert np.max(np.abs(want)) > 0.0
    assert rule.node_count > block and rule.node_count % block
    assert (integrate(rule, integrand, check=False).value
            == math.fsum(rule.weights * integrand(rule.nodes)))
    monkeypatch.setattr(variation, "BLOCK", rule.node_count)
    assert np.array_equal(integrand(rule.nodes), got)


def _kernel_points(rng, wa, wb):
    # seeded disk points, the circle and points 1e-6 from each pole
    disk = np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    circle = np.exp(2j * np.pi * np.arange(1024) / 1024)
    near = [w + 1e-6 * np.exp(2j * np.pi * rng.uniform(size=64)) for w in (wa, wb)]
    return np.concatenate([disk, circle] + near)


def _max_rel(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


def _gradient_product(z, wa, wb):
    return np.conj(greens._disk_gradient(z, wa) * greens._disk_gradient(z, wb))


# preimage modulus 0.94: there the sum 1/(z - w) + conj(w)/(1 - z conj(w)) of
# the gradient cancels to (1 - |w|^2)/(...) and loses about 6e-15
NEAR_RIM_POLES = ((0.94 + 0j, 0.5j), (0.94 * np.exp(0.7j), -0.2 + 0.1j))


def test_rational_kernel_is_the_product_of_the_disk_gradients():
    # conj(g_a g_b) = C / ((z - wa)(1 - z conj(wa))(z - wb)(1 - z conj(wb)))
    rng = np.random.default_rng(19)
    wa, wb = GreenFunction(curved_family().base).pole_preimages(CURVED_A, CURVED_B)
    z = _kernel_points(rng, wa, wb)
    assert _max_rel(variation._complex_emt(z, wa, wb), _gradient_product(z, wa, wb)) <= 1e-15
    for wa, wb in NEAR_RIM_POLES:
        z = _kernel_points(rng, wa, wb)
        assert _max_rel(_gradient_product(z, wa, wb), variation._complex_emt(z, wa, wb)) <= 1e-14


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
def test_rational_kernel_near_the_rim_against_long_double():
    rng = np.random.default_rng(94)
    for wa, wb in NEAR_RIM_POLES:
        z = _kernel_points(rng, wa, wb)
        zl, pi = z.astype(np.clongdouble), np.longdouble(np.pi)
        ref = np.prod([(1 - abs(np.clongdouble(w)) ** 2)
                       / ((zl - w) * (1 - zl * np.conj(np.clongdouble(w)))) for w in (wa, wb)],
                      axis=0) / (4 * pi ** 2)
        assert _max_rel(variation._complex_emt(z, wa, wb), ref) <= 2e-15


def test_closed_form_reads_any_node_layout_to_the_same_bits():
    # a Fortran-ordered copy of rule.nodes gives the bits of the C-ordered
    # buffer; the 128x256x64 rule ends in a partial block
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    fmap = fam.base
    rule = interior_rule(fmap, poles=[CURVED_A, CURVED_B], n_r=128, n_theta=256, n_patch=64)
    assert rule.node_count % variation.BLOCK
    integrand = variation._closed_form_integrand(fam, fmap, rule, met, v)
    fortran = np.asfortranarray(rule.nodes)
    assert not fortran.flags.c_contiguous
    assert integrand(fortran).tobytes() == integrand(rule.nodes).tobytes()


def test_tensor_route_cross_check_fires(monkeypatch):
    strain = variation.strain_tensor
    monkeypatch.setattr(variation, "strain_tensor", lambda *args: 2.0 * strain(*args))
    with pytest.raises(EvaluationError, match="tensor route"):
        volume_variation(curved_family(), CURVED_A, CURVED_B, metric=curved_metric(),
                         velocity=square_velocity(), n_r=32, n_theta=64, n_patch=16)


def test_family_velocity_integrand_is_exactly_zero():
    est = volume_variation(curved_family(), CURVED_A, CURVED_B, metric=curved_metric(),
                           n_r=32, n_theta=64, n_patch=16)
    assert est.quadrature.value == 0.0
    assert est.quadrature.coarse_value == 0.0
    assert est.quadrature.rel_change == 0.0
    assert est.value == -est.pairing


def test_no_node_is_mapped_when_nothing_reads_f(monkeypatch):
    # the family velocity without a metric: the closed form is 0 and reads
    # neither f(z) nor a metric value there, so only the poles and the
    # tensor route's cross-check nodes are mapped
    fam, kw = curved_family(), dict(n_r=16, n_theta=32, n_patch=8)
    sizes = []
    image = ConformalMap.__call__
    monkeypatch.setattr(ConformalMap, "__call__",
                        lambda self, z: sizes.append(np.size(z)) or image(self, z))
    est = volume_variation(fam, CURVED_A, CURVED_B, **kw)
    assert est.quadrature.value == 0.0 and est.value == -est.pairing
    rule = interior_rule(fam.base, poles=[CURVED_A, CURVED_B], **kw)
    assert rule.coarse().node_count > variation.CROSS_CHECK_NODES
    assert sizes and max(sizes) <= variation.CROSS_CHECK_NODES


def test_non_conformal_metric_is_rejected():
    # the Green functions are those of the flat Laplacian: with g = diag(1, 2)
    # the estimators would return numbers that belong to no problem
    fam, g = curved_family(), constant_metric([[1.0, 0.0], [0.0, 2.0]])
    kw = dict(n_r=32, n_theta=64, n_patch=16)
    with pytest.raises(ConfigError, match="not conformal"):
        volume_variation(fam, CURVED_A, CURVED_B, metric=g, **kw)
    with pytest.raises(ConfigError, match="not conformal"):
        volume_variation(fam, CURVED_A, CURVED_B, metric=g, velocity=square_velocity(),
                         **kw)
    with pytest.raises(ConfigError, match="not conformal"):
        flux_variation(fam, CURVED_A, CURVED_B, metric=g)
    for strict in (True, False):
        with pytest.raises(ConfigError, match="not conformal"):
            variation_report(fam, CURVED_A, CURVED_B, metric=g, strict=strict, **kw)
    # the metric is evaluated at every image node and boundary node, so its
    # own gates still run where neither closed form needs a metric value
    overflow = conformal_metric(lambda p: np.where(p[..., 0] > 0.5, 400.0, 0.0))
    for bad in (constant_metric(-np.eye(2)), overflow):
        with pytest.raises(DegenerateMetricError):
            volume_variation(fam, CURVED_A, CURVED_B, metric=bad, **kw)
        with pytest.raises(DegenerateMetricError):
            flux_variation(fam, CURVED_A, CURVED_B, metric=bad)
    # diag(1, 2) only where x > 0.9, near the boundary and away from the poles
    def partly(p):
        g = np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2)).copy()
        g[p[..., 0] > 0.9, 1, 1] = 2.0
        return g

    part = MetricField(2, partly, lambda p: np.zeros(p.shape[:-1] + (2, 2, 2)))
    with pytest.raises(ConfigError, match="not conformal"):
        flux_variation(fam, CURVED_A, CURVED_B, metric=part)
    for velocity in (None, square_velocity()):
        with pytest.raises(ConfigError, match="not conformal"):
            volume_variation(fam, CURVED_A, CURVED_B, metric=part, velocity=velocity, **kw)
    # an estimator that finds the metric not conformal raises out of the
    # report whatever strict: bad input is not a skip
    for strict in (True, False):
        with pytest.raises(ConfigError, match="not conformal"):
            variation_report(fam, CURVED_A, CURVED_B, metric=part, strict=strict, **kw)


def test_metric_non_conformal_on_a_small_interior_disc_is_rejected():
    # diag(1, 2) only on a disc of radius 0.04 about f(0.5625 e^{i pi/64}),
    # between the circles |z| = 1/2 and 5/8, away from the poles and the
    # boundary: only the volume route's image nodes see it, and the report
    # raises its error whatever strict, before the flux or the FD oracle run
    fam, kw = curved_family(), dict(n_r=32, n_theta=64, n_patch=16)
    c = to_points(fam.base(0.5625 * np.exp(1j * np.pi / 64)))

    def disc(p):
        g = np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2)).copy()
        g[np.linalg.norm(p - c, axis=-1) < 0.04, 1, 1] = 2.0
        return g

    g = MetricField(2, disc, lambda p: np.zeros(p.shape[:-1] + (2, 2, 2)))
    assert np.isfinite(flux_variation(fam, CURVED_A, CURVED_B, metric=g))
    with pytest.raises(NonConformalMetricError):
        volume_variation(fam, CURVED_A, CURVED_B, metric=g, **kw)
    for strict in (True, False):
        with pytest.raises(NonConformalMetricError):
            variation_report(fam, CURVED_A, CURVED_B, metric=g, strict=strict, **kw)


CURVED_C = (0.25, -0.35)
SMALL_RULE = dict(n_r=16, n_theta=32, n_patch=8)


def count_inversions(monkeypatch, fmap):
    """Record the size of every point batch ``fmap`` inverts."""
    calls = []
    inverse = ConformalMap.inverse

    def counted(self, x):
        if self is fmap:
            calls.append(np.size(x))
        return inverse(self, x)

    monkeypatch.setattr(ConformalMap, "inverse", counted)
    return calls


def every_route(fam):
    """Each entry point that takes the poles ``CURVED_A`` and ``CURVED_B``."""
    a, b, met = CURVED_A, CURVED_B, curved_metric()
    boundary_nodes(fam.base, a, b)
    boundary_variation(fam, a, b)
    boundary_variation(fam, b, a, m=512)
    flux_variation(fam, a, b, metric=met)
    flux_variation(fam, b, a, m=512, velocity=square_velocity())
    for velocity in (None, square_velocity()):
        volume_variation(fam, a, b, metric=met, velocity=velocity, **SMALL_RULE)
    volume_integrand(fam, a, b)
    fd_oracle(fam, a, b)
    mutual_energy(fam.base, a, b, rule=interior_rule(fam.base, poles=[a, b], **SMALL_RULE))
    variation_report(fam, a, b, metric=met, **SMALL_RULE)


def test_boundary_routes_invert_each_pole_once(monkeypatch):
    # the family velocity is h at the node preimages, and the default m and
    # the normal derivatives take the preimages the base map holds: the first
    # call inverts each pole once, a second call by any route none
    fam = curved_family()
    calls = count_inversions(monkeypatch, fam.base)
    value = boundary_variation(fam, CURVED_A, CURVED_B)
    assert calls == [1, 1]
    triple_variation(fam, CURVED_A, CURVED_B, CURVED_C)
    assert calls == [1, 1, 1]
    triple_variation(fam, CURVED_C, CURVED_A, CURVED_B, m=512)
    every_route(fam)
    assert calls == [1, 1, 1]
    monkeypatch.undo()
    assert value == pytest.approx(boundary_variation(fam, CURVED_A, CURVED_B,
                                                     velocity=fam.velocity_field()),
                                  rel=1e-15, abs=0.0)


def test_flux_inverts_each_pole_once(monkeypatch):
    # the flux is evaluated on the circle, so no node is inverted; the default
    # m and the disk EMT take the preimages the base map holds
    for metric in (None, curved_metric()):
        fam = curved_family()
        calls = count_inversions(monkeypatch, fam.base)
        flux_variation(fam, CURVED_A, CURVED_B, metric=metric)
        assert calls == [1, 1]
        every_route(fam)
        assert calls == [1, 1]
        monkeypatch.undo()


def test_volume_inverts_each_pole_once(monkeypatch):
    # the preimages the base map holds serve the rule, the Green gradients of
    # the pairing and the family velocity at the poles, h at the preimage
    for velocity in (None, square_velocity()):
        fam = curved_family()
        calls = count_inversions(monkeypatch, fam.base)
        volume_variation(fam, CURVED_A, CURVED_B, metric=curved_metric(), velocity=velocity,
                         **SMALL_RULE)
        assert calls == [1, 1]
        every_route(fam)
        assert calls == [1, 1]
        monkeypatch.undo()


def test_report_inverts_each_pole_once(monkeypatch):
    # the report's own check, boundary_nodes, the four estimators and the FD
    # oracle's check at dt and dt/2 take the preimages the base map holds
    fam = curved_family()
    calls = count_inversions(monkeypatch, fam.base)
    variation_report(fam, CURVED_A, CURVED_B, **SMALL_RULE)
    assert calls == [1, 1]


def test_warm_boundary_routes_read_the_grid_speed(monkeypatch):
    # |f'| on the circle is grid.speed and f there is grid.nodes, both computed
    # with the grid: warm, the boundary and triple routes and the normal
    # derivative evaluate f' at no node, the flux only once, for the disk
    # velocity h / f' on an array of its own, and no route evaluates f
    fam, m = curved_family(), 256
    grid = boundary_grid(fam, m=m)
    green = GreenFunction(fam.base)
    routes = {
        "boundary": lambda: boundary_variation(fam, CURVED_A, CURVED_B, m=m),
        "triple": lambda: triple_variation(fam, CURVED_A, CURVED_B, CURVED_C, m=m),
        "normal_derivative": lambda: green.normal_derivative(grid, CURVED_A),
        "flux": lambda: flux_variation(fam, CURVED_A, CURVED_B, m=m, metric=curved_metric()),
    }
    for route in routes.values():
        route()
    calls, images = [], []
    derivative, image = ConformalMap.derivative, ConformalMap.__call__
    monkeypatch.setattr(ConformalMap, "derivative",
                        lambda self, z: calls.append(z) or derivative(self, z))
    monkeypatch.setattr(ConformalMap, "__call__",
                        lambda self, z: (self is fam.base and images.append(z))
                        or image(self, z))
    for name, route in routes.items():
        calls.clear()
        images.clear()
        route()
        assert not any(z is grid.params for z in calls), name
        assert sum(np.size(z) == m for z in calls) == (1 if name == "flux" else 0), name
        assert not any(np.size(z) == m for z in images), name


def test_flux_builds_no_disk_emt(monkeypatch):
    # the flux reads the complex EMT kernel at the circle points: no
    # PolarizedEMT, no Green gradient field; the volume route's tensor
    # cross-check builds both, so the counters see what they count
    built = []
    init, field = PolarizedEMT.__init__, greens.green_gradient_field

    def counted_field(*args):
        built.append("green_gradient_field")
        return field(*args)

    monkeypatch.setattr(PolarizedEMT, "__init__",
                        lambda self, *args, **kw: built.append("PolarizedEMT")
                        or init(self, *args, **kw))
    monkeypatch.setattr(greens, "green_gradient_field", counted_field)
    monkeypatch.setattr(energy_momentum, "green_gradient_field", counted_field)
    fam = curved_family()
    for metric in (None, curved_metric()):
        for velocity in (None, square_velocity()):
            flux_variation(fam, CURVED_A, CURVED_B, metric=metric, velocity=velocity)
    assert built == []
    volume_variation(fam, CURVED_A, CURVED_B, velocity=square_velocity(), **SMALL_RULE)
    assert sorted(built) == ["PolarizedEMT", "green_gradient_field", "green_gradient_field"]


def test_a_family_builds_its_perturbation_map_once(monkeypatch):
    built = []
    init = ConformalMap.__init__

    def recorded(self, coeffs, check=True):
        built.append(np.array(coeffs, dtype=complex))
        init(self, coeffs, check)

    monkeypatch.setattr(ConformalMap, "__init__", recorded)
    fam = curved_family()
    is_h = [c.size == 3 and np.array_equal(c, [0.0, 0.05, 0.03]) for c in built]
    assert sum(is_h) == 1
    built.clear()
    fam.velocity_field()
    fam.disk_velocity_field()
    every_route(fam)
    triple_variation(fam, CURVED_A, CURVED_B, CURVED_C)
    # the FD oracle solves its t = +-dt rows on coefficient rows, with no map
    assert built == []


def test_the_identity_map_is_shared():
    assert ConformalMap.identity() is ConformalMap.identity()
    assert GreenFunction().map is ConformalMap.identity()
    assert as_map(None) is ConformalMap.identity()


def test_disk_emt_inverts_each_disk_pole_at_most_once(monkeypatch):
    # every disk EMT (the volume route's tensor cross-check) is built on the
    # one identity map, which holds the poles; it starts out holding none
    fam = curved_family()
    ws = GreenFunction(fam.base).pole_preimages(CURVED_A, CURVED_B)
    monkeypatch.setattr(ConformalMap.identity(), "_preimages", [])
    poles = []
    inverse = ConformalMap.inverse

    def counted(self, x):
        if self.is_identity and np.size(x) == 1:
            poles.append(complex(x))
        return inverse(self, x)

    monkeypatch.setattr(ConformalMap, "inverse", counted)
    for _ in range(2):
        volume_variation(fam, CURVED_A, CURVED_B, metric=curved_metric(),
                         velocity=square_velocity(), **SMALL_RULE)
    assert [poles.count(w) for w in ws] == [1, 1]


def estimate_bits(family):
    """Every estimator, each on the family ``family()`` returns, as exact bits."""
    a, b, met = CURVED_A, CURVED_B, curved_metric()

    def volume(velocity):
        est = volume_variation(family(), a, b, metric=met, velocity=velocity, **SMALL_RULE)
        return [est.value, est.pairing, est.quadrature.value, est.quadrature.coarse_value]

    return [
        boundary_variation(family(), a, b).hex(),
        flux_variation(family(), a, b, metric=met).hex(),
        triple_variation(family(), a, b, CURVED_C).hex(),
        [v.hex() for v in volume(None) + volume(square_velocity())],
        fd_oracle(family(), a, b).hex(),
        repr(variation_report(family(), a, b, metric=met, **SMALL_RULE).to_json()),
    ]


@pytest.mark.parametrize("factory", [curved_family, cubic_mix_family])
def test_held_preimages_and_grids_give_the_bits_of_a_fresh_map(factory):
    # cold: each estimator on a fresh family; warm: all on one family, twice
    fam = factory()
    estimate_bits(lambda: fam)
    assert len(fam.base._preimages) == 3 and len(fam.base._grids) == 1
    assert estimate_bits(lambda: fam) == estimate_bits(factory)


def test_flux_evaluates_the_scale_once(monkeypatch):
    # the metric is only validated, at the m image nodes of the grid
    calls = []
    scale = MetricField._scale
    monkeypatch.setattr(MetricField, "_scale",
                        lambda self, x: calls.append(len(x)) or scale(self, x))
    flux_variation(curved_family(), CURVED_A, CURVED_B, m=256, metric=curved_metric())
    assert calls == [256]


LADDER = [(32, 64, 16), (64, 128, 32), (128, 256, 64), (256, 512, 128)]


def test_family_velocity_estimate_has_the_same_bits_on_every_rung():
    # dbar v = 0 for the family velocity: the closed form writes exact zeros,
    # the quadrature is +0.0 on every rule and the estimate is the pairing,
    # which depends only on the pole preimages; (x^2, x y) moves with the rule
    fam = curved_family()
    for met in (curved_metric(), None):
        def rungs(velocity):
            return [volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=velocity,
                                     n_r=n_r, n_theta=n_theta, n_patch=n_patch, check=False)
                    for n_r, n_theta, n_patch in LADDER]

        family = rungs(None)
        bits = {(e.value.hex(), e.pairing.hex(), e.quadrature.value.hex()) for e in family}
        assert bits == {(family[0].value.hex(), family[0].pairing.hex(), (0.0).hex())}
        assert len({e.value for e in rungs(square_velocity())}) == len(LADDER)


def checked_ladder(clear=False):
    """``volume_variation`` with its convergence check on four doubling
    rungs, the family velocity and ``(x^2, x y)`` at each, as exact bits."""
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    out = []
    for n_r, n_theta, n_patch in LADDER:
        for vel in (None, v):
            if clear:
                quadrature._recent.clear()
            est = volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=vel,
                                   n_r=n_r, n_theta=n_theta, n_patch=n_patch)
            out.append([est.value.hex(), est.pairing.hex(),
                        est.quadrature.value.hex(), est.quadrature.coarse_value.hex()])
    return out


def test_checked_ladder_builds_each_rule_once(monkeypatch):
    # 8 estimates of a fine and a coarse rule each, 5 distinct rules: rung k's
    # coarse rule is rung k-1's rule, and both velocities share the rung's rule
    built = []
    build = quadrature._build_rule
    monkeypatch.setattr(quadrature, "_build_rule",
                        lambda *args: built.append(args[:2]) or build(*args))
    warm = checked_ladder()
    assert built == [(32, 64), (16, 32), (64, 128), (128, 256), (256, 512)]
    assert checked_ladder(clear=True) == warm
    assert len(built) == 5 + 16


def count_scale(monkeypatch, metric):
    """The point counts of each ``_scale`` call of ``metric`` itself (not of
    the pulled-back metric the tensor route builds from it)."""
    calls = []
    scale = MetricField._scale
    monkeypatch.setattr(MetricField, "_scale", lambda self, x: (
        self is metric and calls.append(len(x))) or scale(self, x))
    return calls


def test_checked_ladder_evaluates_the_metric_once_per_rule(monkeypatch):
    # 16 integrand calls on 5 distinct rules: each rule holds the verdict of
    # the metric check its image nodes passed, so the family velocity's calls
    # check each new rule once and (x^2, x y) reads no metric value
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    calls = count_scale(monkeypatch, met)
    quadrature._recent.clear()
    wa, wb = GreenFunction(fam).pole_preimages(CURVED_A, CURVED_B)
    disk_rule = quadrature.disk_rule
    rules = [disk_rule(16, 32, poles=[wa, wb], n_patch=8)]
    for n_r, n_theta, n_patch in LADDER:
        before = len(calls)
        for vel in (None, v):
            volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=vel,
                             n_r=n_r, n_theta=n_theta, n_patch=n_patch)
        rules.append(disk_rule(n_r, n_theta, poles=[wa, wb], n_patch=n_patch))
        fresh = rules[-1].node_count + (rules[0].node_count if n_r == 32 else 0)
        assert sum(calls[before:]) == fresh
    assert sum(calls) == sum(rule.node_count for rule in rules) == 261301
    # the same metric again reads nothing; a new metric object is checked on
    # the rule and its coarse twin
    n_r, n_theta, n_patch = LADDER[-1]
    del calls[:]
    volume_variation(fam, CURVED_A, CURVED_B, metric=met, n_r=n_r, n_theta=n_theta,
                     n_patch=n_patch)
    assert calls == []
    other = curved_metric()
    calls_other = count_scale(monkeypatch, other)
    volume_variation(fam, CURVED_A, CURVED_B, metric=other, velocity=v, n_r=n_r,
                     n_theta=n_theta, n_patch=n_patch)
    assert sum(calls_other) == rules[-1].node_count + rules[-2].node_count


def test_a_failing_metric_is_never_held(monkeypatch):
    # diag(1, 2) where x > 0.9: the check raises on every call, and reads the
    # image nodes each time
    def partly(p):
        g = np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2)).copy()
        g[p[..., 0] > 0.9, 1, 1] = 2.0
        return g

    part = MetricField(2, partly, lambda p: np.zeros(p.shape[:-1] + (2, 2, 2)))
    calls = count_scale(monkeypatch, part)
    fam = curved_family()
    quadrature._recent.clear()
    for _ in range(2):
        with pytest.raises(NonConformalMetricError):
            volume_variation(fam, CURVED_A, CURVED_B, metric=part, n_r=32, n_theta=64,
                             n_patch=16, check=False)
    rule = quadrature._recent[-1][1]
    assert calls == [rule.node_count] * 2 and rule._held == []


def test_the_closed_form_reads_no_metric_and_a_rule_holds_its_check(monkeypatch):
    # the integrand reads no metric value on any node layout, with either
    # velocity; volume_variation checks its rule once per metric and map, and a
    # new metric object or a new map (same coefficients, same rule) is checked again
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    calls = count_scale(monkeypatch, met)
    fmap = fam.base
    rule = interior_rule(fmap, poles=[CURVED_A, CURVED_B], n_r=32, n_theta=64, n_patch=16)
    rule._held = []
    layouts = (rule.nodes, rule.nodes.copy(), rule.nodes[:], np.asfortranarray(rule.nodes))
    for velocity in (None, v):
        integrand = variation._closed_form_integrand(fam, fmap, rule, met, velocity)
        for points in layouts:
            assert np.any(integrand(points)) == (velocity is v)
    assert calls == [] and rule._held == []
    kw = dict(n_r=32, n_theta=64, n_patch=16, check=False)
    for expect in (rule.node_count, 0, 0):
        del calls[:]
        volume_variation(fam, CURVED_A, CURVED_B, metric=met, **kw)
        assert sum(calls) == expect and quadrature._recent[-1][1] is rule
    other = curved_metric()
    calls_other = count_scale(monkeypatch, other)
    volume_variation(fam, CURVED_A, CURVED_B, metric=other, velocity=v, **kw)
    assert sum(calls_other) == rule.node_count
    del calls[:]
    volume_variation(curved_family(), CURVED_A, CURVED_B, metric=met, **kw)
    assert sum(calls) == rule.node_count and quadrature._recent[-1][1] is rule


def test_volume_variation_checks_the_metric_on_each_rule_it_integrates(monkeypatch):
    # check=True on a fresh rule reads the rule and its coarse twin, and a
    # repeat reads nothing, with either velocity; check=False reads the rule
    # alone, block by block, and builds no twin
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    calls = count_scale(monkeypatch, met)
    quadrature._recent.clear()
    kw = dict(n_r=32, n_theta=64, n_patch=16)
    volume_variation(fam, CURVED_A, CURVED_B, metric=met, **kw)
    rule = quadrature.disk_rule(poles=GreenFunction(fam).pole_preimages(CURVED_A, CURVED_B),
                                **kw)
    assert sum(calls) == rule.node_count + rule.coarse().node_count
    del calls[:]
    for velocity in (None, v):
        volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=velocity, **kw)
    assert calls == []
    quadrature._recent.clear()
    volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=v, n_r=128, n_theta=256,
                     n_patch=64, check=False)
    [(_, fine)] = quadrature._recent
    full, part = divmod(fine.node_count, variation.BLOCK)
    assert full and part and calls == [variation.BLOCK] * full + [part]


def count_closed_forms(monkeypatch):
    """The node count of every closed-form integrand call, and one entry per
    tensor-route cross-check (a ``strain_tensor`` call)."""
    sums, strains = [], []
    make, strain = variation._closed_form_integrand, variation.strain_tensor

    def counted(*args):
        integrand = make(*args)
        return lambda points: sums.append(len(points)) or integrand(points)

    monkeypatch.setattr(variation, "_closed_form_integrand", counted)
    monkeypatch.setattr(variation, "strain_tensor",
                        lambda *args: strains.append(1) or strain(*args))
    return sums, strains


def held_sums(rule):
    return [entry for entry in rule._held if entry[0] == "sum"]


def test_checked_ladder_integrates_each_integrand_once_per_rule(monkeypatch):
    # 16 integrations, 8 of them on coarse twins; rung k's twin is rung k-1's
    # rule, which already holds both velocities' sums: 10 closed forms (each
    # of the 5 rules once per velocity) and 10 cross-checks, with the bits of
    # a ladder that holds nothing (every rule built afresh)
    sums, strains = count_closed_forms(monkeypatch)
    warm = checked_ladder()
    assert len(sums) == len(strains) == 10
    assert len(set(sums)) == 5 and all(sums.count(n) == 2 for n in sums)
    del sums[:], strains[:]
    assert checked_ladder(clear=True) == warm
    assert len(sums) == len(strains) == 16


def test_a_new_family_metric_or_velocity_object_misses(monkeypatch):
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    kw = dict(n_r=32, n_theta=64, n_patch=16)
    sums, strains = count_closed_forms(monkeypatch)
    first = volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=v, **kw)
    assert len(sums) == len(strains) == 2
    assert volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=v, **kw) == first
    assert len(sums) == len(strains) == 2
    for f, g, u in ((curved_family(), met, v), (fam, curved_metric(), v),
                    (fam, met, square_velocity())):
        del sums[:], strains[:]
        assert volume_variation(f, CURVED_A, CURVED_B, metric=g, velocity=u, **kw) == first
        assert len(sums) == len(strains) == 2


def test_a_failing_integrand_holds_no_sum(monkeypatch):
    # the fine rule's integrand raises on each of two calls, from a broken
    # cross-check; a metric not conformal where x > 0.9 raises in the check
    # before any integrand call, and only the first metric's check is held
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    kw = dict(n_r=32, n_theta=64, n_patch=16)
    wa, wb = GreenFunction(fam).pole_preimages(CURVED_A, CURVED_B)
    rule = quadrature.disk_rule(poles=[wa, wb], **kw)
    sums, strains = count_closed_forms(monkeypatch)
    strain = variation.strain_tensor
    monkeypatch.setattr(variation, "strain_tensor", lambda *args: 2.0 * strain(*args))
    for _ in range(2):
        with pytest.raises(EvaluationError, match="tensor route"):
            volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=v, **kw)
    assert len(sums) == len(strains) == 2 and held_sums(rule) == []
    monkeypatch.setattr(variation, "strain_tensor", strain)

    def partly(p):
        g = np.broadcast_to(np.eye(2), p.shape[:-1] + (2, 2)).copy()
        g[p[..., 0] > 0.9, 1, 1] = 2.0
        return g

    part = MetricField(2, partly, lambda p: np.zeros(p.shape[:-1] + (2, 2, 2)))
    for velocity in (None, v):
        del sums[:]
        for _ in range(2):
            with pytest.raises(NonConformalMetricError):
                volume_variation(fam, CURVED_A, CURVED_B, metric=part, velocity=velocity, **kw)
        assert sums == []
        for r in (rule, rule.coarse()):
            assert [(tag, refs[0]()) for tag, refs, _ in r._held] == [("metric", met)]


def test_held_sums_keep_no_object_alive():
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    kw = dict(n_r=32, n_theta=64, n_patch=16)
    volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=v, **kw)
    wa, wb = GreenFunction(fam).pole_preimages(CURVED_A, CURVED_B)
    rule = quadrature.disk_rule(poles=[wa, wb], **kw)
    assert len(held_sums(rule)) == len(held_sums(rule.coarse())) == 1
    refs = [weakref.ref(obj) for obj in (fam, fam.base, met, v)]
    del fam, met, v
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


def test_a_dead_velocity_never_answers_for_the_family_velocity(monkeypatch):
    # the (x^2, x y) sum is held under a reference to its velocity; once that
    # velocity is collected the reference reads None, and must not match the
    # None of a later family-velocity call, whose integrand is 0
    fam, met, v = curved_family(), curved_metric(), square_velocity()
    kw = dict(n_r=32, n_theta=64, n_patch=16)
    square = volume_variation(fam, CURVED_A, CURVED_B, metric=met, velocity=v, **kw)
    assert square.quadrature.value != 0.0
    del v
    gc.collect()
    sums, _ = count_closed_forms(monkeypatch)
    family = volume_variation(fam, CURVED_A, CURVED_B, metric=met, **kw).quadrature
    assert family.value == family.coarse_value == 0.0 and len(sums) == 2


def test_a_floor_rule_is_not_checked_against_itself():
    # disk_rule(4, 8, poles, 8) is its own coarse twin: no convergence claim
    est = volume_variation(curved_family(), CURVED_A, CURVED_B, metric=curved_metric(),
                           velocity=square_velocity(), n_r=4, n_theta=8, n_patch=8)
    assert not est.converged and math.isnan(est.quadrature.rel_change)
    assert est.quadrature.coarse_value == est.quadrature.value


def _complex_division_kernel(z, wa, wb, J, fp):
    dbar = 0.5 * ((J[:, 0, 0] - J[:, 1, 1]) + 1j * (J[:, 1, 0] + J[:, 0, 1]))
    return 2.0 * np.real(variation._complex_emt(z, wa, wb) * dbar * np.conj(fp) / fp)


def test_division_free_kernel_matches_the_complex_division_form():
    # 2 C Re(dbar conj(P u^2)) / |P|^2 against 2 Re(C / P dbar conj(f') / f'),
    # to 1e-15 of |C / P| |J|, through the closed form's blocks (one full and a
    # partial one): seeded nodes of a rule, its outermost ring, and points
    # 1e-10 from each pole
    fam, v = curved_family(), square_velocity()
    fmap = fam.base
    rule = interior_rule(fmap, poles=[CURVED_A, CURVED_B], n_r=128, n_theta=256, n_patch=64)
    wa, wb = rule.poles
    rng = np.random.default_rng(24)
    nodes = rule.nodes.view(complex)[:, 0]
    outer = nodes[np.abs(nodes) > np.abs(nodes).max() - 1e-14]
    near = [w + 1e-10 * np.exp(2j * np.pi * rng.uniform(size=64)) for w in (wa, wb)]
    z = np.concatenate([rng.choice(nodes, variation.BLOCK + 1000, replace=False), outer] + near)
    assert outer.size == 256 and z.size % variation.BLOCK
    got = variation._closed_form_integrand(fam, fmap, rule, None, v)(to_points(z))
    J, fp = v.jacobian(to_points(fmap(z))), fmap.derivative(z)
    scale = np.abs(variation._complex_emt(z, wa, wb)) * np.linalg.norm(J, axis=(1, 2))
    assert np.all(np.abs(got - _complex_division_kernel(z, wa, wb, J, fp)) <= 1e-15 * scale)
    # with |f'| and |J| scaled up to 1e150, every value is finite where the
    # complex-division form's is (here everywhere), and scales with |J|
    big = variation._beltrami_kernel(z, wa, wb, 1e150 * J, 1e150 * fp)
    old = _complex_division_kernel(z, wa, wb, 1e150 * J, 1e150 * fp)
    assert np.all(np.isfinite(big) >= np.isfinite(old)) and np.all(np.isfinite(big))
    assert np.all(np.abs(big - 1e150 * got) <= 1e-15 * 1e150 * scale)


def test_matrix_metric_cross_check_is_at_rounding_level():
    # a matrix-built conformal metric pulls back through its conformal factor,
    # so the tensor route takes the closed-form Christoffel symbols: with the
    # family velocity T : D vol is rounding of 0 at every node
    fam, met = curved_family(), curved_metric()
    fmap = fam.base
    green = GreenFunction(fmap)
    wa, wb = (green.pole_preimage(p) for p in (CURVED_A, CURVED_B))
    rule = interior_rule(fmap, poles=[CURVED_A, CURVED_B], n_r=128, n_theta=256,
                         n_patch=64)
    T, D, vol = variation._tensor_route(fam, wa, wb,
                                        MetricField(2, met, met.derivative), None)(rule.nodes)
    scale = np.linalg.norm(T, axis=(-2, -1)) * np.linalg.norm(D, axis=(-2, -1)) * vol
    assert np.all(np.abs(np.einsum("nij,nij->n", T, D) * vol) <= 1e-14 * scale)


def test_non_conformal_matrix_metric_has_no_pullback():
    # diag(1, 2) has no conformal factor: every pullback raises, where the
    # parent's F^T g F route returned a mutual energy of 0.1267 for
    # G(a, b) = 0.1353
    fam, g = curved_family(), constant_metric([[1.0, 0.0], [0.0, 2.0]])
    fmap = fam.base
    x = np.array([[0.1, 0.2], [-0.3, 0.05]])
    for fm in (fmap, ConformalMap.identity()):
        with pytest.raises(ConfigError, match="not conformal"):
            pullback_metric(fm, g)(x)
    with pytest.raises(ConfigError, match="not conformal"):
        mutual_energy(fmap, CURVED_A, CURVED_B, metric=g)
    with pytest.raises(ConfigError, match="not conformal"):
        volume_integrand(fam, CURVED_A, CURVED_B, metric=g, velocity=square_velocity())(x)
    conformal = constant_metric(2.0 * np.eye(2))
    assert mutual_energy(fmap, CURVED_A, CURVED_B, metric=conformal) == pytest.approx(
        mutual_energy(fmap, CURVED_A, CURVED_B), rel=1e-14)
