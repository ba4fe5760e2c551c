"""Polarized energy-momentum tensor: algebra, divergence, pole sources."""

import math
import re

import numpy as np
import pytest

from greenvar.conformal import DomainFamily, cubic_mix_family, dilation_family, to_points
from greenvar.energy_momentum import PolarizedEMT
from greenvar.errors import (
    CoincidentPoleError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
)
from greenvar.tensors import VectorField, conformal_metric, euclidean_metric
from greenvar.variation import volume_variation

from conftest import interior_points

TWO_PI = 2.0 * np.pi


def linear_phi(c=0.2):
    def phi(x):
        return c * x[..., 0]

    def grad(x):
        g = np.zeros_like(x)
        g[..., 0] = c
        return g

    return conformal_metric(phi, grad)


def disk_pair(a=(0.0, 0.0), b=(0.5, 0.0), metric=None):
    return PolarizedEMT.from_map(None, a, b, metric=metric)


def test_scalar_at_reference_point():
    # grad G(., 0) = -x / (2 pi |x|^2); second factor evaluated in closed form
    emt = disk_pair()
    val = emt.phi(np.array([0.0, 0.5]))
    assert val == pytest.approx(15.0 / (34.0 * np.pi**2), rel=1e-14)


def test_scalar_symmetric_in_poles(rng):
    a, b = (0.1, -0.2), (-0.3, 0.4)
    fwd = PolarizedEMT.from_map(None, a, b)
    rev = PolarizedEMT.from_map(None, b, a)
    pts = np.stack(
        [interior_points(rng, 20, radius=0.8).real,
         interior_points(rng, 20, radius=0.8).imag], axis=-1)
    assert np.array_equal(fwd.phi(pts), rev.phi(pts))


def test_trace_vanishes_identically(rng):
    z = interior_points(rng, 200, radius=0.9)
    pts = np.stack([z.real, z.imag], axis=-1)
    keep = (np.hypot(pts[:, 0], pts[:, 1]) > 0.05) & (
        np.hypot(pts[:, 0] - 0.5, pts[:, 1]) > 0.05)
    pts = pts[keep]
    flat = disk_pair()
    scale = np.max(np.abs(flat.emt_cov(pts)))
    assert np.max(np.abs(flat.trace(pts))) < 1e-14 * scale
    curved = disk_pair(metric=linear_phi())
    assert np.max(np.abs(curved.trace(pts))) < 1e-14 * scale


def test_components_conformally_invariant(rng):
    # covariant T_ij needs no inverse-metric weight beyond Phi g_ij, and in
    # two dimensions the conformal factors cancel exactly
    z = interior_points(rng, 30, radius=0.8, min_radius=0.1)
    pts = np.stack([z.real, z.imag], axis=-1)
    keep = np.hypot(pts[:, 0] - 0.5, pts[:, 1]) > 0.1
    pts = pts[keep]
    flat = disk_pair().emt_cov(pts)
    curved = disk_pair(metric=linear_phi()).emt_cov(pts)
    assert np.max(np.abs(flat - curved)) < 1e-13 * np.max(np.abs(flat))


def test_conformal_scalar_weight(rng):
    # Phi carries the inverse conformal factor e^{-2 phi}
    met = linear_phi(0.2)
    z = interior_points(rng, 20, radius=0.7, min_radius=0.1)
    pts = np.stack([z.real, z.imag], axis=-1)
    keep = np.hypot(pts[:, 0] - 0.5, pts[:, 1]) > 0.1
    pts = pts[keep]
    flat = disk_pair().phi(pts)
    curved = disk_pair(metric=met).phi(pts)
    assert np.allclose(curved, np.exp(-0.4 * pts[:, 0]) * flat, rtol=1e-13)


def test_tensor_is_bilinear():
    emt = disk_pair()
    doubled = PolarizedEMT(emt.a, emt.b,
                           lambda x: 2.0 * np.asarray(emt.alpha(x)),
                           emt.beta)
    pts = np.array([[0.2, 0.3], [-0.4, 0.1]])
    assert np.array_equal(doubled.emt_cov(pts), 2.0 * emt.emt_cov(pts))
    assert np.array_equal(doubled.phi(pts), 2.0 * emt.phi(pts))


def test_synthetic_eigenstructure():
    # alpha = beta = constant covector: T = 2 a a^T - |a|^2 I has
    # eigenvalues +|a|^2 (along a) and -|a|^2 (across)
    alpha = np.array([0.3, -0.4])

    def const(x):
        return np.broadcast_to(alpha, np.shape(x))

    emt = PolarizedEMT((0.0, 0.0), (0.5, 0.0), const, const)
    T = emt.emt_cov(np.array([0.1, 0.1]))
    vals = np.sort(np.linalg.eigvalsh(T))
    assert vals == pytest.approx([-0.25, 0.25], rel=1e-14)


def test_contravariant_consistent_with_covariant(rng):
    met = linear_phi(0.15)
    emt = disk_pair(metric=met)
    z = interior_points(rng, 10, radius=0.7, min_radius=0.15)
    pts = np.stack([z.real, z.imag], axis=-1)
    keep = np.hypot(pts[:, 0] - 0.5, pts[:, 1]) > 0.1
    pts = pts[keep]
    ginv = met.inverse(pts)
    raised = np.einsum("...ik,...jl,...kl->...ij", ginv, ginv, emt.emt_cov(pts))
    assert np.allclose(raised, emt.emt_contra(pts), rtol=1e-12, atol=1e-15)


def test_divergence_vanishes_off_poles(rng):
    emt = disk_pair()
    z = interior_points(rng, 40, radius=0.7, min_radius=0.2)
    pts = np.stack([z.real, z.imag], axis=-1)
    keep = (np.hypot(pts[:, 0], pts[:, 1]) > 0.15) & (
        np.hypot(pts[:, 0] - 0.5, pts[:, 1]) > 0.15)
    pts = pts[keep]
    h = 1e-4
    div = emt.divergence(pts, h=h)
    scale = np.max(np.abs(emt.emt_contra(pts)))
    assert np.max(np.abs(div)) < 1e-4 * scale


def test_divergence_second_order():
    emt = disk_pair()
    x = np.array([0.25, 0.3])
    r1 = np.max(np.abs(emt.divergence(x, h=2e-4)))
    r2 = np.max(np.abs(emt.divergence(x, h=1e-4)))
    assert 3.2 < r1 / r2 < 4.8


def test_divergence_vanishes_in_conformal_metric(rng):
    emt = disk_pair(metric=linear_phi(0.1))
    pts = np.array([[0.2, 0.35], [-0.3, -0.25], [0.1, -0.45]])
    div = emt.divergence(pts, h=1e-4)
    scale = np.max(np.abs(emt.emt_contra(pts)))
    assert np.max(np.abs(div)) < 1e-4 * scale


def test_divergence_requires_pole_clearance():
    emt = disk_pair()
    with pytest.raises(DomainError):
        emt.divergence(np.array([1e-5, 0.0]), h=1e-4)


def test_divergence_requires_boundary_clearance():
    emt = disk_pair()
    with pytest.raises(DomainError):
        emt.divergence(np.array([0.9999, 0.0]), h=1e-4)


def test_divergence_step_is_a_positive_finite_real_number():
    # refused by name before any gradient is evaluated
    calls = []

    def grad(x):
        calls.append(x)
        return np.zeros_like(x)

    emt, x = PolarizedEMT((0.0, 0.0), (0.5, 0.0), grad, grad), np.array([[0.2, 0.3]])
    for bad in (0, 0.0, -1e-4, math.nan, math.inf, -math.inf, "1e-4", True, np.bool_(True),
                1e-4 + 0j, None, [1e-4]):
        with pytest.raises(ConfigError, match="^h must be a positive finite real number, "
                                              f"got {re.escape(repr(bad))}$"):
            emt.divergence(x, h=bad)
    assert calls == []
    emt = disk_pair()
    assert emt.divergence(x, h=np.float64(1e-4)).tobytes() == emt.divergence(x).tobytes()


def test_dilation_pairing_closed_form():
    emt = disk_pair()
    val = emt.source_pairing(lambda x: np.asarray(x, dtype=float))
    # v = x, a at the center: v(a).beta(a) = 0 and v(b).alpha(b) = -1/(2 pi)
    assert val == pytest.approx(-1.0 / TWO_PI, rel=1e-14)


def test_rotation_pairing_vanishes():
    emt = disk_pair()

    def rot(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)

    assert abs(emt.source_pairing(rot)) < 1e-15


def test_pairing_symmetric_in_poles():
    a, b = (0.15, -0.1), (-0.2, 0.3)

    def v(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 0] ** 2, x[..., 1]], axis=-1)

    assert disk_pair(a, b).source_pairing(v) == pytest.approx(
        disk_pair(b, a).source_pairing(v), rel=1e-14)


# the rule does not enter the pairing; the smallest one keeps the tests quick
SMALL_RULE = dict(n_r=8, n_theta=16, n_patch=8, check=False)


def test_module_level_pairing_delegates():
    # volume_variation's pairing, from the pole preimages it holds, is the
    # method's value; integer poles are accepted as points
    fam = dilation_family()
    val = volume_variation(fam, (0, 0), (0.5, 0), **SMALL_RULE).pairing
    assert val == PolarizedEMT.from_map(None, (0, 0), (0.5, 0)).source_pairing(
        fam.velocity_field())
    assert val == pytest.approx(-1.0 / TWO_PI, rel=1e-14)


def test_mapped_domain_pairing_matches_direct(rng):
    # on a mapped domain the volume route's pairing equals the direct
    # evaluation through ambient Green gradient fields, bit for bit
    square = VectorField(2, lambda p: np.stack([p[..., 0] ** 2, p[..., 0] * p[..., 1]], axis=-1))
    for base in ([1.0, 0.1], [1.0, 0.2 - 0.1j, 0.05],
                 [1.0, 0.01 - 0.22j, -0.11 - 0.01j, -0.17]):
        fam = DomainFamily(base, [0.0, 0.05, 0.03], t_max=0.1)
        fmap = fam.map_at(0.0)
        zs = interior_points(rng, 8, radius=0.7)
        for z, w in zip(zs[::2], zs[1::2]):
            a, b = ((float(x.real), float(x.imag)) for x in fmap(np.array([z, w])))
            for v in (None, square):
                est = volume_variation(fam, a, b, velocity=v, **SMALL_RULE)
                direct = PolarizedEMT.from_map(fmap, a, b).source_pairing(
                    v if v is not None else fam.velocity_field())
                assert est.pairing == direct


def test_coincident_poles_rejected():
    with pytest.raises(CoincidentPoleError):
        PolarizedEMT.from_map(None, (0.3, 0.0), (0.3, 0.0))


def test_poles_are_read_by_the_one_point_rule():
    # a complex pole is its (re, im) pair (from_map raised TypeError); a pole
    # that is not one point is a ConfigError naming it (it was DomainError)
    fmap = cubic_mix_family().base
    pts = to_points(interior_points(np.random.default_rng(3), 5, radius=0.8))
    pair = PolarizedEMT.from_map(fmap, (0.1, 0.05), (-0.2, 0.3))
    cplx = PolarizedEMT.from_map(fmap, 0.1 + 0.05j, -0.2 + 0.3j)
    assert np.array_equal(cplx.a, pair.a) and np.array_equal(cplx.b, pair.b)
    assert np.array_equal(cplx.emt_cov(pts), pair.emt_cov(pts))
    for bad in ((0.1,), ((0.1, 0.05), 0.2), "0.1", (0.1, 0.05, 0.0)):
        with pytest.raises(ConfigError, match="pole argument 1 must be an"):
            PolarizedEMT.from_map(fmap, (0.1, 0.05), bad)
        with pytest.raises(ConfigError, match="pole argument 0 must be an"):
            PolarizedEMT(bad, (0.1, 0.05), lambda x: x, lambda x: x)


def test_metric_dimension_checked():
    with pytest.raises(DimensionMismatchError):
        PolarizedEMT((0, 0), (0.5, 0), lambda x: x, lambda x: x,
                     metric=euclidean_metric(3))
