"""Tensor-calculus building blocks: metrics, Christoffels, strain."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenvar import tensors
from greenvar.errors import DegenerateMetricError, DimensionMismatchError
from greenvar.tensors import (MetricField, VectorField,
                              christoffel, conformal_metric,
                              covariant_derivative_vector, divergence,
                              euclidean_metric, lower_index, raise_index,
                              strain_tensor, trace_tensor, volume_density)

coord = st.floats(-0.9, 0.9)
coeff = st.floats(-0.5, 0.5)


def linear_phi(cx, cy):
    """Conformal factor phi = cx*x1 + cy*x2 with its analytic gradient."""
    def phi(p):
        return cx * p[..., 0] + cy * p[..., 1]

    def grad(p):
        g = np.empty(p.shape)
        g[..., 0] = cx
        g[..., 1] = cy
        return g

    return conformal_metric(phi, grad)


def dilation_field():
    return VectorField(2, lambda p: np.asarray(p, dtype=float),
                       lambda p: np.broadcast_to(np.eye(2), p.shape + (2,)).copy())


# ----------------------------------------------------------------- metrics

def test_euclidean_matrix_and_inverse():
    g = euclidean_metric(2)
    x = np.array([[0.1, 0.2], [0.3, -0.4]])
    assert np.array_equal(g(x), np.broadcast_to(np.eye(2), (2, 2, 2)))
    assert np.array_equal(g.inverse(x), g(x))
    assert np.array_equal(volume_density(g, x), np.ones(2))


def test_metric_rejects_dim_one():
    with pytest.raises(DimensionMismatchError):
        MetricField(1, lambda x: np.ones(x.shape[:-1] + (1, 1)))


def test_metric_shape_mismatch():
    g = MetricField(2, lambda x: np.eye(3))
    with pytest.raises(DimensionMismatchError):
        g(np.zeros(2))


def test_asymmetric_metric_rejected():
    g = MetricField(2, lambda x: np.broadcast_to(
        np.array([[1.0, 0.5], [0.0, 1.0]]), x.shape[:-1] + (2, 2)))
    with pytest.raises(DegenerateMetricError):
        g(np.zeros(2))


def test_indefinite_metric_rejected():
    g = MetricField(2, lambda x: np.broadcast_to(
        np.diag([1.0, -1.0]), x.shape[:-1] + (2, 2)))
    with pytest.raises(DegenerateMetricError):
        g.inverse(np.zeros(2))


def test_conformal_density_and_inverse():
    met = linear_phi(0.2, 0.0)
    x = np.array([0.5, -0.3])
    s = np.exp(2 * 0.2 * 0.5)
    assert np.allclose(met(x), s * np.eye(2), rtol=1e-15)
    assert np.allclose(met.inverse(x), np.eye(2) / s, rtol=1e-14)
    assert np.isclose(volume_density(met, x), s, rtol=1e-15)


# ------------------------------------------------------------- christoffel

def test_conformal_christoffel_closed_form():
    # phi = x1: Gamma^k_ij = d^k_i phi_j + d^k_j phi_i - d_ij phi^k reduces
    # to Gamma^1_11 = 1, Gamma^1_22 = -1, Gamma^2_12 = Gamma^2_21 = 1.
    met = linear_phi(1.0, 0.0)
    gam = christoffel(met, np.array([0.3, -0.1]))
    want = np.zeros((2, 2, 2))
    want[0, 0, 0] = 1.0
    want[0, 1, 1] = -1.0
    want[1, 0, 1] = want[1, 1, 0] = 1.0
    assert np.allclose(gam, want, atol=1e-13)


@given(coeff, coeff, coord, coord)
def test_christoffel_symmetric_lower_indices(cx, cy, x, y):
    gam = christoffel(linear_phi(cx, cy), np.array([x, y]))
    assert np.array_equal(gam, np.swapaxes(gam, -2, -1))


def test_christoffel_matches_fd_metric():
    # same metric with and without the analytic derivative callback
    def matrix(p):
        s = np.exp(2.0 * (0.3 * p[..., 0] - 0.2 * p[..., 1]))
        return s[..., None, None] * np.eye(2)

    met = linear_phi(0.3, -0.2)
    fd = MetricField(2, matrix)
    x = np.array([0.4, 0.1])
    assert np.allclose(christoffel(met, x), christoffel(fd, x), atol=1e-9)


def untagged(met):
    """The same metric as a general MetricField: matrix plus analytic derivative."""
    return MetricField(2, met, met.derivative)


def test_conformal_closed_forms_match_general_path():
    # phi = 0.2 x + 0.1 y^2 at scattered points, against Cholesky/inverse/einsum
    met = conformal_metric(
        lambda p: 0.2 * p[..., 0] + 0.1 * p[..., 1] ** 2,
        lambda p: np.stack([np.full(p.shape[:-1], 0.2), 0.2 * p[..., 1]], axis=-1))
    ref = untagged(met)
    assert met.is_conformal and not ref.is_conformal
    x = np.random.default_rng(5).uniform(-0.9, 0.9, (200, 2))
    v = VectorField(2, lambda p: np.stack([p[..., 0] ** 2, p[..., 0] * p[..., 1]], axis=-1),
                    lambda p: np.stack([2.0 * p[..., 0], np.zeros(p.shape[:-1]),
                                        p[..., 1], p[..., 0]], axis=-1).reshape(p.shape + (2,)))
    for got, want in [(met.inverse(x), ref.inverse(x)),
                      (christoffel(met, x), christoffel(ref, x)),
                      (volume_density(met, x), volume_density(ref, x)),
                      (strain_tensor(met, v, x), strain_tensor(ref, v, x))]:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_conformal_gate_rejects_overflow():
    met = conformal_metric(lambda p: 400.0 + p[..., 0])
    with pytest.raises(DegenerateMetricError):
        met.inverse(np.zeros((3, 2)))
    with pytest.raises(DegenerateMetricError):
        volume_density(met, np.zeros(2))


def test_conformal_fd_gradient_without_grad_phi():
    met = conformal_metric(lambda p: np.sin(p[..., 0]) * p[..., 1])
    x = np.array([[0.3, -0.4], [-0.2, 0.7]])
    want = np.stack([np.cos(x[:, 0]) * x[:, 1], np.sin(x[:, 0])], axis=-1)
    assert np.allclose(met.conformal_gradient(x), want, atol=1e-9)


def test_metric_compatibility():
    # covariant derivative of the metric vanishes:
    # d_k g_ij = Gamma^l_ki g_lj + Gamma^l_kj g_il
    met = linear_phi(0.25, -0.15)
    x = np.array([[0.2, 0.3], [-0.4, 0.5]])
    dg = met.derivative(x)
    g = met(x)
    gam = christoffel(met, x)
    recon = (np.einsum("...lki,...lj->...kij", gam, g)
             + np.einsum("...lkj,...il->...kij", gam, g))
    assert np.allclose(dg, recon, atol=1e-13)


# ------------------------------------------------------- raising, lowering

@given(coeff, coeff, coord, coord, st.floats(-2, 2), st.floats(-2, 2))
def test_raise_lower_round_trip(cx, cy, x, y, a0, a1):
    met = linear_phi(cx, cy)
    pt = np.array([x, y])
    alpha = np.array([a0, a1])
    up = raise_index(met, pt, alpha)
    back = lower_index(met, pt, up)
    assert np.allclose(back, alpha, atol=1e-12)


# ------------------------------------------------ derivatives along fields

def test_covariant_derivative_dilation_flat():
    flat = euclidean_metric(2)
    x = np.array([0.3, -0.2])
    assert np.array_equal(covariant_derivative_vector(flat, dilation_field(), x),
                          np.eye(2))


def test_strain_closed_form():
    # v = (x1*x2, 0): J = [[x2, x1], [0, 0]], so D at (1,2) is [[2,.5],[.5,0]]
    v = VectorField(2, lambda p: np.stack(
        [p[..., 0] * p[..., 1], np.zeros(p.shape[:-1])], axis=-1))
    D = strain_tensor(euclidean_metric(2), v, np.array([1.0, 2.0]))
    assert np.allclose(D, [[2.0, 0.5], [0.5, 0.0]], atol=1e-9)


def test_strain_rotation_exactly_zero():
    rot = VectorField(
        2,
        lambda p: np.stack([-p[..., 1], p[..., 0]], axis=-1),
        lambda p: np.broadcast_to(np.array([[0.0, -1.0], [1.0, 0.0]]),
                                  p.shape[:-1] + (2, 2)).copy(),
    )
    pts = np.array([[0.1, 0.2], [-0.5, 0.7], [0.0, 0.0]])
    D = strain_tensor(euclidean_metric(2), rot, pts)
    assert np.array_equal(D, np.zeros((3, 2, 2)))


def test_divergence_conformal_closed_form():
    # div_g(x) = d_i v^i + 2 v.grad(phi) = 2 + 0.4 x1 for phi = 0.2 x1
    met = linear_phi(0.2, 0.0)
    pts = np.array([[0.0, 0.0], [0.5, 0.3], [-0.7, 0.1]])
    got = divergence(met, dilation_field(), pts)
    assert np.allclose(got, 2.0 + 0.4 * pts[:, 0], atol=1e-12)


def test_trace_tensor_conformal():
    met = linear_phi(0.2, 0.0)
    x = np.array([0.5, 0.0])
    assert np.isclose(trace_tensor(met, x, met(x)), 2.0, rtol=1e-14)


def test_vector_field_fd_jacobian_matches_analytic():
    fd = VectorField(2, lambda p: np.stack(
        [p[..., 0] ** 2, p[..., 0] * p[..., 1]], axis=-1))
    x = np.array([0.4, -0.3])
    want = np.array([[0.8, 0.0], [-0.3, 0.4]])
    assert np.allclose(fd.jacobian(x), want, atol=1e-9)


def test_fd_derivative_second_order(monkeypatch):
    # centered differences: halving the step shrinks the error ~4x
    def matrix(p):
        s = np.exp(2.0 * np.sin(p[..., 0]) * np.cos(p[..., 1]))
        return s[..., None, None] * np.eye(2)

    def derivative(step):
        monkeypatch.setattr(tensors, "FD_STEP", step)
        return MetricField(2, matrix).derivative(x)

    x = np.array([0.4, 0.2])
    ref = derivative(1e-7)
    errs = []
    for h in (1e-3, 5e-4):
        errs.append(np.max(np.abs(derivative(h) - ref)))
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8
