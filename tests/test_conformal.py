"""Polynomial disk maps, deformation families, boundary grids."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenvar.conformal import (BUILTIN_FAMILIES, ConformalMap, DomainFamily,
                                boundary_grid, cubic_mix_family,
                                dilation_family, enclosed_area, normal_speed,
                                quadratic_bump_family, rotation_family,
                                to_complex, to_points)
from greenvar.errors import (ConfigError, DomainError, InjectivityError)

small = st.floats(-0.15, 0.15)


# ------------------------------------------------------------------ packing

@given(st.floats(-5, 5), st.floats(-5, 5))
def test_pack_round_trip(x, y):
    p = np.array([x, y])
    assert np.array_equal(to_points(to_complex(p)), p)


def test_to_complex_rejects_bad_shape():
    with pytest.raises(DomainError):
        to_complex(np.zeros(3))


# --------------------------------------------------------------------- maps

def test_map_matches_polyval():
    coeffs = [1.0, 0.1 + 0.05j, -0.02j]
    fmap = ConformalMap(coeffs)
    z = np.array([0.3 + 0.2j, -0.5j, 0.9])
    # ascending powers z, z^2, z^3
    want = sum(c * z ** (k + 1) for k, c in enumerate(coeffs))
    assert np.allclose(fmap(z), want, rtol=1e-15)
    want_d = sum((k + 1) * c * z**k for k, c in enumerate(coeffs))
    assert np.allclose(fmap.derivative(z), want_d, rtol=1e-15)
    want_dd = sum((k + 1) * k * c * z ** (k - 1) for k, c in enumerate(coeffs))
    assert np.allclose(fmap.second_derivative(z), want_dd, rtol=1e-14)


def test_identity_fast_paths():
    ident = ConformalMap.identity()
    assert ident.is_identity
    z = np.array([0.2 + 0.1j, -0.7j])
    assert np.array_equal(ident(z), z)
    assert np.array_equal(ident.inverse(z), z)
    assert np.array_equal(ident.second_derivative(z), np.zeros_like(z))


def test_injectivity_gate():
    # f' = 1 + z vanishes at z = -1, which sits on the boundary check grid
    with pytest.raises(InjectivityError):
        ConformalMap([1.0, 0.5])
    # f' = 1 + z/0.83 vanishes at -0.83, a node of the interior polar grid
    with pytest.raises(InjectivityError):
        ConformalMap([1.0, 1.0 / 1.66])
    with pytest.raises(InjectivityError):
        ConformalMap([0.0, 0.3])
    assert ConformalMap([1.0, 0.3]).passes_gate()
    # the gate samples fixed grids: a derivative zero strictly between nodes
    # is not detected, so callers must keep perturbations inside t_max
    assert ConformalMap([1.0, 0.6], check=False).passes_gate()


@given(small, small)
def test_inverse_round_trip(c2, c3):
    fmap = ConformalMap([1.0, complex(c2, c3 / 2), complex(c3, 0)], check=False)
    if not fmap.passes_gate():
        return
    z = np.array([0.0, 0.35 + 0.2j, -0.8j, 0.95])
    back = fmap.inverse(fmap(z))
    assert np.allclose(back, z, atol=1e-12)


def test_inverse_preserves_scalar_shape():
    fmap = ConformalMap([1.0, 0.1])
    w = fmap.inverse(fmap(0.3 + 0.1j))
    assert np.ndim(w) == 0
    assert abs(w - (0.3 + 0.1j)) < 1e-13


def test_inverse_outside_image():
    fmap = ConformalMap([1.0, 0.1])
    with pytest.raises(DomainError):
        fmap.inverse(2.5 + 0.0j)
    assert not fmap.contains(2.5 + 0.0j)
    assert fmap.contains(0.2 + 0.2j)


# z + (0.01-0.22i) z^2 + (-0.11-0.01i) z^3 - 0.17 z^4 is univalent (the zeros
# of f' have modulus >= 1.014), yet Newton from x / c_1 lands on a root
# outside the disk for some points near its boundary
QUARTIC = [1.0, 0.01 - 0.22j, -0.11 - 0.01j, -0.17]


def test_inverse_polar_grid_of_a_univalent_quartic():
    fmap = ConformalMap(QUARTIC)
    assert np.min(np.abs(np.roots(fmap.coeffs[::-1] * np.arange(4, 0, -1)))) > 1.01
    r = np.linspace(0.0, 0.999, 200)
    z = (r[:, None] * np.exp(2j * np.pi * np.arange(360) / 360)).ravel()
    assert np.max(np.abs(fmap.inverse(fmap(z)) - z)) < 1e-13


@pytest.mark.parametrize("coeffs", [[1.0, 0.1], [1.0, 0.1, 0.05, 0.03]])
def test_inverse_round_trip_at_rounding_level(coeffs):
    # one Newton step past the residual test leaves z at rounding level
    fmap = ConformalMap(coeffs)
    r = np.linspace(0.0, 0.99, 100)
    z = (r[:, None] * np.exp(2j * np.pi * np.arange(128) / 128)).ravel()
    assert np.max(np.abs(fmap.inverse(fmap(z)) - z)) < 2e-15


def test_inverse_of_degree_one_is_closed_form():
    fmap = ConformalMap([0.8 - 0.3j])
    x = np.array([0.1 + 0.2j, -0.5j, 0.7])
    assert np.array_equal(fmap.inverse(x), x / (0.8 - 0.3j))


@pytest.mark.parametrize("x", [np.nan, np.inf, complex(0.1, np.nan),
                               np.array([0.1, complex(np.inf, 0.0)])])
def test_inverse_rejects_non_finite_points(x):
    with pytest.raises(DomainError, match="non-finite"):
        ConformalMap([1.0, 0.1]).inverse(x)


def test_inverse_outside_image_reports_least_modulus_root():
    fmap = ConformalMap([1.0, 0.1])
    least = np.min(np.abs(np.roots([0.1, 1.0, -3.0])))
    with pytest.raises(DomainError, match=f"preimage modulus {least:.6g}"):
        fmap.inverse(np.array([0.2, 3.0]))


# ----------------------------------------------------------------- families

def test_family_t_max_declared_and_range_checked():
    fam = DomainFamily([1.0], [0.0, 1.0], t_max=0.4)
    assert fam.t_max == 0.4
    fam.map_at(0.4)
    with pytest.raises(DomainError):
        fam.map_at(0.41)
    # t_max beyond the univalence bound |t| <= 0.5 of z + t z^2
    with pytest.raises(InjectivityError):
        DomainFamily([1.0], [0.0, 1.0], t_max=0.8)


def test_family_gate_matches_maps_built_per_t():
    # the family decides every t from f' and h' evaluated once; each decision
    # must equal the gate of the map f + t h itself
    def gate(base, pert, t):
        c = np.zeros(max(len(base), len(pert)), dtype=complex)
        c[: len(base)] += base
        c[: len(pert)] += t * np.asarray(pert)
        return ConformalMap(c, check=False).passes_gate()

    ts = np.linspace(-4.0, 4.0, 129)
    cases = [([1.0], [1.0]), ([1.0], [0.0, 1.0]), ([1.0, 0.1], [0.0, 0.05, 0.03]),
             # f' = 1 + 2 t q z vanishes at the grid node -0.83 for t = 0.75
             ([1.0], [0.0, 1.0 / (2.0 * 0.75 * 0.83)]), ([1.0, 0.2j], [0.3, -0.4, 0.1j])]
    for base, pert in cases:
        fam = DomainFamily(base, pert, t_max=1e-3)
        assert list(fam._gate_ok(ts)) == [gate(base, pert, t) for t in ts]
    assert not gate(*cases[3], 0.75)


def test_family_t_max_autoscan():
    fam = DomainFamily([1.0], [0.0, 1.0])
    assert 0.0 < fam.t_max <= 0.5
    fam.map_at(fam.t_max)


def test_family_rejects_bad_t_max():
    with pytest.raises(ConfigError):
        DomainFamily([1.0], [1.0], t_max=-0.1)
    with pytest.raises(ConfigError):
        DomainFamily([1.0], [1.0], t_max="wide")


def test_family_json_round_trip():
    fam = cubic_mix_family()
    clone = DomainFamily.from_json(fam.to_json())
    assert np.array_equal(clone.base.coeffs, fam.base.coeffs)
    assert np.array_equal(clone.perturbation, fam.perturbation)
    assert clone.t_max == fam.t_max


@pytest.mark.parametrize("payload,needle", [
    ({"base": [[1, 0]], "perturbation": [[1, 0]], "extra": 1}, "unknown"),
    ({"base": [[1, 0]]}, "missing"),
    ({"base": [[1, 0]], "perturbation": [[1]]}, "pair"),
    ({"base": "z", "perturbation": [[1, 0]]}, "list"),
    ('{"base": [[1, 0]], "perturbation": ', "JSON"),
])
def test_family_json_validation(payload, needle):
    with pytest.raises(ConfigError, match=needle):
        DomainFamily.from_json(payload)


def test_velocity_field_cubic():
    # h(z) = z^3 over the identity base: v(0.5) = 0.125, Jacobian 0.75 I
    fam = DomainFamily([1.0], [0.0, 0.0, 1.0], t_max=0.1)
    v = fam.velocity_field()
    x = np.array([0.5, 0.0])
    assert np.allclose(v(x), [0.125, 0.0], atol=1e-15)
    assert np.allclose(v.jacobian(x), 0.75 * np.eye(2), atol=1e-15)
    # Jacobian agrees with finite differences at a generic point
    x = np.array([0.3, -0.4])
    h = 1e-6
    fd = np.empty((2, 2))
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = h
        fd[:, j] = (v(x + dx) - v(x - dx)) / (2 * h)
    assert np.allclose(v.jacobian(x), fd, atol=1e-9)


# ----------------------------------------------------------- boundary grids

def test_boundary_grid_unit_circle():
    grid = boundary_grid(ConformalMap.identity(), m=4)
    assert np.allclose(grid.nodes, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)
    assert np.allclose(grid.normals, grid.nodes, atol=1e-15)
    assert np.allclose(grid.weights, np.pi / 2)


def test_boundary_grid_min_nodes():
    with pytest.raises(ConfigError):
        boundary_grid(ConformalMap.identity(), m=3)


def test_boundary_weights_sum_to_arclength():
    fmap = ConformalMap([1.0, 0.0, 0.05])
    grid = boundary_grid(fmap, m=512)
    th = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    arclen = np.mean(np.abs(fmap.derivative(np.exp(1j * th)))) * 2 * np.pi
    assert np.isclose(np.sum(grid.weights), arclen, rtol=1e-12)


def test_normal_speed_quadratic_bump():
    # h(z) = z^2 on the circle: delta_n = Re(e^{2i th} e^{-i th}) = cos(th)
    fam = DomainFamily([1.0], [0.0, 1.0], t_max=0.4)
    grid = boundary_grid(fam, m=32)
    th = 2 * np.pi * np.arange(32) / 32
    assert np.allclose(normal_speed(grid, fam.velocity_field()), np.cos(th),
                       atol=1e-14)


def test_enclosed_area_coefficient_formula():
    # area of f(D) = pi * sum k |c_k|^2
    assert np.isclose(enclosed_area(boundary_grid(ConformalMap.identity(), m=64)),
                      np.pi, rtol=1e-14)
    fmap = ConformalMap([1.0, 0.2, 0.1j])
    want = np.pi * (1.0 + 2 * 0.04 + 3 * 0.01)
    assert np.isclose(enclosed_area(boundary_grid(fmap, m=256)), want, rtol=1e-12)


# ----------------------------------------------------------------- builtins

def test_builtin_families_registry():
    assert set(BUILTIN_FAMILIES) == {"dilation", "rotation", "quadratic_bump",
                                     "cubic_mix"}
    for name, factory in BUILTIN_FAMILIES.items():
        fam = factory()
        assert fam.t_max > 0
        fam.map_at(fam.t_max / 2)


def test_rotation_velocity_is_rigid():
    v = rotation_family().velocity_field()
    x = np.array([0.3, -0.2])
    assert np.allclose(v(x), [0.2, 0.3], atol=1e-15)
    assert np.allclose(v.jacobian(x), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_dilation_and_bump_shapes():
    assert dilation_family().perturbation.tolist() == [1.0 + 0.0j]
    assert quadratic_bump_family().perturbation.tolist() == [0.0j, 0.1 + 0.0j]
    assert cubic_mix_family().perturbation.tolist() == [0.0j, 0.05 + 0.0j,
                                                        0.03 + 0.0j]
