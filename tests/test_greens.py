"""Dirichlet Green functions: closed forms, transport, and mutual energy."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenvar.conformal import (
    BUILTIN_FAMILIES,
    RECENT_POLES,
    ConformalMap,
    boundary_grid,
    cubic_mix_family,
    to_complex,
    to_points,
)
from greenvar.errors import CoincidentPoleError, ConfigError, DomainError
from greenvar.greens import (
    GreenFunction,
    _cx,
    _normal_derivative,
    _one_point,
    disk_green,
    disk_green_gradient,
    green_gradient_field,
    interior_rule,
    mutual_energy,
    poisson_normal_derivative,
)
from greenvar import quadrature
from greenvar.quadrature import disk_rule

from conftest import interior_points

TWO_PI = 2.0 * np.pi

small = st.floats(-0.6, 0.6)


def test_center_value_log_two():
    assert disk_green((0.0, 0.0), (0.5, 0.0)) == pytest.approx(
        math.log(2.0) / TWO_PI, rel=1e-15
    )


def test_value_is_symmetric(rng):
    z = interior_points(rng, 30, radius=0.9)
    w = interior_points(rng, 30, radius=0.9)
    keep = np.abs(z - w) > 1e-6
    z, w = z[keep], w[keep]
    # |1 - z conj(w)| and |z - w| are literally swap-invariant in floats
    assert np.array_equal(disk_green(z, w), disk_green(w, z))


def test_positive_inside(rng):
    z = interior_points(rng, 50, radius=0.99)
    w = interior_points(rng, 50, radius=0.8)
    keep = np.abs(z - w) > 1e-3
    assert np.all(disk_green(z[keep], w[keep]) > 0.0)


def test_vanishes_on_boundary():
    th = np.linspace(0.0, TWO_PI, 32, endpoint=False)
    z = (1.0 - 1e-8) * np.exp(1j * th)
    vals = disk_green(z, 0.3 + 0.2j)
    assert np.max(np.abs(vals)) < 1e-6


def test_logarithmic_blowup_rate():
    # 2 pi |x - a| |grad G| -> 1 approaching the pole
    a = 0.3 + 0.1j
    for d in (1e-4, 1e-6):
        x = a + d * np.exp(0.7j)
        g = disk_green_gradient(x, a)
        assert TWO_PI * d * np.hypot(*g) == pytest.approx(1.0, abs=5.0 * d)


def test_gradient_matches_finite_differences(rng):
    a = 0.25 - 0.4j
    h = 1e-6
    for z in interior_points(rng, 10, radius=0.8):
        if abs(z - a) < 0.05:
            continue
        g = disk_green_gradient(z, a)
        fd = np.array(
            [
                (disk_green(z + h, a) - disk_green(z - h, a)) / (2 * h),
                (disk_green(z + 1j * h, a) - disk_green(z - 1j * h, a)) / (2 * h),
            ]
        )
        assert np.max(np.abs(g - fd)) < 1e-7 * max(1.0, np.max(np.abs(g)))


def test_pole_must_be_interior():
    with pytest.raises(DomainError):
        disk_green(0.2 + 0j, 1.0 + 0j)
    with pytest.raises(DomainError):
        disk_green_gradient(0.2 + 0j, 1.2 + 0j)


def test_evaluation_outside_closure_rejected():
    with pytest.raises(DomainError):
        disk_green(1.5 + 0j, 0.3 + 0j)


def test_coincident_evaluation_rejected():
    with pytest.raises(CoincidentPoleError):
        disk_green(0.3 + 0j, 0.3 + 0j)
    with pytest.raises(CoincidentPoleError):
        GreenFunction(ConformalMap.identity()).value(0.1 + 0.2j, 0.1 + 0.2j)


def test_a_non_finite_point_or_pole_is_refused():
    # NaN compares false, so each check is written to fail on it
    nan = math.nan
    for kernel, x in ((disk_green, (0.1, 0.0)), (disk_green_gradient, (0.1, 0.0)),
                      (poisson_normal_derivative, (1.0, 0.0))):
        for bad in ((nan, 0.0), (0.0, nan), complex(nan, nan), (math.inf, 0.0)):
            with pytest.raises(DomainError, match="^source point must lie in the open domain$"):
                kernel(x, bad)
            with pytest.raises(DomainError):
                kernel(bad, (0.1, 0.0))
    for kernel in (disk_green, disk_green_gradient):
        with pytest.raises(DomainError, match="^evaluation point outside the closed domain$"):
            kernel(np.array([[0.1, 0.2], [nan, 0.0]]), 0.3)


def test_an_empty_batch_gives_an_empty_array():
    empty, fmap, a = np.zeros((0, 2)), ConformalMap([1.0, 0.1]), (0.1, 0.05)
    green, field = GreenFunction(fmap), green_gradient_field(fmap, a)
    for got, shape in ((disk_green(empty, 0.3), (0,)), (disk_green_gradient(empty, 0.3), (0, 2)),
                       (poisson_normal_derivative(empty, 0.3), (0,)),
                       (green.value(empty, a), (0,)), (green.gradient(empty, a), (0, 2)),
                       (field(empty), (0, 2)), (field.jacobian(empty), (0, 2, 2))):
        assert got.shape == shape and got.dtype == np.float64


def test_poisson_kernel_closed_form():
    a = 0.4 + 0.1j
    th = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    x = np.exp(1j * th)
    vals = poisson_normal_derivative(x, a)
    expected = -(1.0 - abs(a) ** 2) / np.abs(x - a) ** 2 / TWO_PI
    assert np.allclose(vals, expected, rtol=1e-14)
    assert np.all(vals < 0.0)


def test_poisson_kernel_matches_radial_difference():
    # G = 0 on the circle, so dG/dn ~ -G((1-h) x) / h
    a = 0.3 - 0.2j
    h = 1e-6
    for th in (0.3, 2.0, 4.4):
        x = np.exp(1j * th)
        fd = -disk_green((1.0 - h) * x, a) / h
        assert poisson_normal_derivative(x, a) == pytest.approx(fd, rel=1e-4)


def test_poisson_kernel_requires_unit_modulus():
    with pytest.raises(DomainError):
        poisson_normal_derivative(0.9 + 0j, 0.2 + 0j)


def test_harmonic_measure_integrates_to_minus_one():
    for name, factory in BUILTIN_FAMILIES.items():
        fam = factory()
        grid = boundary_grid(fam.map_at(0.5 * fam.t_max), m=256)
        fmap = grid.map
        green = GreenFunction(fmap)
        a = to_points(fmap(0.3 + 0.25j))
        total = np.dot(green.normal_derivative(grid, a), grid.weights)
        assert total == pytest.approx(-1.0, abs=1e-10), name


def test_normal_derivative_matches_gradient_dot_normal():
    # reference: the chain-rule gradient at the preimage, dotted with the
    # outward normal, Re(grad_z conj(n))
    cubic = cubic_mix_family()
    for fmap in (ConformalMap([1.0, 0.1]), cubic.map_at(0.5 * cubic.t_max)):
        grid = boundary_grid(fmap, m=256)
        green = GreenFunction(fmap)
        n = to_complex(grid.normals)
        for w in (0.1 + 0.05j, -0.3 + 0.2j, 0.6 - 0.5j):
            a = to_points(fmap(w))
            ref = np.real(green.gradient_z(grid.params, green.pole_preimage(a)) * np.conj(n))
            got = green.normal_derivative(grid, a)
            assert np.max(np.abs(got / ref - 1.0)) < 1e-13


def test_normal_derivative_kernel_is_the_checked_wrapper_bit_for_bit():
    # _normal_derivative calls the unchecked Poisson kernel; the public
    # poisson_normal_derivative stays as its reference
    cubic = cubic_mix_family()
    for fmap in (ConformalMap([1.0, 0.1]), cubic.base, cubic.map_at(0.5 * cubic.t_max)):
        grid = boundary_grid(fmap, m=256)
        green = GreenFunction(fmap)
        for a in ((0.1, 0.05), (-0.3, 0.2), (0.5, -0.4)):
            w, e = green.pole_preimage(a), grid.params
            ref = poisson_normal_derivative(e, w) / np.abs(fmap.derivative(e))
            assert np.array_equal(_normal_derivative(grid, w), ref)
            assert np.array_equal(green.normal_derivative(grid, a), ref)


def test_normal_derivative_rejects_a_grid_of_another_map():
    # the kernel divides by the grid's |f'|: a grid of another map, even one
    # with the same coefficients, is not paired with this map's preimage
    green = GreenFunction(ConformalMap([1.0, 0.1]))
    for other in (ConformalMap([1.0, 0.2]), ConformalMap([1.0, 0.1]), ConformalMap.identity()):
        with pytest.raises(ConfigError, match="another conformal map"):
            green.normal_derivative(boundary_grid(other, m=64), (0.1, 0.05))
    grid = boundary_grid(green.map, m=64)
    assert np.array_equal(green.normal_derivative(grid, (0.1, 0.05)),
                          _normal_derivative(grid, green.pole_preimage((0.1, 0.05))))


def test_pole_preimages_checks_coincidence_and_the_open_disk():
    fmap = ConformalMap([1.0, 0.1])
    green = GreenFunction(fmap)
    poles = [(0.1, 0.05), -0.3 + 0.2j, np.array([0.25, -0.35])]
    assert green.pole_preimages(*poles) == [green.pole_preimage(p) for p in poles]
    assert green.pole_preimages() == []
    with pytest.raises(CoincidentPoleError, match="arguments 0 and 2"):
        green.pole_preimages((0.1, 0.05), (0.2, 0.0), 0.1 + 0.05j)
    with pytest.raises(DomainError):
        green.pole_preimages((0.1, 0.05), (1.1, 0.0))


def test_a_pole_is_one_point():
    # an (x, y) pair of reals or one number; anything else is refused by
    # argument, before any pole is inverted
    green = GreenFunction(ConformalMap([1.0, 0.1]))
    want = green.pole_preimages((0.1, 0.05))
    for pole in ([0.1, 0.05], np.array([0.1, 0.05]), 0.1 + 0.05j, np.complex128(0.1 + 0.05j)):
        assert green.pole_preimages(pole) == want
    for pole, same in ((np.float64(0.2), (0.2, 0.0)), (0, 0j), ((0, 0), 0.0),
                       (np.int64(0), np.array([0.0, 0.0]))):
        assert green.pole_preimages(pole) == green.pole_preimages(same)
    for bad in ((0.1,), np.array([[0.1, 0.05]]), (0.1, 0.05, 0.0), [0.1 + 0j, 0.05],
                "0.1", True, (True, False), None, 10**400, ((0.1, 0.05), 0.2), [[0.1], 0.2]):
        with pytest.raises(ConfigError, match="pole argument 1 must be an"):
            green.pole_preimages((0.3, 0.0), bad)


def test_a_pole_is_read_with_the_bits_of_cx():
    # one conversion per pole: a pair of floats takes Python's complex
    # arithmetic, which must give _cx's bits, signed zeros, inf and NaN included
    specials = [0.0, -0.0, 0.1, -0.3, 5e-324, -2.2e-308, 1e308, np.inf, -np.inf, np.nan]
    bits = lambda z: (np.float64(z.real).tobytes(), np.float64(z.imag).tobytes())
    with np.errstate(invalid="ignore"):     # _cx's 1j * inf
        for x in specials:
            for y in specials:
                want = bits(complex(_cx(np.array([x, y]))))
                for pole in ((x, y), [x, y], np.array([x, y]), (np.float64(x), y)):
                    assert bits(_one_point(pole)) == want, pole
            for pole in (x, complex(x, -0.0), np.complex128(complex(-0.0, x))):
                assert bits(_one_point(pole)) == bits(complex(_cx(pole))), pole


def test_pole_preimages_are_held_per_map_on_exact_bits(monkeypatch):
    inverted = []
    inverse = ConformalMap.inverse
    monkeypatch.setattr(ConformalMap, "inverse",
                        lambda self, x: inverted.append(self) or inverse(self, x))
    fmap = ConformalMap([1.0, 0.1])
    green = GreenFunction(fmap)
    fresh = lambda p: GreenFunction(ConformalMap([1.0, 0.1])).pole_preimage(p)
    w = green.pole_preimage((0.1, 0.05))
    # the same pole as a complex number, through another GreenFunction of the map
    assert GreenFunction(fmap).pole_preimage(0.1 + 0.05j) == w
    assert inverted == [fmap]
    assert fresh((0.1, 0.05)) == w
    # 0.0 and -0.0 are two keys
    green.pole_preimage(complex(0.0, 0.0))
    green.pole_preimage(complex(-0.0, 0.0))
    assert len(fmap._preimages) == 3
    # an array of poles is not one pole: refused, and nothing is held
    before = list(fmap._preimages)
    with pytest.raises(ConfigError, match="pole argument 0 must be an"):
        green.pole_preimage(np.array([[0.2, 0.0], [0.0, 0.3]]))
    assert list(fmap._preimages) == before
    for k in range(100):
        p = 0.5 * np.exp(2j * np.pi * k / 100)
        assert green.pole_preimage(p) == fresh(p)
    assert len(fmap._preimages) == RECENT_POLES
    # outside the image, and on its boundary (preimage modulus 1): raised on
    # every call, never held
    held = list(fmap._preimages)
    inverted.clear()
    for bad in ((1.5, 0.0), fmap(1.0 + 0.0j)):
        for _ in range(2):
            with pytest.raises(DomainError):
                green.pole_preimage(bad)
    assert inverted == [fmap] * 4 and fmap._preimages == held


def test_every_green_method_takes_one_pole():
    # one pole in every form reads the same held scalar; an array of poles is
    # refused by every method before anything is held
    fmap = ConformalMap([1.0, 0.1])
    green = GreenFunction(fmap)
    w = green.pole_preimage((0.2, 0.1))
    for pole in ([0.2, 0.1], np.array([0.2, 0.1]), 0.2 + 0.1j, np.complex128(0.2 + 0.1j),
                 np.array(0.2 + 0.1j)):
        assert green.pole_preimage(pole) is w
    held = list(fmap._preimages)
    poles = np.array([[0.2, 0.0], [0.0, 0.3]])
    grid = boundary_grid(fmap, m=64)
    for call in (lambda: green.pole_preimage(poles),
                 lambda: green.value((0.5, 0.0), poles),
                 lambda: green.gradient((0.5, 0.0), poles),
                 lambda: green.normal_derivative(grid, poles),
                 lambda: green_gradient_field(fmap, poles)):
        with pytest.raises(ConfigError, match="pole argument 0 must be an"):
            call()
        assert list(fmap._preimages) == held


def test_mutual_energy_builds_and_sums_one_rule(monkeypatch):
    # only the value is read, so no coarse twin is built or summed
    built, summed = [], []
    build, weighted_sum = quadrature._build_rule, quadrature._weighted_sum
    monkeypatch.setattr(quadrature, "_build_rule",
                        lambda *a: built.append(a[:2]) or build(*a))
    monkeypatch.setattr(quadrature, "_weighted_sum",
                        lambda r, *a: summed.append(len(r.nodes)) or weighted_sum(r, *a))
    fmap = ConformalMap([1.0, 0.1])
    val = mutual_energy(fmap, (0.1, 0.05), (-0.2, 0.3))
    assert built == [(64, 128)] and len(summed) == 1
    assert val == pytest.approx(GreenFunction(fmap).value((0.1, 0.05), (-0.2, 0.3)), abs=1e-5)


def test_mutual_energy_rejects_a_rule_without_patches_at_the_preimages():
    # without the patches the value is 0.112768 against G(a, b) = 0.109409
    a, b = (0.2, 0.1), (-0.3, 0.25)
    for rule in (disk_rule(64, 128), disk_rule(64, 128, poles=[0.2 + 0.1j, 0.5j]),
                 interior_rule(None, poles=[(0.1, 0.1), (-0.3, 0.0)])):
        with pytest.raises(ConfigError, match="pole patches"):
            mutual_energy(None, a, b, rule=rule)


@given(small, small, small, small)
def test_conformal_transport(zr, zi, wr, wi):
    z, w = complex(zr, zi), complex(wr, wi)
    if abs(z - w) < 1e-3:
        return
    fmap = ConformalMap([1.0, 0.08, 0.03j])
    val = GreenFunction(fmap).value(to_points(fmap(z)), to_points(fmap(w)))
    assert val == pytest.approx(disk_green(z, w), rel=1e-10, abs=1e-12)


def test_scale_invariance():
    # Green functions do not change under rescaling of the whole domain
    base = ConformalMap([1.0, 0.1])
    scaled = ConformalMap([1.3, 0.13])
    x, a = 0.3 + 0.2j, -0.1 + 0.4j
    lhs = GreenFunction(base).value(to_points(base(x)), to_points(base(a)))
    rhs = GreenFunction(scaled).value(to_points(scaled(x)), to_points(scaled(a)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mapped_gradient_chain_rule(rng):
    fmap = ConformalMap([1.0, 0.1, 0.05])
    green = GreenFunction(fmap)
    a = to_points(fmap(0.2 + 0.1j))
    h = 1e-6
    for z in interior_points(rng, 8, radius=0.7):
        if abs(z - (0.2 + 0.1j)) < 0.1:
            continue
        x = complex(fmap(z))
        g = green.gradient(to_points(x), a)
        fd = np.array(
            [
                (green.value(to_points(x + h), a)
                 - green.value(to_points(x - h), a)) / (2 * h),
                (green.value(to_points(x + 1j * h), a)
                 - green.value(to_points(x - 1j * h), a)) / (2 * h),
            ]
        )
        assert np.max(np.abs(g - fd)) < 1e-6 * max(1.0, np.max(np.abs(g)))


def test_gradient_field_jacobian_structure(rng):
    fmap = ConformalMap([1.0, 0.05, 0.03])
    field = green_gradient_field(fmap, to_points(fmap(0.1 - 0.2j)))
    pts = to_points(fmap(interior_points(rng, 20, radius=0.8, min_radius=0.45)))
    J = field.jacobian(pts)
    # harmonic gradient: symmetric, trace-free Jacobian
    assert np.max(np.abs(J[..., 0, 1] - J[..., 1, 0])) == 0.0
    assert np.max(np.abs(J[..., 0, 0] + J[..., 1, 1])) == 0.0
    from greenvar.tensors import VectorField

    fd = VectorField(2, field._func).jacobian(pts)
    assert np.max(np.abs(J - fd)) < 1e-6


def test_gradient_field_matches_pointwise_gradient(rng):
    fmap = ConformalMap([1.0, 0.1])
    c = to_points(fmap(0.3 + 0.3j))
    field = green_gradient_field(fmap, c)
    pts = to_points(fmap(interior_points(rng, 10, radius=0.8, min_radius=0.5)))
    assert np.allclose(field(pts), GreenFunction(fmap).gradient(pts, c), atol=1e-14)


def test_interior_rule_patches_at_preimages():
    fmap = ConformalMap([1.0, 0.1])
    w = 0.4 + 0.0j
    ambient = to_points(fmap(w))
    rule = interior_rule(fmap, poles=[ambient], n_r=16, n_theta=32, n_patch=16)
    direct = disk_rule(16, 32, poles=[w], n_patch=16)
    assert rule.nodes.shape == direct.nodes.shape
    assert np.allclose(rule.nodes, direct.nodes, atol=1e-10)
    assert np.allclose(rule.weights, direct.weights, atol=1e-10)


def test_interior_rule_rejects_boundary_pole():
    with pytest.raises(DomainError):
        interior_rule(None, poles=[(1.0, 0.0)])


def test_mutual_energy_center_pair():
    val = mutual_energy(None, (0.0, 0.0), (0.5, 0.0))
    assert val == pytest.approx(math.log(2.0) / TWO_PI, abs=1e-6)


def test_mutual_energy_swap_with_shared_rule():
    a, b = (0.2, 0.1), (-0.3, 0.25)
    rule = interior_rule(None, poles=[a, b])
    lhs = mutual_energy(None, a, b, rule=rule)
    rhs = mutual_energy(None, b, a, rule=rule)
    assert lhs == rhs


def test_mutual_energy_equals_green_value(rng):
    fmap = ConformalMap([1.0, 0.07, 0.02])
    for _ in range(3):
        z, w = interior_points(rng, 2, radius=0.6)
        if abs(z - w) < 0.2:
            continue
        a, b = to_points(fmap(z)), to_points(fmap(w))
        val = mutual_energy(fmap, a, b)
        assert val == pytest.approx(GreenFunction(fmap).value(a, b), abs=1e-6)


def test_mutual_energy_rejects_coincident_sources():
    with pytest.raises(CoincidentPoleError):
        mutual_energy(None, (0.3, 0.0), (0.3, 0.0))


def test_mutual_energy_is_metric_independent():
    # g^{ij} sqrt(det g) = identity for any conformal factor in 2d
    from greenvar.tensors import conformal_metric

    met = conformal_metric(lambda x: 0.2 * x[..., 0],
                           lambda x: np.stack([0.2 * np.ones_like(x[..., 0]),
                                               np.zeros_like(x[..., 0])], axis=-1))
    a, b = (0.1, 0.2), (-0.3, 0.1)
    rule = interior_rule(None, poles=[a, b])
    flat = mutual_energy(None, a, b, rule=rule)
    curved = mutual_energy(None, a, b, rule=rule, metric=met)
    assert curved == pytest.approx(flat, rel=1e-12)
