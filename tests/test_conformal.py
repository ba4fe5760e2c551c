"""Polynomial disk maps, deformation families, boundary grids."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenvar import conformal
from greenvar.conformal import (BUILTIN_FAMILIES, MAX_DEGREE, RECENT_GRIDS, ConformalMap,
                                DomainFamily, boundary_grid, cubic_mix_family,
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


def test_identity_inverse_is_a_checked_copy(monkeypatch):
    # no Newton sweep and no root fallback in the closed disk, the input's
    # bits (signed zeros included), and the same two errors as any other map
    def forbidden(*args):
        raise AssertionError("the identity ran the Newton machinery")

    monkeypatch.setattr(conformal, "_newton_rows", forbidden)
    monkeypatch.setattr(ConformalMap, "_least_root", forbidden)
    monkeypatch.setattr(np, "errstate", forbidden)
    ident = ConformalMap.identity()
    z = np.array([complex(-0.0, 0.0), 0.3 - 0.2j, 1.0 + 5e-10])
    out = ident.inverse(z)
    assert out is not z and np.array_equal(out, z)
    assert np.signbit(out[0].real)
    assert ident.inverse(0.5j) == 0.5j and np.ndim(ident.inverse(0.5j)) == 0
    monkeypatch.undo()
    with pytest.raises(DomainError, match="preimage modulus 1.5$"):
        ident.inverse(np.array([0.2, 1.5, 2.0]))
    with pytest.raises(DomainError, match="non-finite"):
        ident.inverse(np.array([0.2, complex(np.nan, 0.0)]))


def test_injectivity_gate():
    # f' = 1 + z vanishes at z = -1, on the circle
    with pytest.raises(InjectivityError, match="a zero of f' of modulus 1 <= 1"):
        ConformalMap([1.0, 0.5])
    # f' = 1 + z/0.83 vanishes at -0.83, inside the disk
    with pytest.raises(InjectivityError, match="modulus 0.83 <= 1"):
        ConformalMap([1.0, 1.0 / 1.66])
    with pytest.raises(InjectivityError, match="c_1 = 0"):
        ConformalMap([0.0, 0.3])
    assert ConformalMap([1.0, 0.3]).passes_gate()
    # f' = 1 + 1.2 z vanishes at -0.833
    with pytest.raises(InjectivityError, match="modulus 0.833333 <= 1"):
        ConformalMap([1.0, 0.6])
    assert not ConformalMap([1.0, 0.6], check=False).passes_gate()
    # z + z^16/32 is univalent (min |f'| = 0.5) though its bound is ~6.6e-21:
    # no floor on the bound
    fmap = ConformalMap([1.0] + [0.0] * 14 + [1.0 / 32.0])
    assert 0.0 < fmap.gate_min_derivative() < 1e-20
    # a subnormal mu puts the zero of f' beyond the doubles: none is listed
    assert ConformalMap([1.0, 2.2250738585e-313, 0.0])._critical_points.size == 0


@pytest.mark.parametrize("coeffs", [[np.nan], [1.0, np.inf], [complex(1.0, np.nan)],
                                    [np.inf], [np.inf, 1.0], [1.0, 1e308]],
                         ids=["nan", "inf_c2", "nan_imag", "inf", "inf_c1", "f_prime_overflows"])
def test_injectivity_gate_rejects_non_finite_coefficients(coeffs):
    # the bound is NaN on such maps: construction decides as passes_gate does,
    # and no numpy warning leaks (pytest turns RuntimeWarning into an error)
    fmap = ConformalMap(coeffs, check=False)
    assert np.isnan(fmap.gate_min_derivative()) and not fmap.passes_gate()
    with pytest.raises(InjectivityError, match="non-finite coefficients"):
        ConformalMap(coeffs)


@pytest.mark.parametrize("scale", [0.25, 0.5])
def test_gate_agrees_with_the_zeros_of_f_prime(scale):
    # seeded quartics z + c_2 z^2 + c_3 z^3 + c_4 z^4 against the np.roots
    # oracle: accepted iff every zero of f' lies outside the closed disk
    rng = np.random.default_rng(3)
    cs = scale * (rng.standard_normal((3000, 3)) + 1j * rng.standard_normal((3000, 3)))
    decided = []
    for c in cs:
        coeffs = np.concatenate([[1.0], c])
        least = np.min(np.abs(np.roots((coeffs * np.arange(1, 5))[::-1])))
        if abs(least - 1.0) > 1e-9:
            decided.append(ConformalMap(coeffs, check=False).passes_gate() == (least > 1.0))
    assert len(decided) == 3000 and all(decided)


def test_gate_bound_is_below_min_abs_f_prime():
    # a lower bound of |f'| on the closed disk, checked on a polar grid of
    # accepted random cubics; on degree 2 it is |c_1| - 2 |c_2|
    rng = np.random.default_rng(11)
    z = (np.linspace(0.0, 1.0, 100)[:, None]
         * np.exp(2j * np.pi * np.arange(360) / 360)).ravel()
    accepted = 0
    for c in 0.25 * (rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))):
        fmap = ConformalMap([1.0, *c], check=False)
        if fmap.passes_gate():
            accepted += 1
            assert fmap.gate_min_derivative() <= np.min(np.abs(fmap.derivative(z)))
    assert accepted > 50
    for c1, c2 in 0.5 * (rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))):
        fmap = ConformalMap([c1, c2], check=False)
        want = abs(c1) - 2.0 * abs(c2)
        assert fmap.gate_min_derivative() == pytest.approx(max(want, 0.0), abs=1e-15)


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
    with pytest.raises(DomainError):
        fmap.inverse(np.array([0.2 + 0.2j, 2.5 + 0.0j]))
    assert abs(fmap(fmap.inverse(0.2 + 0.2j)) - (0.2 + 0.2j)) < 1e-15


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


def test_least_root_polishes_with_the_maps_own_arithmetic():
    # the fallback's Newton step, called with coefficient rows (the FD oracle
    # builds no map), evaluates f and f' as a ConformalMap does: numpy scalars
    # round a complex product apart from arrays
    fmap = ConformalMap(QUARTIC)
    r = np.linspace(0.9, 0.999, 10)
    for xi in fmap((r[:, None] * np.exp(2j * np.pi * np.arange(36) / 36)).ravel()):
        roots = np.roots(np.append(fmap.coeffs[::-1], -xi))
        z = roots[np.argmin(np.abs(roots))]
        want = z - (fmap(z) - xi) / fmap.derivative(z)
        assert ConformalMap._least_root(fmap.coeffs, xi).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("t_max", [0.5 * (1.0 - 1e-13), 0.5])
def test_family_refuses_a_range_map_at_reaches_past_t_star(t_max):
    # map_at accepts |t| up to t_max (1 + 1e-12), and at t = 0.5 f' = 1 + z
    # vanishes at -1: t* = 0.5 is refused even 1e-13 below it
    assert not ConformalMap([1.0, 0.5], check=False).passes_gate()
    with pytest.raises(InjectivityError, match=r"at \|t\| = t\* = 0\.5$"):
        DomainFamily([1.0], [0.0, 1.0], t_max=t_max)


def _gate(base, pert, t):
    """The gate of the map ``f + t h`` formed as ``map_at`` forms it."""
    c = np.zeros(max(len(base), len(pert)), dtype=complex)
    c[: len(base)] += base
    c[: len(pert)] += t * np.asarray(pert)
    return ConformalMap(c, check=False).passes_gate()


def _assert_t_star_is_the_gate_edge(base, pert, grid=33, crosses=True):
    """The gate passes at every t of a grid over |t| <= (1 - CROSSING_TOL) t*
    (over the cap's range where t* is inf) and, where a zero crosses the circle
    there, fails just past -t* or t*."""
    t_star = DomainFamily(base, pert, t_max=1e-6)._first_crossing()
    edge = (1.0 - conformal.CROSSING_TOL) * min(t_star, conformal.T_MAX_CAP)
    assert all(_gate(base, pert, t) for t in np.linspace(-edge, edge, grid))
    if crosses and t_star < np.inf:
        past = (1.0 + conformal.CROSSING_TOL) * t_star
        assert not (_gate(base, pert, past) and _gate(base, pert, -past))
    return t_star


def test_family_gate_matches_maps_built_per_t():
    # t* is the edge of the gate of each map f + t h, built per t as map_at builds it.
    # f' = 1 + 2 t q z vanishes at z = w for t = t0 when q = -1 / (2 t0 w): on
    # the circle and 1e-10 relative inside and outside it, for t0 = +-0.75
    w = np.exp(0.7j)
    zeros = {(t0, rel): ([1.0], [0.0, -1.0 / (2.0 * t0 * w * rel)])
             for t0 in (0.75, -0.75) for rel in (1.0, 1.0 - 1e-10, 1.0 + 1e-10)}
    drop = ([1.0, 0.1, 0.03], [0.0, 0.0, -0.03])  # degree 3 -> 2 at t = 1
    cases = [([1.0], [0.0, 1.0]), ([1.0, 0.1], [0.0, 0.05, 0.03]),
             ([1.0, 0.1], [10.0, 0.5, 0.3]), ([1.0, 0.2j], [0.3, -0.4, 0.1j]),
             drop, *zeros.values()]
    for base, pert in cases:
        _assert_t_star_is_the_gate_edge(base, pert)
    # the zero crosses the circle at |t| = |t0| rel: inside fails, outside passes
    for (t0, rel), (base, pert) in zeros.items():
        t_star = _assert_t_star_is_the_gate_edge(base, pert)
        assert t_star == pytest.approx(abs(t0) * rel, rel=1e-12)
        if rel != 1.0:
            assert _gate(base, pert, t0) == (rel > 1.0)
    # z + 0.1 z^2: the vanishing c_3 is mu = 0, not a crossing
    assert _gate(*drop, 1.0) and _assert_t_star_is_the_gate_edge(*drop) > 1.0
    # c_1(t) = 1 + t = 0: h' = f', the crossing polynomial is 0, z = 0 is the
    # candidate, and the gate fails at t = -1 alone (every z is a zero there)
    assert not _gate([1.0], [1.0], -1.0)
    assert _assert_t_star_is_the_gate_edge([1.0], [1.0], crosses=False) == 1.0


def test_family_t_star_on_seeded_families():
    # Hurwitz: at every t short of t* the gate passes, and just past -t* or t*
    # it fails; bases of degree 2 to 7, a random complex h of degree 1 to 7
    rng = np.random.default_rng(31)
    crossed = families = 0
    while families < 500:
        deg = int(rng.integers(2, 8))
        base = np.append(1.0, (rng.normal(size=deg - 1) + 1j * rng.normal(size=deg - 1))
                         * 0.4 / np.arange(2, deg + 1) ** 2)
        if not ConformalMap(base, check=False).passes_gate():
            continue
        k = int(rng.integers(1, 8))
        pert = (rng.normal(size=k) + 1j * rng.normal(size=k)) * rng.uniform(0.05, 2.0)
        crossed += _assert_t_star_is_the_gate_edge(base, pert, grid=17) < np.inf
        families += 1
    assert crossed > 400


def test_family_t_star_of_a_zero_both_samplings_stepped_over():
    # the zero of f_t' is at (t - c) / 0.005: inside the disk only for t in [0.302, 0.308]
    c = 0.305 + 0.004j
    base, pert = [1.0, 0.0025 / c], [-1.0 / c]
    fam = DomainFamily(base, pert)
    assert fam.t_max == pytest.approx(0.151, rel=1e-12)
    assert not _gate(base, pert, 0.305)
    with pytest.raises(InjectivityError, match=r"at \|t\| = t\* = 0\.302$"):
        DomainFamily(base, pert, t_max=2.0)


def test_family_gate_tests_every_non_finite_point():
    # a NaN h' makes f' + t h' non-finite, so every t fails, omitted or declared
    for t_max in (None, 1e-3):
        with pytest.raises(InjectivityError):
            DomainFamily([1.0], [0.0, np.nan], t_max=t_max)


def test_family_refuses_a_base_that_fails_the_gate():
    with pytest.raises(InjectivityError, match="at t = 0"):
        DomainFamily(ConformalMap([1.0, 0.6], check=False), [0.0, 0.1])


def test_family_t_max_autoscan():
    fam = DomainFamily([1.0], [0.0, 1.0])
    assert fam.t_max == pytest.approx(0.25, rel=1e-15)
    fam.map_at(fam.t_max)
    # the FD step follows t_max: pin half the crossing t*, capped at 2, and t*
    assert DomainFamily([1.0, 0.1], [0.0, 0.05, 0.03]).t_max == 2.0
    scanned = {name: DomainFamily(f().base, f().perturbation).t_max
               for name, f in BUILTIN_FAMILIES.items()}
    assert scanned == {"dilation": 0.5, "rotation": 2.0, "quadratic_bump": 2.0,
                       "cubic_mix": 2.0}
    crossings = {name: DomainFamily(f().base, f().perturbation)._first_crossing()
                 for name, f in BUILTIN_FAMILIES.items()}
    crossings["curved"] = DomainFamily([1.0, 0.1], [0.0, 0.05, 0.03])._first_crossing()
    assert crossings == pytest.approx({"dilation": 1.0, "rotation": np.inf, "quadratic_bump": 5.0,
                                       "cubic_mix": 100 / 19, "curved": 120 / 19}, rel=1e-12)


def test_family_rejects_bad_t_max():
    with pytest.raises(ConfigError):
        DomainFamily([1.0], [1.0], t_max=-0.1)
    with pytest.raises(ConfigError):
        DomainFamily([1.0], [1.0], t_max="wide")
    # a numpy floating t_max is a real number, read as its double, unless it
    # is a long double beyond the double range
    assert DomainFamily([1.0], [1.0], t_max=np.float32(0.25)).t_max == 0.25
    if np.finfo(np.longdouble).max > np.finfo(float).max:
        with pytest.raises(ConfigError, match="^t_max must be positive and finite"):
            DomainFamily([1.0], [1.0], t_max=np.longdouble("1e400"))


def test_degree_ceiling():
    # MAX_DEGREE coefficients build; one more is refused before the gate runs
    top = [1.0] + [0.0] * (MAX_DEGREE - 2) + [0.01]
    assert DomainFamily(top, top, t_max=0.5).base.degree == MAX_DEGREE
    for base, pert in (([1.0] + [0.0] * MAX_DEGREE, [1.0]), ([1.0], [0.0] * 2000)):
        with pytest.raises(ConfigError, match="coefficient list must be 1-d, of 1 to 64"):
            DomainFamily(base, pert)


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


def test_boundary_grid_of_a_family_is_on_its_base_map():
    # the t = 0 map is the family's base, not the base zero-padded to the
    # perturbation's degree
    for factory in BUILTIN_FAMILIES.values():
        fam = factory()
        assert boundary_grid(fam).map is fam.base


def test_boundary_grid_is_held_per_map_and_read_only():
    fmap = ConformalMap([1.0, 0.1])
    first = boundary_grid(fmap, m=64)
    again = boundary_grid(fmap, m=64)
    assert again.nodes is first.nodes and again.params is first.params
    for m in range(8, 18):
        boundary_grid(fmap, m=m)
    assert len(fmap._grids) == RECENT_GRIDS
    # a grid built again after it was dropped has the same bits
    assert boundary_grid(fmap, m=64).nodes is not first.nodes
    assert np.array_equal(boundary_grid(fmap, m=64).weights, first.weights)
    assert boundary_grid(ConformalMap([1.0, 0.1]), m=64).map is not fmap
    for arr in (first.nodes, first.normals, first.weights, first.params):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_boundary_grid_speed_is_the_read_only_stretch():
    fmap = ConformalMap([1.0, 0.1, 0.05j])
    grid = boundary_grid(fmap, m=64)
    assert np.array_equal(grid.speed, np.abs(fmap.derivative(grid.params)))
    assert np.array_equal(grid.weights, grid.speed * (2.0 * np.pi / 64))
    with pytest.raises(ValueError):
        grid.speed[0] = 0.0


def test_family_perturbation_is_the_read_only_coefficients_of_h():
    fam = DomainFamily([1.0, 0.1], [0.0, 0.05, 0.03])
    assert fam.perturbation is fam.h.coeffs
    assert np.array_equal(fam.h(np.array([0.5j])), [0.05 * (0.5j) ** 2 + 0.03 * (0.5j) ** 3])
    with pytest.raises(ValueError):
        fam.perturbation[1] = 0.0
    with pytest.raises(AttributeError):
        fam.perturbation = [0.0, 1.0]


def test_coefficients_are_a_read_only_copy():
    coeffs = np.array([1.0, 0.1 + 0.0j])
    fmap = ConformalMap(coeffs)
    for arr in (fmap.coeffs, fmap._dcoeffs, fmap._ddcoeffs):
        with pytest.raises(ValueError):
            arr[0] = 2.0
    coeffs[1] = 0.2
    assert fmap.coeffs[1] == 0.1


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
    assert {name: f().t_max for name, f in BUILTIN_FAMILIES.items()} == {
        "dilation": 0.5, "rotation": 1.0, "quadratic_bump": 2.0, "cubic_mix": 2.5}


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


# ---------------------------------------------- in-place Horner, bit for bit

def _loop_horner(coeffs, z):
    """The allocating loop: ``acc * z + c`` at every step."""
    if coeffs.size == 0:
        return np.zeros_like(z)
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _bits(v):
    return type(v), np.shape(v), np.asarray(v).tobytes()


cplx = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@given(st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=8),
       st.lists(cplx, min_size=6, max_size=6), st.sampled_from(["0-d", "1-d", "2-d", "slice"]))
def test_in_place_horner_and_map_have_the_bits_of_the_loop(coeffs, zs, shape):
    c = np.array(coeffs, dtype=complex)
    z = {"0-d": np.asarray(zs[0]), "1-d": np.array(zs), "2-d": np.array(zs).reshape(2, 3),
         "slice": np.array(zs)[::2]}[shape]
    fmap = ConformalMap(c, check=False)
    assert _bits(conformal._horner(c, z)) == _bits(_loop_horner(c, z))
    assert _bits(fmap(z)) == _bits(_loop_horner(c, z) * z)
    assert _bits(fmap.derivative(z)) == _bits(_loop_horner(fmap._dcoeffs, z))
    if shape == "0-d":      # a Python number is read as the 0-d array
        assert _bits(fmap(zs[0])) == _bits(_loop_horner(c, z) * z)
    # coefficient rows, as the row Newton passes them, keep the loop
    rows = np.array([c, c[::-1]]).T[:, :, None]
    zr = np.array([zs[:3], zs[3:]])
    assert _bits(conformal._horner(rows, zr)) == _bits(_loop_horner(rows, zr))


def test_to_points_copies_the_float_view():
    z = np.array([[0.1 - 0.2j, -0.0 + 3j], [np.inf, 1e-300j]])
    for arr in (z, z[:, 0], z.T, np.asarray(0.5 - 0.25j), z[0, 1]):
        got = to_points(arr)
        want = np.stack([np.real(arr), np.imag(arr)], axis=-1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.writeable and not np.shares_memory(got, z)


# ------------------------------- held normal derivatives on the newest grid

def test_only_the_newest_grid_holds_normal_derivatives():
    # a boundary ladder kept the traces of both held grids until each was
    # dropped; now a grid of another m drops the other grid's traces
    from greenvar.variation import boundary_variation, flux_variation
    fam = cubic_mix_family()
    for m in (64, 128, 256):
        boundary_variation(fam, (0.1, 0.05), (-0.3, 0.2), m=m)
        flux_variation(fam, (0.1, 0.05), (-0.3, 0.2), m=m)
        assert [len(grid[-1]) for _, grid in fam.base._grids] == [0, 2][-len(fam.base._grids):]
    older = boundary_grid(fam, m=128)       # handed out again: the newest now
    assert [len(grid[-1]) for _, grid in fam.base._grids] == [0, 0]
    assert older._traces is fam.base._grids[-1][1][-1]
