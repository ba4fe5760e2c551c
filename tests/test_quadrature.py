"""Disk quadrature: exactness, positivity, pole patches, convergence."""

import hashlib
import math
import re
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ellipe

from greenvar import quadrature
from greenvar.conformal import ConformalMap, boundary_grid
from greenvar.errors import CoincidentPoleError, ConfigError, DomainError, EvaluationError
from greenvar.quadrature import (
    FSUM_EXTRACT_MIN,
    N_PATCH,
    N_R,
    N_THETA,
    IntegrationResult,
    WINDOW_FLAT,
    _window,
    boundary_integrate,
    check_rule,
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
    # poles 0.04 apart give rho = 0.008: windows so narrow no background node
    # sees them, kappa = 0, and the patches vanish
    rule = disk_rule(8, 16, poles=[0.3 + 0j, 0.34 + 0j], n_patch=8)
    assert rule.rho == pytest.approx(0.008, rel=1e-14)
    assert rule.node_count == disk_rule(8, 16).node_count
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


def test_pole_outside_disk_rejected():
    with pytest.raises(DomainError):
        disk_rule(16, 32, poles=[1.1 + 0j], n_patch=8)
    with pytest.raises(DomainError):
        disk_rule(16, 32, poles=[complex(np.nan, 0.0)], n_patch=8)


def test_coincident_poles_rejected():
    with pytest.raises(CoincidentPoleError):
        disk_rule(16, 32, poles=[0.2 + 0.1j, 0.2 + 0.1j], n_patch=8)


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


def test_counts_outside_their_range_are_refused_at_once(monkeypatch):
    solves, solve = [], quadrature._gauss_legendre
    monkeypatch.setattr(quadrature, "_gauss_legendre",
                        lambda *args: solves.append(args) or solve(*args))
    for kw, message in [(dict(n_r=10**400), "n_r must be an integer in [4, 1024]"),
                        (dict(n_r=N_R.ceiling + 1), "n_r must be an integer in [4, 1024]"),
                        (dict(n_theta=N_THETA.ceiling + 1),
                         "n_theta must be an integer in [8, 2048]"),
                        (dict(n_patch=N_PATCH.ceiling + 1, poles=[0j]),
                         "n_patch must be an integer in [8, 285]"),
                        # also without poles, where n_patch is not used
                        (dict(n_patch=8192), "n_patch must be an integer in [8, 285]")]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            disk_rule(**kw)
    assert solves == []
    with pytest.raises(ConfigError, match=re.escape("m must be an integer in [4, 2097152]")):
        boundary_grid(ConformalMap.identity(), m=2**40)


def test_n_patch_ceiling_is_the_last_value_the_node_guard_passes():
    # one pole at 0 has the largest patch radius a rule can have, rho = RHO_FACTOR
    rho = quadrature._patch_layout(np.array([0j]), N_PATCH.ceiling)[0]
    assert rho == quadrature.RHO_FACTOR
    with pytest.raises(ConfigError, match="node within 9.86e-11 of pole 0"):
        quadrature._patch_layout(np.array([0j]), N_PATCH.ceiling + 1)


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
    rule = disk_rule(8, 16, poles=[a], n_patch=8)
    res = integrate(rule, inverse_distance(a))
    assert res.rel_change > 10.0 * quadrature.CONVERGENCE_TOL
    assert not res.converged


def test_a_twin_with_the_rules_own_nodes_checks_nothing():
    # at the floor counts the half-resolution rule has the rule's nodes: with
    # poles it is the rule itself, without them it differs only in n_patch,
    # and here a 4x8 background sees no window, so no patch node survives
    a = 0.25 + 0.35j
    with_poles, bare = disk_rule(4, 8, poles=[a], n_patch=8), disk_rule(4, 8)
    assert with_poles.coarse() is with_poles and bare.coarse() is not bare
    no_patch = disk_rule(4, 8, poles=[a], n_patch=16)
    for rule in (with_poles, bare, no_patch):
        assert np.array_equal(rule.coarse().nodes, rule.nodes)
        for f in (inverse_distance(a), lambda p: np.exp(p[:, 0])):
            res = integrate(rule, f)
            assert not res.converged and math.isnan(res.rel_change)
            assert res.coarse_value == res.value
    # one count above its floor gives the twin other nodes, and a number
    for rule in (disk_rule(4, 16), disk_rule(8, 8), disk_rule(4, 16, poles=[a], n_patch=16)):
        res = integrate(rule, lambda p: np.exp(p[:, 0]))
        assert np.isfinite(res.rel_change) and res.converged == (res.rel_change < 1e-3)


def nonfinite_values(n):
    """``(values, first bad index)`` of ``n`` values: a NaN, an inf, an inf
    after a -inf (``math.fsum`` raises ValueError on their sum), and a NaN or an
    inf at the last node."""
    for bad in ({3: np.nan}, {5: np.inf}, {7: np.inf, 2: -np.inf}, {n - 1: np.nan},
                {n - 1: np.inf}):
        vals = np.ones(n)
        for i, v in bad.items():
            vals[i] = v
        yield vals, min(bad)


def blocks_of(vals, size=quadrature.BLOCK, end=None):
    """A stream of ``vals``: an iterator over blocks of ``size`` of them, each
    written into one reused buffer, then ``end`` raised if one is given."""
    buf = np.empty(min(vals.size, size))
    for lo in range(0, vals.size, size):
        block = buf[:min(size, vals.size - lo)]
        block[...] = vals[lo:lo + block.size]
        yield block
    if end is not None:
        raise end


def test_nonfinite_integrand_rejected():
    # a sum that is not finite, or raises, names the first non-finite node, of
    # an array or a stream of blocks; 128 nodes go to math.fsum, 8,192 and
    # 12,288 (a block and a half) to the extraction sum
    for rule in (disk_rule(8, 16), disk_rule(64, 128), disk_rule(96, 128)):
        assert (rule.node_count < FSUM_EXTRACT_MIN) == (rule.n_r == 8)
        for vals, i in nonfinite_values(rule.node_count):
            for f in (lambda pts: vals, lambda pts: blocks_of(vals)):
                with pytest.raises(EvaluationError) as info:
                    integrate(rule, f)
                assert str(info.value) == (
                    f"non-finite integrand value at node {i} = {tuple(rule.nodes[i])}")


def test_a_streams_own_error_comes_before_the_sums():
    # a stream that raises after its last block raises that, whatever its
    # values: non-finite, finite with an overflowing sum, or summable
    own = EvaluationError("the stream's own")
    for rule in (disk_rule(8, 16), disk_rule(96, 128)):
        n = rule.node_count
        for vals in [v for v, _ in nonfinite_values(n)] + [np.full(n, 1e308), np.ones(n)]:
            with pytest.raises(EvaluationError, match="the stream's own"):
                integrate(rule, lambda pts: blocks_of(vals, end=own), check=False)
            assert rule._held == []


def test_finite_sums_that_overflow_raise_what_fsum_raises():
    # finite values whose sum overflows pass the scan: math.fsum's OverflowError
    # on both paths, as when every sum was scanned first
    for rule in (disk_rule(8, 16), disk_rule(64, 128), disk_rule(96, 128)):
        for f in (lambda pts: np.full(len(pts), 1e308),
                  lambda pts: blocks_of(np.full(len(pts), 1e308))):
            with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
                integrate(rule, f, check=False)
    grid = boundary_grid(ConformalMap.identity(), m=16)
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        boundary_integrate(grid, np.full(16, 1e308))


def test_finite_values_are_not_scanned(monkeypatch):
    rules = [disk_rule(8, 16), disk_rule(64, 128)]
    grids = [boundary_grid(ConformalMap.identity(), m=m) for m in (16, 4096)]
    scans, isfinite = [], np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x: scans.append(np.size(x)) or isfinite(x))
    for rule in rules:
        integrate(rule, lambda pts: np.ones(len(pts)), check=False)
        integrate(rule, lambda pts: blocks_of(np.ones(len(pts))), check=False)
    for grid in grids:
        boundary_integrate(grid, lambda x: np.ones(len(x)))
    assert scans == []
    with pytest.raises(EvaluationError):
        boundary_integrate(grids[0], np.full(16, np.nan))
    assert scans == [16]


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
    # 16 values go to math.fsum, 4,096 to the extraction sum
    for grid in (grid, boundary_grid(ConformalMap([1.0, 0.1]), m=4096)):
        for vals, i in nonfinite_values(len(grid.weights)):
            with pytest.raises(EvaluationError) as info:
                boundary_integrate(grid, vals)
            assert str(info.value) == (
                f"non-finite boundary value at node {i} = {tuple(grid.nodes[i])}")


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



# pole preimages of (0.1, 0.05) and (-0.3, 0.2) under f = z + 0.1 z^2
CURVED_POLES = [complex(ConformalMap([1.0, 0.1]).inverse(x))
                for x in (0.1 + 0.05j, -0.3 + 0.2j)]


def test_equal_inputs_share_one_read_only_rule():
    poles = np.array(CURVED_POLES)
    rule = disk_rule(64, 128, poles, 32)
    assert disk_rule(64, 128, poles, 32) is rule
    assert disk_rule(np.int64(64), 128, list(CURVED_POLES), 32) is rule
    assert disk_rule(64, 128, CURVED_POLES, 32).coarse() is disk_rule(32, 64, CURVED_POLES, 16)
    for arr in (rule.nodes, rule.weights, rule.poles):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    # the caller's complex array is copied, not frozen
    assert poles.flags.writeable
    poles[0] = 0.0
    assert rule.poles[0] == CURVED_POLES[0]


def test_two_rules_are_held_most_recent_first():
    first = disk_rule(16, 32)
    second = disk_rule(16, 32, poles=[0.3 + 0.1j], n_patch=8)
    disk_rule(8, 16)
    assert disk_rule(16, 32, poles=[0.3 + 0.1j], n_patch=8) is second
    again = disk_rule(16, 32)
    assert again is not first
    assert np.array_equal(again.nodes, first.nodes)
    assert np.array_equal(again.weights, first.weights)
    assert len(quadrature._recent) == quadrature.RECENT_RULES == 2


def test_failed_builds_raise_again_and_are_not_held():
    for _ in range(2):
        with pytest.raises(ConfigError, match="node within .* of pole"):
            disk_rule(poles=CURVED_POLES, n_patch=256)
        with pytest.raises(CoincidentPoleError):
            disk_rule(16, 32, poles=[0.2 + 0.1j, 0.2 + 0.1j], n_patch=8)
    assert quadrature._recent == []


def test_held_keeps_at_most_keep_values():
    # keep = 0 holds nothing: every call builds and returns its own value
    store = []
    for key in range(5):
        value = object()
        assert quadrature.held(store, key, 0, lambda value=value: value) is value
    assert store == []
    values = {key: object() for key in range(5)}
    for key in range(5):
        quadrature.held(store, key, 2, lambda key=key: values[key])
    assert store == [(3, values[3]), (4, values[4])]


def test_cold_build_peaks_near_twice_the_rule():
    # no background grid is formed: every node is written straight into the
    # rule's buffers, allocated once (the peak reads 1.29 times the rule here,
    # 1.83 when the band and patch pieces were built aside and copied in)
    disk_rule(128, 256, CURVED_POLES, 64)
    quadrature._recent.clear()
    tracemalloc.start()
    try:
        rule = disk_rule(128, 256, CURVED_POLES, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * (rule.nodes.nbytes + rule.weights.nbytes)


def test_unbuildable_patch_fails_before_the_background_grid():
    # at n_patch 256 the innermost patch ring sits rho * 7.67e-10 from its
    # pole, inside the 1e-10 node guard: the build raises before it
    # allocates the 3 MB background grid of a 256x512 rule
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="node within 6.68e-11 of pole 0.0992552"):
            disk_rule(256, 512, poles=CURVED_POLES, n_patch=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3e6
    assert quadrature._recent == []


def _full_grid_rule(n_r, n_theta, poles, n_patch):
    """``(z, w)`` of a pole rule built the plain way: every background node
    windowed, masked and guarded, as the band build must reproduce bit for bit."""
    pole_arr = np.array(poles, dtype=complex)
    rho, rad, wrad, ring = quadrature._patch_layout(pole_arr, n_patch)
    r, wr = quadrature._gauss_legendre(n_r, 0.0, 1.0)
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    w = (wr * r)[:, None].repeat(n_theta, axis=1).ravel() * (2.0 * np.pi / n_theta)
    fac, b_chi = np.ones_like(w), []
    for p in pole_arr:
        dist = np.abs(z - p)
        near = np.flatnonzero(dist < rho)
        chi = _window(dist[near], rho)
        b_chi.append(quadrature._fsum(w[near] * chi))
        fac[near] -= chi
    keep = fac > 1e-14
    zs, ws = [z[keep]], [w[keep] * fac[keep]]
    w_patch = (wrad * _window(rad, rho))[:, None].repeat(ring.size, axis=1).ravel()
    w_patch = w_patch * (2.0 * np.pi / ring.size)
    for p, b in zip(pole_arr, b_chi):
        wp = w_patch * (b / quadrature._fsum(w_patch))
        zs.append((p + rad[:, None] * ring[None, :]).ravel()[wp > 0.0])
        ws.append(wp[wp > 0.0])
    return np.concatenate(zs), np.concatenate(ws), r, rho


def _seeded_pole_sets():
    """``(n_r, n_theta, n_patch, poles)``: 1 to 3 seeded poles, a pole at 0,
    poles near the 0.95 margin, single poles on the ray of a background
    node with ``|p| + rho`` or ``|p| - rho`` one ulp either side of a Gauss
    radius, so that node sits at distance ``rho`` to rounding, seeded rules up
    to 200x400, and the curved config's rung rules, 16x32x8 to 256x512x128."""
    rng = np.random.default_rng(22)
    cases = []
    for k in (1, 2, 3):
        for _ in range(6):
            w = 0.9 * np.sqrt(rng.uniform(size=k)) * np.exp(2j * np.pi * rng.uniform(size=k))
            if k == 1 or np.min(np.abs(w[:, None] - w[None, :]) + 9 * np.eye(k)) > 0.05:
                cases.append((32, 64, 16, list(w)))
    cases += [(32, 64, 16, [0j]), (64, 128, 32, [0j, 0.5 + 0.2j]),
              (64, 128, 32, [0.949 * np.exp(0.3j)]), (32, 64, 16, [-0.949j, 0.2 + 0.1j, 0.0])]
    for n_r, n_theta in ((16, 32), (64, 128)):
        r, _ = quadrature._gauss_legendre(n_r, 0.0, 1.0)
        for j in (n_r // 3, n_r // 2, 3 * n_r // 4):
            # one pole of modulus m: rho = 0.2 (1 - m), so m + rho = r_j at
            # m = (r_j - 0.2) / 0.8 and m - rho = r_j at m = (r_j + 0.2) / 1.2
            for m in ((r[j] - 0.2) / 0.8, (r[j] + 0.2) / 1.2):
                if 0.0 < m < 0.95:
                    for mm in (np.nextafter(m, 0.0), m, np.nextafter(m, 1.0)):
                        cases.append((n_r, n_theta, 8, [mm * np.exp(2j * np.pi * 5 / n_theta)]))
    # seeded sizes up to 200x400, and the curved config's ladder rungs
    for _ in range(24):
        k = int(rng.integers(1, 4))
        w = 0.95 * np.sqrt(rng.uniform(size=k)) * np.exp(2j * np.pi * rng.uniform(size=k))
        cases.append((int(rng.integers(4, 201)), int(rng.integers(8, 401)),
                      int(rng.integers(8, 65)), list(w)))
    cases += [(16 << k, 32 << k, 8 << k, CURVED_POLES) for k in range(5)]
    return cases


def test_band_build_is_the_full_grid_build_on_seeded_pole_sets():
    # every node strictly inside and clear of every pole; each pole's band holds
    # every background node within rho of it (brute force); and nodes and
    # weights are those of windowing the whole background grid, bit for bit
    cases, edges, partial, dead = _seeded_pole_sets(), 0, 0, 0
    assert len(cases) > 70
    for n_r, n_theta, n_patch, poles in cases:
        quadrature._recent.clear()
        rule = disk_rule(n_r, n_theta, poles=poles, n_patch=n_patch)
        z = rule.nodes.view(np.complex128)[:, 0]
        assert np.all(np.abs(z) < 1.0)
        assert all(np.min(np.abs(z - p)) >= 1e-10 for p in poles)
        z_full, w_full, r, rho = _full_grid_rule(n_r, n_theta, poles, n_patch)
        assert rule.rho == rho
        assert z.tobytes() == z_full.tobytes() and rule.weights.tobytes() == w_full.tobytes()
        th = 2.0 * np.pi * np.arange(n_theta) / n_theta
        grid = r[:, None] * np.exp(1j * th)[None, :]
        dist = np.abs(grid[None] - np.array(poles)[:, None, None])    # (poles, rings, nodes)
        band = quadrature._band(r, np.array(poles, dtype=complex), rho)
        assert band.shape == (len(poles), n_r) and np.all(band[:, :, None] | (dist >= rho))
        partial += band.any(axis=0).sum() < n_r
        edges += np.min(np.abs(np.abs(grid - poles[0]) - rho)) < 1e-15
        dead += np.any(dist < quadrature.WINDOW_FLAT * rho)     # rings with a dead node
    assert partial > len(cases) // 2 and edges >= 20 and dead >= 20


def _certificate_cases():
    """``(n_r, n_theta, n_patch, poles)`` at the extremes of a rule's inputs: 0
    to 3 poles, gaps from 0.5 down to 1e-9, gaps and separations a factor
    ``1 +- 1e-3`` either side of the least that ``n_patch`` allows (its
    innermost ring 1e-10 from its pole), ``n_patch`` 8, 9, the default and 285,
    and the count floors and defaults."""
    rng = np.random.default_rng(29)
    cases = []
    for n_patch in (8, 9, N_PATCH.default, N_PATCH.ceiling):
        # s_min^2, the innermost ring's radius over rho (one pole at 0: rho = RHO_FACTOR)
        s2 = quadrature._patch_layout(np.array([0j]), n_patch)[1][0] / quadrature.RHO_FACTOR
        least = 1e-10 / (quadrature.RHO_FACTOR * s2)     # the least gap or separation
        for n_r, n_theta in ((N_R.floor, N_THETA.floor), (N_R.default, N_THETA.default)):
            cases.append((n_r, n_theta, n_patch, []))
            for k in (1, 2, 3):
                u = np.exp(2j * np.pi * rng.uniform(size=k))
                gaps = 10.0 ** -rng.uniform(0.3, 9.0, size=k)
                cases.append((n_r, n_theta, n_patch, list((1.0 - gaps) * u)))
                for f in (1.0 - 1e-3, 1.0 + 1e-3):
                    edge = (1.0 - least * f) * u[0]
                    cases.append((n_r, n_theta, n_patch, [edge, *(0.3 * u[1:])]))
                    if k > 1:   # the last pole that far from the one before it
                        close = 0.3 * u[k - 2] + least * f * u[k - 1]
                        cases.append((n_r, n_theta, n_patch, [*(0.3 * u[:k - 1]), close]))
    return cases


def test_patch_layout_certifies_every_node():
    # disk_rule raises exactly what check_rule raises, and every rule it builds
    # has its nodes inside the circle and 1e-10 or more from every pole, though
    # no node is measured after the build
    def outcome(call):
        try:
            call()
        except Exception as exc:
            return type(exc), str(exc)

    built, refused, least = 0, 0, np.inf
    for n_r, n_theta, n_patch, poles in _certificate_cases():
        quadrature._recent.clear()
        rules = []
        expect = outcome(lambda: check_rule(n_r, n_theta, np.array(poles, dtype=complex),
                                            n_patch))
        assert outcome(lambda: rules.append(disk_rule(n_r, n_theta, poles, n_patch))) == expect
        refused += expect is not None
        for rule in rules:
            built += 1
            z = rule.nodes.view(np.complex128)[:, 0]
            assert np.all(np.abs(z) < 1.0)
            for p in poles:
                d = np.min(np.abs(z - p))
                assert d >= 1e-10
                least = min(least, d)
    assert built >= 40 and refused >= 40 and least < 1.1e-10


def test_rule_nodes_are_a_view_of_its_complex_buffer():
    rule = disk_rule(16, 32, poles=[0.3 + 0.1j], n_patch=8)
    z = rule.nodes.base
    assert z.dtype == np.complex128 and z.size == rule.node_count
    assert rule.nodes.flags.c_contiguous and not z.flags.writeable
    assert np.array_equal(z, rule.nodes[:, 0] + 1j * rule.nodes[:, 1])


def _addresses(rule):
    return rule.nodes.__array_interface__["data"][0], rule.weights.__array_interface__["data"][0]


def _addresses_of(pair):
    return tuple(arr.__array_interface__["data"][0] for arr in pair)


def _sha256(rule):
    return [hashlib.sha256(arr.tobytes()).hexdigest() for arr in (rule.nodes, rule.weights)]


def _fill_free_buffers(value) -> int:
    """Fill each pair of buffers that a build may reuse with ``value``; their count."""
    free = [pair for pair in quadrature._pairs
            if quadrature._references(pair) == quadrature._FREE]
    for pair in free:
        for arr in pair:
            arr.flags.writeable = True
            arr.fill(value)
    return len(free)


def test_a_dead_rules_buffers_are_reused_by_a_rule_of_its_size():
    # without poles at the floor (128 x 256 nodes), and with poles above it
    assert 128 * 256 == quadrature.REUSE_MIN
    for args in ((128, 256, (), 32), (128, 256, CURVED_POLES, 64)):
        addresses = _addresses(disk_rule(*args))
        quadrature._recent.clear()
        assert _addresses(disk_rule(*args)) == addresses


@pytest.mark.parametrize("keep", [lambda rule: rule.nodes[:4], lambda rule: rule.weights,
                                  lambda rule: memoryview(rule.weights)[2:]],
                         ids=["nodes_slice", "weights", "memoryview"])
def test_a_kept_part_of_a_dead_rule_blocks_the_reuse_of_its_buffers(keep):
    rule = disk_rule(128, 256, CURVED_POLES, 64)
    kept = keep(rule)
    before = bytes(kept)
    del rule
    quadrature._recent.clear()
    again = disk_rule(128, 256, CURVED_POLES, 64)
    assert not any(np.shares_memory(arr, np.asarray(kept)) for arr in (again.nodes, again.weights))
    assert bytes(kept) == before


def _reuse_cases():
    """``(n_r, n_theta, poles, n_patch)`` of rules of at least ``REUSE_MIN`` nodes: the
    curved config's 128x256x64 and 256x512x128 rungs, 24 seeded pole sets of 1 to 3
    poles on seeded grids up to 256x512, and two grids without poles."""
    rng = np.random.default_rng(33)
    cases = [(128, 256, CURVED_POLES, 64), (256, 512, CURVED_POLES, 128),
             (128, 256, [], 8), (200, 301, [], 8)]
    while len(cases) < 28:
        k = int(rng.integers(1, 4))
        w = 0.95 * np.sqrt(rng.uniform(size=k)) * np.exp(2j * np.pi * rng.uniform(size=k))
        if np.min(np.abs(w[:, None] - w[None, :]) + 9 * np.eye(k)) > 0.05:
            cases.append((int(rng.integers(128, 257)), int(rng.integers(256, 513)), list(w),
                          int(rng.integers(8, 65))))
    return cases


def test_reused_buffers_are_written_whole():
    # a reused pair filled with NaN gives the rule a build into new buffers gives
    for n_r, n_theta, poles, n_patch in _reuse_cases():
        quadrature._recent.clear()
        quadrature._pairs.clear()
        rule = disk_rule(n_r, n_theta, poles, n_patch)
        assert rule.node_count >= quadrature.REUSE_MIN
        expect, addresses = _sha256(rule), _addresses(rule)
        del rule
        quadrature._recent.clear()
        assert _fill_free_buffers(np.nan) == 1
        rule = disk_rule(n_r, n_theta, poles, n_patch)
        assert _addresses(rule) == addresses and _sha256(rule) == expect


def test_buffers_of_rules_below_the_floor_die_with_their_rule():
    # 64 x 511 nodes is one ring short of the floor; at 64 x 512 the pair outlives
    # its rule, but a weak reference to it blocks its reuse as a strong one does
    assert 64 * 511 < quadrature.REUSE_MIN == 64 * 512
    for args in ((64, 511, (), 8), (64, 128, CURVED_POLES, 32), (64, 512, (), 8)):
        rule = disk_rule(*args)
        refs, addresses = [weakref.ref(rule.nodes.base), weakref.ref(rule.weights)], _addresses(rule)
        del rule
        quadrature._recent.clear()
        alive = [ref() is not None for ref in refs]
        assert alive == [args[:2] == (64, 512)] * 2
        if any(alive):
            assert _addresses(disk_rule(*args)) != addresses
    assert [pair[0].size for pair in quadrature._pairs] == [64 * 512] * 2


def test_a_ladders_two_large_rungs_reuse_their_buffers_pass_after_pass():
    # disk_rule holds two rules, so each pass rebuilds every rung; the two above
    # the floor are rebuilt into the buffers of the previous pass's rules
    passes = []
    for _ in range(3):
        passes.append([_addresses(disk_rule(n, 2 * n, (), 8)) for n in (16, 32, 64, 128, 256)])
    assert passes[1][3:] == passes[2][3:] == passes[0][3:]
    assert [pair[0].size for pair in quadrature._pairs] == [128 * 256, 256 * 512]


def test_buffers_held_past_their_rules_stay_bounded():
    # a pole sweep above the floor, nearly every node count new: the pairs tracked are
    # those of the two rules disk_rule holds; once those die, their two pairs
    # are all that is held, and a build of another size drops them
    rng, counts = np.random.default_rng(5), []
    for radius in np.linspace(0.2, 0.9, 8):
        rule = disk_rule(128, 256, [radius * np.exp(2j * np.pi * rng.uniform())], 64)
        counts.append(rule.node_count)
        held_rules = [_addresses(r) for _, r in quadrature._recent]
        assert [_addresses_of(pair) for pair in quadrature._pairs] == held_rules
        del rule
    assert len(set(counts)) >= 6 and min(counts) >= quadrature.REUSE_MIN
    quadrature._recent.clear()
    assert sum(a.nbytes for pair in quadrature._pairs for a in pair) == 24 * sum(counts[-2:])
    rule = disk_rule(128, 300, (), 8)
    assert [_addresses_of(pair) for pair in quadrature._pairs] == [_addresses(rule)]


def test_buffers_of_rules_above_the_ceiling_die_with_their_rule():
    # 512 x 513 nodes is one ring past the ceiling, 512 x 512 is at it
    assert 512 * 512 == quadrature.REUSE_MAX
    for n_theta in (513, 512):
        rule = disk_rule(512, n_theta, (), 8)
        ref = weakref.ref(rule.weights)
        del rule
        quadrature._recent.clear()
        assert (ref() is None) == (n_theta == 513)
    assert [pair[0].size for pair in quadrature._pairs] == [512 * 512]


class _YieldingLock:
    """A lock that lets another thread run as soon as it is released."""

    def __init__(self):
        self._lock = threading.Lock()

    def __enter__(self):
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()
        time.sleep(1e-4)


def test_threads_building_rules_of_one_size_never_share_buffers(monkeypatch):
    # each thread holds its rule while the other builds, and the other runs each
    # time the buffer lock is released: no two live rules share a buffer, and
    # each is the rule built alone
    poles = np.array(CURVED_POLES)
    expect = _sha256(quadrature._build_rule(128, 256, poles.copy(), 64))
    quadrature._pairs.clear()
    monkeypatch.setattr(quadrature, "_pairs_lock", _YieldingLock())
    live, lock, clashes, wrong, errors = set(), threading.Lock(), [], [], []
    start = threading.Barrier(2)

    def build():
        start.wait()
        try:
            builds()
        except Exception as exc:    # e.g. a write into a buffer the other thread froze
            errors.append(exc)

    def builds():
        for _ in range(100):
            rule = quadrature._build_rule(128, 256, poles.copy(), 64)
            addresses = _addresses(rule)
            with lock:
                clashes.extend(a for a in addresses if a in live)
                live.update(addresses)
            if _sha256(rule) != expect:
                wrong.append(addresses)
            with lock:
                live.difference_update(addresses)
            del rule

    threads = [threading.Thread(target=build) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert clashes == [] and wrong == [] and errors == []
    assert 1 <= len(quadrature._pairs) <= 2


# _fsum must return the double math.fsum returns, on both sides of the size
# at which it switches to the extraction sum, and raise where fsum raises.
FSUM_MAX_N = 3 * quadrature.FSUM_EXTRACT_MIN


def _sum_bits(f, x):
    try:
        return f(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_fsum(x):
    assert _sum_bits(quadrature._fsum, x) == _sum_bits(math.fsum, x)


@given(hnp.arrays(np.float64, st.integers(0, FSUM_MAX_N),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.booleans())
def test_fsum_matches_math_fsum_on_arbitrary_doubles(x, cancel):
    if cancel:
        x = np.concatenate([x, -x * (1.0 - 2.0**-40)])
    _assert_fsum(x)


@given(st.integers(0, FSUM_MAX_N), st.integers(0, 2**32 - 1),
       st.integers(-1074, 1023), st.integers(0, 200),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
       st.sampled_from(["mixed", "positive", "cancelling"]))
def test_fsum_matches_math_fsum_across_exponent_windows(n, seed, lo, span, extra, signs):
    # values 2^k u, k uniform in [lo, lo + span], so both the extraction loop
    # (down to subnormals) and its overflow fallback near 2^1023 are reached;
    # same-sign values make the partial sums grow like n, not sqrt(n)
    rng = np.random.default_rng(seed)
    k = rng.integers(lo, min(lo + span, 1023), n, endpoint=True)
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), k)
    x = np.insert(x, rng.integers(0, n, len(extra), endpoint=True), extra)
    if signs == "positive":
        x = np.abs(x)
    elif signs == "cancelling":
        x = np.concatenate([x, -x * (1.0 - rng.uniform(0.0, 2.0**-30, x.size))])
    _assert_fsum(rng.permutation(x))


def test_fsum_explicit_cases():
    n = quadrature.FSUM_EXTRACT_MIN + 5
    for x in (np.zeros(n), np.full(n, -0.0), np.zeros(0), np.zeros(1)):
        _assert_fsum(x)
    # just above a rounding tie: the extraction's three pass sums 1, 2^-53 and
    # 2^-106 round to 1 + 2^-52 only when added exactly
    tie = np.zeros(n)
    tie[[0, 1, 2]] = 1.0, 2.0**-53, 2.0**-106
    _assert_fsum(tie)
    # negative values just above -1, on the finer grid of q below sigma, and
    # n + 2 just below a power of two: the partial sums come nearest sigma
    for seed in range(8):
        near = np.random.default_rng(seed).uniform(0.0, 2.0**-20, 2 * n - 13) - 1.0
        _assert_fsum(near)
    _assert_fsum(disk_rule(64, 128, poles=[0.3 + 0.1j], n_patch=32).weights)
    small = np.random.default_rng(3).standard_normal(n)
    big = small.copy()
    big[17] = 2.0**1020              # 2^(1021 + shift) overflows: fsum path
    _assert_fsum(big)
    big[:3] = 2.0**1023, 2.0**1023, -2.0**1023     # fsum raises OverflowError
    _assert_fsum(big)
    for special in ([np.inf], [-np.inf], [np.nan], [np.inf, np.nan],
                    [np.inf, -np.inf], [np.inf, np.inf]):
        x = small.copy()
        x[:len(special)] = special
        _assert_fsum(x)


@pytest.mark.parametrize("n", [k * quadrature.BLOCK + d for k in (1, 2) for d in (-1, 0, 1)]
                         + [2 * quadrature.BLOCK + 3, 4 * quadrature.BLOCK + 3])
def test_fsum_matches_math_fsum_at_block_edges(n):
    # _fsum extracts block by block: sums of one value short of one and of two
    # blocks, one and two blocks, one value past each, and two and four blocks
    # and a remainder
    B = quadrature.BLOCK
    rng = np.random.default_rng(n)
    for zeros in (np.zeros(n), np.full(n, -0.0)):
        _assert_fsum(zeros)
        zeros[-1] = -zeros[-1]        # one zero of the other sign, in the last block
        _assert_fsum(zeros)
    # an all-zero block between non-zero blocks (a zero head where n <= 2 B)
    x = rng.standard_normal(n)
    x[B:2 * B] = 0.0
    _assert_fsum(x)
    x[:min(n - 1, B)] = 0.0
    _assert_fsum(x)
    # just above a rounding tie, its three parts split across the block edge
    tie = np.zeros(n)
    tie[[min(B - 1, n - 3), min(B, n - 2), n - 1]] = 1.0, 2.0**-53, 2.0**-106
    _assert_fsum(tie)
    _assert_fsum(-tie[::-1])
    # values 2^k u over wide exponent windows, and cancelling pairs
    for seed in range(4):
        g = np.random.default_rng(seed)
        x = np.ldexp(g.uniform(-1.0, 1.0, n), g.integers(-1074, 1000, n))
        _assert_fsum(x)
        _assert_fsum(np.ldexp(g.uniform(-1.0, 1.0, n), g.integers(-60, 1, n)))
        x[n // 2:] = -x[:n - n // 2] * (1.0 - 2.0**-40)
        _assert_fsum(x)
    # overflow fallback: 2^1020 in the last block (2^(1021 + shift) would
    # overflow), and partial sums beyond the double range (fsum raises)
    big = rng.standard_normal(n)
    big[-1] = 2.0**1020
    _assert_fsum(big)
    big[[0, min(B, n - 2), n - 1]] = 2.0**1023, 2.0**1023, -2.0**1023
    _assert_fsum(big)
    big[-1] = np.nan
    _assert_fsum(big)


def test_fsum_overflow_check_reads_the_whole_array():
    # values just below 2^e over five blocks, e the largest exponent that a
    # block's own shift lets through: every block sum is finite, but the running
    # sum passes the double range (t values) inside the fifth block and comes
    # back by its end, so math.fsum raises: e + shift > 1023 is judged with the
    # whole array's shift, not a block's
    B = quadrature.BLOCK
    block_shift, shift = (B + 1).bit_length(), (5 * B + 1).bit_length()
    e = 1023 - block_shift
    assert e + shift > 1023
    v, t = 2.0**e * (1.0 - 2.0**-53), 2 ** (1024 - e)
    m = (t - 7 * B // 2 + (t - 5 * B // 2) // 2) // 2   # positives in the fifth block
    assert 7 * B // 2 + m > t > 5 * B // 2 + 2 * m
    x = np.zeros(5 * B)
    x[:7 * B // 2] = v
    x[4 * B:4 * B + m] = v
    x[4 * B + m:] = -v
    _assert_fsum(x)
    with pytest.raises(OverflowError):
        quadrature._fsum(x)


# _fsum with weights must return math.fsum of the products w * x, bit for bit,
# though it forms them block by block in one buffer: signed zeros, inf, NaN and
# finite products whose sum overflows included.
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 2.0**1023, 5e-324]


def _assert_weighted_fsum(x, w):
    # also of x as a stream, in blocks of BLOCK and of 1,000 values
    with np.errstate(all="ignore"):     # inf * 0 and the like: the values are the point
        want = _sum_bits(math.fsum, w * x)
        assert _sum_bits(lambda v: quadrature._fsum(v, w), x) == want
        for size in (quadrature.BLOCK, 1000):
            assert _sum_bits(lambda v: quadrature._fsum(lambda: blocks_of(v, size), w), x) == want


@given(st.integers(0, FSUM_MAX_N), st.integers(0, 2**32 - 1), st.integers(-1074, 1000),
       st.integers(0, 120), st.lists(st.sampled_from(SPECIAL), max_size=6),
       st.sampled_from(["mixed", "positive weights", "zeros", "negative zeros"]))
def test_weighted_fsum_is_math_fsum_of_the_products(n, seed, lo, span, special, kind):
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(-1.0, 1.0, n),
                 rng.integers(lo, min(lo + span, 1023), n, endpoint=True))
    w = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-60, 20, n, endpoint=True))
    if kind == "positive weights":
        w = np.abs(w)
    elif kind != "mixed":
        x = np.zeros(n)
        x[rng.uniform(size=n) < 0.5] = -0.0
        w = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0) * w
        if kind == "negative zeros":
            x, w = np.full(n, -0.0), np.abs(w)
    for arr in (x, w):
        at = rng.integers(0, max(n, 1), len(special))
        if n:
            arr[at] = special
    x_before, w_before = x.copy(), w.copy()
    _assert_weighted_fsum(x, w)
    assert x.tobytes() == x_before.tobytes() and w.tobytes() == w_before.tobytes()


def test_weighted_fsum_explicit_cases():
    n = FSUM_EXTRACT_MIN + 5
    u = np.random.default_rng(1).uniform(0.0, 1.0, n)
    for x, w in ((np.zeros(n), np.full(n, -1.0)), (np.full(n, -0.0), u),
                 (np.full(n, -0.0), -u), (np.zeros(0), np.zeros(0)),
                 (np.full(n, 1e308), np.full(n, 2.0)), (np.full(n, np.inf), np.zeros(n))):
        _assert_weighted_fsum(x, w)
    rule = disk_rule(64, 128, poles=[0.3 + 0.1j], n_patch=32)
    vals = np.random.default_rng(2).standard_normal(rule.node_count)
    assert quadrature._fsum(vals, rule.weights) == math.fsum(rule.weights * vals)


def test_check_rule_refuses_poles_that_are_not_1_d_as_disk_rule_does():
    # a 2-d or 0-d pole array raised numpy's ValueError or CoincidentPoleError
    # in check_rule, where disk_rule raised this ConfigError
    for poles in ([[0.1, 0.2]], [[0.1, 0.2], [0.3, 0.4]], 0.1, np.zeros((1, 1))):
        msgs = []
        for call in (lambda: check_rule(16, 32, poles, 8),
                     lambda: disk_rule(16, 32, poles=poles, n_patch=8)):
            with pytest.raises(ConfigError) as info:
                call()
            msgs.append(str(info.value))
        assert msgs[0] == msgs[1] == f"poles must be a sequence of complex numbers, got {poles!r}"
