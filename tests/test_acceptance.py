"""End-to-end acceptance gate.

Ten criteria, each printing one [PASS]/[FAIL] line on the real stdout
(bypassing capture) so the gate is readable straight off a pytest run.
Every expected value is either a closed form or an independently derived
constant; tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from greenvar.conformal import (
    ConformalMap,
    cubic_mix_family,
    dilation_family,
    rotation_family,
)
from greenvar.energy_momentum import PolarizedEMT
from greenvar.greens import green_gradient_field, mutual_energy
from greenvar.quadrature import disk_rule
from greenvar.tensors import conformal_metric, euclidean_metric, strain_tensor
from greenvar.variation import (
    boundary_variation,
    fd_oracle,
    flux_variation,
    triple_variation,
    volume_variation,
)

TWO_PI = 2.0 * math.pi
A0, B0 = (0.0, 0.0), (0.5, 0.0)


@pytest.fixture
def check(capfd):
    """One [PASS]/[FAIL] line per criterion, written past pytest's capture."""

    def _check(label: str, ok: bool, detail: str = ""):
        verdict = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        with capfd.disabled():
            print(f"[{verdict}] {label}{suffix}", flush=True)
        assert ok, f"{label}{suffix}"

    return _check


def sample_pairs(seed, count, radius, min_sep):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        r = radius * np.sqrt(rng.uniform(size=2))
        th = rng.uniform(0.0, TWO_PI, 2)
        z = r * np.exp(1j * th)
        if abs(z[0] - z[1]) >= min_sep:
            pairs.append(((z[0].real, z[0].imag), (z[1].real, z[1].imag)))
    return pairs


def linear_phi(c=0.2):
    def phi(x):
        return c * x[..., 0]

    def grad(x):
        g = np.zeros_like(x)
        g[..., 0] = c
        return g

    return conformal_metric(phi, grad)


def test_criterion_01_dilation_benchmark(check):
    fam = dilation_family()
    exact = 1.0 / TWO_PI
    rels = {
        "boundary": abs(boundary_variation(fam, A0, B0) - exact) / exact,
        "flux": abs(flux_variation(fam, A0, B0) - exact) / exact,
        "fd_oracle": abs(fd_oracle(fam, A0, B0) - exact) / exact,
    }
    vol_rel = abs(float(volume_variation(fam, A0, B0)) - exact) / exact
    ok = all(r < 1e-6 for r in rels.values()) and vol_rel < 5e-3
    worst = max(rels.values())
    check("criterion 1: dilation estimators equal 1/(2 pi)", ok,
          f"max spectral rel {worst:.2e}, volume rel {vol_rel:.2e}")


def test_criterion_02_general_dilation_closed_form(check):
    fam = dilation_family()
    worst = 0.0
    for a, b in sample_pairs(1234, 20, radius=0.6, min_sep=0.15):
        ab = complex(*a) * complex(*b).conjugate()
        exact = (1.0 + (2.0 * ab / (1.0 - ab)).real) / TWO_PI
        rel = abs(boundary_variation(fam, a, b) - exact) / abs(exact)
        worst = max(worst, rel)
    check("criterion 2: dilation closed form on 20 random pairs",
          worst < 1e-6, f"worst rel {worst:.2e}")


def test_criterion_03_rotation_killing_invariance(check):
    fam = rotation_family()
    vals = [
        boundary_variation(fam, A0, B0),
        flux_variation(fam, A0, B0),
        float(volume_variation(fam, A0, B0)),
        fd_oracle(fam, A0, B0),
    ]
    worst = max(abs(v) for v in vals)
    rng = np.random.default_rng(7)
    r = 0.9 * np.sqrt(rng.uniform(size=100))
    th = rng.uniform(0.0, TWO_PI, 100)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    D = strain_tensor(euclidean_metric(2), fam.velocity_field(), pts)
    strain_zero = not np.any(D)
    check("criterion 3: rotation estimators vanish, strain exactly zero",
          worst < 1e-8 and strain_zero,
          f"max |estimator| {worst:.2e}, strain exact {strain_zero}")


def test_criterion_04_generic_deformation_equivalence(check):
    fam = cubic_mix_family()
    worst_vol, worst_bnd = 0.0, 0.0
    for a, b in sample_pairs(42, 10, radius=0.75, min_sep=0.2):
        fd = fd_oracle(fam, a, b)
        vol = float(volume_variation(fam, a, b))
        bnd = boundary_variation(fam, a, b)
        worst_vol = max(worst_vol, abs(vol - fd) / abs(fd))
        worst_bnd = max(worst_bnd, abs(bnd - fd) / abs(fd))
    check("criterion 4: volume and boundary match the FD oracle",
          worst_vol < 5e-3 and worst_bnd < 1e-5,
          f"volume rel {worst_vol:.2e}, boundary rel {worst_bnd:.2e}")


def test_criterion_05_trace_identity(check):
    rng = np.random.default_rng(0)
    r = np.sqrt(rng.uniform(size=1000))
    th = rng.uniform(0.0, TWO_PI, 1000)
    pts = np.stack([0.92 * r * np.cos(th), 0.92 * r * np.sin(th)], axis=-1)
    keep = (np.hypot(pts[:, 0], pts[:, 1]) > 0.05) & (
        np.hypot(pts[:, 0] - 0.5, pts[:, 1]) > 0.05)
    pts = pts[keep]
    worst = 0.0
    for metric in (None, linear_phi()):
        emt = PolarizedEMT.from_map(None, A0, B0, metric=metric)
        T = emt.emt_cov(pts)
        scale = np.linalg.norm(T, axis=(-2, -1))
        worst = max(worst, float(np.max(np.abs(emt.trace(pts)) / scale)))
    check("criterion 5: trace of T vanishes at 1000 points, both metrics",
          worst < 1e-10, f"worst scaled trace {worst:.2e}")


def test_criterion_06_divergence_residual(check):
    emt = PolarizedEMT.from_map(None, A0, B0)
    grid = np.linspace(-0.9, 0.9, 20)
    X, Y = np.meshgrid(grid, grid)
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    keep = (np.hypot(pts[:, 0], pts[:, 1]) < 0.9) & (
        np.hypot(pts[:, 0], pts[:, 1]) > 0.05) & (
        np.hypot(pts[:, 0] - 0.5, pts[:, 1]) > 0.05)
    pts = pts[keep]

    def residual(h):
        div = emt.divergence(pts, h=h)
        T = emt.emt_contra(pts)
        dist = np.minimum(np.hypot(pts[:, 0], pts[:, 1]),
                          np.hypot(pts[:, 0] - 0.5, pts[:, 1]))
        scale = np.linalg.norm(T, axis=(-2, -1)) / dist
        return float(np.max(np.linalg.norm(div, axis=-1) / scale))

    fine = residual(1e-4)
    ratio = residual(2e-4) / fine
    check("criterion 6: scaled divergence residual, second-order in h",
          fine < 1e-4 and 3.0 < ratio < 5.0,
          f"residual {fine:.2e} at h=1e-4, halving ratio {ratio:.3f}")


def test_criterion_07_mutual_energy(check):
    val = mutual_energy(None, A0, B0)
    exact = math.log(2.0) / TWO_PI
    err = abs(val - exact)
    check("criterion 7: mutual energy reproduces G(a, b) = 0.110318",
          err < 2e-3, f"abs error {err:.2e}")


def test_criterion_08_triple_symmetry(check):
    a, b, c = A0, B0, (0.0, 0.5)
    perms = [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
    vals = [triple_variation(None, *p) for p in perms]
    spread = max(vals) - min(vals)
    bnd = boundary_variation(ConformalMap.identity(), a, b,
                             velocity=green_gradient_field(None, c))
    gap = abs(vals[0] - bnd)
    check("criterion 8: triple variation symmetric, matches gradient velocity",
          spread < 1e-12 and gap < 1e-8,
          f"permutation spread {spread:.2e}, oracle gap {gap:.2e}")


def test_criterion_09_conformal_metric_path(check):
    fam = dilation_family()
    flat_fd = fd_oracle(fam, A0, B0)
    curved = float(volume_variation(fam, A0, B0, metric=linear_phi()))
    rel = abs(curved - flat_fd) / abs(flat_fd)
    check("criterion 9: conformal-metric volume route matches flat FD",
          rel < 1e-2, f"rel gap {rel:.2e}")


def test_criterion_10_convergence_rates(check):
    fam = dilation_family()
    exact = 1.0 / TWO_PI
    bnd_errs, flux_errs = [], []
    for m in (8, 16, 32, 64):
        bnd_errs.append(abs(boundary_variation(fam, A0, B0, m=m) - exact))
        flux_errs.append(abs(flux_variation(fam, A0, B0, m=m) - exact))
    boundary_ok = bnd_errs[-1] < 1e-10 and flux_errs[-1] < 1e-10

    exact_me = math.log(2.0) / TWO_PI
    me_errs = []
    for n_r, n_theta, n_patch in [(16, 32, 8), (32, 64, 16), (64, 128, 32)]:
        rule = disk_rule(n_r, n_theta, poles=[0.0j, 0.5 + 0.0j],
                         n_patch=n_patch)
        me_errs.append(abs(mutual_energy(None, A0, B0, rule=rule) - exact_me))
    halving = all(me_errs[i + 1] < me_errs[i] / 2.0 for i in range(2))
    check("criterion 10: spectral boundary rates, halving interior error",
          boundary_ok and halving,
          f"boundary err(64) {bnd_errs[-1]:.2e}, flux err(64) "
          f"{flux_errs[-1]:.2e}, interior ladder "
          + " -> ".join(f"{e:.1e}" for e in me_errs))
