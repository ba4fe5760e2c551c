"""Disk quadrature with pole patches for 1/|x - p| singularities.

The background rule is Gauss-Legendre (radial) x uniform (angular); near
each declared pole it hands off to a graded polar patch through a smooth
partition-of-unity window.  Constants stay exact by construction, and
the reference integral int_D |x - a|^{-1} dA = 4 E(|a|^2) shows the
convergence of the singular part.
"""

import numpy as np
from scipy.special import ellipe

from greenvar.quadrature import disk_rule, integrate

# --- 1. constants are exact at any resolution, with or without patches

for nr, nt in [(8, 16), (64, 128)]:
    plain = disk_rule(nr, nt)
    patched = disk_rule(nr, nt, poles=[0.3 + 0.1j, -0.4j], n_patch=8)
    print(f"({nr:3d},{nt:3d})  sum w - pi: plain {plain.total_weight - np.pi:+.1e}"
          f"   patched {patched.total_weight - np.pi:+.1e}"
          f"   nodes {plain.node_count} -> {patched.node_count}")

# --- 2. the inverse-distance ladder against the elliptic closed form

a = 0.3 + 0.0j
exact = 4.0 * ellipe(abs(a) ** 2)
print(f"\nint_D |x - a|^-1 dA = {exact:.12f}  (a = {a})")

def f(pts):
    return 1.0 / np.abs(pts[..., 0] + 1j * pts[..., 1] - a)

print("  n_r n_th n_patch       error")
for nr, nt, npatch in [(16, 32, 8), (32, 64, 16), (64, 128, 32)]:
    rule = disk_rule(nr, nt, poles=[a], n_patch=npatch)
    err = integrate(rule, f, check=False).value - exact
    print(f"  {nr:3d} {nt:4d} {npatch:7d}   {err:+.3e}")

# --- 3. the self-consistency flag compares against half resolution

rule = disk_rule(64, 128, poles=[a], n_patch=32)
res = integrate(rule, f)
print(f"\nconverged: {res.converged};  relative change vs half resolution:"
      f" {res.rel_change:.2e}")

# a rule too coarse for the singularity reports non-convergence instead
coarse = integrate(disk_rule(8, 16, poles=[a], n_patch=8), f)
print(f"8 x 16 rule converged: {coarse.converged};  relative change:"
      f" {coarse.rel_change:.2e}")
