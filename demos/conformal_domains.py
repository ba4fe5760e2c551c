"""Polynomial conformal images of the disk and their deformation fields.

A domain family is f_t(z) = f(z) + t h(z) with f, h polynomials fixing
f(0) = 0.  The family carries an injectivity budget t_max (declared, or
half the first |t| at which f_t' has a zero on the closed disk) and produces boundary grids and deformation velocity fields.
"""

import numpy as np

from greenvar.conformal import (
    BUILTIN_FAMILIES,
    ConformalMap,
    DomainFamily,
    boundary_grid,
    enclosed_area,
    normal_speed,
)
from greenvar.errors import InjectivityError

# --- 1. a cubic map and its derivative gate

fmap = ConformalMap([1.0, 0.0, 0.2])          # f(z) = z + 0.2 z^3
print("f(0.5) =", fmap(0.5), " f'(0.5) =", fmap.derivative(0.5))
print("certified lower bound of |f'| on the closed disk:", fmap.gate_min_derivative())

# f(z) = z + 0.6 z^2 folds: f' = 1 + 1.2 z vanishes at -0.833, inside the disk
try:
    ConformalMap([1.0, 0.6])
except InjectivityError as exc:
    print("z + 0.6 z^2 rejected:", exc)

# the inverse comes from Newton on the polynomial
w = fmap.inverse(fmap(0.3 + 0.4j))
print("inverse round trip error:", abs(w - (0.3 + 0.4j)))

# --- 2. enclosed area has a closed form in the coefficients

grid = boundary_grid(fmap, m=512)
ks = np.arange(1, fmap.degree + 1)
exact = np.pi * float(np.sum(ks * np.abs(fmap.coeffs) ** 2))
print("\narea via boundary rule:", enclosed_area(grid))
print("area via pi sum k |c_k|^2:", exact)

# --- 3. families: a declared t_max must stay below t*, the first |t| at which
# f_t' has a zero on the closed disk; a missing t_max is half of t* (at most 2)

fam = DomainFamily([1.0], [0.0, 1.0])         # f_t = z + t z^2, t* = 0.5
print("\nt_max for z + t z^2:", fam.t_max)

# --- 4. the deformation velocity v = h(f^{-1}(x)) and its normal speed

bump = DomainFamily([1.0], [0.0, 1.0], t_max=0.4)   # h(z) = z^2
v = bump.velocity_field()
g0 = boundary_grid(bump, m=8)
dn = normal_speed(g0, v)
# on the unit circle, h = z^2 has normal speed cos(theta)
th = 2.0 * np.pi * np.arange(8) / 8
print("\nnormal speed of h = z^2 at 8 nodes:", np.round(dn, 12))
print("cos(theta) at the same nodes:      ", np.round(np.cos(th), 12))

# --- 5. the built-in families used throughout the package

print()
for name, factory in BUILTIN_FAMILIES.items():
    f = factory()
    print(f"{name:15s} t_max = {f.t_max:g}")
