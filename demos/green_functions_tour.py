"""Dirichlet Green functions: disk closed form and conformal transport.

The unit-disk kernel is G(x, a) = (1/2pi) log(|1 - x conj(a)| / |x - a|);
on an image domain f(D) it transports exactly, G_{f(D)}(f(z), f(w)) =
G_D(z, w), which is the package's ground truth on deformed domains.
"""

import math

import numpy as np

from greenvar.conformal import ConformalMap, boundary_grid, to_points
from greenvar.greens import (
    GreenFunction,
    disk_green,
    mutual_energy,
    poisson_normal_derivative,
)

# --- 1. the center pair has value log(2) / (2 pi)

val = disk_green((0.0, 0.0), (0.5, 0.0))
print("G(0, 0.5) =", val, "  log(2)/(2 pi) =", math.log(2) / (2 * math.pi))
print("symmetry gap:", abs(disk_green((0.1, 0.2), (0.4, -0.3))
                           - disk_green((0.4, -0.3), (0.1, 0.2))))

# --- 2. the Poisson kernel is -dG/dn on the circle and integrates to -1

a = 0.3 + 0.2j
th = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
kernel = poisson_normal_derivative(np.exp(1j * th), a)
print("\nboundary integral of dG/dn:", np.sum(kernel) * (2 * np.pi / 256),
      " expected -1")

# --- 3. conformal transport: same preimages, same value

fmap = ConformalMap([1.0, 0.08, 0.03])
z, w = 0.2 + 0.3j, -0.4 + 0.1j
green = GreenFunction(fmap)
lhs = green.value(to_points(fmap(z)), to_points(fmap(w)))
print("\ntransported value:", lhs)
print("disk value:       ", disk_green(z, w))

# the normal derivative on the image boundary still integrates to -1
grid = boundary_grid(fmap, m=256)
total = float(np.dot(green.normal_derivative(grid, to_points(fmap(w))),
                     grid.weights))
print("harmonic measure on f(D):", total)

# --- 4. the mutual Dirichlet energy of two gradients recovers G(a, b)

e = mutual_energy(None, (0.0, 0.0), (0.5, 0.0))
print("\nmutual energy:", e, "  G(a, b) =", math.log(2) / (2 * math.pi))
e2 = mutual_energy(fmap, to_points(fmap(z)), to_points(fmap(w)))
print("mutual energy on f(D):", e2, "  G_D(z, w) =", disk_green(z, w))
