"""Four routes to d/dt G_{Omega(t)}(a, b) at t = 0, reconciled.

boundary   Hadamard integral of (dG_a/dn)(dG_b/dn) * normal speed
volume     interior integral of T : D minus the pole source pairing
flux       boundary flux of T^{ij} v_i nu_j
fd_oracle  central difference of Green values across the family
"""

import numpy as np

from greenvar.conformal import cubic_mix_family, dilation_family, rotation_family
from greenvar.tensors import conformal_metric
from greenvar.variation import (
    fd_oracle,
    flux_variation,
    triple_variation,
    variation_report,
    volume_variation,
)

A, B = (0.0, 0.0), (0.5, 0.0)


def show(title, report):
    print(title)
    for name, value in report.estimates.items():
        print(f"  {name:10s} {value:+.12e}")
    print(f"  max relative discrepancy: {report.discrepancies['max_rel']:.2e}"
          f"   passes: {report.passes}")


# --- 1. dilation: all four estimators equal 1/(2 pi)

show("dilation family, exact value 1/(2 pi) = +1.591549430919e-01:",
     variation_report(dilation_family(), A, B))

# --- 2. a genuinely curved deformation, FD oracle as referee

show("\ncubic boundary mix:",
     variation_report(cubic_mix_family(), (0.1, 0.2), (-0.3, -0.15)))

# --- 3. rotation is Killing: every route returns (numerical) zero

rep = variation_report(rotation_family(), A, B)
print("\nrotation family, max |estimate|:",
      max(abs(v) for v in rep.estimates.values()))

# --- 4. a conformally flat metric changes nothing

met = conformal_metric(lambda x: 0.2 * x[..., 0],
                       lambda x: np.stack([0.2 * np.ones_like(x[..., 0]),
                                           np.zeros_like(x[..., 0])], axis=-1))
flat_fd = fd_oracle(dilation_family(), A, B)
curved = volume_variation(dilation_family(), A, B, metric=met)
print("\nvolume route with metric e^{2 * 0.2 x^1}:", float(curved))
print("flat FD oracle:                          ", flat_fd)
print("flux route with the metric, and flat:    ",
      flux_variation(dilation_family(), A, B, metric=met),
      flux_variation(dilation_family(), A, B))

# --- 5. deforming along grad G(., c): one integral, three-way symmetric

c = (0.0, 0.5)
val = triple_variation(None, A, B, c)
print("\ntriple variation at (a, b, c):", val)
print("permuted (c, a, b):           ", triple_variation(None, c, A, B))
print("closed form -15/(68 pi^2):    ", -15.0 / (68.0 * np.pi**2))
