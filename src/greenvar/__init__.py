"""Green functions on deformed disks: energy-momentum tensors and
domain-variation estimators."""

from __future__ import annotations

from . import errors
from .conformal import (
    BUILTIN_FAMILIES,
    BoundaryGrid,
    ConformalMap,
    DomainFamily,
    as_map,
    boundary_grid,
    cubic_mix_family,
    dilation_family,
    enclosed_area,
    normal_speed,
    pullback_metric,
    pullback_vector_field,
    quadratic_bump_family,
    rotation_family,
    to_complex,
    to_points,
)
from .energy_momentum import PolarizedEMT
from .greens import (
    GreenFunction,
    disk_green,
    disk_green_gradient,
    green_gradient_field,
    interior_rule,
    mutual_energy,
    poisson_normal_derivative,
)
from .quadrature import (
    IntegrationResult,
    QuadratureRule,
    boundary_integrate,
    disk_rule,
    integrate,
)
from .tensors import (
    MetricField,
    VectorField,
    christoffel,
    conformal_metric,
    covariant_derivative_vector,
    divergence,
    euclidean_metric,
    lower_index,
    raise_index,
    strain_tensor,
    trace_tensor,
    volume_density,
)
from .variation import (
    VariationReport,
    VolumeEstimate,
    boundary_nodes,
    boundary_variation,
    fd_oracle,
    fd_oracles,
    flux_variation,
    triple_variation,
    variation_report,
    volume_integrand,
    volume_variation,
)

__version__ = "0.1.0"
