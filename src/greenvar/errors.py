"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "GreenvarError",
    "DimensionMismatchError",
    "DegenerateMetricError",
    "InjectivityError",
    "DomainError",
    "CoincidentPoleError",
    "PoleSeparationError",
    "PatchRadiusError",
    "EvaluationError",
    "ConfigError",
]


class GreenvarError(Exception):
    """Base class for package-specific failures."""


class DimensionMismatchError(GreenvarError, ValueError):
    """Array shapes or dimensions are inconsistent with the metric."""


class DegenerateMetricError(GreenvarError, ValueError):
    """Metric matrix is not symmetric positive definite at a point."""


class InjectivityError(GreenvarError, ValueError):
    """Conformal map fails the injectivity gate (|f'| vanishes on the grid)."""


class DomainError(GreenvarError, ValueError):
    """Point lies outside the domain where an operation is defined."""


class CoincidentPoleError(GreenvarError, ValueError):
    """Green function evaluated with source and target closer than 1e-12."""


class PoleSeparationError(GreenvarError, ValueError):
    """Quadrature pole patches would overlap (separation <= 2*rho)."""


class PatchRadiusError(GreenvarError, ValueError):
    """Pole patch radius reaches the domain boundary."""


class EvaluationError(GreenvarError, ValueError):
    """Integrand returned a non-finite value at a quadrature node."""


class ConfigError(GreenvarError, ValueError):
    """Run configuration is structurally invalid."""
