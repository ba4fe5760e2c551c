"""Shared test configuration."""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from greenvar import quadrature

# FD-heavy properties can exceed the default deadline on slow machines;
# correctness here is about values, not latency.
settings.register_profile(
    "greenvar",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("greenvar")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def interior_points(rng, count, radius=0.85, min_radius=0.0):
    """Random complex points in an annulus of the unit disk."""
    r = rng.uniform(min_radius, radius, count)
    th = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * th)


@pytest.fixture(autouse=True)
def no_held_rules():
    """Every test starts and ends with no rule held by ``disk_rule``."""
    quadrature._recent.clear()
    yield
    quadrature._recent.clear()


@pytest.fixture
def rebind(monkeypatch):
    """``rebind(fn, new)``: ``new`` in place of the function ``fn`` in every
    ``greenvar`` module that bound ``fn`` under its name (``from .greens import
    _normal_derivative`` binds it in ``variation`` too), until the test ends."""
    def rebind(fn, new):
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None
                   and n.split(".")[0] == "greenvar" and vars(m).get(fn.__name__) is fn]
        assert modules, f"no greenvar module binds {fn.__name__}"
        for module in modules:
            monkeypatch.setattr(module, fn.__name__, new)

    return rebind
