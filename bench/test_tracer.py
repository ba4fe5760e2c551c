"""Tests of the outside-in tracer.

Run with ``python3 -m pytest bench/test_tracer.py`` from the repository
root; greenvar is imported from ``src/``.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import greenvar  # noqa: E402
import greenvar.cli  # noqa: E402,F401

import tracer as tracer_mod  # noqa: E402


def test_every_importing_module_is_patched_and_restored():
    original = greenvar.tensors.strain_tensor
    assert greenvar.variation.strain_tensor is original
    tracer = tracer_mod.Tracer(greenvar)
    with tracer.recording("t"):
        assert greenvar.tensors.strain_tensor is not original
        assert greenvar.variation.strain_tensor is greenvar.tensors.strain_tensor
        assert greenvar.strain_tensor is greenvar.tensors.strain_tensor
    assert greenvar.tensors.strain_tensor is original
    assert greenvar.variation.strain_tensor is original
    assert greenvar.strain_tensor is original


def test_self_times_add_up_and_counts_are_recorded():
    fam = greenvar.conformal.cubic_mix_family()
    tracer = tracer_mod.Tracer(greenvar)
    with tracer.recording("t"):
        tracer.call("op", greenvar.variation.volume_variation, fam, (0.1, 0.0), (-0.2, 0.3),
                    n_r=16, n_theta=32, n_patch=8)
    self_ns, calls, points = tracer.take()
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [s[2] for s in roots] == ["op"]
    assert sum(self_ns.values()) == roots[0][4] - roots[0][3]
    assert calls["variation.volume"] == 1
    # the rule and its coarse twin, both built and both integrated
    assert calls["quadrature.rule_build"] == 2
    assert points["quadrature.sum"] > 0
    assert calls["tensors.strain"] == 2
    assert calls["conformal.velocity"] > 0 and calls["greens.gradient"] > 0
    names = {s[2] for s in tracer.spans}
    assert {"conformal.inverse", "energy_momentum.emt", "tensors.christoffel",
            "tensors.metric_inverse", "tensors.volume_density", "quadrature.sum"} <= names


def test_own_fields_are_not_spanned():
    field = greenvar.tensors.VectorField(2, lambda p: p)
    tracer = tracer_mod.Tracer(greenvar)
    with tracer.recording("t"):
        field(np.zeros((3, 2)))
    assert tracer.spans == []
