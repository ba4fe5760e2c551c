"""Outside-in tracer: spans around greenvar's public functions and methods.

The tracer never edits greenvar's sources.  While a :meth:`Tracer.recording`
block is open it replaces each traced function by a wrapper, in every
``greenvar`` module that holds the function under some name (``from .tensors
import strain_tensor`` makes ``greenvar.variation.strain_tensor`` a second
reference that must be wrapped too), and each traced method on its class.
Leaving the block puts the originals back, so untraced passes run the
program unchanged.

A span is ``(id, parent, name, start, end)`` in ``perf_counter_ns`` units.
Self time is a span's duration minus the durations of its direct children;
spans on one thread nest, so the children never overlap.  A call into a
span of the same name as the innermost open span (``render_json`` recursing,
``PolarizedEMT.trace`` calling ``emt_cov``) adds no span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import weakref
from collections import Counter

import numpy as np


def _points(x) -> int:
    """Number of points in a ``(..., 2)`` array or a complex array."""
    arr = np.asarray(x)
    if arr.dtype.kind != "c" and arr.ndim >= 1 and arr.shape[-1] == 2:
        return int(np.prod(arr.shape[:-1], dtype=np.int64))
    return int(arr.size)


def _rule_nodes(args, kw, out):
    """Nodes an ``integrate`` call evaluated: the rule, plus its coarse twin
    when the convergence check ran (already built by then)."""
    rule = args[0]
    check = kw.get("check", args[2] if len(args) > 2 else True)
    return rule.node_count + (rule.coarse().node_count if check else 0)


def targets(gv):
    """``(span, owner, attribute, count)`` for every traced callable.

    ``owner`` is a module for functions and a class for methods; ``count``
    maps the call's arguments (and result) to the points it handled, or is
    None.  The VectorField methods are listed apart: they are spanned only
    for fields made by the program's own field constructors.
    """
    conformal, greens, quadrature = gv.conformal, gv.greens, gv.quadrature
    tensors, emt, variation, cli = (gv.tensors, gv.energy_momentum,
                                    gv.variation, gv.cli)
    pts_arg1 = lambda args, kw, out: _points(args[1])
    return [
        ("conformal.inverse", conformal.ConformalMap, "inverse", pts_arg1),
        ("conformal.gate", conformal.ConformalMap, "gate_min_derivative", None),
        ("conformal.boundary_grid", conformal, "boundary_grid", None),
        ("conformal.velocity", conformal.DomainFamily, "velocity_field", None),
        ("greens.gradient", greens, "green_gradient_field", None),
        ("greens.normal_derivative", greens.GreenFunction, "normal_derivative", None),
        ("energy_momentum.emt", emt.PolarizedEMT, "emt_contra", None),
        ("energy_momentum.emt", emt.PolarizedEMT, "emt_cov", None),
        ("energy_momentum.emt", emt.PolarizedEMT, "phi", None),
        ("energy_momentum.emt", emt.PolarizedEMT, "trace", None),
        ("energy_momentum.divergence", emt.PolarizedEMT, "divergence", None),
        ("tensors.metric_inverse", tensors.MetricField, "inverse", None),
        ("tensors.strain", tensors, "strain_tensor", None),
        ("tensors.christoffel", tensors, "christoffel", None),
        ("tensors.volume_density", tensors, "volume_density", None),
        ("quadrature.rule_build", quadrature, "disk_rule", None),
        ("quadrature.sum", quadrature, "integrate", _rule_nodes),
        ("quadrature.boundary_sum", quadrature, "boundary_integrate", None),
        ("variation.boundary", variation, "boundary_variation", None),
        ("variation.volume", variation, "volume_variation", None),
        ("variation.flux", variation, "flux_variation", None),
        ("variation.fd", variation, "fd_oracle", None),
        ("variation.triple", variation, "triple_variation", None),
        ("variation.report", variation, "variation_report", None),
        ("cli.load", cli, "load_experiment", None),
        ("cli.render", cli, "render_json", None),
        ("cli.render", cli, "render_csv", None),
    ]


# Fields returned by these constructors get spans on evaluation; the
# benchmark's own velocity fields stay unspanned.
FIELD_MAKERS = ("conformal.velocity", "greens.gradient")


class Tracer:
    """Collects spans, self times and counts while recording."""

    def __init__(self, gv):
        self._gv = gv
        self._targets = targets(gv)
        self._field_span = weakref.WeakKeyDictionary()
        self._stack = []          # open frames: [id, name, start, child_ns]
        self._next_id = 0
        self.spans = []           # (id, parent, name, start, end, group)
        self._group = ""
        self._reset_window()

    def _reset_window(self):
        self.self_ns = Counter()
        self.calls = Counter()
        self.points = Counter()

    def take(self):
        """Self times (ns), calls and points since the last take."""
        out = (self.self_ns, self.calls, self.points)
        self._reset_window()
        return out

    def span(self, name: str, fn, count=None, field_kind=None):
        """Wrap ``fn`` so each call records one span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kw)
            frame = [tracer._next_id, name, time.perf_counter_ns(), 0]
            tracer._next_id += 1
            stack.append(frame)
            try:
                out = fn(*args, **kw)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                tracer.self_ns[name] += dur - frame[3]
                tracer.calls[name] += 1
                tracer.spans.append((frame[0], parent[0] if parent else -1, name,
                                     frame[2], end, tracer._group))
            if count is not None:
                tracer.points[name] += count(args, kw, out)
            if field_kind is not None:
                tracer._field_span[out] = field_kind
            return out

        return traced

    def _field_method(self, fn):
        tracer = self
        spanned = {}

        @functools.wraps(fn)
        def traced(field, x, *rest):
            kind = tracer._field_span.get(field)
            if kind is None:
                return fn(field, x, *rest)
            inner = spanned.get(kind)
            if inner is None:
                inner = spanned[kind] = tracer.span(
                    kind, fn, lambda args, kw, out: _points(args[1]))
            return inner(field, x, *rest)

        return traced

    @contextlib.contextmanager
    def recording(self, group: str):
        """Patch greenvar for the duration of the block."""
        self._group = group
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "greenvar" or n.startswith("greenvar."))]
        try:
            for name, owner, attr, count in self._targets:
                original = owner.__dict__[attr]
                kind = name if name in FIELD_MAKERS else None
                wrapper = self.span(name, original, count, kind)
                if isinstance(owner, type):
                    patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patch(module, key, wrapper)
            vf = self._gv.tensors.VectorField
            for attr in ("__call__", "jacobian"):
                patch(vf, attr, self._field_method(vf.__dict__[attr]))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)
            self._group = ""

    def call(self, name: str, fn, *args, **kw):
        """Run ``fn`` inside a span; used for the benchmark's own operations."""
        return self.span(name, fn)(*args, **kw)

    def write(self, path: str):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, group in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "group": group}) + "\n")
