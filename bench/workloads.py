"""The benchmark's three workloads.

Each workload is a class whose constructor is the set-up (it builds the
program's objects: families, metric, velocity fields, config files) and
whose ``ops`` list is one pass: ``(label, thunk)`` pairs, called in order.
Thunks look the program's functions up on their modules when called, so
that the tracer's wrappers, installed only for traced passes, are seen.
``references`` computes the oracle values the checks compare against, apart
from greenvar, and ``judge`` turns one pass's results into the labels of
failed operations and the messages of failed checks.

A thunk fails when it raises a ``GreenvarError``; a CLI thunk also fails
when ``main`` returns a non-zero exit status.  Checks apply to every
operation that did not fail.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import tempfile

import numpy as np

import oracle

# f = z + 0.1 z^2 deformed by h = 0.05 z^2 + 0.03 z^3, ascending coefficients
CURVED_BASE = [1.0, 0.1]
CURVED_PERT = [0.0, 0.05, 0.03]
CURVED_A, CURVED_B, CURVED_C = (0.1, 0.05), (-0.3, 0.2), (0.25, -0.35)
# phi = 0.2 x + 0.1 y^2 as CLI monomials [i, j, coeff] of x^i y^j
CURVED_PHI = [[1, 0, 0.2], [0, 2, 0.1]]

# The built-in families as the README defines them, plus the curved one.
FAMILIES = {
    "dilation": ([1.0], [1.0]),
    "rotation": ([1.0], [1.0j]),
    "quadratic_bump": ([1.0], [0.0, 0.1]),
    "cubic_mix": ([1.0], [0.0, 0.05, 0.03]),
    "curved": (CURVED_BASE, CURVED_PERT),
}

# volume_ladder rungs: (n_r, n_theta, n_patch), doubling together
RUNGS = [(32, 64, 16), (64, 128, 32), (128, 256, 64), (256, 512, 128)]

# Tolerances, relative to the oracle's magnitude (see oracle.hadamard).
# Family velocities are holomorphic, so the volume integrand vanishes and
# the volume route is exact up to rounding.
VOLUME_HOLO_TOL = 1e-9
# Top rung of the ladder with v = (x^2, x y); observed gap 2e-10 of |H|.
VOLUME_TOP_TOL = 1e-8
# Central differences at the default step 1e-4 t_max: O(dt^2) truncation.
FD_TOL = 1e-6
# Six orderings of one triple product differ only by rounding.
TRIPLE_SPREAD_TOL = 1e-13
AREA_TOL = 1e-12

BOUNDARY_MS = (256, 1024)
# The CLI's default m_boundary; no config here sets its own.
CLI_M_BOUNDARY = 256
POLE_SETS = 2
MAX_PREIMAGE = 0.9
MIN_PREIMAGE_SEP = 0.1


def phi_metric(gv):
    """The conformal metric ``exp(2 phi) delta`` with ``phi = 0.2 x + 0.1 y^2``."""
    def phi(p):
        return 0.2 * p[..., 0] + 0.1 * p[..., 1] ** 2

    def grad_phi(p):
        return np.stack([np.full(p.shape[:-1], 0.2), 0.2 * p[..., 1]], axis=-1)

    return gv.tensors.conformal_metric(phi, grad_phi)


def square_velocity(gv):
    """``v = (x^2, x y)``: smooth and not holomorphic."""
    def func(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([x * x, x * y], axis=-1)

    def jac(p):
        x, y = p[..., 0], p[..., 1]
        J = np.zeros(p.shape[:-1] + (2, 2))
        J[..., 0, 0] = 2.0 * x
        J[..., 1, 0] = y
        J[..., 1, 1] = x
        return J

    return gv.tensors.VectorField(2, func, jac, name="x^2, x y")


def _cx(p) -> complex:
    return complex(p[0], p[1])


def _rel_error(value, ref, scale) -> float:
    return abs(value - ref) / scale


class Workload:
    name = ""

    def __init__(self, gv, seed: int, workdir: str):
        self.gv = gv
        self.ops = []

    def references(self):
        pass

    def judge(self, results):
        """``(failed labels, check messages)`` for one pass."""
        failed, errors = [], []
        for label, value, exc in results:
            if exc is not None:
                failed.append(f"{label}: {type(exc).__name__}: {exc}")
            else:
                errors.extend(f"{label}: {msg}" for msg in self.check(label, value))
        return failed, errors

    def check(self, label, value):
        return []

    def close(self):
        pass


class VolumeLadder(Workload):
    """``volume_variation`` with its convergence check, four rungs, on the
    curved family and metric, with the family velocity and ``(x^2, x y)``."""

    name = "volume_ladder"

    def __init__(self, gv, seed, workdir):
        super().__init__(gv, seed, workdir)
        self.family = gv.conformal.DomainFamily(CURVED_BASE, CURVED_PERT)
        self.metric = phi_metric(gv)
        self.square = square_velocity(gv)
        variation = gv.variation
        for n_r, n_theta, n_patch in RUNGS:
            for kind, vel in (("family", None), ("square", self.square)):
                self.ops.append((
                    f"volume/{kind}/{n_r}x{n_theta}",
                    lambda vel=vel, n_r=n_r, n_theta=n_theta, n_patch=n_patch:
                    variation.volume_variation(
                        self.family, CURVED_A, CURVED_B, metric=self.metric,
                        velocity=vel, n_r=n_r, n_theta=n_theta, n_patch=n_patch),
                ))

    def references(self):
        a, b = _cx(CURVED_A), _cx(CURVED_B)

        def square(z):
            x = oracle.polyval(CURVED_BASE, z)
            return x.real ** 2 + 1j * x.real * x.imag

        self.refs = {
            "family": oracle.hadamard(CURVED_BASE, lambda z: oracle.polyval(CURVED_PERT, z),
                                      a, b),
            "square": oracle.hadamard(CURVED_BASE, square, a, b),
        }

    def judge(self, results):
        failed, errors = super().judge(results)
        gaps = [_rel_error(float(value), *self.refs["square"])
                for label, value, exc in results
                if exc is None and label.startswith("volume/square/")]
        if len(gaps) == len(RUNGS):
            if any(fine >= coarse for coarse, fine in zip(gaps, gaps[1:])):
                errors.append(f"volume/square: gap does not shrink along the ladder: {gaps}")
            if gaps[-1] > VOLUME_TOP_TOL:
                errors.append(f"volume/square: top rung gap {gaps[-1]:.3e} > {VOLUME_TOP_TOL}")
        return failed, errors

    def check(self, label, value):
        if label.startswith("volume/family/"):
            err = _rel_error(float(value), *self.refs["family"])
            if not err <= VOLUME_HOLO_TOL:
                yield f"gap {err:.3e} to the Hadamard value > {VOLUME_HOLO_TOL}"


class BoundaryRoutes(Workload):
    """Boundary, flux, triple and FD routes on five families, with pole
    triples drawn from the seed, at two boundary resolutions."""

    name = "boundary_routes"

    def __init__(self, gv, seed, workdir):
        super().__init__(gv, seed, workdir)
        conformal, variation = gv.conformal, gv.variation
        self.families = {}
        for name in FAMILIES:
            if name == "curved":
                self.families[name] = conformal.DomainFamily(CURVED_BASE, CURVED_PERT)
            else:
                self.families[name] = conformal.BUILTIN_FAMILIES[name]()
        self.metric = phi_metric(gv)
        self.poles = self._draw_poles(seed)
        for name, fam in self.families.items():
            for m in BOUNDARY_MS:
                self.ops.append((f"{name}/area/m{m}", lambda fam=fam, m=m:
                                 conformal.enclosed_area(conformal.boundary_grid(fam, m=m))))
            for s, (a, b, c) in enumerate(self.poles[name]):
                key = f"{name}/p{s}"
                for m in BOUNDARY_MS:
                    self.ops.append((f"{key}/boundary/m{m}", lambda fam=fam, a=a, b=b, m=m:
                                     variation.boundary_variation(fam, a, b, m=m)))
                    self.ops.append((f"{key}/flux/m{m}", lambda fam=fam, a=a, b=b, m=m:
                                     variation.flux_variation(fam, a, b, m=m,
                                                              metric=self.metric)))
                    for order in ("abc", "acb", "bac", "bca", "cab", "cba"):
                        pts = [{"a": a, "b": b, "c": c}[k] for k in order]
                        self.ops.append((f"{key}/triple/m{m}/{order}",
                                         lambda fam=fam, pts=pts, m=m:
                                         variation.triple_variation(fam, *pts, m=m)))
                dt = 1e-4 * fam.t_max
                for tag, step in (("dt", dt), ("dt2", dt / 2.0)):
                    self.ops.append((f"{key}/fd/{tag}", lambda fam=fam, a=a, b=b, step=step:
                                     variation.fd_oracle(fam, a, b, dt=step)))

    @staticmethod
    def _draw_poles(seed):
        """Per family, ``POLE_SETS`` ambient triples whose preimages have
        modulus at most ``MAX_PREIMAGE`` and pairwise distance at least
        ``MIN_PREIMAGE_SEP``."""
        rng = np.random.default_rng(seed)
        poles = {}
        for name, (base, _) in FAMILIES.items():
            sets = []
            while len(sets) < POLE_SETS:
                w = MAX_PREIMAGE * np.sqrt(rng.uniform(size=3)) * np.exp(
                    2j * np.pi * rng.uniform(size=3))
                if min(abs(w[i] - w[j]) for i, j in ((0, 1), (0, 2), (1, 2))) < MIN_PREIMAGE_SEP:
                    continue
                x = oracle.polyval(base, w)
                sets.append(tuple((float(p.real), float(p.imag)) for p in x))
            poles[name] = sets
        return poles

    def references(self):
        self.refs = {}
        for name, (base, pert) in FAMILIES.items():
            self.refs[f"{name}/area"] = oracle.area(base)
            for s, (a, b, c) in enumerate(self.poles[name]):
                za, zb, zc = _cx(a), _cx(b), _cx(c)
                value, mag = oracle.hadamard(base, lambda z: oracle.polyval(pert, z), za, zb)
                if name == "dilation":
                    value = oracle.dilation_variation(za, zb)
                elif name == "rotation":
                    value = 0.0
                r_max = max(abs(oracle.pole_preimage(base, p)) for p in (za, zb, zc))
                self.refs[f"{name}/p{s}"] = (value, mag, oracle.triple(base, za, zb, zc), r_max)

    def judge(self, results):
        failed, errors = super().judge(results)
        triples = {}
        for label, value, exc in results:
            if exc is None and "/triple/" in label:
                triples.setdefault(label.rsplit("/", 1)[0], []).append(value)
        for key, values in triples.items():
            spread = max(values) - min(values)
            if not spread <= TRIPLE_SPREAD_TOL * abs(values[0]):
                errors.append(f"{key}: orderings spread {spread:.3e}")
        return failed, errors

    def check(self, label, value):
        parts = label.split("/")
        name, route = parts[0], parts[2] if parts[1] != "area" else "area"
        if route == "area":
            ref = self.refs[f"{name}/area"]
            if not abs(value - ref) <= AREA_TOL * ref:
                yield f"area {value!r} vs closed form {ref!r}"
            return
        ref, mag, tref, r_max = self.refs[f"{name}/{parts[1]}"]
        if route == "fd":
            tol = FD_TOL
        else:
            tol = oracle.trapezoid_tol(r_max, int(parts[3][1:]))
        if route == "triple":
            err = _rel_error(value, tref, abs(tref))
            if not value < 0.0:
                yield f"triple variation {value!r} is not negative"
        else:
            err = _rel_error(value, ref, mag)
        if not err <= tol:
            yield f"gap {err:.3e} to the oracle > {tol:.1e}"


class CliSuite(Workload):
    """``greenvar.cli.main`` in-process: verify, vary, triple and converge
    on three configs, with ``--out`` files in a temporary directory."""

    name = "cli_suite"
    SUBCOMMANDS = ("verify", "vary", "triple", "converge")

    def __init__(self, gv, seed, workdir):
        super().__init__(gv, seed, workdir)
        cli = gv.cli
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        default = dict(cli.default_config())
        default["poles"] = dict(default["poles"], c=[0.0, 0.5])
        dilation = gv.conformal.dilation_family().to_json()
        self.configs = {
            "default": default,
            # t_max omitted: every load runs the injectivity scan
            "curved": {
                "family": {"base": [[c, 0.0] for c in CURVED_BASE],
                           "perturbation": [[c, 0.0] for c in CURVED_PERT]},
                "metric": {"conformal_phi": CURVED_PHI},
                "poles": {"a": list(CURVED_A), "b": list(CURVED_B), "c": list(CURVED_C)},
            },
            # pole a at preimage modulus 0.94, inside the accepted 0.95
            "near_margin": {
                "family": dilation, "metric": "flat",
                "poles": {"a": [0.94, 0.0], "b": [0.0, 0.5], "c": [-0.3, -0.4]},
            },
        }
        self.paths = {}
        for name, config in self.configs.items():
            path = os.path.join(self.tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            self.paths[name] = path
            cli.load_experiment(argparse.Namespace(
                config=path, out=None, quad_nr=None, quad_ntheta=None, fd_dt=None,
                tol_boundary=None, tol_volume=None))
        for name, path in self.paths.items():
            for sub in self.SUBCOMMANDS:
                out = self._out(name, sub)
                self.ops.append((f"{name}/{sub}", lambda sub=sub, path=path, out=out:
                                 cli.main([sub, "--config", path, "--out", out])))

    def _out(self, name, sub):
        ext = "csv" if sub == "converge" else "json"
        return os.path.join(self.tmp, f"{name}-{sub}.{ext}")

    def references(self):
        self.refs = {}
        for name, config in self.configs.items():
            fam = config["family"]
            base = [complex(*c) for c in fam["base"]]
            pert = [complex(*c) for c in fam["perturbation"]]
            a, b, c = (_cx(config["poles"][k]) for k in "abc")
            value, mag = oracle.hadamard(base, lambda z: oracle.polyval(pert, z), a, b)
            if name != "curved":
                value = oracle.dilation_variation(a, b)
            r_ab = max(abs(oracle.pole_preimage(base, p)) for p in (a, b))
            r_abc = max(r_ab, abs(oracle.pole_preimage(base, c)))
            self.refs[name] = dict(value=value, mag=mag, triple=oracle.triple(base, a, b, c),
                                   r_ab=r_ab, r_abc=r_abc)

    def judge(self, results):
        failed, errors = [], []
        for label, code, exc in results:
            if exc is None and code != 0:
                exc = f"exit status {code}{self._failed_checks(label)}"
            if exc is not None:
                failed.append(f"{label}: {exc}")
            else:
                errors.extend(f"{label}: {msg}" for msg in self.check(label, code))
        return failed, errors

    def _failed_checks(self, label):
        name, sub = label.split("/")
        try:
            with open(self._out(name, sub), encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            return ""
        bad = [k for k, v in report.get("checks", {}).items() if not v.get("passed")]
        return f" (failed checks: {', '.join(bad)})" if bad else ""

    def _estimate_errors(self, ref, route, value, m):
        if value is None or not math.isfinite(value):
            return f"{route} estimate {value!r} is not finite"
        tol = {"boundary": oracle.trapezoid_tol(ref["r_ab"], m),
               "flux": oracle.trapezoid_tol(ref["r_ab"], m),
               "volume": VOLUME_HOLO_TOL, "fd_oracle": FD_TOL}[route]
        err = _rel_error(value, ref["value"], ref["mag"])
        return None if err <= tol else f"{route} gap {err:.3e} to the oracle > {tol:.1e}"

    def check(self, label, code):
        name, sub = label.split("/")
        ref = self.refs[name]
        m = CLI_M_BOUNDARY
        with open(self._out(name, sub), encoding="utf-8") as fh:
            text = fh.read()
        if sub == "converge":
            rows = list(csv.DictReader(text.splitlines()))
            if len(rows) != 4 * 3:
                yield f"{len(rows)} rows, expected 12"
            for row in rows:
                msg = self._estimate_errors(ref, row["estimator"], float(row["value"]),
                                            m * 2 ** int(row["level"]))
                if msg:
                    yield f"level {row['level']}: {msg}"
            return
        report = json.loads(text)
        if report["status"] != "pass":
            yield f"status {report['status']!r}"
        if sub == "triple":
            values = list(report["estimates"]["permutations"].values())
            tref = ref["triple"]
            if not max(values) - min(values) <= TRIPLE_SPREAD_TOL * abs(tref):
                yield f"orderings spread {max(values) - min(values):.3e}"
            if not all(v < 0.0 for v in values):
                yield "triple variation is not negative"
            err = _rel_error(values[0], tref, abs(tref))
            tol = oracle.trapezoid_tol(ref["r_abc"], m)
            if not err <= tol:
                yield f"triple gap {err:.3e} to the oracle > {tol:.1e}"
            return
        for route, value in report["estimates"].items():
            msg = self._estimate_errors(ref, route, value, m)
            if msg:
                yield msg

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (VolumeLadder, BoundaryRoutes, CliSuite)}
