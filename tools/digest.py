"""Digests of greenvar's outputs, for checking that a change keeps them bit for bit.

Usage (from the root of a checkout):

    python3 tools/digest.py --seed 7 --seed 8
    python3 tools/digest.py --seed 7 --only boundary_routes

The program is imported from ``src/`` of the checkout this file sits in, and
the benchmark's workloads from its ``bench/workloads.py``; neither is edited.
For each seed, each workload's operations run once, and one line gives the
sha256 of what they returned:

* ``volume_ladder``: each estimate's value, pairing, quadrature sum and
  coarse sum, by ``float.hex``;
* ``boundary_routes``: every value, by ``float.hex``;
* ``cli_suite``: every exit code and the bytes of every artifact, in order.

Three probes of the kernels below the workloads follow:

* ``volume_integrand``: the tensor-route integrand on the curved family at
  seeded disk points, with and without the workloads' metric and their
  non-holomorphic velocity, by the ``float.hex`` of every value;
* ``fd_oracles``: the FD oracle at two steps on the five families, at the
  seeded poles of ``boundary_routes``;
* ``families``: the ``t_max`` of each family built without one, by
  ``float.hex``: the five families of the workloads, then ``SEEDED_FAMILIES``
  drawn from the seed (bases of degree 2 to 7 that pass the injectivity gate,
  perturbations of degree 1 to 7).

An operation that raises a ``GreenvarError`` enters the digest as its class
and message.  Run the same seeds on two checkouts and compare the lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import greenvar  # noqa: E402
import greenvar.cli  # noqa: E402,F401 - not imported by the package itself
import workloads  # noqa: E402

# Disk points per volume_integrand probe: inside radius 0.95, clear of the poles.
INTEGRAND_POINTS = 64
# Seeded families per families probe, after the workloads' five.
SEEDED_FAMILIES = 200


def _hex(value) -> str:
    return float(value).hex()


def _run(ops):
    """``(label, value or None, error text or None)`` of each operation."""
    for label, fn in ops:
        try:
            yield label, fn(), None
        except greenvar.errors.GreenvarError as exc:
            yield label, None, f"{type(exc).__name__}: {exc}"


def _record(label, error, parts):
    return f"{label} {error}" if error is not None else " ".join([label, *parts])


def volume_ladder(seed: int, workdir: str):
    work = workloads.VolumeLadder(greenvar, seed, workdir)
    for label, est, error in _run(work.ops):
        yield _record(label, error, [] if est is None else [
            _hex(est.value), _hex(est.pairing), _hex(est.quadrature.value),
            _hex(est.quadrature.coarse_value)])


def boundary_routes(seed: int, workdir: str):
    work = workloads.BoundaryRoutes(greenvar, seed, workdir)
    for label, value, error in _run(work.ops):
        yield _record(label, error, [] if value is None else [_hex(value)])


def cli_suite(seed: int, workdir: str):
    work = workloads.CliSuite(greenvar, seed, workdir)
    try:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            codes = list(_run(work.ops))
        for label, code, error in codes:
            yield _record(label, error, [str(code)])
        for name in work.paths:
            for sub in work.SUBCOMMANDS:
                path = work._out(name, sub)
                body = open(path, "rb").read() if os.path.exists(path) else b"(none)"
                yield f"{name}/{sub} {hashlib.sha256(body).hexdigest()}"
    finally:
        work.close()


def volume_integrand(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    family = greenvar.conformal.DomainFamily(workloads.CURVED_BASE, workloads.CURVED_PERT)
    metric, square = workloads.phi_metric(greenvar), workloads.square_velocity(greenvar)
    variation = greenvar.variation
    wa, wb = greenvar.GreenFunction(family).pole_preimages(workloads.CURVED_A, workloads.CURVED_B)
    z = 0.95 * np.sqrt(rng.uniform(size=4 * INTEGRAND_POINTS)) * np.exp(
        2j * np.pi * rng.uniform(size=4 * INTEGRAND_POINTS))
    z = z[(np.abs(z - wa) > 0.05) & (np.abs(z - wb) > 0.05)][:INTEGRAND_POINTS]
    points = greenvar.conformal.to_points(z)
    for tag, kw in (("flat/family", {}), ("metric/family", {"metric": metric}),
                    ("flat/square", {"velocity": square}),
                    ("metric/square", {"metric": metric, "velocity": square})):
        f = variation.volume_integrand(family, workloads.CURVED_A, workloads.CURVED_B, **kw)
        for label, vals, error in _run([(tag, lambda: f(points))]):
            yield _record(label, error, [] if vals is None else [_hex(v) for v in vals])


def fd_oracles(seed: int, workdir: str):
    work = workloads.BoundaryRoutes(greenvar, seed, workdir)
    for name, family in work.families.items():
        dt = 1e-4 * family.t_max
        ops = [(f"{name}/p{s}", lambda a=a, b=b: greenvar.variation.fd_oracles(
            family, a, b, [dt, dt / 2.0])) for s, (a, b, _) in enumerate(work.poles[name])]
        for label, values, error in _run(ops):
            yield _record(label, error, [] if values is None else [_hex(v) for v in values])


def _seeded_families(seed: int, count: int):
    """``(label, (base, perturbation))`` of ``count`` families drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    drawn = []
    while len(drawn) < count:
        deg, k = int(rng.integers(2, 8)), int(rng.integers(1, 8))
        base = np.append(1.0, (rng.normal(size=deg - 1) + 1j * rng.normal(size=deg - 1))
                         * rng.uniform(0.1, 0.6) / np.arange(2, deg + 1) ** rng.uniform(1.0, 2.0))
        pert = (rng.normal(size=k) + 1j * rng.normal(size=k)) * rng.uniform(0.01, 3.0)
        if greenvar.ConformalMap(base, check=False).passes_gate():
            drawn.append((f"seeded/{len(drawn)}", (base, pert)))
    return drawn


def families(seed: int, workdir: str):
    specs = list(workloads.FAMILIES.items()) + _seeded_families(seed, SEEDED_FAMILIES)
    ops = [(label, lambda base=base, pert=pert: greenvar.DomainFamily(base, pert).t_max)
           for label, (base, pert) in specs]
    for label, t_max, error in _run(ops):
        yield _record(label, error, [] if t_max is None else [_hex(t_max)])


DIGESTS = {f.__name__: f for f in (volume_ladder, boundary_routes, cli_suite,
                                     volume_integrand, fd_oracles, families)}


def digest(name: str, seed: int) -> str:
    """The sha256 of the records of ``name`` at ``seed``, one record a line."""
    with tempfile.TemporaryDirectory(prefix="digest-") as workdir:
        text = "\n".join(DIGESTS[name](seed, workdir)) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 digests of greenvar's outputs")
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--only", choices=sorted(DIGESTS), action="append",
                        help="digest only these (default: all)")
    args = parser.parse_args(argv)
    for seed in args.seed:
        for name in args.only or DIGESTS:
            print(f"seed {seed} {name:16s} {digest(name, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
