"""Configuration-driven experiment runner.

Subcommands
-----------
verify    run the invariant suite (trace identity, divergence residual,
          Green-function properties, estimator agreement) and emit a JSON
          report; exit 0 iff every check passes.
vary      run the four variation estimators once and emit their report.
converge  emit a CSV error table across doubling resolutions, measured
          against a Richardson-extrapolated finite-difference reference.
triple    evaluate the fully symmetric three-pole variation over all six
          pole orderings.

Configs are strict JSON: unknown fields are rejected, poles must sit
inside the domain with margin, tolerances must be positive.  All floats
are printed with 17 significant digits and outputs carry no timestamps,
so identical configs produce byte-identical artifacts.

Exit status: 0 all checks pass; 1 some check failed; 2 invalid
configuration ("config error: <msg>" on stderr: anything
``load_experiment`` rejects, or a ``ConfigError`` from a subcommand); 3 a
subcommand failed at run time ("run error: <subcommand>: <ErrorClass>:
<msg>" on stderr, e.g. an FD step that moves a pole out of the domain).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, Optional, Tuple

import numpy as np

from .conformal import (ConformalMap, DomainFamily, boundary_grid,
                        dilation_family, to_complex, to_points)
from .energy_momentum import PolarizedEMT
from .errors import ConfigError, GreenvarError
from .greens import GreenFunction, green_gradient_field, interior_rule
from .quadrature import integrate
from .tensors import MetricField, conformal_metric
from .variation import (DEFAULT_FD_FACTOR, TOL_MUTUAL, TOL_VOLUME,
                        boundary_nodes, boundary_variation, fd_oracle,
                        flux_variation, triple_variation, variation_report,
                        volume_variation)

__all__ = ["main", "load_experiment", "run_verify", "run_vary",
           "run_convergence", "run_triple", "render_json", "render_csv"]

POLE_MARGIN = 0.05
DEFAULT_LEVELS = 3
TRIPLE_SPREAD_TOL = 1e-12
TRIPLE_MATCH_TOL = 1e-8

# verify-suite thresholds
BOUNDARY_VALUE_TOL = 1e-6
DIV_RESIDUAL_TOL = 1e-4
FLUX_NORMALIZATION_TOL = 1e-8
SYMMETRY_TOL = 1e-12
TRACE_TOL = 1e-10
AREA_TOL = 1e-8

_CONFIG_FIELDS = {"family", "metric", "poles", "quadrature", "fd_dt",
                  "tolerances", "levels", "out"}
_QUAD_FIELDS = {"n_r": 4, "n_theta": 8, "n_patch": 8, "m_boundary": 4}
CSV_HEADER = "level,estimator,value,abs_error"


# --------------------------------------------------------------- rendering

def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        return "null"
    return "%.17g" % float(x)


def render_json(obj, indent: int = 0) -> str:
    """Serialize with 17-significant-digit floats and stable ordering."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ConfigError(f"cannot render {type(obj).__name__} as JSON")


def render_csv(rows) -> str:
    """Rows of (level, estimator, value, abs_error) under the fixed header."""
    lines = [CSV_HEADER]
    for level, name, value, err in rows:
        lines.append(f"{int(level)},{name},{_fmt_float(value)},{_fmt_float(err)}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ config model

@dataclass
class Experiment:
    """A validated experiment: domain family, metric, poles, resolutions."""

    family: DomainFamily
    metric_spec: object            # "flat" or {"conformal_phi": [...]}
    metric: Optional[MetricField]  # None means flat
    a: Tuple[float, float]
    b: Tuple[float, float]
    c: Optional[Tuple[float, float]]
    quad: Dict[str, int]
    fd_dt: float
    tol_mutual: float
    tol_volume: float
    levels: int
    out: Optional[str]

    @property
    def base_map(self) -> ConformalMap:
        return self.family.map_at(0.0)

    def config_echo(self) -> dict:
        echo = {
            "family": self.family.to_json(),
            "metric": self.metric_spec,
            "poles": {"a": list(self.a), "b": list(self.b)},
            "quadrature": dict(self.quad),
            "fd_dt": self.fd_dt,
            "tolerances": {"boundary": self.tol_mutual, "volume": self.tol_volume},
            "levels": self.levels,
        }
        if self.c is not None:
            echo["poles"]["c"] = list(self.c)
        return echo


def default_config() -> dict:
    """Unit disk under dilation, poles at the center and (0.5, 0)."""
    return {
        "family": dilation_family().to_json(),
        "metric": "flat",
        "poles": {"a": [0.0, 0.0], "b": [0.5, 0.0]},
    }


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_point(raw, name: str) -> Tuple[float, float]:
    _require(isinstance(raw, (list, tuple)) and len(raw) == 2
             and all(_is_number(v) for v in raw),
             f"pole '{name}' must be an [x, y] pair of numbers")
    return float(raw[0]), float(raw[1])


def _parse_metric(raw):
    """Returns (spec, MetricField-or-None)."""
    if raw == "flat":
        return "flat", None
    _require(isinstance(raw, dict), "metric must be \"flat\" or an object")
    unknown = set(raw) - {"conformal_phi"}
    _require(not unknown, f"unknown metric fields: {sorted(unknown)}")
    _require("conformal_phi" in raw, "metric object needs 'conformal_phi'")
    terms = raw["conformal_phi"]
    _require(isinstance(terms, list) and terms,
             "conformal_phi must be a non-empty list of [i, j, coeff] terms")
    parsed = []
    for k, term in enumerate(terms):
        ok = (isinstance(term, (list, tuple)) and len(term) == 3
              and isinstance(term[0], int) and not isinstance(term[0], bool)
              and isinstance(term[1], int) and not isinstance(term[1], bool)
              and term[0] >= 0 and term[1] >= 0 and _is_number(term[2]))
        _require(ok, f"conformal_phi term {k} must be [i >= 0, j >= 0, coeff]")
        parsed.append((term[0], term[1], float(term[2])))

    def phi(p):
        x, y = p[..., 0], p[..., 1]
        out = np.zeros(np.shape(x))
        for i, j, coef in parsed:
            out = out + coef * x**i * y**j
        return out

    def grad_phi(p):
        x, y = p[..., 0], p[..., 1]
        gx = np.zeros(np.shape(x))
        gy = np.zeros(np.shape(x))
        for i, j, coef in parsed:
            if i > 0:
                gx = gx + coef * i * x ** (i - 1) * y**j
            if j > 0:
                gy = gy + coef * j * x**i * y ** (j - 1)
        return np.stack([gx, gy], axis=-1)

    spec = {"conformal_phi": [[i, j, c] for i, j, c in parsed]}
    return spec, conformal_metric(phi, grad_phi)


def _check_margin(fmap: ConformalMap, point, name: str):
    try:
        z = fmap.inverse(to_complex(np.asarray(point, dtype=float)))
    except GreenvarError as exc:
        raise ConfigError(f"pole '{name}' is not inside the domain: {exc}") from exc
    if abs(z) > 1.0 - POLE_MARGIN:
        raise ConfigError(
            f"pole '{name}' too close to the boundary: preimage modulus "
            f"{abs(z):.4f} > {1.0 - POLE_MARGIN}"
        )


def load_experiment(args) -> Experiment:
    """Read, validate and flag-override the experiment configuration."""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): "
                f"{exc.msg}"
            ) from exc
    else:
        raw = default_config()
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _CONFIG_FIELDS
    _require(not unknown, f"unknown config fields: {sorted(unknown)}")
    _require("family" in raw, "config missing 'family'")
    _require("poles" in raw, "config missing 'poles'")

    family = DomainFamily.from_json(raw["family"])
    metric_spec, metric = _parse_metric(raw.get("metric", "flat"))

    poles = raw["poles"]
    _require(isinstance(poles, dict), "'poles' must be an object")
    unknown = set(poles) - {"a", "b", "c"}
    _require(not unknown, f"unknown pole fields: {sorted(unknown)}")
    _require("a" in poles and "b" in poles, "'poles' needs both 'a' and 'b'")
    a = _parse_point(poles["a"], "a")
    b = _parse_point(poles["b"], "b")
    c = _parse_point(poles["c"], "c") if "c" in poles else None

    named = [("a", a), ("b", b)] + ([("c", c)] if c is not None else [])
    for (na, pa), (nb, pb) in combinations(named, 2):
        if np.hypot(pa[0] - pb[0], pa[1] - pb[1]) < 1e-12:
            raise ConfigError(f"coincident poles '{na}' and '{nb}'")
    fmap = family.map_at(0.0)
    for name, point in named:
        _check_margin(fmap, point, name)

    quad = {"n_r": 64, "n_theta": 128, "n_patch": 32, "m_boundary": None}
    raw_quad = raw.get("quadrature", {})
    _require(isinstance(raw_quad, dict), "'quadrature' must be an object")
    unknown = set(raw_quad) - set(_QUAD_FIELDS)
    _require(not unknown, f"unknown quadrature fields: {sorted(unknown)}")
    for key, floor in _QUAD_FIELDS.items():
        if key in raw_quad:
            v = raw_quad[key]
            _require(isinstance(v, int) and not isinstance(v, bool) and v >= floor,
                     f"quadrature '{key}' must be an integer >= {floor}")
            quad[key] = v
    if args.quad_nr is not None:
        _require(args.quad_nr >= _QUAD_FIELDS["n_r"], "--quad-nr too small")
        quad["n_r"] = args.quad_nr
    if args.quad_ntheta is not None:
        _require(args.quad_ntheta >= _QUAD_FIELDS["n_theta"], "--quad-ntheta too small")
        quad["n_theta"] = args.quad_ntheta
    if quad["m_boundary"] is None:
        quad["m_boundary"] = boundary_nodes(fmap, *(point for _, point in named))

    tols = {"boundary": TOL_MUTUAL, "volume": TOL_VOLUME}
    raw_tols = raw.get("tolerances", {})
    _require(isinstance(raw_tols, dict), "'tolerances' must be an object")
    unknown = set(raw_tols) - set(tols)
    _require(not unknown, f"unknown tolerance fields: {sorted(unknown)}")
    for key in tols:
        if key in raw_tols:
            _require(_is_number(raw_tols[key]) and raw_tols[key] > 0,
                     f"tolerance '{key}' must be positive")
            tols[key] = float(raw_tols[key])
    if args.tol_boundary is not None:
        _require(args.tol_boundary > 0, "--tol-boundary must be positive")
        tols["boundary"] = args.tol_boundary
    if args.tol_volume is not None:
        _require(args.tol_volume > 0, "--tol-volume must be positive")
        tols["volume"] = args.tol_volume

    fd_dt = raw.get("fd_dt")
    if args.fd_dt is not None:
        fd_dt = args.fd_dt
    if fd_dt is None:
        fd_dt = DEFAULT_FD_FACTOR * family.t_max
    _require(_is_number(fd_dt) and 0.0 < float(fd_dt) <= family.t_max,
             f"fd_dt must lie in (0, t_max = {family.t_max:g}]")

    levels = raw.get("levels", DEFAULT_LEVELS)
    _require(isinstance(levels, int) and not isinstance(levels, bool)
             and 1 <= levels <= 8, "levels must be an integer in [1, 8]")

    out = args.out if args.out is not None else raw.get("out")
    _require(out is None or isinstance(out, str), "'out' must be a path string")

    return Experiment(family=family, metric_spec=metric_spec, metric=metric,
                      a=a, b=b, c=c, quad=quad, fd_dt=float(fd_dt),
                      tol_mutual=tols["boundary"], tol_volume=tols["volume"],
                      levels=levels, out=out)


# ----------------------------------------------------------------- runners

def _report(exp: Experiment, checks: dict, estimates: dict):
    """The JSON report of a check suite, and its exit code."""
    all_pass = all(entry["passed"] for entry in checks.values())
    return {
        "config_echo": exp.config_echo(),
        "checks": dict(sorted(checks.items())),
        "estimates": estimates,
        "status": "pass" if all_pass else "fail",
    }, (0 if all_pass else 1)


def _run_check(checks: dict, name: str, thunk):
    """Run one named check; module errors are recorded, not fatal."""
    try:
        passed, payload = thunk()
        checks[name] = {"passed": bool(passed), **payload}
    except Exception as exc:  # noqa: BLE001 - suite must survive any check
        checks[name] = {"passed": False,
                        "error": f"{type(exc).__name__}: {exc}"}


def run_verify(exp: Experiment, only: Optional[Tuple[str, ...]] = None):
    """Invariant suite, or the checks named in ``only``; returns (report
    dict, exit code)."""
    checks: dict = {}
    estimates: dict = {}
    fmap = exp.base_map
    green = GreenFunction(fmap)
    za, zb = to_complex(np.asarray(exp.a)), to_complex(np.asarray(exp.b))

    def samples(seed, lo, hi, n):
        """``f(z)`` for random ``lo < |z| < hi``, farther than 0.05 from both poles."""
        rng = np.random.default_rng(seed)
        x = fmap(rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(size=n)))
        return to_points(x[(np.abs(x - za) > 0.05) & (np.abs(x - zb) > 0.05)])

    def agreement():
        """The four-estimator reconciliation."""
        report = variation_report(
            exp.family, exp.a, exp.b,
            m=exp.quad["m_boundary"], n_r=exp.quad["n_r"],
            n_theta=exp.quad["n_theta"], n_patch=exp.quad["n_patch"],
            dt=exp.fd_dt, metric=exp.metric,
            tol_mutual=exp.tol_mutual, tol_volume=exp.tol_volume,
            strict=False,
        )
        estimates.update(report.estimates)
        payload = report.to_json()
        return report.passes, {
            "max_rel": payload["discrepancies"]["max_rel"],
            "discrepancies": payload["discrepancies"],
            "tolerances": {"mutual": exp.tol_mutual, "volume": exp.tol_volume},
            "params": payload["params"],
        }

    def boundary_values():
        th = 2.0 * np.pi * np.arange(16) / 16.0
        ring = fmap((1.0 - 1e-8) * np.exp(1j * th))
        worst = 0.0
        for pole in (exp.a, exp.b):
            vals = green.value(np.stack([ring.real, ring.imag], axis=-1), pole)
            worst = max(worst, float(np.max(np.abs(vals))))
        return worst < BOUNDARY_VALUE_TOL, {
            "observed": worst, "threshold": BOUNDARY_VALUE_TOL}

    def trace_identity():
        emt = PolarizedEMT.from_map(fmap, exp.a, exp.b, metric=exp.metric)
        pts = samples(0, 0.05, 0.9, 1000)
        T = emt.emt_cov(pts)
        scale = np.linalg.norm(T, axis=(-2, -1))
        ratio = float(np.max(np.abs(emt.trace(pts)) / scale))
        return ratio < TRACE_TOL, {"observed": ratio, "threshold": TRACE_TOL}

    def divergence_residual():
        emt = PolarizedEMT.from_map(fmap, exp.a, exp.b, metric=exp.metric)
        h = 1e-4
        pts = samples(1, 0.1, 0.85, 64)
        div = emt.divergence(pts, h=h)
        T = emt.emt_contra(pts)
        dist = np.minimum(np.abs(to_complex(pts) - za), np.abs(to_complex(pts) - zb))
        scale = np.linalg.norm(T, axis=(-2, -1)) / dist
        ratio = float(np.max(np.linalg.norm(div, axis=-1) / scale))
        return ratio < DIV_RESIDUAL_TOL, {
            "observed": ratio, "threshold": DIV_RESIDUAL_TOL}

    def flux_normalization():
        grid = boundary_grid(fmap, m=exp.quad["m_boundary"])
        worst = 0.0
        for pole in (exp.a, exp.b):
            total = float(np.dot(green.normal_derivative(grid, pole), grid.weights))
            worst = max(worst, abs(total + 1.0))
        return worst < FLUX_NORMALIZATION_TOL, {
            "observed": worst, "threshold": FLUX_NORMALIZATION_TOL}

    def green_symmetry():
        gap = abs(green.value(exp.a, exp.b) - green.value(exp.b, exp.a))
        return gap < SYMMETRY_TOL, {"observed": gap, "threshold": SYMMETRY_TOL}

    def quadrature_area():
        # area of f(D) two ways: interior rule vs the coefficient formula
        rule = interior_rule(fmap, poles=(za, zb), n_r=exp.quad["n_r"],
                             n_theta=exp.quad["n_theta"],
                             n_patch=exp.quad["n_patch"])
        val = integrate(rule, lambda p: np.abs(fmap.derivative(to_complex(p))) ** 2,
                        check=False)
        ks = np.arange(1, fmap.degree + 1)
        exact = np.pi * float(np.sum(ks * np.abs(fmap.coeffs) ** 2))
        gap = abs(float(val) - exact) / exact
        return gap < AREA_TOL, {"observed": gap, "threshold": AREA_TOL}

    suite = {
        "boundary_values_vanish": boundary_values,
        "divergence_residual": divergence_residual,
        "estimator_agreement": agreement,
        "flux_normalization": flux_normalization,
        "green_symmetry": green_symmetry,
        "quadrature_area": quadrature_area,
        "trace_identity": trace_identity,
    }
    for name, thunk in suite.items():
        if only is None or name in only:
            _run_check(checks, name, thunk)
    return _report(exp, checks, estimates)


def run_vary(exp: Experiment):
    """Single four-estimator report; exit 0 iff they agree."""
    return run_verify(exp, only=("estimator_agreement",))


def run_convergence(exp: Experiment):
    """CSV error table against a Richardson-extrapolated FD reference."""
    fam, a, b = exp.family, exp.a, exp.b
    scales = [2**level for level in range(exp.levels)]
    fd = {s: fd_oracle(fam, a, b, dt=exp.fd_dt / s) for s in sorted({1, 2, *scales})}
    ref = (4.0 * fd[2] - fd[1]) / 3.0
    rows = []
    for level, s in enumerate(scales):
        m = exp.quad["m_boundary"] * s
        values = {
            "boundary": boundary_variation(fam, a, b, m=m),
            "fd_oracle": fd[s],
            "flux": flux_variation(fam, a, b, m=m, metric=exp.metric),
            "volume": float(volume_variation(
                fam, a, b, metric=exp.metric, n_r=exp.quad["n_r"] * s,
                n_theta=exp.quad["n_theta"] * s, n_patch=exp.quad["n_patch"] * s,
                check=False)),
        }
        for name in sorted(values):
            rows.append((level, name, values[name], abs(values[name] - ref)))
    return render_csv(rows), 0


def run_triple(exp: Experiment):
    """Six pole orderings of the symmetric variation, plus its oracle."""
    if exp.c is None:
        raise ConfigError("triple requires pole 'c' in the config")
    a, b, c = exp.a, exp.b, exp.c
    m = exp.quad["m_boundary"]
    poles = {"a": a, "b": b, "c": c}
    values = {"".join(key): triple_variation(exp.family, *(poles[k] for k in key), m=m)
              for key in permutations("abc")}
    spread = max(values.values()) - min(values.values())

    checks: dict = {}

    def permutation_spread():
        return spread < TRIPLE_SPREAD_TOL, {
            "observed": spread, "threshold": TRIPLE_SPREAD_TOL}

    def matches_gradient_velocity():
        v = green_gradient_field(exp.base_map, to_complex(np.asarray(c)))
        bnd = boundary_variation(exp.family, a, b, m=m, velocity=v)
        gap = abs(values["abc"] - bnd)
        return gap < TRIPLE_MATCH_TOL, {
            "observed": gap, "threshold": TRIPLE_MATCH_TOL,
            "boundary_gradient_velocity": bnd}

    _run_check(checks, "matches_gradient_velocity", matches_gradient_velocity)
    _run_check(checks, "permutation_spread", permutation_spread)
    return _report(exp, checks, {"triple": values["abc"], "permutations": values})


# -------------------------------------------------------------- entrypoint

def _emit(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenvar",
        description="Green-function domain-variation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("verify", "run the invariant suite and emit a JSON report"),
        ("vary", "run the four variation estimators once"),
        ("converge", "emit a CSV convergence table across resolutions"),
        ("triple", "evaluate the symmetric three-pole variation"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        p.add_argument("--quad-nr", type=int, metavar="N",
                       help="radial background resolution override")
        p.add_argument("--quad-ntheta", type=int, metavar="N",
                       help="angular background resolution override")
        p.add_argument("--fd-dt", type=float, metavar="DT",
                       help="finite-difference step override")
        p.add_argument("--tol-boundary", type=float, metavar="TOL",
                       help="boundary/flux/fd mutual agreement tolerance")
        p.add_argument("--tol-volume", type=float, metavar="TOL",
                       help="volume-estimator agreement tolerance")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    runners = {"verify": run_verify, "vary": run_vary,
               "converge": run_convergence, "triple": run_triple}
    try:
        exp = load_experiment(args)
    except GreenvarError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        payload, code = runners[args.command](exp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GreenvarError as exc:
        print(f"run error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = payload if isinstance(payload, str) else render_json(payload) + "\n"
    _emit(text, exp.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
