"""Configuration-driven experiment runner.

Subcommands
-----------
verify    run the invariant suite (trace identity, divergence residual,
          Green-function properties, estimator agreement) and emit a JSON
          report; exit 0 iff every check passes.
vary      run the four variation estimators once and emit their report.
converge  emit a CSV error table against a Richardson-extrapolated FD
          reference; at each level m_boundary doubles and the FD step
          halves.  The volume rows repeat one estimate at the level-0 rule:
          the family velocity's interior integrand is exactly 0 on every rule.
triple    evaluate the fully symmetric three-pole variation over all six
          pole orderings.

Options may come before or after the subcommand; each flag overrides one
config setting and is checked by that setting's rule.  Configs are strict
JSON: unknown fields are rejected, poles must sit inside the domain with
margin, the level-0 quadrature rule must be buildable, tolerances must be
positive and finite.  All floats are printed with 17 significant digits
and outputs carry no timestamps, so identical configs produce
byte-identical artifacts.

Exit status: 0 all checks pass; 1 some check failed; 2 invalid
configuration ("config error: <msg>" on stderr: anything
``load_experiment`` rejects, a ``ConfigError`` from a subcommand, or an
output file that cannot be written, "cannot write output: <msg>"); 3 a
subcommand failed at run time ("run error: <subcommand>: <ErrorClass>:
<msg>" on stderr, e.g. an FD step that moves a pole out of the domain).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from typing import Dict, Optional, Tuple

import numpy as np

from .conformal import (BOUNDARY_NODES, MAX_DEGREE, DomainFamily, _is_number,
                        boundary_grid, dilation_family, to_complex, to_points)
from .energy_momentum import PolarizedEMT
from .errors import ConfigError, GreenvarError
from .greens import COINCIDENCE_TOL, GreenFunction, green_gradient_field, interior_rule
from .quadrature import N_PATCH, N_R, N_THETA, Count, check_rule, integrate
from .tensors import MetricField, conformal_metric, trace_tensor
from .variation import (DEFAULT_FD_FACTOR, TOL_MUTUAL, TOL_VOLUME, _is_fd_step,
                        _is_tolerance, boundary_nodes, boundary_variation, fd_oracles,
                        flux_variation, triple_variation, variation_report,
                        volume_variation)

__all__ = ["main", "load_experiment", "run_verify", "run_vary",
           "run_convergence", "run_triple", "render_json", "render_csv"]

POLE_MARGIN = 0.05
LEVELS = Count(1, 3, 8)  # BOUNDARY_NODES is sized for the largest automatic m at level 8
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
# quadrature field: (its count, the flag that overrides it); an absent
# m_boundary is worked out from the poles
_QUAD_FIELDS = {"n_r": (N_R, "--quad-nr"), "n_theta": (N_THETA, "--quad-ntheta"),
                "n_patch": (N_PATCH, None), "m_boundary": (BOUNDARY_NODES, None)}
CSV_HEADER = "level,estimator,value,abs_error"


# --------------------------------------------------------------- rendering

def _fmt_float(x: float) -> str:
    return "%.17g" % float(x) if np.isfinite(x) else "null"


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


def _section(raw: dict, key: str, fields, name: str) -> dict:
    """The object ``raw[key]`` (empty where absent), with no unknown fields."""
    section = raw.get(key, {})
    _require(isinstance(section, dict), f"'{key}' must be an object")
    unknown = set(section) - set(fields)
    _require(not unknown, f"unknown {name} fields: {sorted(unknown)}")
    return section


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
              and all(type(e) is int and 0 <= e <= MAX_DEGREE for e in term[:2])  # not bool
              and _is_number(term[2]))
        _require(ok, f"conformal_phi term {k} must be [i, j, coeff] with "
                     f"0 <= i, j <= {MAX_DEGREE}")
        _require(abs(term[2]) < np.inf, f"conformal_phi term {k} coefficient must be finite")
        parsed.append((term[0], term[1], float(term[2])))

    d_x = [(i - 1, j, i * c) for i, j, c in parsed if i > 0]
    d_y = [(i, j - 1, j * c) for i, j, c in parsed if j > 0]
    spec = {"conformal_phi": [[i, j, c] for i, j, c in parsed]}
    return spec, conformal_metric(
        lambda p: _monomials(parsed, p),
        lambda p: np.stack([_monomials(d_x, p), _monomials(d_y, p)], axis=-1))


def _monomials(terms, p):
    """``sum c x^i y^j`` over the ``(i, j, c)`` terms at the points ``p``."""
    x, y = p[..., 0], p[..., 1]
    out = np.zeros(np.shape(x))
    for i, j, c in terms:
        out = out + c * x**i * y**j
    return out


def _check_margin(green: GreenFunction, point, name: str):
    try:
        z = green.pole_preimage(point)
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

    poles = _section(raw, "poles", "abc", "pole")
    _require("a" in poles and "b" in poles, "'poles' needs both 'a' and 'b'")
    a = _parse_point(poles["a"], "a")
    b = _parse_point(poles["b"], "b")
    c = _parse_point(poles["c"], "c") if "c" in poles else None

    named = [("a", a), ("b", b)] + ([("c", c)] if c is not None else [])
    for (na, pa), (nb, pb) in combinations(named, 2):
        if np.hypot(pa[0] - pb[0], pa[1] - pb[1]) < COINCIDENCE_TOL:
            raise ConfigError(f"coincident poles '{na}' and '{nb}'")
    green = GreenFunction(family.base)
    for name, point in named:
        _check_margin(green, point, name)
    r = max([min(c, 1.0 / c) for c in np.abs(family.base._critical_points)], default=0.0)
    _require(r <= 1.0 - POLE_MARGIN, f"a zero of f' too close to the boundary: "
             f"min(|c|, 1/|c|) = {r:.4f} > {1.0 - POLE_MARGIN}")

    def setting(section, key, name, flag, valid, rule, default=None):
        """``section[key]`` (else ``default``), or the flag's value where given.
        Each given value, the config's even where the flag overrides it, must
        pass ``valid`` or is rejected with ``rule`` under its own name."""
        value = section.get(key, default)
        flag_value = getattr(args, flag[2:].replace("-", "_")) if flag else None
        _require(key not in section or valid(value), f"{name} {rule}")
        _require(flag_value is None or valid(flag_value), f"{flag} {rule}")
        return value if flag_value is None else flag_value

    raw_quad = _section(raw, "quadrature", _QUAD_FIELDS, "quadrature")
    quad = {key: setting(raw_quad, key, f"quadrature '{key}'", flag, count.accepts,
                         count.rule, count.default)
            for key, (count, flag) in _QUAD_FIELDS.items()}
    # the one interior rule every volume route builds, converge's included
    check_rule(quad["n_r"], quad["n_theta"], green.pole_preimages(a, b), quad["n_patch"])
    if "m_boundary" not in raw_quad:
        quad["m_boundary"] = boundary_nodes(family.base, *(point for _, point in named))

    raw_tols = _section(raw, "tolerances", ("boundary", "volume"), "tolerance")
    tol_mutual, tol_volume = (
        float(setting(raw_tols, key, f"tolerance '{key}'", f"--tol-{key}", _is_tolerance,
                      "must be positive and finite", default))
        for key, default in (("boundary", TOL_MUTUAL), ("volume", TOL_VOLUME)))
    fd_dt = setting(raw, "fd_dt", "fd_dt", "--fd-dt",
                    lambda v: _is_fd_step(v, family.t_max),
                    f"must lie in (0, t_max = {family.t_max:g}]",
                    DEFAULT_FD_FACTOR * family.t_max)
    levels = setting(raw, "levels", "levels", None, LEVELS.accepts, LEVELS.rule,
                     LEVELS.default)
    out = setting(raw, "out", "'out'", "--out", lambda v: v is None or isinstance(v, str),
                  "must be a path string")

    return Experiment(family=family, metric_spec=metric_spec, metric=metric,
                      a=a, b=b, c=c, quad=quad, fd_dt=float(fd_dt),
                      tol_mutual=tol_mutual, tol_volume=tol_volume,
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
    fmap = exp.family.base
    green = GreenFunction(fmap)
    za, zb = to_complex(np.asarray(exp.a)), to_complex(np.asarray(exp.b))
    # the polarized EMT of the two poles, built once for the checks that use it
    emt = cache(lambda: PolarizedEMT.from_map(fmap, exp.a, exp.b, metric=exp.metric))

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
        pts = samples(0, 0.05, 0.9, 1000)
        T = emt().emt_cov(pts)
        scale = np.linalg.norm(T, axis=(-2, -1))
        ratio = float(np.max(np.abs(trace_tensor(emt().metric, pts, T)) / scale))
        return ratio < TRACE_TOL, {"observed": ratio, "threshold": TRACE_TOL}

    def divergence_residual():
        h = 1e-4
        pts = samples(1, 0.1, 0.85, 64)
        div = emt().divergence(pts, h=h)
        T = emt().emt_contra(pts)
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
    """CSV error table against a Richardson-extrapolated FD reference.

    Every level builds a boundary grid of ``m_boundary * 2^level`` nodes, so
    the last level's count is checked before any work; only level 0 builds an
    interior rule, which ``load_experiment`` has checked (module docstring)."""
    fam, a, b = exp.family, exp.a, exp.b
    scales = [2**level for level in range(exp.levels)]
    BOUNDARY_NODES.check(f"quadrature 'm_boundary' x {scales[-1]} (converge level "
                         f"{exp.levels - 1})", exp.quad["m_boundary"] * scales[-1])
    steps = sorted({1, 2, *scales})
    fd = dict(zip(steps, fd_oracles(fam, a, b, [exp.fd_dt / s for s in steps])))
    ref = (4.0 * fd[2] - fd[1]) / 3.0
    volume = float(volume_variation(fam, a, b, metric=exp.metric, n_r=exp.quad["n_r"],
                                    n_theta=exp.quad["n_theta"],
                                    n_patch=exp.quad["n_patch"], check=False))
    rows = []
    for level, s in enumerate(scales):
        m = exp.quad["m_boundary"] * s
        values = {
            "boundary": boundary_variation(fam, a, b, m=m),
            "fd_oracle": fd[s],
            "flux": flux_variation(fam, a, b, m=m, metric=exp.metric),
            "volume": volume,
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
        v = green_gradient_field(exp.family.base, to_complex(np.asarray(c)))
        bnd = boundary_variation(exp.family, a, b, m=m, velocity=v)
        gap = abs(values["abc"] - bnd)
        return gap < TRIPLE_MATCH_TOL, {
            "observed": gap, "threshold": TRIPLE_MATCH_TOL,
            "boundary_gradient_velocity": bnd}

    _run_check(checks, "matches_gradient_velocity", matches_gradient_velocity)
    _run_check(checks, "permutation_spread", permutation_spread)
    return _report(exp, checks, {"triple": values["abc"], "permutations": values})


# -------------------------------------------------------------- entrypoint

RUNNERS = {"verify": run_verify, "vary": run_vary,
           "converge": run_convergence, "triple": run_triple}

# (flag, type, metavar, help); every flag but --config overrides the config
# setting ``load_experiment`` reads with it
_OPTIONS = [
    ("--config", str, "PATH", "JSON config file"),
    ("--out", str, "PATH", "write output here instead of stdout"),
    ("--quad-nr", int, "N", "radial background resolution override"),
    ("--quad-ntheta", int, "N", "angular background resolution override"),
    ("--fd-dt", float, "DT", "finite-difference step override"),
    ("--tol-boundary", float, "TOL", "boundary/flux/fd mutual agreement tolerance"),
    ("--tol-volume", float, "TOL", "volume-estimator agreement tolerance"),
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenvar", description="Green-function domain-variation experiments")
    parser.add_argument("command", choices=RUNNERS, help=(
        "verify: the invariant suite, as JSON; vary: the four variation estimators once; "
        "converge: a CSV table across resolutions; triple: the three-pole variation"))
    for flag, kind, metavar, help_text in _OPTIONS:
        parser.add_argument(flag, type=kind, metavar=metavar, help=help_text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        exp = load_experiment(args)
    except GreenvarError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        payload, code = RUNNERS[args.command](exp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GreenvarError as exc:
        print(f"run error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = payload if isinstance(payload, str) else render_json(payload) + "\n"
    if exp.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(exp.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
