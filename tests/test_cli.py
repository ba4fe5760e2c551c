"""Experiment runner: config validation, output formats, exit codes."""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from greenvar import cli, variation
from greenvar.cli import (
    CSV_HEADER,
    _build_parser,
    _parse_metric,
    default_config,
    load_experiment,
    main,
    render_csv,
    render_json,
)
from greenvar.errors import ConfigError

TWO_PI = 2.0 * np.pi


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ------------------------------------------------------------------ parsing

NO_OPTIONS = {"config": None, "out": None, "quad_nr": None, "quad_ntheta": None,
              "fd_dt": None, "tol_boundary": None, "tol_volume": None}


ARGVS = [
    # the README's examples
    ("verify", {"command": "verify"}),
    ("vary --config exp.json", {"command": "vary", "config": "exp.json"}),
    ("converge --config exp.json --out table.csv",
     {"command": "converge", "config": "exp.json", "out": "table.csv"}),
    ("triple --config exp.json", {"command": "triple", "config": "exp.json"}),
    # the argvs of the tests below, with P for a path
    ("verify --config P", {"command": "verify", "config": "P"}),
    ("verify --tol-boundary 1e-16", {"command": "verify", "tol_boundary": 1e-16}),
    ("vary", {"command": "vary"}),
    ("vary --fd-dt 1e-3 --quad-nr 32 --quad-ntheta 64",
     {"command": "vary", "fd_dt": 1e-3, "quad_nr": 32, "quad_ntheta": 64}),
    ("vary --config P", {"command": "vary", "config": "P"}),
    ("vary --tol-volume 0.01", {"command": "vary", "tol_volume": 0.01}),
    ("vary --tol-boundary -1", {"command": "vary", "tol_boundary": -1.0}),
    ("vary --out P", {"command": "vary", "out": "P"}),
    ("vary --config P --fd-dt 0.1", {"command": "vary", "config": "P", "fd_dt": 0.1}),
    ("vary --config P --fd-dt 1e-3", {"command": "vary", "config": "P", "fd_dt": 1e-3}),
    ("vary --config P --out report.json",
     {"command": "vary", "config": "P", "out": "report.json"}),
    ("converge", {"command": "converge"}),
    ("converge --config P", {"command": "converge", "config": "P"}),
    ("converge --config P --fd-dt 0.1", {"command": "converge", "config": "P", "fd_dt": 0.1}),
    ("triple", {"command": "triple"}),
    ("triple --config P", {"command": "triple", "config": "P"}),
    # options may also come before the command
    ("--config P --fd-dt 0.1 converge", {"command": "converge", "config": "P", "fd_dt": 0.1}),
]


@pytest.mark.parametrize("argv, expected", ARGVS, ids=[argv for argv, _ in ARGVS])
def test_argv_parses_to_the_documented_namespace(argv, expected):
    ns = vars(_build_parser().parse_args(argv.split()))
    typed = lambda d: sorted((k, type(v).__name__, v) for k, v in d.items())
    assert typed(ns) == typed(dict(NO_OPTIONS, **expected))


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_a_missing_or_unknown_command_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: greenvar")


def test_help_is_one_text_with_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    text = capsys.readouterr().out
    assert exc.value.code == 0
    assert "{verify,vary,converge,triple}" in text
    for flag in NO_OPTIONS:
        assert "--" + flag.replace("_", "-") in text


# ---------------------------------------------------------------- rendering

def test_render_json_scalars():
    doc = {"f": 1.0 / TWO_PI, "i": np.int64(3), "b": np.bool_(True),
           "n": None, "s": "x", "bad": float("nan"), "e": [], "d": {}}
    text = render_json(doc)
    assert '"f": 0.15915494309189535' in text
    assert '"i": 3' in text
    assert '"b": true' in text
    assert '"n": null' in text
    assert '"bad": null' in text
    assert '"e": []' in text
    assert '"d": {}' in text


def test_render_json_rejects_unknown_types():
    with pytest.raises(ConfigError):
        render_json({"x": object()})


def test_render_csv_layout():
    text = render_csv([(0, "boundary", 1.0 / TWO_PI, 1e-3)])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "level,estimator,value,abs_error"
    assert lines[1] == "0,boundary,0.15915494309189535,0.001"


# ------------------------------------------------------------------- verify

def test_verify_default_config(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["config_echo", "checks", "estimates", "status"]
    assert doc["status"] == "pass"
    assert set(doc["checks"]) == {
        "boundary_values_vanish", "divergence_residual", "estimator_agreement",
        "flux_normalization", "green_symmetry", "quadrature_area",
        "trace_identity"}
    assert all(c["passed"] for c in doc["checks"].values())
    assert doc["estimates"]["boundary"] == pytest.approx(1.0 / TWO_PI,
                                                         rel=1e-9)
    assert "out" not in doc["config_echo"]


def test_near_margin_pole_sets_boundary_resolution(capsys, tmp_path):
    # a pole at preimage modulus 0.94 needs m = 1024 for the 1e-8 flux check
    doc = default_config()
    doc["poles"] = {"a": [0.94, 0.0], "b": [0.0, 0.5], "c": [-0.3, -0.4]}
    code, out, _ = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    report = json.loads(out)
    assert code == 0
    assert report["config_echo"]["quadrature"]["m_boundary"] == 1024
    assert report["checks"]["estimator_agreement"]["params"]["m_boundary"] == 1024
    assert report["checks"]["flux_normalization"]["passed"]
    # a configured m_boundary is used as given
    doc["quadrature"] = {"m_boundary": 256}
    code, out, _ = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    report = json.loads(out)
    assert code == 1
    assert report["config_echo"]["quadrature"]["m_boundary"] == 256
    assert not report["checks"]["flux_normalization"]["passed"]


def test_verify_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify")
    _, second, _ = run(capsys, "verify")
    assert first == second


def test_verify_seventeen_digit_floats(capsys):
    _, out, _ = run(capsys, "verify")
    doc = json.loads(out)
    val = doc["estimates"]["boundary"]
    assert ("%.17g" % val) in out


def test_verify_failure_exit_code(capsys, tmp_path):
    # an unreachable agreement tolerance must flip status and exit code
    code, out, err = run(capsys, "verify", "--tol-boundary", "1e-16")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert not doc["checks"]["estimator_agreement"]["passed"]
    assert doc["checks"]["green_symmetry"]["passed"]


def test_verify_conformal_metric(capsys, tmp_path):
    doc = default_config()
    doc["metric"] = {"conformal_phi": [[1, 0, 0.2]]}
    doc["quadrature"] = {"n_r": 32, "n_theta": 64, "n_patch": 16,
                         "m_boundary": 128}
    code, out, _ = run(capsys, "verify", "--config",
                       write_config(tmp_path, doc))
    assert code == 0
    echoed = json.loads(out)["config_echo"]["metric"]
    assert echoed == {"conformal_phi": [[1, 0, 0.2]]}


# --------------------------------------------------------------------- vary

def test_vary_reports_estimates(capsys):
    code, out, _ = run(capsys, "vary")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    est = doc["estimates"]
    assert set(est) == {"boundary", "volume", "flux", "fd_oracle"}
    for val in est.values():
        assert val == pytest.approx(1.0 / TWO_PI, rel=5e-3)


def test_a_floor_rule_reports_no_volume_rel_change(capsys, tmp_path):
    # every count at its floor: the coarse twin is the rule itself, so the
    # volume route claims no convergence and its rel_change (NaN) reads null
    doc = dict(default_config(), quadrature={"n_r": 4, "n_theta": 8, "n_patch": 8})
    code, out, _ = run(capsys, "vary", "--config", write_config(tmp_path, doc))
    assert code == 0
    params = json.loads(out)["checks"]["estimator_agreement"]["params"]
    assert params["volume_rel_change"] is None and params["volume_converged"] is False


def test_flag_overrides_echoed(capsys):
    code, out, _ = run(capsys, "vary", "--fd-dt", "1e-3", "--quad-nr", "32",
                       "--quad-ntheta", "64")
    assert code == 0
    echo = json.loads(out)["config_echo"]
    assert echo["fd_dt"] == 1e-3
    assert echo["quadrature"]["n_r"] == 32
    assert echo["quadrature"]["n_theta"] == 64


def test_config_tolerances_are_applied_and_echoed(capsys, tmp_path):
    doc = default_config()
    doc["tolerances"] = {"boundary": 1e-16}
    code, out, _ = run(capsys, "vary", "--config", write_config(tmp_path, doc))
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["config_echo"]["tolerances"]["boundary"] == 1e-16


def test_tol_volume_flag_echoed(capsys):
    code, out, _ = run(capsys, "vary", "--tol-volume", "0.01")
    assert code == 0
    assert json.loads(out)["config_echo"]["tolerances"]["volume"] == 0.01


def test_conformal_phi_gradient_matches_differences():
    _, metric = _parse_metric({"conformal_phi": [[1, 0, 0.2], [0, 2, 0.1], [1, 1, 0.05]]})
    p = np.array([[0.3, -0.2], [-0.5, 0.4], [0.1, 0.7]])
    h = 1e-5
    fd = np.stack([(metric.conformal_factor(p + h * e) - metric.conformal_factor(p - h * e))
                   / (2 * h) for e in np.eye(2)], axis=-1)
    assert np.allclose(metric.conformal_gradient(p), fd, rtol=0, atol=1e-10)


def test_conformal_phi_evaluates_the_bits_of_the_term_by_term_formulas():
    # phi and both partials, against the loops that summed each term of phi
    # and of its two partial derivatives, with constant, pure and mixed terms
    terms = [(0, 0, 0.3), (1, 0, 0.2), (0, 2, 0.1), (2, 1, -0.07), (1, 3, 0.05), (3, 0, 1.3)]
    _, metric = _parse_metric({"conformal_phi": [list(t) for t in terms]})
    p = np.random.default_rng(5).uniform(-0.9, 0.9, size=(200, 2))
    x, y = p[..., 0], p[..., 1]
    phi, gx, gy = np.zeros(200), np.zeros(200), np.zeros(200)
    for i, j, coef in terms:
        phi = phi + coef * x**i * y**j
        if i > 0:
            gx = gx + coef * i * x ** (i - 1) * y**j
        if j > 0:
            gy = gy + coef * j * x**i * y ** (j - 1)
    assert np.array_equal(metric.conformal_factor(p), phi)
    assert np.array_equal(metric.conformal_gradient(p), np.stack([gx, gy], axis=-1))


# ----------------------------------------------------------------- converge

def test_converge_table(capsys, tmp_path):
    doc = default_config()
    doc["levels"] = 4
    doc["quadrature"] = {"n_r": 16, "n_theta": 32, "n_patch": 8,
                         "m_boundary": 8}
    code, out, _ = run(capsys, "converge", "--config",
                       write_config(tmp_path, doc))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 16  # 4 levels x 4 estimators
    assert [r[1] for r in rows[:4]] == ["boundary", "fd_oracle", "flux",
                                        "volume"]
    err = {(int(r[0]), r[1]): float(r[3]) for r in rows}
    # boundary integration is spectral: 64 nodes already hits the FD floor
    assert err[(3, "boundary")] < 1e-10
    assert err[(3, "boundary")] < err[(0, "boundary")]
    assert err[(3, "fd_oracle")] < err[(0, "fd_oracle")]


def test_converge_rejects_an_unbuildable_ladder_before_any_work(capsys, tmp_path,
                                                               monkeypatch):
    # levels 3 doubles m_boundary twice, to 2^22 on the last rung, above its
    # ceiling: no estimator may run first
    from greenvar import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("an estimator ran before the ladder was checked")

    for name in ("boundary_variation", "fd_oracles", "flux_variation", "volume_variation"):
        monkeypatch.setattr(cli, name, forbidden)
    doc = dict(default_config(), levels=3, quadrature={"m_boundary": 2**20})
    code, out, err = run(capsys, "converge", "--config", write_config(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == ("config error: quadrature 'm_boundary' x 4 (converge level 2) "
                   "must be an integer in [4, 2097152]\n")


def test_converge_inverts_each_pole_once(capsys, tmp_path, monkeypatch):
    # the config check inverts a and b on the base map; the default m and
    # every estimator at every level take the held preimages
    from greenvar.conformal import ConformalMap

    doc = {"family": {"base": [[1.0, 0.0], [0.1, 0.0]],
                      "perturbation": [[0.0, 0.0], [0.05, 0.0], [0.03, 0.0]]},
           "metric": {"conformal_phi": [[1, 0, 0.2], [0, 2, 0.1]]},
           "poles": {"a": [0.1, 0.05], "b": [-0.3, 0.2]},
           "quadrature": {"n_r": 16, "n_theta": 32, "n_patch": 8}, "levels": 2}
    calls = []
    inverse = ConformalMap.inverse

    def counted(self, x):
        if np.array_equal(self.coeffs, [1.0, 0.1]):
            calls.append(np.size(x))
        return inverse(self, x)

    monkeypatch.setattr(ConformalMap, "inverse", counted)
    code, out, _ = run(capsys, "converge", "--config", write_config(tmp_path, doc))
    assert code == 0 and len(out.strip().split("\n")) == 9
    assert calls == [1, 1]


def test_converge_solves_every_fd_step_in_one_newton_call(capsys, tmp_path, monkeypatch,
                                                          rebind):
    # after the config check's two pole inversions on the base map, the FD
    # rows of all three steps are one Newton call on coefficient rows; each
    # FD row, and the error of every row against the Richardson reference,
    # has the bits of one map per step
    from greenvar import conformal, variation
    from greenvar.conformal import DomainFamily
    from greenvar.greens import GreenFunction

    rows = []
    newton = conformal._newton_rows
    counted = lambda c, x, z: rows.append(len(c)) or newton(c, x, z)
    rebind(newton, counted)
    doc = dict(CURVED_LADDER, levels=3, quadrature={"n_r": 16, "n_theta": 32, "n_patch": 8})
    code, out, _ = run(capsys, "converge", "--config", write_config(tmp_path, doc))
    assert code == 0 and rows == [1, 1, 12]
    monkeypatch.undo()
    fam = DomainFamily.from_json(doc["family"])
    a, b = (tuple(doc["poles"][k]) for k in "ab")

    def fd(s):
        dt = variation.DEFAULT_FD_FACTOR * fam.t_max / s
        gp, gm = (GreenFunction(fam.map_at(t)).value(a, b) for t in (dt, -dt))
        return (gp - gm) / (2.0 * dt)

    ref = (4.0 * fd(2) - fd(1)) / 3.0
    table = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(table) == 12
    for level, name, value, err in table:
        assert float(err).hex() == abs(float(value) - ref).hex()
        if name == "fd_oracle":
            assert float(value).hex() == fd(2 ** int(level)).hex()


CURVED_LADDER = {"family": {"base": [[1.0, 0.0], [0.1, 0.0]],
                            "perturbation": [[0.0, 0.0], [0.05, 0.0], [0.03, 0.0]]},
                 "metric": {"conformal_phi": [[1, 0, 0.2], [0, 2, 0.1]]},
                 "poles": {"a": [0.1, 0.05], "b": [-0.3, 0.2]}}


@pytest.mark.parametrize("doc", [CURVED_LADDER, default_config()],
                         ids=["curved", "flat_dilation"])
def test_converge_builds_the_level_zero_rule_alone(capsys, tmp_path, monkeypatch, doc):
    # the family velocity's interior integrand is exactly 0 on every rule, so
    # each level's volume row is the level-0 estimate: the bits the rung's
    # own rule gives, which is what a rung-by-rung ladder wrote
    from greenvar import quadrature
    from greenvar.conformal import DomainFamily
    from greenvar.variation import volume_variation

    doc = dict(doc, levels=3, quadrature={"n_r": 16, "n_theta": 32, "n_patch": 8})
    built = []
    build = quadrature._build_rule
    monkeypatch.setattr(quadrature, "_build_rule",
                        lambda *args: built.append(args[:2]) or build(*args))
    code, out, _ = run(capsys, "converge", "--config", write_config(tmp_path, doc))
    assert code == 0
    assert built == [(16, 32)]
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    volume = {int(r[0]): float(r[2]) for r in rows if r[1] == "volume"}
    assert sorted(volume) == [0, 1, 2]
    fam = DomainFamily.from_json(doc["family"])
    metric = _parse_metric(doc["metric"])[1]
    a, b = (tuple(doc["poles"][k]) for k in "ab")
    for level, value in volume.items():
        s = 2**level
        rung = volume_variation(fam, a, b, metric=metric, n_r=16 * s, n_theta=32 * s,
                                n_patch=8 * s, check=False)
        assert value.hex() == float(rung).hex()


def test_converge_runs_every_level_it_can_build(capsys, tmp_path):
    # only level 0 builds an interior rule, so n_patch is never doubled: the
    # default n_patch 32 runs to levels 8, and the table at each levels L is the
    # first 1 + 4L lines of the deepest one
    def table(doc):
        code, out, err = run(capsys, "converge", "--config", write_config(tmp_path, doc))
        assert (code, err) == (0, "")
        return out.splitlines()

    deepest = table(dict(default_config(), levels=8))
    for level in range(1, 8):
        assert table(dict(default_config(), levels=level)) == deepest[:1 + 4 * level]
    near_margin = {"a": [0.94, 0.0], "b": [0.0, 0.5]}
    for doc, levels in ((dict(default_config(), poles=near_margin), 8),
                        (CURVED_LADDER, 8),
                        (dict(default_config(), quadrature={"n_patch": 160}), 2)):
        assert len(table(dict(doc, levels=levels))) == 1 + 4 * levels


def test_converge_deterministic(capsys, tmp_path):
    doc = default_config()
    doc["quadrature"] = {"n_r": 8, "n_theta": 16, "n_patch": 8,
                         "m_boundary": 16}
    doc["levels"] = 2
    path = write_config(tmp_path, doc)
    _, first, _ = run(capsys, "converge", "--config", path)
    _, second, _ = run(capsys, "converge", "--config", path)
    assert first == second


# ------------------------------------------------------------------- triple

def test_triple_reference_and_permutations(capsys, tmp_path):
    doc = default_config()
    doc["poles"]["c"] = [0.0, 0.5]
    code, out, _ = run(capsys, "triple", "--config",
                       write_config(tmp_path, doc))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    perms = report["estimates"]["permutations"]
    assert set(perms) == {"abc", "acb", "bac", "bca", "cab", "cba"}
    val = report["estimates"]["triple"]
    assert val == pytest.approx(-15.0 / (68.0 * np.pi**2), abs=1e-12)
    assert max(perms.values()) - min(perms.values()) < 1e-12
    assert report["config_echo"]["poles"]["c"] == [0.0, 0.5]


def test_triple_evaluates_each_normal_derivative_once(capsys, tmp_path, rebind):
    # six orderings and the gradient-velocity check read three poles on one
    # grid: three Poisson kernels, where each route evaluated its own (20)
    from greenvar import greens

    calls = []
    poisson = greens._poisson
    rebind(poisson, lambda z, w: calls.append(w) or poisson(z, w))
    doc = dict(CURVED_LADDER, poles=dict(CURVED_LADDER["poles"], c=[0.25, -0.35]))
    code, out, _ = run(capsys, "triple", "--config", write_config(tmp_path, doc))
    assert code == 0 and json.loads(out)["status"] == "pass"
    assert len(calls) == 3


def test_triple_requires_third_pole(capsys):
    code, out, err = run(capsys, "triple")
    assert code == 2
    assert "config error:" in err and "pole 'c'" in err


def test_run_time_failure_is_a_run_error(capsys, tmp_path):
    # a valid fd_dt that shrinks the domain past pole a fails at run time
    doc = default_config()
    doc["poles"] = {"a": [0.94, 0.0], "b": [0.0, 0.5]}
    path = write_config(tmp_path, doc)
    code, out, err = run(capsys, "converge", "--config", path, "--fd-dt", "0.1")
    assert code == 3 and out == ""
    assert err.startswith("run error: converge: DomainError: point outside")
    # vary records the same failure as a skipped estimate
    code, out, _ = run(capsys, "vary", "--config", path, "--fd-dt", "0.1")
    assert code == 1
    assert "DomainError" in json.loads(out)["checks"]["estimator_agreement"][
        "params"]["skips"]["fd_oracle"]


def test_a_check_that_raises_is_recorded_as_failed(capsys, monkeypatch):
    # any exception in a check is its error entry; the others still run
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "integrate", boom)     # quadrature_area's sum
    code, out, _ = run(capsys, "verify")
    report = json.loads(out)
    assert code == 1 and report["status"] == "fail"
    assert report["checks"].pop("quadrature_area") == {"passed": False,
                                                       "error": "RuntimeError: boom"}
    assert len(report["checks"]) == 6 and all(c["passed"] for c in report["checks"].values())


# ------------------------------------------------------------ config errors

def test_rejects_unknown_fields(capsys, tmp_path):
    doc = default_config()
    doc["bogus"] = 1
    code, _, err = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert "unknown config fields: ['bogus']" in err


def test_rejects_coincident_poles(capsys, tmp_path):
    doc = default_config()
    doc["poles"]["b"] = doc["poles"]["a"]
    code, _, err = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert "coincident poles 'a' and 'b'" in err


def test_rejects_pole_near_boundary(capsys, tmp_path):
    doc = default_config()
    doc["poles"]["b"] = [0.97, 0.0]
    code, _, err = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert "preimage modulus 0.9700 > 0.95" in err


def test_rejects_pole_outside_the_domain(capsys, tmp_path):
    doc = default_config()
    doc["poles"]["a"] = [2.0, 0.0]
    code, out, err = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert code == 2 and out == ""
    assert err == ("config error: pole 'a' is not inside the domain: point outside the "
                   "mapped disk: preimage modulus 2\n")


def test_rejects_missing_config(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert "config error: cannot read config" in err


def test_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json{")
    code, _, err = run(capsys, "verify", "--config", str(path))
    assert code == 2
    assert "config is not valid JSON (line 1, column 1)" in err


def test_rejects_bad_quadrature(capsys, tmp_path):
    doc = default_config()
    doc["quadrature"] = {"n_r": 2}
    code, _, err = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert "quadrature 'n_r' must be an integer in [4, 1024]" in err


def test_rejects_bad_fd_step(capsys, tmp_path):
    doc = default_config()
    doc["fd_dt"] = 100.0
    code, _, err = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert "fd_dt must lie in (0, t_max" in err


@pytest.mark.parametrize("field, value, flags, message", [
    ("fd_dt", "abc", ["--fd-dt", "1e-3"], "fd_dt must lie in (0, t_max"),
    ("fd_dt", 100.0, ["--fd-dt", "1e-3"], "fd_dt must lie in (0, t_max"),
    ("out", 5, ["--out", "report.json"], "'out' must be a path string"),
])
def test_rejects_a_bad_config_value_a_flag_overrides(capsys, tmp_path, monkeypatch,
                                                     field, value, flags, message):
    monkeypatch.chdir(tmp_path)
    doc = default_config()
    doc[field] = value
    code, _, err = run(capsys, "vary", "--config", write_config(tmp_path, doc), *flags)
    assert code == 2
    assert message in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("patch, name, flag, bad, good, rule", [
    ({"quadrature": {"n_r": 3}}, "quadrature 'n_r'", "--quad-nr", "2", "16",
     "must be an integer in [4, 1024]"),
    ({"quadrature": {"n_theta": 64.0}}, "quadrature 'n_theta'", "--quad-ntheta", "4", "32",
     "must be an integer in [8, 2048]"),
    ({"tolerances": {"boundary": float("inf")}}, "tolerance 'boundary'", "--tol-boundary",
     "inf", "1e-5", "must be positive and finite"),
    ({"tolerances": {"volume": 0}}, "tolerance 'volume'", "--tol-volume", "nan", "0.01",
     "must be positive and finite"),
    ({"fd_dt": None}, "fd_dt", "--fd-dt", "0.6", "1e-4", "must lie in (0, t_max = 0.5]"),
    ({"out": ["r.json"]}, "'out'", "--out", None, "report.json", "must be a path string"),
], ids=["n_r", "n_theta", "tol_boundary", "tol_volume", "fd_dt", "out"])
def test_a_config_setting_and_its_flag_share_one_rule(capsys, tmp_path, monkeypatch,
                                                      patch, name, flag, bad, good, rule):
    # every string is a path, so --out has no bad value
    monkeypatch.chdir(tmp_path)
    doc = dict(default_config(), **patch)
    code, out, err = run(capsys, "vary", "--config", write_config(tmp_path, doc), flag, good)
    assert (code, out, err) == (2, "", f"config error: {name} {rule}\n")
    if bad is not None:
        code, out, err = run(capsys, "vary", flag, bad)
        assert (code, out, err) == (2, "", f"config error: {flag} {rule}\n")
    assert not (tmp_path / "report.json").exists()


def test_tolerances_and_fd_dt_are_read_by_the_library_rules(tmp_path, rebind):
    # the settings ask variation's own predicates, so the CLI takes what the
    # library takes: each given value, the config's and the flag's
    seen = []
    rebind(variation._is_tolerance, lambda v: seen.append(v) or True)
    rebind(variation._is_fd_step, lambda v, t_max: seen.append((v, t_max)) or True)
    doc = dict(default_config(), tolerances={"boundary": 2e-5, "volume": 0.01}, fd_dt=1e-3)
    argv = ["vary", "--config", write_config(tmp_path, doc), "--tol-volume", "0.02"]
    exp = load_experiment(_build_parser().parse_args(argv))
    assert seen == [2e-5, 0.01, 0.02, (1e-3, exp.family.t_max)]
    assert (exp.tol_mutual, exp.tol_volume, exp.fd_dt) == (2e-5, 0.02, 1e-3)


@pytest.mark.parametrize("command", ["verify", "vary", "converge", "triple"])
def test_every_command_rejects_an_unbuildable_level_zero_rule(capsys, tmp_path, command):
    # n_patch 256 puts the innermost patch ring 7.67e-11 from pole a at 0
    doc = default_config()
    doc["poles"]["c"] = [0.0, 0.5]
    doc["quadrature"] = {"n_patch": 256}
    code, out, err = run(capsys, command, "--config", write_config(tmp_path, doc))
    assert (code, out, err) == (2, "", "config error: node within 7.67e-11 of pole 0+0j\n")


HUGE = 10**400  # a JSON integer beyond the double range
NON_FINITE = "injectivity gate failed: non-finite coefficients"
VARY = ("vary",)


def quadrature(**fields):
    return {"quadrature": fields}


@pytest.mark.parametrize("patch, argv, message", [
    ({"tolerances": {"boundary": HUGE}}, VARY,
     "tolerance 'boundary' must be positive and finite"),
    ({"poles": {"a": [HUGE, 0], "b": [0.5, 0]}}, VARY,
     "pole 'a' must be an [x, y] pair of numbers"),
    ({"family": {"base": [[HUGE, 0]], "perturbation": [[1, 0]]}}, VARY,
     "family field 'base' entry 0 must be a [re, im] pair"),
    ({"metric": {"conformal_phi": [[1, 0, HUGE]]}}, VARY,
     "conformal_phi term 0 must be [i, j, coeff] with 0 <= i, j <= 64"),
    # json.dumps writes these as Infinity, -Infinity and NaN, which json.load reads
    ({"metric": {"conformal_phi": [[1, 0, float("inf")]]}}, VARY,
     "conformal_phi term 0 coefficient must be finite"),
    ({"metric": {"conformal_phi": [[0, 0, 0.1], [1, 0, float("-inf")]]}}, VARY,
     "conformal_phi term 1 coefficient must be finite"),
    ({"metric": {"conformal_phi": [[1, 0, float("nan")]]}}, VARY,
     "conformal_phi term 0 coefficient must be finite"),
    ({"family": {"base": [[True, False]], "perturbation": [[1, 0]]}}, VARY,
     "family field 'base' entry 0 must be a [re, im] pair"),
    ({"family": {"base": [[float("inf"), 0]], "perturbation": [[1, 0]]}}, VARY,
     "family field 'base' entry 0 must be finite"),
    ({"family": {"base": [[1, 0], [0, float("inf")]], "perturbation": [[1, 0]]}}, VARY,
     "family field 'base' entry 1 must be finite"),
    ({"family": {"base": [[float("-inf"), 0]], "perturbation": [[1, 0]]}}, VARY,
     "family field 'base' entry 0 must be finite"),
    ({"family": {"base": [[1, 0], [float("nan"), 0]], "perturbation": [[1, 0]]}}, VARY,
     "family field 'base' entry 1 must be finite"),
    # refused by the coefficient rule, before the family's t range is certified
    ({"family": {"base": [[1, 0]], "perturbation": [[0, 0], [float("inf"), 0]]}}, VARY,
     "family field 'perturbation' entry 1 must be finite"),
    ({"family": {"base": [[1, 0]], "perturbation": [[0, float("-inf")]]}}, VARY,
     "family field 'perturbation' entry 0 must be finite"),
    ({"family": {"base": [[1, 0]], "perturbation": [[float("nan"), 0]], "t_max": 0.5}},
     VARY, "family field 'perturbation' entry 0 must be finite"),
    ({"family": {"base": [[1, 0], [1e308, 0]], "perturbation": [[1, 0]]}}, VARY, NON_FINITE),
    # f' = 1 + 1.2 z vanishes at -0.833, inside the disk
    ({"family": {"base": [[1, 0], [0.6, 0]], "perturbation": [[0, 0], [0.01, 0]],
                 "t_max": 0.1}, "poles": {"a": [0, 0], "b": [0.3, 0]}}, VARY,
     "injectivity gate failed: a zero of f' of modulus 0.833333 <= 1"),
    # every count beyond the double range, and just above its ceiling
    (quadrature(n_r=HUGE), VARY, "quadrature 'n_r' must be an integer in [4, 1024]"),
    (quadrature(n_theta=HUGE), VARY, "quadrature 'n_theta' must be an integer in [8, 2048]"),
    (quadrature(n_patch=HUGE), VARY, "quadrature 'n_patch' must be an integer in [8, 285]"),
    (quadrature(m_boundary=HUGE), VARY,
     "quadrature 'm_boundary' must be an integer in [4, 2097152]"),
    ({}, VARY + ("--quad-nr", str(HUGE)), "--quad-nr must be an integer in [4, 1024]"),
    ({}, VARY + ("--quad-ntheta", str(HUGE)), "--quad-ntheta must be an integer in [8, 2048]"),
    (quadrature(n_r=1025), VARY, "quadrature 'n_r' must be an integer in [4, 1024]"),
    ({}, VARY + ("--quad-ntheta", "2049"), "--quad-ntheta must be an integer in [8, 2048]"),
    (quadrature(n_patch=286), VARY, "quadrature 'n_patch' must be an integer in [8, 285]"),
    (quadrature(m_boundary=2**21 + 1), VARY,
     "quadrature 'm_boundary' must be an integer in [4, 2097152]"),
    # converge doubles m at each level
    (dict(quadrature(m_boundary=2**20), levels=3), ("converge",),
     "quadrature 'm_boundary' x 4 (converge level 2) must be an integer in [4, 2097152]"),
    # polynomial degree: an exponent beyond the double range, 2,000 coefficients
    # (a crossing polynomial of degree 3,998 for the family's t*), one above the ceiling
    ({"metric": {"conformal_phi": [[HUGE, 0, 1.0]]}}, VARY,
     "conformal_phi term 0 must be [i, j, coeff] with 0 <= i, j <= 64"),
    ({"metric": {"conformal_phi": [[0, 65, 1.0]]}}, VARY,
     "conformal_phi term 0 must be [i, j, coeff] with 0 <= i, j <= 64"),
    ({"family": {"base": [[1, 0]] + [[0, 0]] * 1999, "perturbation": [[1, 0]]}}, VARY,
     "family field 'base' must be a list of 1 to 64 pairs"),
    ({"family": {"base": [[1, 0]], "perturbation": [[0, 0]] * 64 + [[1, 0]]}}, VARY,
     "family field 'perturbation' must be a list of 1 to 64 pairs"),
], ids=["huge_tolerance", "huge_pole", "huge_coefficient", "huge_phi", "inf_phi",
        "minus_inf_phi", "nan_phi", "bool_coefficient",
        "inf_coefficient", "inf_base_imag", "minus_inf_base", "nan_base",
        "inf_perturbation", "minus_inf_perturbation_imag", "nan_perturbation",
        "overflowing_f_prime", "zero_of_f_prime_inside",
        "huge_n_r", "huge_n_theta", "huge_n_patch", "huge_m_boundary", "huge_quad_nr_flag",
        "huge_quad_ntheta_flag", "n_r_above_ceiling", "quad_ntheta_flag_above_ceiling",
        "n_patch_above_ceiling", "m_boundary_above_ceiling", "converge_m_ladder",
        "huge_phi_exponent", "phi_exponent_above_ceiling",
        "long_base", "perturbation_above_ceiling"])
def test_rejects_numbers_the_program_cannot_handle(capsys, tmp_path, patch, argv, message):
    doc = dict(default_config(), **patch)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--config", write_config(tmp_path, doc))
    assert (code, out, err) == (2, "", f"config error: {message}\n")
    assert time.perf_counter() - start < 1.0


def test_over_ceiling_counts_are_refused_before_any_gauss_legendre_solve(
        capsys, tmp_path, monkeypatch):
    from greenvar import cli
    from greenvar import quadrature as quad_module

    solves, solve = [], quad_module._gauss_legendre
    monkeypatch.setattr(quad_module, "_gauss_legendre",
                        lambda *args: solves.append(args) or solve(*args))
    for patch in (quadrature(n_patch=512), quadrature(n_r=HUGE), quadrature(n_theta=2049)):
        path = write_config(tmp_path, dict(default_config(), **patch))
        assert run(capsys, "vary", "--config", path)[0] == 2
    assert solves == []
    # load lays out the level-0 patches; the ladder check solves nothing
    path = write_config(tmp_path, dict(default_config(), levels=3,
                                       **quadrature(m_boundary=2**20)))
    exp = load_experiment(_build_parser().parse_args(["converge", "--config", path]))
    solves.clear()
    with pytest.raises(ConfigError, match="converge level"):
        cli.run_convergence(exp)
    assert solves == []


@pytest.mark.parametrize("a, r", [(0.4999, "0.9998"), (0.48, "0.9600")])
def test_rejects_a_zero_of_f_prime_near_the_circle(capsys, tmp_path, a, r):
    # POLE_MARGIN holds for the zeros of f' as for the pole preimages: at a = 0.4999
    # the zero -1/(2a) sits 2e-4 outside the circle, and no boundary rule resolves it
    doc = dict(default_config(), family={"base": [[1, 0], [a, 0]],
                                         "perturbation": [[0, 0], [0.05, 0], [0.03, 0]],
                                         "t_max": 1e-4},
               poles={"a": [0.1, 0.05], "b": [-0.3, 0.2]})
    code, out, err = run(capsys, "vary", "--config", write_config(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err == ("config error: a zero of f' too close to the boundary: "
                   f"min(|c|, 1/|c|) = {r} > 0.95\n")


def test_rejects_bad_tolerance(capsys):
    code, _, err = run(capsys, "vary", "--tol-boundary", "-1")
    assert code == 2
    assert "--tol-boundary must be positive" in err


def test_rejects_bad_metric(capsys, tmp_path):
    doc = default_config()
    doc["metric"] = {"conformal_phi": [[1, 0.5, 0.2]]}
    code, _, err = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert "conformal_phi term 0" in err


def test_rejects_bad_levels(capsys, tmp_path):
    doc = default_config()
    doc["levels"] = 9
    code, _, err = run(capsys, "converge", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert "levels must be an integer in [1, 8]" in err


# ------------------------------------------------------------------- output

def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "vary", "--out", str(target))
    assert code == 0
    assert out == "" and err == ""
    doc = json.loads(target.read_text())
    assert doc["status"] == "pass"


def test_out_in_config(capsys, tmp_path):
    target = tmp_path / "report.json"
    doc = default_config()
    doc["out"] = str(target)
    code, out, _ = run(capsys, "vary", "--config", write_config(tmp_path, doc))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["status"] == "pass"


def test_unwritable_out_is_a_config_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "vary", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == ("config error: cannot write output: [Errno 2] No such file or "
                   f"directory: '{target}'\n")


def test_readme_config_schema_loads_and_is_echoed(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme[readme.index("### Config schema"):]
    doc = json.loads(re.search(r"```json\n(.*?)```", schema, re.S).group(1))
    path = write_config(tmp_path, doc)
    exp = load_experiment(_build_parser().parse_args(["vary", "--config", path]))
    assert exp.out == doc.pop("out")
    assert exp.config_echo() == doc
