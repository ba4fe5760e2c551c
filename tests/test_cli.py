"""Experiment runner: config validation, output formats, exit codes."""

import json

import numpy as np
import pytest

from greenvar.cli import (
    CSV_HEADER,
    _parse_metric,
    default_config,
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
    assert "quadrature 'n_r' must be an integer >= 4" in err


def test_rejects_bad_fd_step(capsys, tmp_path):
    doc = default_config()
    doc["fd_dt"] = 100.0
    code, _, err = run(capsys, "verify", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert "fd_dt must lie in (0, t_max" in err


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
