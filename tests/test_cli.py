"""Command line front end: configs, outputs, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qustat
from qustat import ValidationError, symmetrize_kernel
from qustat.cli import run
from qustat.serialize import matrix_to_json

STATE_75 = {"eigenvalues": [0.75, 0.25]}
# The CLI subprocess imports the same qustat package as the tests.
QUSTAT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(qustat.__file__)))


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def _run(tmp_path, config, seed_override=None):
    cfg = _write_config(tmp_path, config)
    out = tmp_path / "out"
    run(cfg, str(out), seed_override=seed_override)
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return out, result, manifest


def test_decompose_outputs(tmp_path):
    config = {
        "command": "decompose",
        "state": STATE_75,
        "kernel": {"preset": "sigma-zz"},
    }
    out, result, manifest = _run(tmp_path, config)
    assert result["theta"] == pytest.approx(0.25)
    assert result["c"] == 1
    assert [comp["l"] for comp in result["components"]] == [0, 1, 2]
    assert result["components"][1]["norm_sq"] == pytest.approx(0.1875)
    assert manifest["command"] == "decompose"
    assert manifest["seed"] == 0
    assert set(manifest["versions"]) == {"python", "numpy", "qustat"}
    csv = (out / "tables" / "components.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "l,norm_sq"


def test_moments_with_pair_scaling(tmp_path):
    config = {
        "command": "moments",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "n_list": [4, 6],
        "p_list": [2],
        "scaling": {"mode": "order2"},
    }
    out, result, _ = _run(tmp_path, config)
    assert result["c"] == 2
    rows = result["rows"]
    assert [row["n"] for row in rows] == [4, 6]
    for row in rows:
        n = row["n"]
        assert row["moment"] == pytest.approx(1.25 * (n - 1) / n, rel=1e-10)
        assert row["limit_moment"] == pytest.approx(1.25, rel=1e-10)
        assert row["scaling_exponent"] == 2
    csv = (out / "tables" / "moments.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "n,p,scaling_exponent,moment,limit_moment,abs_gap"


def test_limit_reports_polynomial_and_both_routes(tmp_path):
    config = {
        "command": "limit",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "p_list": [1, 2],
    }
    _, result, _ = _run(tmp_path, config)
    poly = result["polynomial"]
    assert poly["c"] == 2
    assert poly["binom_factor"] == 1
    assert poly["terms"] == [{"m": [0, 1, 1], "coeff": -1.0}]
    by_p = {row["p"]: row for row in result["moments"]}
    assert by_p[1]["wick"] == pytest.approx(0.0, abs=1e-12)
    assert by_p[2]["wick"] == pytest.approx(1.25, rel=1e-10)
    assert by_p[2]["abs_gap"] < 1e-6


def test_convergence_checks_variance_and_gaps(tmp_path):
    config = {
        "command": "convergence",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "n_list": [4, 6],
        "p_list": [2],
    }
    out, result, _ = _run(tmp_path, config)
    assert result["gap_monotonicity"] == [{"p": 2, "gaps_decreasing": True}]
    for row in result["variance_checks"]:
        assert row["rel_gap"] < 1e-9
    assert (out / "tables" / "variance.csv").exists()
    assert (out / "tables" / "moments.csv").exists()


def test_test_sim_with_fixed_interval(tmp_path):
    config = {
        "command": "test-sim",
        "state": STATE_75,
        "alpha": 0.05,
        "n_list": [4],
        "mc_replicates": 500,
        "limit_draws": 10000,
        "interval": [-1e9, 1e9],
    }
    out, result, _ = _run(tmp_path, config)
    assert result["alpha_hat"] == 0.0
    assert result["limit_moments"]["second_moment_gap"] == pytest.approx(2.25, rel=1e-9)
    csv = (out / "tables" / "test.csv").read_text(encoding="utf-8")
    header = csv.splitlines()[0]
    assert header == "n,alpha_hat,alpha_se,beta_hat,beta_se,interval_lo,interval_hi"


def test_metrology_from_matrix_config(tmp_path):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    kernel = symmetrize_kernel([sz, sx])
    config = {
        "command": "metrology",
        "state": {"matrix": matrix_to_json(np.array([[0.5, 0.5], [0.5, 0.5]]))},
        "kernel": {"matrix": matrix_to_json(kernel.op.entries), "d": 2, "r": 2},
        "n_list": [4],
        "t": 1.0,
        "g1": 0.5,
        "g2": 0.0,
    }
    out, result, _ = _run(tmp_path, config)
    assert result["limit"] == pytest.approx(float(np.exp(-0.03125)), rel=1e-12)
    assert abs(complex(result["overlap_re"], result["overlap_im"])) <= 1.0 + 1e-12
    csv = (out / "tables" / "metrology.csv").read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "n,overlap_re,overlap_im,limit,abs_gap"


def test_hermite_check_small_grid(tmp_path):
    config = {
        "command": "hermite-check",
        "max_order": 2,
        "sigma_sq_list": [1.0],
        "trunc": 64,
    }
    out, result, _ = _run(tmp_path, config)
    assert result["max_residual"] < 1e-8
    csv = (out / "tables" / "hermite.csv").read_text(encoding="utf-8")
    lines = csv.splitlines()
    assert lines[0] == "n,m,sigma_sq,max_residual"
    assert len(lines) == 1 + 6


def test_seed_override_lands_in_manifest(tmp_path):
    config = {
        "command": "decompose",
        "state": STATE_75,
        "kernel": {"preset": "sigma-zz"},
        "seed": 3,
    }
    _, _, manifest = _run(tmp_path, config)
    assert manifest["seed"] == 3
    _, _, overridden = _run(tmp_path, config, seed_override=7)
    assert overridden["seed"] == 7
    assert overridden["config_sha256"] != manifest["config_sha256"]


def test_missing_required_field_raises(tmp_path):
    config = {
        "command": "moments",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "p_list": [2],
    }
    cfg = _write_config(tmp_path, config)
    with pytest.raises(ValidationError):
        run(cfg, str(tmp_path / "out"))


def _run_cli(tmp_path, config):
    cfg = _write_config(tmp_path, config)
    out = tmp_path / "out"
    return subprocess.run(
        [sys.executable, "-m", "qustat.cli", "--config", cfg, "--out-dir", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [QUSTAT_ROOT, os.environ.get("PYTHONPATH")]))),
    )


def test_cli_success_exit_zero(tmp_path):
    proc = _run_cli(tmp_path, {
        "command": "decompose",
        "state": STATE_75,
        "kernel": {"preset": "sigma-zz"},
    })
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "result.json").exists()


def test_cli_schema_violation_exits_one(tmp_path):
    proc = _run_cli(tmp_path, {"command": "bogus"})
    assert proc.returncode == 1
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "ValidationError"
    assert payload["error"]["exit_code"] == 1


def test_cli_budget_violation_exits_two(tmp_path):
    proc = _run_cli(tmp_path, {
        "command": "moments",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "n_list": [8],
        "p_list": [2],
        "dim_budget": 16,
    })
    assert proc.returncode == 2
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "BudgetError"
    assert payload["error"]["exit_code"] == 2


def test_cli_tolerance_violation_exits_three(tmp_path):
    proc = _run_cli(tmp_path, {
        "command": "hermite-check",
        "max_order": 2,
        "sigma_sq_list": [1.0],
        "hermite_tol": 1e-30,
    })
    assert proc.returncode == 3
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "ToleranceError"
    assert payload["error"]["exit_code"] == 3
