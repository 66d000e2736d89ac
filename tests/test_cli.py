"""Command line front end: configs, outputs, exit codes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qustat
from qustat import (
    DensityMatrix, Kernel, ToleranceError, ValidationError, hermitize, metrology_overlap,
    run_test, symmetrize_kernel,
)
from qustat.cli import _load_kernel, main, run
from qustat.serialize import format_float, matrix_to_json

from oracles import kron_goodness_entries, kron_homogeneity_entries, kron_symmetrized_entries

STATE_75 = {"eigenvalues": [0.75, 0.25]}
# The CLI subprocess imports the same qustat package as the tests.
QUSTAT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(qustat.__file__)))


def _subprocess_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [QUSTAT_ROOT, os.environ.get("PYTHONPATH")])))


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def _run(tmp_path, config):
    cfg = _write_config(tmp_path, config)
    out = tmp_path / "out"
    run(cfg, str(out))
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


def test_convergence_builds_the_blocks_once_per_n(tmp_path, monkeypatch):
    """Every n, every moment order and the variance row share a single band stack."""
    import qustat.ustat

    calls = []
    original = qustat.ustat._spin_stack

    def counted(kernel, weights, n_list, budget=None):
        calls.append(list(n_list))
        return original(kernel, weights, n_list, budget)

    monkeypatch.setattr(qustat.ustat, "_spin_stack", counted)
    config = {
        "command": "convergence",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "n_list": [8, 4, 6],
        "p_list": [4, 2, 3],
    }
    _, result, _ = _run(tmp_path, config)
    assert calls == [[4, 6, 8]]
    assert [(row["p"], row["n"]) for row in result["rows"]] == [
        (p, n) for p in (2, 3, 4) for n in (4, 6, 8)
    ]
    assert [row["n"] for row in result["variance_checks"]] == [4, 6, 8]


def test_convergence_rotates_the_kernel_once_per_run(tmp_path, monkeypatch):
    """A non-diagonal state puts the kernel in its eigenframe once, not once per n."""
    from qustat.operators import Kernel

    calls = []
    original = Kernel.rotated

    def counted(self, u):
        calls.append(u)
        return original(self, u)

    monkeypatch.setattr(Kernel, "rotated", counted)
    config = {
        "command": "convergence",
        "state": {"eigenvalues": [0.75, 0.25], "rotation": {
            "dim": 2, "re": [[0.6, -0.8], [0.8, 0.6]], "im": [[0.0, 0.0], [0.0, 0.0]]}},
        "kernel": {"preset": "pauli-xy"},
        "n_list": [8, 4, 6],
        "p_list": [4, 2],
    }
    _, result, _ = _run(tmp_path, config)
    assert len(calls) == 1
    assert [row["n"] for row in result["variance_checks"]] == [4, 6, 8]
    assert all(row["rel_gap"] < 1e-9 for row in result["variance_checks"])


def test_only_the_kernel_and_its_limit_component_are_rotated(tmp_path, monkeypatch):
    """Traces contract sites against the state, so no trace rotates an operator."""
    import qustat.ccr
    import qustat.operators

    calls = []
    original = qustat.operators.rotate_sites

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (qustat.operators, qustat.ccr):
        monkeypatch.setattr(module, "rotate_sites", counted)
    rotated = {"eigenvalues": [0.75, 0.25], "rotation": {
        "dim": 2, "re": [[0.6, -0.8], [0.8, 0.6]], "im": [[0.0, 0.0], [0.0, 0.0]]}}
    pauli_xy = {"preset": "pauli-xy"}
    cases = [
        ({"command": "convergence", "state": rotated, "kernel": pauli_xy,
          "n_list": [4, 6], "p_list": [2]}, 2),
        ({"command": "decompose", "state": rotated, "kernel": pauli_xy}, 0),
        (_metrology_config(n_list=[4, 6]), 1),
    ]
    for i, (config, want) in enumerate(cases):
        calls.clear()
        (tmp_path / str(i)).mkdir()
        _run(tmp_path / str(i), config)
        assert len(calls) == want, config["command"]


def test_convergence_reaches_hundreds_of_sites(tmp_path):
    config = {
        "command": "convergence",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "n_list": [200],
        "p_list": [2],
    }
    _, result, _ = _run(tmp_path, config)
    (row,) = result["variance_checks"]
    assert row["rel_gap"] < 1e-9
    # n^2 Var(U_n) = n^2 xi_2 / C(n, 2), xi_2 = 0.625 for pauli-xy at diag(0.75, 0.25)
    (moment,) = result["rows"]
    assert moment["moment"] == pytest.approx(200 ** 2 * 0.625 / 19900, rel=1e-10)


def test_convergence_runs_at_a_thousand_sites(tmp_path):
    config = {
        "command": "convergence",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "n_list": [1000],
        "p_list": [2, 4],
    }
    _, result, _ = _run(tmp_path, config)
    (row,) = result["variance_checks"]
    assert row["rel_gap"] < 1e-9
    assert [(row["p"], row["n"]) for row in result["rows"]] == [(2, 1000), (4, 1000)]
    # E[(n (U_n - theta))^2] = n^2 xi_2 / C(n, 2) = 1.25 n / (n - 1)
    assert result["rows"][0]["moment"] == pytest.approx(1250.0 / 999.0, rel=1e-12)


def test_convergence_and_metrology_leave_scipy_unloaded(tmp_path):
    # scipy is not a dependency: the band engine and the dense eigh use numpy alone
    kernel = symmetrize_kernel([np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    configs = [
        {"command": "convergence", "state": STATE_75, "kernel": {"preset": "pauli-xy"},
         "n_list": [4, 40], "p_list": [2, 4]},
        {"command": "metrology", "state": {"matrix": matrix_to_json(np.full((2, 2), 0.5))},
         "kernel": {"matrix": matrix_to_json(kernel.op.entries), "d": 2, "r": 2},
         "n_list": [4, 40], "t": 1.0, "g1": 0.5, "g2": 0.0},
    ]
    for i, config in enumerate(configs):
        cfg = _write_config(tmp_path, config, name="config%d.json" % i)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from qustat.cli import run\n"
             "run(sys.argv[1], sys.argv[2])\n"
             "print('scipy' in sys.modules)",
             cfg, str(tmp_path / ("out%d" % i))],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"], config["command"]


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
    assert result["alpha_se"] == 0.0
    assert result["limit_moments"] == {
        "kernel_second_moment": pytest.approx(1.03125, rel=1e-10)
    }
    csv = (out / "tables" / "test.csv").read_text(encoding="utf-8")
    header = csv.splitlines()[0]
    assert header == "n,alpha_hat,alpha_se,beta_hat,beta_se,interval_lo,interval_hi"


def test_test_sim_builds_the_limit_law_once(tmp_path, monkeypatch):
    import qustat.apps

    calls = {"_limit_law": 0, "kernel_components": 0}
    for name in calls:
        original = getattr(qustat.apps, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(qustat.apps, name, counted)
    config = {
        "command": "test-sim",
        "state": STATE_75,
        "alpha": 0.05,
        "n_list": [10, 4, 8, 6, 4],
    }
    _, result, _ = _run(tmp_path, config)
    assert calls == {"_limit_law": 1, "kernel_components": 1}
    rows = result["results"]
    assert [r["n"] for r in rows] == [4, 6, 8, 10]
    assert len({r["interval"][1] for r in rows}) == 1


def test_test_sim_ignores_mc_replicates(tmp_path):
    config = {
        "command": "test-sim",
        "state": STATE_75,
        "alternative": {"eigenvalues": [0.6, 0.4]},
        "alpha": 0.05,
        "n_list": [4, 6],
        "limit_draws": 10000,
    }
    outputs = []
    for name, extra in (("without", {}), ("with", {"mc_replicates": 10 ** 4})):
        cfg = _write_config(tmp_path, dict(config, **extra), name="%s.json" % name)
        out = tmp_path / name
        run(cfg, str(out))
        outputs.append([
            (out / rel).read_bytes() for rel in ("result.json", "tables/test.csv")
        ])
    assert outputs[0] == outputs[1]


def test_test_sim_output_is_the_same_for_every_seed(tmp_path):
    config = {
        "command": "test-sim",
        "state": STATE_75,
        "alternative": {"eigenvalues": [0.6, 0.4]},
        "alpha": 0.05,
        "n_list": [4, 6, 8, 10],
    }
    variants = {
        "plain": {},
        "seeded": {"seed": 12345},
        "knobs": {"limit_draws": 10, "mc_replicates": 10, "seed": 99},
    }
    outputs = {}
    for name, extra in variants.items():
        cfg = _write_config(tmp_path, dict(config, **extra), name="%s.json" % name)
        out = tmp_path / name
        run(cfg, str(out))
        outputs[name] = [
            (out / rel).read_bytes() for rel in ("result.json", "tables/test.csv")
        ]
    assert all(files == outputs["plain"] for files in outputs.values())
    rows = json.loads(outputs["plain"][0])["results"]
    # the exact 0.95 quantile of the limit law at diag(0.75, 0.25)
    assert all(abs(r["interval"][1] - 2.1300147526) < 1e-9 for r in rows)
    # exact null rejection rates, unchanged from the sampled critical value
    # 2.1308534 since no atom of n U_n lies between the two
    expected = [0.05078125, 0.044189453125, 0.0322418212890625, 0.05147647857666016]
    for r, alpha_n in zip(rows, expected):
        assert r["alpha_hat"] == pytest.approx(alpha_n, rel=0.0, abs=1e-12)


def test_test_sim_runs_where_a_fixed_fock_truncation_fell_short(tmp_path):
    # the (0.3, 0.2) oscillator has thermal tail 5.4e-12 at truncation 64;
    # the exact law truncates each oscillator where its tail drops below 1e-12
    config = {
        "command": "test-sim",
        "state": {"eigenvalues": [0.5, 0.3, 0.2]},
        "alpha": 0.05,
        "n_list": [3],
    }
    _, result, _ = _run(tmp_path, config)
    assert 0.0 <= result["alpha_hat"] <= 1.0
    assert result["interval"][1] == pytest.approx(2.4285234821, abs=1e-9)


@pytest.mark.parametrize("eigenvalues, preset, p_list", [
    ([0.5, 0.3, 0.2], "goodness", [2, 3, 4]),
    ([0.55, 0.45], "pauli-xy", [2, 4]),
    ([0.505, 0.495], "pauli-xy", [2, 4]),
], ids=["goodness-0.5-0.3-0.2", "pauli-xy-0.55-0.45", "pauli-xy-0.505-0.495"])
def test_limit_runs_where_a_fixed_fock_truncation_fell_short(
    tmp_path, eigenvalues, preset, p_list
):
    # at 64 Fock levels the thermal tails of these states are 5.4e-12,
    # 2.6e-6 and 0.28; the route in normal order keeps no levels
    config = {
        "command": "limit",
        "state": {"eigenvalues": eigenvalues},
        "kernel": {"preset": preset},
        "p_list": p_list,
    }
    _, result, _ = _run(tmp_path, config)
    assert [row["p"] for row in result["moments"]] == p_list
    for row in result["moments"]:
        assert row["abs_gap"] <= 1e-12 * abs(row["wick"]), row


def test_hermite_check_keeps_the_levels_sigma_sq_needs(tmp_path):
    # 64 levels left a thermal tail of 4.4e-10 at sigma^2 = 3; no levels are kept now
    config = {"command": "hermite-check", "max_order": 4, "sigma_sq_list": [3.0]}
    out, result, _ = _run(tmp_path, config)
    assert result["max_residual"] < 1e-8
    lines = (out / "tables" / "hermite.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 15


def test_limit_computes_each_route_once_per_order(tmp_path, monkeypatch):
    import qustat.ccr

    calls = {"wick_moments": 0, "fock_moments": 0}
    for name in calls:
        original = getattr(qustat.ccr, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(qustat.ccr, name, counted)
    config = {
        "command": "limit",
        "state": STATE_75,
        "kernel": {"preset": "goodness"},
        "p_list": [2, 4, 6],
    }
    _, result, _ = _run(tmp_path, config)
    assert calls == {"wick_moments": 1, "fock_moments": 1}
    assert [row["p"] for row in result["moments"]] == [2, 4, 6]


def test_limit_reaches_moment_order_ten(tmp_path):
    from qustat.ccr import ROUTE_AGREEMENT_RTOL

    # the goodness orders exceeded MAX_POLY_TERMS while the Fock route expanded L^p
    for state, preset, p_list in (
        (STATE_75, "pauli-xy", [8, 10]),
        (STATE_75, "goodness", [12]),
        ({"eigenvalues": [0.5, 0.3, 0.2]}, "goodness", [6]),
    ):
        config = {"command": "limit", "state": state, "kernel": {"preset": preset}, "p_list": p_list}
        case = tmp_path / ("%s-%d" % (preset, p_list[0]))
        case.mkdir()
        _, result, _ = _run(case, config)
        assert [row["p"] for row in result["moments"]] == p_list
        for row in result["moments"]:
            assert abs(row["wick"] - row["fock"]) <= ROUTE_AGREEMENT_RTOL * abs(row["wick"])


@pytest.mark.parametrize("command", ["convergence", "moments"])
@pytest.mark.parametrize("state, preset, n_list", [
    (STATE_75, "pauli-xy", [4, 6]),
    ({"eigenvalues": [0.5, 0.3, 0.2]}, "goodness", [2, 3]),
], ids=["pauli-xy-qubit", "goodness-qutrit"])
def test_eigenvalue_given_states_run_without_an_eigensolver(
        tmp_path, monkeypatch, command, state, preset, n_list):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    config = {
        "command": command,
        "state": state,
        "kernel": {"preset": preset},
        "n_list": n_list,
        "p_list": [2, 4],
    }
    _, result, _ = _run(tmp_path, config)
    assert len(result["rows"]) == 4


def test_test_sim_reaches_hundreds_of_sites(tmp_path):
    config = {
        "command": "test-sim",
        "state": STATE_75,
        "alternative": {"eigenvalues": [0.9, 0.1]},
        "alpha": 0.05,
        "n_list": [200],
    }
    _, result, _ = _run(tmp_path, config)
    # the smallest atom of n U_n is -0.875 - 1.875 / (n - 1) at diag(0.75, 0.25)
    assert result["interval"][0] == pytest.approx(-0.875 - 1.875 / 199, rel=0.0, abs=1e-15)
    assert result["alpha_hat"] == pytest.approx(0.049213, abs=5e-6)
    assert result["beta_hat"] == pytest.approx(0.001229, abs=5e-6)


@pytest.mark.parametrize("command", ["test-sim", "metrology"])
def test_test_sim_writes_the_same_bytes_under_one_and_two_blas_threads(tmp_path, command):
    if command == "test-sim":
        config = {"command": "test-sim", "state": STATE_75,
                  "alternative": {"eigenvalues": [0.6, 0.4]}, "alpha": 0.05, "n_list": [400]}
    else:
        config = _metrology_config(n_list=[4, 6, 8, 10, 50, 200, 400])
    cfg = _write_config(tmp_path, config)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / ("out" + threads)
        proc = subprocess.run(
            [sys.executable, "-m", "qustat.cli", "--config", cfg, "--out-dir", str(out),
             "--threads", threads],
            capture_output=True, text=True, env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        tables = sorted((out / "tables").glob("*.csv"))
        assert tables
        outputs.append([(out / "result.json").read_bytes()] + [t.read_bytes() for t in tables])
    assert outputs[0] == outputs[1]


def test_metrology_reaches_a_thousand_sites(tmp_path):
    kernel = symmetrize_kernel([np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    config = {
        "command": "metrology",
        "state": {"matrix": matrix_to_json(np.array([[0.5, 0.5], [0.5, 0.5]]))},
        "kernel": {"matrix": matrix_to_json(kernel.op.entries), "d": 2, "r": 2},
        "n_list": [100, 1000],
        "t": 1.0,
        "g1": 0.5,
        "g2": 0.0,
    }
    _, result, _ = _run(tmp_path, config)
    gaps = []
    for row in result["results"]:
        overlap = complex(row["overlap_re"], row["overlap_im"])
        assert abs(overlap) <= 1.0 + 1e-12
        gaps.append(abs(overlap - row["limit"]))
    assert gaps[1] < gaps[0] and gaps[1] < 1e-4, gaps


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
    }
    out, result, _ = _run(tmp_path, config)
    assert result["max_residual"] < 1e-8
    csv = (out / "tables" / "hermite.csv").read_text(encoding="utf-8")
    lines = csv.splitlines()
    assert lines[0] == "n,m,sigma_sq,max_residual"
    assert len(lines) == 1 + 6


def test_config_seed_lands_in_manifest(tmp_path):
    config = {
        "command": "decompose",
        "state": STATE_75,
        "kernel": {"preset": "sigma-zz"},
    }
    _, _, default = _run(tmp_path, config)
    assert default["seed"] == 0
    _, _, seeded = _run(tmp_path, dict(config, seed=3))
    assert seeded["seed"] == 3
    assert seeded["config_sha256"] != default["config_sha256"]


def test_rerun_replaces_its_output_files(tmp_path):
    """A second run writes new files; a hard link to the first run's keeps its bytes."""
    out = tmp_path / "out"
    config_a = {"command": "decompose", "state": STATE_75, "kernel": {"preset": "sigma-zz"}}
    config_b = dict(config_a, kernel={"preset": "pauli-xy"})
    run(_write_config(tmp_path, config_a, "a.json"), str(out))
    run(_write_config(tmp_path, config_b, "b.json"), str(tmp_path / "fresh"))
    bytes_a = (out / "result.json").read_bytes()
    bytes_b = (tmp_path / "fresh" / "result.json").read_bytes()
    assert bytes_a != bytes_b
    os.link(out / "result.json", tmp_path / "kept.json")
    run(_write_config(tmp_path, config_b, "b.json"), str(out))
    assert (tmp_path / "kept.json").read_bytes() == bytes_a
    assert (out / "result.json").read_bytes() == bytes_b


def test_a_second_command_leaves_only_its_own_tables(tmp_path):
    out = tmp_path / "out"
    convergence = {
        "command": "convergence",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "n_list": [4],
        "p_list": [2],
    }
    run(_write_config(tmp_path, convergence, "a.json"), str(out))
    assert sorted(p.name for p in (out / "tables").iterdir()) == ["moments.csv", "variance.csv"]
    (out / "tables" / "notes.txt").write_text("kept", encoding="utf-8")
    hermite = {"command": "hermite-check", "max_order": 2, "sigma_sq_list": [1.0]}
    run(_write_config(tmp_path, hermite, "b.json"), str(out))
    assert sorted(p.name for p in (out / "tables").iterdir()) == ["hermite.csv", "notes.txt"]


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _metrology_config(**fields):
    """S[sz sx] on |+> at n = 4, as in test_metrology_from_matrix_config, with fields replaced."""
    kernel = symmetrize_kernel([np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    config = {
        "command": "metrology",
        "state": {"matrix": matrix_to_json(np.array([[0.5, 0.5], [0.5, 0.5]]))},
        "kernel": {"matrix": matrix_to_json(kernel.op.entries), "d": 2, "r": 2},
        "n_list": [4],
        "t": 1.0,
        "g1": 0.5,
        "g2": 0.0,
    }
    return dict(config, **fields)


def test_a_failed_run_leaves_the_previous_outputs_intact(tmp_path, monkeypatch):
    """A run that fails, in its numerics or in serializing, touches no file of the run before it."""
    out = tmp_path / "out"
    convergence = {
        "command": "convergence",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        "n_list": [4, 6],
        "p_list": [2],
    }
    run(_write_config(tmp_path, convergence, "a.json"), str(out))
    before = _tree_bytes(out)
    assert sorted(before) == ["manifest.json", "result.json", "tables/moments.csv",
                              "tables/variance.csv"]
    # schema-valid, but the imprint difference overflows the phases
    metrology = _metrology_config(g1=1e308, g2=-1e308)
    with pytest.raises(ValidationError, match="metrology phases are not finite"):
        run(_write_config(tmp_path, metrology, "b.json"), str(out))
    assert _tree_bytes(out) == before
    # a nan that reaches the serializer fails there, before any file is touched
    monkeypatch.setattr("qustat.apps.metrology_overlap", lambda *args, **kwargs: [
        {"n": 4, "overlap_re": float("nan"), "overlap_im": 0.0, "limit": 1.0}])
    with pytest.raises(ValidationError, match="non-finite value in output"):
        run(_write_config(tmp_path, _metrology_config(), "c.json"), str(out))
    assert _tree_bytes(out) == before


@pytest.mark.parametrize("literal", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_nan_and_infinity_configs_are_not_valid_json(tmp_path, literal):
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("kept", encoding="utf-8")
    proc = _run_cli(tmp_path, _metrology_config(t=literal))
    # json.dumps writes the non-standard literals NaN, Infinity and -Infinity
    text = (tmp_path / "config.json").read_text(encoding="utf-8")
    assert '"t": %s,' % json.dumps(literal) in text
    assert proc.returncode == 1
    payload = json.loads(proc.stderr)
    assert payload["error"]["kind"] == "ValidationError"
    assert payload["error"]["message"].startswith("config is not valid JSON: ")
    assert json.dumps(literal) in payload["error"]["message"]
    assert _tree_bytes(out) == {"kept.txt": b"kept"}


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
        env=_subprocess_env(),
    )


def test_a_valid_run_leaves_jsonschema_unloaded(tmp_path):
    # a valid run, a rejected config, a usage error and --help load neither
    # jsonschema nor click: `_conforms` and argparse are the only checks
    valid = _write_config(tmp_path, _metrology_config(), "valid.json")
    rejected = _write_config(tmp_path, dict(_metrology_config(), extra=1), "rejected.json")
    out = str(tmp_path / "out")
    cases = {
        "valid run": (["--config", valid, "--out-dir", out], 0),
        "rejected config": (["--config", rejected, "--out-dir", out], 1),
        "usage error": (["--config", valid, "--threads", "0"], 1),
        "help": (["--help"], 0),
    }
    for name, (args, code) in cases.items():
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qustat.cli\n"
             "try:\n    qustat.cli.main(sys.argv[1:])\n"
             "except SystemExit as exc:\n"
             "    print(exc.code, 'jsonschema' in sys.modules, 'click' in sys.modules)", *args],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
        )
        assert proc.stdout.split()[-3:] == [str(code), "False", "False"], (name, proc.stderr)
    assert (tmp_path / "out" / "result.json").exists()


def test_cli_import_leaves_numpy_unloaded():
    # the CLI sets BLAS thread counts before numpy loads
    modules = ("numpy", "jsonschema", "click", "hashlib")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qustat.cli; print(*[m in sys.modules for m in %r])" % (modules,)],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * len(modules)


def test_config_schema_is_draft_07():
    from jsonschema import Draft7Validator
    from jsonschema.validators import validator_for

    import qustat.cli

    assert validator_for(qustat.cli.CONFIG_SCHEMA) is Draft7Validator
    Draft7Validator.check_schema(qustat.cli.CONFIG_SCHEMA)


_VALID = {
    "command": "convergence",
    "state": STATE_75,
    "kernel": {"preset": "pauli-xy"},
    "n_list": [4, 6],
    "p_list": [2, 4],
}
_MATRIX_2 = {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}

# Each invalid config, and the message `run` rejects it with.
REJECTIONS = [
    ([],
     "config: [] is not of type 'object'"),
    ("convergence",
     "config: 'convergence' is not of type 'object'"),
    (None,
     "config: None is not of type 'object'"),
    ({},
     "config: 'command' is a required property"),
    ({"command": "bogus"},
     "config.command: 'bogus' is not one of ['decompose', 'moments', 'limit', "
     "'convergence', 'test-sim', 'metrology', 'hermite-check']"),
    ({"command": 3},
     "config.command: 3 is not of type 'string'"),
    ({"command": "hermite-check", "trunc": 64},
     "config: Additional properties are not allowed ('trunc' was unexpected)"),
    (dict(_VALID, extra=1),
     "config: Additional properties are not allowed ('extra' was unexpected)"),
    (dict(_VALID, n_list=[]),
     'config.n_list: [] should be non-empty'),
    (dict(_VALID, n_list=[0]),
     'config.n_list[0]: 0 is less than the minimum of 1'),
    (dict(_VALID, n_list="4"),
     "config.n_list: '4' is not of type 'array'"),
    (dict(_VALID, n_list=[4.5]),
     "config.n_list[0]: 4.5 is not of type 'integer'"),
    (dict(_VALID, p_list=[True]),
     "config.p_list[0]: True is not of type 'integer'"),
    (dict(_VALID, seed=-1),
     'config.seed: -1 is less than the minimum of 0'),
    (dict(_VALID, seed=1.5),
     "config.seed: 1.5 is not of type 'integer'"),
    (dict(_VALID, alpha=0),
     'config.alpha: 0 is less than or equal to the minimum of 0'),
    (dict(_VALID, alpha=1),
     'config.alpha: 1 is greater than or equal to the maximum of 1'),
    (dict(_VALID, alpha=1.5),
     'config.alpha: 1.5 is greater than or equal to the maximum of 1'),
    (dict(_VALID, alpha="0.05"),
     "config.alpha: '0.05' is not of type 'number'"),
    (dict(_VALID, interval=[0.1]),
     'config.interval: [0.1] is too short'),
    (dict(_VALID, interval=[0.1, 0.2, 0.3]),
     'config.interval: [0.1, 0.2, 0.3] is too long'),
    (dict(_VALID, interval=[0.1, "x"]),
     "config.interval[1]: 'x' is not of type 'number'"),
    (dict(_VALID, hermite_tol=0),
     'config.hermite_tol: 0 is less than or equal to the minimum of 0'),
    (dict(_VALID, dim_budget=1),
     'config.dim_budget: 1 is less than the minimum of 2'),
    (dict(_VALID, max_order=-1),
     'config.max_order: -1 is less than the minimum of 0'),
    (dict(_VALID, sigma_sq_list=[]),
     'config.sigma_sq_list: [] should be non-empty'),
    (dict(_VALID, t="1"),
     "config.t: '1' is not of type 'number'"),
    (dict(_VALID, state="diag"),
     "config.state: 'diag' is not of type 'object'"),
    (dict(_VALID, state={"eigenvalues": []}),
     'config.state.eigenvalues: [] should be non-empty'),
    (dict(_VALID, state={"eigenvalues": [0.75, 0.25], "spin": 1}),
     "config.state: Additional properties are not allowed ('spin' was unexpected)"),
    (dict(_VALID, state={"matrix": dict(_MATRIX_2, dim=0)}),
     'config.state.matrix.dim: 0 is less than the minimum of 1'),
    (dict(_VALID, state={"matrix": {"dim": 2, "re": [[1, 0], [0, 0]]}}),
     "config.state.matrix: 'im' is a required property"),
    (dict(_VALID, alternative={"eigenvalues": "x"}),
     "config.alternative.eigenvalues: 'x' is not of type 'array'"),
    (dict(_VALID, kernel={"preset": "pauli-zz"}),
     "config.kernel.preset: 'pauli-zz' is not one of ['pauli-xy', 'pauli-xx-yy', "
     "'sigma-zz', 'goodness', 'homogeneity']"),
    (dict(_VALID, kernel={"d": 1, "r": 2}),
     'config.kernel.d: 1 is less than the minimum of 2'),
    (dict(_VALID, kernel={"matrix": dict(_MATRIX_2, im=[["0"]]), "d": 2, "r": 1}),
     "config.kernel.matrix.im[0][0]: '0' is not of type 'number'"),
    (dict(_VALID, scaling={"exponent": 2}),
     "config.scaling: 'mode' is a required property"),
    (dict(_VALID, scaling={"mode": "linear"}),
     "config.scaling.mode: 'linear' is not one of ['power', 'order2']"),
    (dict(_VALID, scaling={"mode": "power", "exponent": -1}),
     "config.scaling: Additional properties are not allowed ('exponent' was unexpected)"),
    (dict(_VALID, scaling={"mode": "power", "scale": 2}),
     "config.scaling: Additional properties are not allowed ('scale' was unexpected)"),
    (dict(_VALID, command="moments", n_list=[0], p_list=[], seed=-1, extra=1),
     "config: Additional properties are not allowed ('extra' was unexpected)"),
]
INVALID_CONFIGS = [config for config, _ in REJECTIONS]


@pytest.mark.parametrize("config", INVALID_CONFIGS)
def test_rejection_messages_match_draft_2020_12(config):
    from jsonschema import Draft7Validator, Draft202012Validator

    import qustat.cli

    errors = {(tuple(error.absolute_path), error.message)
              for error in Draft7Validator(qustat.cli.CONFIG_SCHEMA).iter_errors(config)}
    assert errors and not Draft202012Validator(qustat.cli.CONFIG_SCHEMA).is_valid(config)
    with pytest.raises(qustat.cli._Violation) as exc:
        qustat.cli._conforms(config, qustat.cli.CONFIG_SCHEMA)
    # our key path and phrase are those of one of jsonschema's errors
    assert (exc.value.args[:0:-1], exc.value.args[0]) in errors


@pytest.mark.parametrize("config", INVALID_CONFIGS)
def test_run_words_each_rejection_as_jsonschema_does(tmp_path, config):
    message = REJECTIONS[INVALID_CONFIGS.index(config)][1]
    with pytest.raises(ValidationError) as exc:
        run(_write_config(tmp_path, config), str(tmp_path / "out"))
    assert str(exc.value) == "config rejected: " + message
    assert not (tmp_path / "out").exists()


# The keywords `cli._conforms` reads, by the type of the subschema.
_CONFORMS_KEYWORDS = {
    "integer": {"minimum", "exclusiveMinimum", "exclusiveMaximum"},
    "number": {"minimum", "exclusiveMinimum", "exclusiveMaximum"},
    "string": {"enum"},
    "array": {"items", "minItems", "maxItems"},
    "object": {"properties", "additionalProperties", "required"},
}


def test_conforms_reads_every_keyword_of_the_config_schema():
    import qustat.cli

    def walk(schema):
        assert schema["type"] in _CONFORMS_KEYWORDS, schema
        assert set(schema) - {"type"} <= _CONFORMS_KEYWORDS[schema["type"]], schema
        # every array gives its items, and every object its properties and no other
        if schema["type"] == "array":
            assert "items" in schema, schema
        if schema["type"] == "object":
            assert "properties" in schema and schema["additionalProperties"] is False, schema
        for bound in ("minimum", "exclusiveMinimum", "exclusiveMaximum"):
            assert type(schema.get(bound, 0)) in (int, float)
        if "items" in schema:
            walk(schema["items"])
        for sub in schema.get("properties", {}).values():
            walk(sub)

    schema = dict(qustat.cli.CONFIG_SCHEMA)
    assert schema.pop("$schema") == "http://json-schema.org/draft-07/schema#"
    walk(schema)


_CORPUS_BASES = [
    _VALID,
    {"command": "test-sim", "state": {"eigenvalues": [0.74, 0.26]},
     "alternative": {"eigenvalues": [0.59, 0.41]}, "alpha": 0.05, "n_list": [4, 6, 8, 10],
     "mc_replicates": 10 ** 4, "limit_draws": 10 ** 6, "seed": 7, "interval": [-1.5, 2.5]},
    {"command": "metrology",
     "state": {"matrix": {"dim": 2, "re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 0], [0, 0]]}},
     "kernel": {"d": 2, "r": 2, "matrix": {
         "dim": 4,
         "re": [[0, 0.5, 0.5, 0], [0.5, 0, 0, -0.5], [0.5, 0, 0, -0.5], [0, -0.5, -0.5, 0]],
         "im": [[0.0] * 4] * 4}},
     "n_list": [4, 6, 8, 10], "t": 1.0, "g1": 0.5, "g2": 0.0, "seed": 3, "dim_budget": 4096},
    {"command": "moments", "state": {"eigenvalues": [0.7, 0.3], "rotation": _MATRIX_2},
     "kernel": {"preset": "homogeneity", "d": 2}, "n_list": [3], "p_list": [2],
     "scaling": {"mode": "power"}},
    {"command": "hermite-check", "max_order": 4, "sigma_sq_list": [0.75, 2.0],
     "hermite_tol": 1e-8},
]
_MUTANTS = [True, False, None, 0, 1, -1, 2, 4, 4.0, 4.5, -0.0, 0.05, 1e308, -1e308,
            "x", "4", "pauli-xy", "power", [], [1], [0.5, 0.5], [[1.0]], {}, {"mode": "order2"}]


def _mutate(rng, config):
    """config with one node replaced, removed, grown or emptied; config itself is kept."""
    config = json.loads(json.dumps(config))
    slots = [(None, None)]
    stack = [config] if isinstance(config, (dict, list)) else []
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    parent, key = rng.choice(slots)
    if parent is None:
        return rng.choice(_MUTANTS)
    value, action = parent[key], rng.randrange(4)
    if action == 0:
        parent[key] = rng.choice(_MUTANTS)
    elif action == 1 and isinstance(parent, dict):
        del parent[key]
    elif action == 1:
        parent.append(value)
    elif action == 2 and isinstance(value, (dict, list)):
        value.clear()
    elif action == 2 and isinstance(parent, dict):
        name = rng.choice(sorted(qustat.cli.CONFIG_SCHEMA["properties"]) + ["extra"])
        parent[name] = rng.choice(_MUTANTS)
    else:
        parent[key] = rng.choice([value, rng.choice(_MUTANTS)])
    return config


def test_conforms_agrees_with_draft_07_on_mutated_configs():
    import random

    from jsonschema import Draft7Validator

    import qustat.cli

    validator = Draft7Validator(qustat.cli.CONFIG_SCHEMA)
    rng = random.Random(2024)
    verdicts = []
    for i in range(6000):
        config = _CORPUS_BASES[i % len(_CORPUS_BASES)]
        for _ in range(rng.randrange(4)):
            config = _mutate(rng, config)
        errors = {(tuple(error.absolute_path), error.message)
                  for error in validator.iter_errors(config)}
        try:
            checked = qustat.cli._conforms(config, qustat.cli.CONFIG_SCHEMA)
        except qustat.cli._Violation as exc:
            # the key path and phrase of one of draft-07's errors
            assert (exc.args[:0:-1], exc.args[0]) in errors, config
        else:
            assert not errors and checked == config, config
        verdicts.append(not errors)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_conforms_turns_integral_floats_into_ints_only_where_the_schema_says_integer():
    import qustat.cli

    config = {"command": "metrology", "n_list": [4.0, 6], "t": 2.0, "seed": 3.0,
              "kernel": {"preset": "homogeneity", "d": 2.0}}
    checked = qustat.cli._conforms(config, qustat.cli.CONFIG_SCHEMA)
    assert checked == config
    assert [type(n) for n in checked["n_list"]] == [int, int]
    assert type(checked["seed"]) is int and type(checked["kernel"]["d"]) is int
    assert type(checked["t"]) is float
    # the config read from the file is left as it was
    assert type(config["n_list"][0]) is float and type(config["kernel"]["d"]) is float


_HOMOGENEITY_STATE = {"eigenvalues": [0.3, 0.25, 0.25, 0.2]}


@pytest.mark.parametrize("config, twin", [
    ({"command": "moments", "state": STATE_75, "kernel": {"preset": "pauli-xy"},
      "n_list": [4.0], "p_list": [2]}, {"n_list": [4]}),
    ({"command": "moments", "state": STATE_75, "kernel": {"preset": "pauli-xy"},
      "n_list": [4], "p_list": [2.0]}, {"p_list": [2]}),
    ({"command": "hermite-check", "max_order": 2.0}, {"max_order": 2}),
    ({"command": "decompose", "state": _HOMOGENEITY_STATE,
      "kernel": {"preset": "homogeneity", "d": 2.0}}, {"kernel": {"preset": "homogeneity", "d": 2}}),
    ({"command": "test-sim", "state": STATE_75, "alpha": 0.05, "n_list": [4.0]}, {"n_list": [4]}),
], ids=["moments-n", "moments-p", "hermite-check", "decompose", "test-sim"])
def test_an_integral_float_count_runs_as_its_integer_twin(tmp_path, config, twin):
    trees = []
    for name, cfg in (("float", config), ("int", dict(config, **twin))):
        out = tmp_path / name
        with pytest.raises(SystemExit) as exc:
            main(["--config", _write_config(tmp_path, cfg, name + ".json"), "--out-dir", str(out)])
        assert exc.value.code == 0
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]


def _table(out, name):
    """The rows of tables/<name>.csv as {column: cell text}."""
    header, *lines = (out / "tables" / (name + ".csv")).read_text(encoding="utf-8").splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _assert_row_is_record(row, record, derived=()):
    """Each cell is format_float of the record's value, nan for a null; derived columns aside."""
    for column, cell in row.items():
        if column not in derived:
            value = record[column]
            assert cell == ("nan" if value is None else format_float(value)), column


@pytest.mark.parametrize("alternative", [None, {"eigenvalues": [0.6, 0.4]}])
def test_test_sim_table_rows_are_its_result_records(tmp_path, alternative):
    config = {"command": "test-sim", "state": STATE_75, "alpha": 0.05, "n_list": [4, 6]}
    if alternative is not None:
        config["alternative"] = alternative
    out, result, _ = _run(tmp_path, config)
    rows, records = _table(out, "test"), result["results"]
    assert len(rows) == len(records) == 2
    for row, record in zip(rows, records):
        _assert_row_is_record(row, record, derived={"interval_lo", "interval_hi"})
        assert [row["interval_lo"], row["interval_hi"]] == [format_float(x) for x in record["interval"]]
        assert (record["beta_hat"] is None) is (alternative is None)


def test_metrology_table_rows_are_its_result_records(tmp_path):
    # S[sz sx] + sz sz on |+> has overlaps off the real axis
    sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    matrix = symmetrize_kernel([sz, sx]).op.entries + np.kron(sz, sz)
    kernel = {"matrix": matrix_to_json(matrix), "d": 2, "r": 2}
    out, result, _ = _run(tmp_path, _metrology_config(kernel=kernel, n_list=[4, 6]))
    rows, records = _table(out, "metrology"), result["results"]
    assert len(rows) == len(records) == 2
    for row, record in zip(rows, records):
        _assert_row_is_record(row, record, derived={"abs_gap"})
        overlap = complex(record["overlap_re"], record["overlap_im"])
        assert abs(overlap.imag) > 1e-3
        assert row["abs_gap"] == format_float(abs(overlap - record["limit"]))


def test_decompose_table_rows_are_its_result_records(tmp_path):
    config = {"command": "decompose", "state": _HOMOGENEITY_STATE,
              "kernel": {"preset": "homogeneity", "d": 2}}
    out, result, _ = _run(tmp_path, config)
    rows, records = _table(out, "components"), result["components"]
    assert len(rows) == len(records) == 3
    for row, record in zip(rows, records):
        _assert_row_is_record(row, record)


@pytest.mark.parametrize("n_list", [[6], [4, 6]], ids=["one-n", "several-n"])
def test_run_test_and_metrology_overlap_return_the_result_json_records(tmp_path, n_list):
    """The apps' records are what result.json holds: the record itself for one n."""
    def written(name, config):
        (tmp_path / name).mkdir()
        return _run(tmp_path / name, config)[1]

    def document(records):
        return records[0] if len(records) == 1 else {"results": records}

    null, alternative = DensityMatrix.from_eigenvalues([0.75, 0.25]), [0.6, 0.4]
    config = {"command": "test-sim", "state": STATE_75, "alpha": 0.05, "n_list": n_list}
    records = run_test(null, 0.05, n_list, alternative=DensityMatrix.from_eigenvalues(alternative))
    assert document(records) == written("test", dict(config, alternative={"eigenvalues": alternative}))
    records = run_test(null, 0.1, n_list, interval=(-0.5, 1.5))
    assert document(records) == written("interval", dict(config, alpha=0.1, interval=[-0.5, 1.5]))
    # S[sz sx] + sz sz on |+> has overlaps off the real axis
    sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    matrix = symmetrize_kernel([sz, sx]).op.entries + np.kron(sz, sz)
    config = _metrology_config(kernel={"matrix": matrix_to_json(matrix), "d": 2, "r": 2},
                               n_list=n_list, t=1.3, g2=-0.2)
    plus = DensityMatrix.from_matrix(np.full((2, 2), 0.5))
    records = metrology_overlap(Kernel(2, 2, hermitize(matrix)), plus, 1.3, 0.5, -0.2, n_list)
    assert document(records) == written("metrology", config)


def test_package_names_resolve_lazily():
    for name in qustat.__all__:
        assert getattr(qustat, name) is not None
    assert qustat.ustat.centered_moments is qustat.centered_moments
    assert set(qustat.__all__) <= set(dir(qustat))
    with pytest.raises(AttributeError):
        qustat.no_such_name


def test_public_names_are_pinned():
    assert qustat.__all__ == [
        "BudgetError", "CCRBasis", "DegeneracyReport", "DensityMatrix",
        "ExpansionBudgetError", "FluctuationForm", "FluctuationTerm",
        "HermitianOperator", "HoeffdingComponent", "Kernel", "LimitPolynomial",
        "QuStatError", "SiteSubset", "ToleranceError", "UStatistic", "ValidationError",
        "assemble_direct", "assemble_fluctuation", "build_ccr_basis", "centered_moments",
        "cond_expectation", "embed", "finite_law", "fluctuation_form", "fock_moments",
        "goodness_kernel", "hermite_orthogonality_check", "hermitize",
        "hoeffding_project", "homogeneity_kernel", "kernel_components",
        "kernel_to_limit", "limit_moment", "limit_to_poly", "matrix_from_json",
        "matrix_to_json", "metrology_overlap", "quasifree_moment_wick", "run_test",
        "state_covariance", "symmetrize", "symmetrize_kernel", "variance_exact",
        "variance_formula",
    ]


def _random_number_uses(source):
    """The lines of source that import `random` or `numpy.random`, or name them or default_rng."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [
                "%s.%s" % (node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr] if node.attr == "default_rng" else []
            if (node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                names.append("numpy.random")
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if any(name in ("random", "numpy.random", "default_rng")
               or name.startswith(("random.", "numpy.random.")) for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_source_module_draws_random_numbers():
    """No command draws random numbers, so the package neither imports nor calls a generator."""
    assert _random_number_uses("import numpy as np\nrng = np.random.default_rng(0)\n") == [2, 2]
    assert _random_number_uses("import random\nfrom numpy.random import default_rng\n") == [1, 2]
    assert _random_number_uses("from numpy import random\n") == [1]
    sources = sorted(Path(qustat.__file__).parent.glob("*.py"))
    assert {"apps.py", "ustat.py"} <= {path.name for path in sources}
    found = {path.name: _random_number_uses(path.read_text(encoding="utf-8")) for path in sources}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_export_table_names_are_defined_where_listed():
    import importlib

    listed = []
    for module, names in qustat._EXPORTS.items():
        mod = importlib.import_module("qustat." + module)
        for name in names:
            assert name in vars(mod), "qustat.%s does not define %s" % (module, name)
            obj = qustat.__getattr__(name)
            assert obj is vars(mod)[name]
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name
            listed.append(name)
    assert sorted(listed) == qustat.__all__


def test_main_runs_in_process(tmp_path):
    cfg = _write_config(tmp_path, {
        "command": "decompose",
        "state": STATE_75,
        "kernel": {"preset": "sigma-zz"},
    })
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "--out-dir", str(out)])
    assert exc.value.code == 0
    assert (out / "result.json").exists()


def test_main_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"command": "decompose\xff"}')
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "ValidationError"
    assert error["message"].startswith("config is not valid JSON: ")
    assert "can't decode byte 0xff" in error["message"]
    assert not (tmp_path / "out").exists()


def test_main_reports_a_failed_allocation_as_a_budget_error(tmp_path, capsys, monkeypatch):
    """An allocation numpy cannot make exits 2 with one JSON error line, not a traceback."""
    import qustat.ustat

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.49 TiB for an array with shape (10001, 10001)")

    monkeypatch.setattr(qustat.ustat, "centered_moments", exhausted)
    cfg = _write_config(tmp_path, {"command": "moments", "state": STATE_75,
                                   "kernel": {"preset": "pauli-xy"}, "n_list": [10000],
                                   "p_list": [2]})
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {
        "kind": "BudgetError",
        "message": "out of memory: Unable to allocate 1.49 TiB for an array with shape "
                   "(10001, 10001)",
        "exit_code": 2,
    }
    assert not (tmp_path / "out").exists()


def test_main_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: qustat ")
    assert "Run one experiment from a JSON config." in text
    assert "--config FILE" in text


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


@pytest.mark.parametrize("args, option", [
    (["--config", "no-such-config.json", "--out-dir", "out"], "--config"),
    (["--config", "config.json", "--threads", "0", "--out-dir", "out"], "--threads"),
    (["--config", "config.json", "--out-dir", "config.json"], "--out-dir"),
    (["--config", ".", "--out-dir", "out"], "--config"),
    (["--conf", "config.json", "--out-dir", "out"], "--config"),
], ids=["missing-config", "zero-threads", "out-dir-is-a-file", "config-is-a-directory",
        "abbreviated-option"])
def test_cli_usage_errors_exit_one_with_a_json_line(tmp_path, args, option):
    _write_config(tmp_path, {"command": "decompose"})
    proc = subprocess.run(
        [sys.executable, "-m", "qustat.cli", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_subprocess_env(),
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"]["kind"] == "ValidationError"
    assert payload["error"]["exit_code"] == 1
    assert option in payload["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_cli_budget_violation_exits_two(tmp_path):
    proc = _run_cli(tmp_path, {
        "command": "moments",
        "state": STATE_75,
        "kernel": {"preset": "pauli-xy"},
        # the largest spin block at n = 40 has dimension 41
        "n_list": [40],
        "p_list": [2],
        "dim_budget": 16,
    })
    assert proc.returncode == 2
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "BudgetError"
    assert payload["error"]["exit_code"] == 2


def test_moments_of_a_fully_degenerate_kernel_exit_one(tmp_path):
    # U_n = 1 has no fluctuation to scale
    proc = _run_cli(tmp_path, {
        "command": "moments",
        "state": STATE_75,
        "kernel": {"d": 2, "r": 2, "matrix": matrix_to_json(np.eye(4))},
        "n_list": [4],
        "p_list": [2],
        "scaling": {"mode": "power"},
    })
    assert proc.returncode == 1
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "ValidationError"
    assert "kernel is fully degenerate" in payload["error"]["message"]


def test_cli_tolerance_violation_exits_three(tmp_path):
    # the residuals are rounding alone: 0 up to order 4 at sigma^2 = 1, 1.8e-16 here
    proc = _run_cli(tmp_path, {
        "command": "hermite-check",
        "max_order": 6,
        "sigma_sq_list": [0.75],
        "hermite_tol": 1e-30,
    })
    assert proc.returncode == 3
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "ToleranceError"
    assert payload["error"]["exit_code"] == 3


@pytest.mark.parametrize("state, alternative", [
    ([0.75, 0.25], [0.5, 0.3, 0.2]),
    ([0.5, 0.3, 0.2], [0.75, 0.25]),
])
def test_test_sim_with_an_alternative_of_another_dimension_exits_one(tmp_path, state, alternative):
    proc = _run_cli(tmp_path, {
        "command": "test-sim",
        "state": {"eigenvalues": state},
        "alternative": {"eigenvalues": alternative},
        "alpha": 0.05,
        "n_list": [4],
    })
    assert proc.returncode == 1
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "ValidationError"
    assert payload["error"]["exit_code"] == 1
    assert "dimension" in payload["error"]["message"]
    assert "Traceback" not in proc.stderr


def test_cli_rejects_the_removed_scaling_exponent(tmp_path):
    # power scaling takes the kernel's degeneracy order; no key sets it
    proc = _run_cli(tmp_path, dict(_VALID, scaling={"mode": "power", "exponent": 2}))
    assert proc.returncode == 1
    payload = json.loads(proc.stderr)
    assert payload["error"]["kind"] == "ValidationError"
    assert payload["error"]["message"] == (
        "config rejected: config.scaling: Additional properties are not allowed "
        "('exponent' was unexpected)")


_ROTATION_3 = {"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}


@pytest.mark.parametrize("config", [
    {"command": "decompose", "state": {"eigenvalues": [0.6, 0.4], "rotation": _ROTATION_3},
     "kernel": {"preset": "sigma-zz"}},
    {"command": "test-sim", "state": STATE_75, "alpha": 0.05, "n_list": [4],
     "alternative": {"eigenvalues": [0.6, 0.4], "rotation": _ROTATION_3}},
], ids=["state", "alternative"])
def test_a_rotation_of_another_dimension_exits_one(tmp_path, config):
    proc = _run_cli(tmp_path, config)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"]["kind"] == "ValidationError"
    assert "rotation of shape (3, 3)" in payload["error"]["message"]


@pytest.mark.parametrize("d", [12, 100])
def test_a_homogeneity_kernel_over_budget_exits_two_before_it_is_built(
        tmp_path, monkeypatch, capsys, d):
    import qustat.apps

    # any use of numpy in apps, such as allocating the kernel, fails the test
    monkeypatch.setattr(qustat.apps, "np", None)
    config = {"command": "decompose", "state": STATE_75,
              "kernel": {"preset": "homogeneity", "d": d}}
    with pytest.raises(SystemExit) as exc:
        main(["--config", _write_config(tmp_path, config), "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "BudgetError"
    assert "matrix dimension %d exceeds budget" % d ** 4 in error["message"]


def test_cli_rejects_the_removed_trunc_key(tmp_path):
    # each oscillator's truncation follows from its variance; no key sets it
    proc = _run_cli(tmp_path, {"command": "hermite-check", "trunc": 64})
    assert proc.returncode == 1
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "ValidationError"
    assert "trunc" in payload["error"]["message"]


def test_hermite_check_below_half_variance_exits_one(tmp_path):
    proc = _run_cli(tmp_path, {"command": "hermite-check", "sigma_sq_list": [0.4]})
    assert proc.returncode == 1
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "ValidationError"
    assert payload["error"]["exit_code"] == 1
    assert "Traceback" not in proc.stderr


def test_limit_fock_route_truncates_no_levels_under_any_budget(tmp_path):
    # a truncation of the oscillator of variance 5 needed about 150 Fock
    # levels, over this budget; the route in normal order keeps none
    proc = _run_cli(tmp_path, {
        "command": "limit",
        "state": {"eigenvalues": [0.55, 0.45]},
        "kernel": {"preset": "pauli-xy"},
        "p_list": [2],
        "dim_budget": 16,
    })
    assert proc.returncode == 0, proc.stderr
    (row,) = json.loads((tmp_path / "out" / "result.json").read_text(encoding="utf-8"))["moments"]
    assert row["abs_gap"] <= 1e-12 * abs(row["wick"]), row


def test_limit_runs_on_a_nearly_degenerate_qubit(tmp_path):
    # a Fock truncation of the oscillator of variance 250000 needed 6.9e6 levels
    proc = _run_cli(tmp_path, {
        "command": "limit",
        "state": {"eigenvalues": [0.500001, 0.499999]},
        "kernel": {"preset": "goodness"},
        "p_list": [2, 4, 6, 8, 10],
    })
    assert proc.returncode == 0, proc.stderr
    moments = json.loads((tmp_path / "out" / "result.json").read_text(encoding="utf-8"))["moments"]
    assert [row["p"] for row in moments] == [2, 4, 6, 8, 10]
    for row in moments:
        assert row["abs_gap"] <= 1e-12 * max(1.0, abs(row["wick"])), row


def test_hermite_check_runs_at_any_finite_variance(tmp_path):
    proc = _run_cli(tmp_path, {"command": "hermite-check", "sigma_sq_list": [50.0, 1e300]})
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "out" / "result.json").read_text(encoding="utf-8"))
    assert 0.0 <= result["max_residual"] < result["tolerance"] == 1e-8


def test_hermite_check_infinite_variance_exits_one(tmp_path):
    # 1e400 is a JSON number that reads as inf
    cfg = tmp_path / "config.json"
    cfg.write_text('{"command": "hermite-check", "sigma_sq_list": [1e400]}', encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "qustat.cli", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stderr.splitlines()[-1])
    assert payload["error"]["kind"] == "ValidationError"
    assert "oscillator variance" in payload["error"]["message"]


@pytest.mark.parametrize("kernel", [
    {"preset": "pauli-xy"},
    {"preset": "sigma-zz"},
    {"preset": "homogeneity", "d": 2},
    {"d": 2, "r": 2, "matrix": matrix_to_json(np.eye(4))},
], ids=["pauli-xy", "sigma-zz", "homogeneity", "matrix"])
def test_test_sim_rejects_a_kernel_it_would_ignore(tmp_path, kernel):
    proc = _run_cli(tmp_path, {
        "command": "test-sim", "state": STATE_75, "alpha": 0.05, "n_list": [4], "kernel": kernel,
    })
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"]["kind"] == "ValidationError"
    assert "goodness kernel" in payload["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_test_sim_accepts_the_goodness_kernel_it_runs(tmp_path):
    config = {"command": "test-sim", "state": STATE_75, "alpha": 0.05, "n_list": [4]}
    _, without, _ = _run(tmp_path, config)
    _, with_kernel, _ = _run(tmp_path, dict(config, kernel={"preset": "goodness"}))
    assert with_kernel == without


_PAULI_XY_75 = {"state": STATE_75, "kernel": {"preset": "pauli-xy"}}


# (config, exit code, a phrase of the one JSON error line): edge inputs
# that must either run with nothing on stderr or fail with their code
@pytest.mark.parametrize("config, code, phrase", [
    (dict(_PAULI_XY_75, command="moments", n_list=[4], p_list=[200]), 3,
     "wick moment of order 200 is not finite"),
    (dict(_PAULI_XY_75, command="limit", p_list=[200]), 3,
     "wick moment of order 200 is not finite"),
    (dict(_PAULI_XY_75, command="limit", p_list=[150]), 0, None),
    (_metrology_config(kernel={"preset": "pauli-xy"}, t=1e300, g1=1e10, g2=-1e10), 1,
     "metrology phases are not finite at n=4"),
    (_metrology_config(t=1e200), 1, "past 2^53, where one ulp of a phase is about a radian"),
    ({"command": "test-sim", "state": STATE_75, "alternative": {"eigenvalues": [0.6, 0.4]},
      "alpha": 0.05, "n_list": [10000]}, 0, None),
    ({"command": "test-sim", "state": STATE_75, "alpha": 0.05, "n_list": [20000]}, 2,
     "matrix dimension 20001 exceeds budget"),
    (dict(_PAULI_XY_75, command="moments", n_list=[100000], p_list=[2]), 2,
     "matrix dimension 100001 exceeds budget"),
    ({"command": "moments", "state": STATE_75, "kernel": {"preset": "sigma-zz"},
      "n_list": [1], "p_list": [2]}, 1, "need n >= r"),
    ({"command": "hermite-check", "sigma_sq_list": [0.4]}, 1,
     "oscillator variance must be a finite number >= 1/2"),
    # the Ruben series is capped at 10^4 terms, short of this spread of mu
    ({"command": "test-sim", "state": {"eigenvalues": [0.7, 0.2999, 0.0001]}, "alpha": 0.05,
      "n_list": [3]}, 3, "limit law error bound"),
    # the Cholesky whitening of diag(mu) - mu mu^T cancels this close to pure
    ({"command": "limit", "state": {"eigenvalues": [0.9999999, 1e-7]},
      "kernel": {"preset": "goodness"}, "p_list": [2]}, 3,
     "normalized generators are not orthonormal"),
], ids=["moments-p200", "limit-p200", "limit-p150", "metrology-phase-overflow",
        "metrology-phase-past-2^53", "test-sim-n1e4", "test-sim-n2e4", "moments-n1e5",
        "sigma-zz-n1", "hermite-variance-0.4", "qutrit-ruben-cap", "near-pure-goodness-limit"])
def test_edge_inputs_exit_with_their_code_and_at_most_one_json_line(tmp_path, config, code, phrase):
    proc = _run_cli(tmp_path, config)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        return
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["exit_code"] == code
    assert phrase in error["message"]


@pytest.mark.parametrize("n, centered", [(4, 1e308), (10 ** 200, 1.0)], ids=["product", "power"])
def test_a_scaled_moment_that_is_not_finite_raises_a_tolerance_error(tmp_path, monkeypatch, n,
                                                                     centered):
    # n (U_n - theta) scales the centered moment by n^2 at p = 2: the
    # product overflows, or n^2 itself
    monkeypatch.setattr("qustat.ustat.centered_moments",
                        lambda kernel, state, ns, orders, budget=None: [[centered] * len(orders)])
    config = dict(_PAULI_XY_75, command="moments", n_list=[n], p_list=[2])
    with pytest.raises(ToleranceError, match=r"^exact moment of order 2 at n=%d is not finite "
                                             r"once scaled: inf$" % n):
        run(_write_config(tmp_path, config), str(tmp_path / "out"))


_SX, _SY, _SZ = (np.array(m, dtype=complex) for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                                                      [[1, 0], [0, -1]]))


def _hermitized(m):
    return 0.5 * (m + m.conj().T)


# (kernel spec, state eigenvalues, the kernel's entries from np.kron products)
@pytest.mark.parametrize("spec, eigenvalues, want", [
    ({"preset": "pauli-xy"}, [0.75, 0.25], lambda state: kron_symmetrized_entries([_SX, _SY])),
    ({"preset": "pauli-xx-yy"}, [0.75, 0.25],
     lambda state: _hermitized(np.kron(_SX, _SX) + np.kron(_SY, _SY))),
    ({"preset": "sigma-zz"}, [0.75, 0.25], lambda state: _hermitized(np.kron(_SZ, _SZ))),
    ({"preset": "goodness"}, [0.75, 0.25], kron_goodness_entries),
    ({"preset": "goodness"}, [0.5, 0.3, 0.2], kron_goodness_entries),
    ({"preset": "homogeneity", "d": 2}, [0.75, 0.25], lambda state: kron_homogeneity_entries(2)),
    ({"preset": "homogeneity", "d": 3}, [0.75, 0.25], lambda state: kron_homogeneity_entries(3)),
], ids=["pauli-xy", "pauli-xx-yy", "sigma-zz", "goodness-qubit", "goodness-qutrit",
        "homogeneity-2", "homogeneity-3"])
def test_every_preset_kernel_gives_the_bits_of_its_kron_oracle(spec, eigenvalues, want):
    state = DensityMatrix.from_eigenvalues(eigenvalues)
    kernel = _load_kernel({"kernel": spec}, state)
    assert kernel.op.entries.tobytes() == want(state).tobytes()
