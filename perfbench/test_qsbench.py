"""Self-tests of the benchmark: inputs, output checks, counters, refusal without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import qustat.ustat  # noqa: E402
from qsbench import bench, checks, workloads  # noqa: E402
from qsbench.trace import Tracer  # noqa: E402


def _small(workload, seed, directory):
    params = workloads.draw_params(seed)
    exps = workloads.experiments(workload, params, small=True)
    return params, workloads.write_configs(exps, directory)


def test_same_seed_gives_identical_config_bytes(tmp_path):
    for workload in workloads.WORKLOADS:
        runs = []
        for rep in ("a", "b"):
            exps = workloads.experiments(workload, workloads.draw_params(7))
            written = workloads.write_configs(exps, tmp_path / rep / workload)
            runs.append([path.read_bytes() for _, _, path in written])
        assert runs[0] == runs[1]


def test_seeds_give_different_spectra_within_their_ranges():
    first, second = workloads.draw_params(1), workloads.draw_params(2)
    assert first.qubit != second.qubit
    assert first.config_seed != second.config_seed
    for params in (first, second):
        assert workloads.LAMBDA_RANGE[0] <= params.lam <= workloads.LAMBDA_RANGE[1]


def test_checks_pass_on_program_outputs_and_count_a_perturbed_one(tmp_path):
    params, exps = _small("finite-n", 5, tmp_path / "cfg")
    refs = bench.references_in_child(params, exps)
    assert refs["convergence"]
    tally = bench.Tally()
    runner = bench.Runner(exps, refs, tmp_path / "out", tally)
    runner.round()
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems

    name, config, _ = exps[0]
    out_dir = tmp_path / "out" / name
    path = out_dir / "result.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    drifted = json.loads(json.dumps(doc))
    drifted["rows"][0]["moment"] *= 1.0 + 1e-15
    assert checks.check(config, drifted, refs[name]) == []

    doc["rows"][0]["moment"] *= 1.0 + 1e-4
    path.write_text(json.dumps(doc), encoding="utf-8")
    tally.record(name, runner.evaluate(name, config, out_dir))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_oracles_pass_counters_repeat_exactly_and_tracing_is_removed(tmp_path):
    original = qustat.ustat.assemble_direct
    for workload in workloads.WORKLOADS:
        params, exps = _small(workload, 11, tmp_path / workload)
        refs = checks.references(params, exps)
        runner = bench.Runner(exps, refs, tmp_path / workload / "out", bench.Tally())
        seen = []
        for _ in range(2):
            tracer = Tracer().install()
            try:
                runner.round(tracer)
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            seen.append((tracer.counters.metrics(), summary["calls"], summary["errors"]))
        assert seen[0] == seen[1]
        assert runner.tally.failed == 0, runner.tally.problems
        assert qustat.ustat.assemble_direct is original
    counters, calls, _ = seen[0]
    assert calls["apps"] > 0 and counters["apps.eigh_dim3"][0] > 0


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finite-n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
