"""One benchmark run of one workload.

--trace 0: timed rounds of the workload in this process, with tracing
off, and set-up time in fresh interpreters started between them; peak
memory is this process's resident-set high-water mark after them.  The
references of the output checks are computed in a child process, so that
the high-water mark is the program's alone.

--trace 1: rounds alternating between tracing off and on; the traced
rounds give the per-layer metrics, the pair gives the tracing overhead.

Load is a closed loop: one experiment at a time, from one process.  A
round runs every experiment of the workload once; a sample is the mean
wall time of one experiment in a round.  Every experiment's outputs are
checked after its timer stops.
"""

import ctypes
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import checks, workloads
from .trace import LAYERS, TRACE_LAYER, Tracer

PERFBENCH = Path(__file__).resolve().parent.parent
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
# Span dumps and the scratch directory of a run; ignored by git.
OUT_DIR = PERFBENCH / "out"

# Fresh interpreters timed for setup_s, spread over the timed rounds; the
# median is reported.
SETUP_REPS = 15
PROBE_TIMEOUT_S = 150
# A child interpreter computes checks.references(params, exps), both pickled.
REFERENCES_CHILD = (
    "import pickle, sys; sys.path.insert(0, sys.argv[1]); from qsbench import checks; "
    "pickle.dump(checks.references(*pickle.load(sys.stdin.buffer)), sys.stdout.buffer)"
)
# Self times reported as metrics: only spans that run on every workload, so
# that no time metric reads exactly 0 on every run.  Every layer's and every
# function's self time is printed on the trace line.
TIMED_LAYERS = ("operators", "hoeffding", "ustat", "ccr", "serialize", "cli")
FN_METRICS = (
    "ustat.assemble_direct",
    "ccr.limit_moment",
    "ccr.wick_poly_moment",
    "ccr.poly_power",
)


class Tally:
    """Attempted and failed experiments; a failure raises or misses a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"experiment": name, "problems": problems[:3]})


def _output_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def _output_bytes(out_dir):
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


class Runner:
    """Runs the workload's experiments in-process through qustat.cli.run."""

    def __init__(self, exps, refs, out_root, tally):
        import qustat.cli

        self.cli = qustat.cli
        self.exps = exps
        self.refs = refs
        self.out_root = out_root
        self.tally = tally
        self.digests = {}

    def evaluate(self, name, config, out_dir):
        """Problems with one experiment's outputs, including a change of bytes between rounds."""
        try:
            result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return ["unreadable result.json: %r" % (exc,)]
        problems = checks.check(config, result, self.refs.get(name))
        digest = _output_digest(out_dir)
        if self.digests.setdefault(name, digest) != digest:
            problems.append("outputs differ from the first round of the same config and seed")
        return problems

    def round(self, tracer=None):
        """Run every experiment once; returns the summed wall time of the experiments."""
        total = 0.0
        for name, config, path in self.exps:
            out_dir = self.out_root / name
            t0 = time.perf_counter()
            try:
                self.cli.run(str(path), str(out_dir))
            except Exception as exc:  # noqa: BLE001 - a raising experiment is a counted failure
                total += time.perf_counter() - t0
                self.tally.record(name, ["raised %s: %s" % (type(exc).__name__, exc)])
                continue
            total += time.perf_counter() - t0
            self.tally.record(name, self.evaluate(name, config, out_dir))
            if tracer is not None:
                tracer.counters.counts["serialize.bytes_written"] += _output_bytes(out_dir)
        return total


def _setup_probe(paths):
    return subprocess.run(
        [sys.executable, str(SETUP_PROBE), *map(str, paths)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )


def time_setup(paths):
    """Wall time of a fresh interpreter importing qustat.cli and validating the configs."""
    t0 = time.perf_counter()
    proc = _setup_probe(paths)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
    return elapsed


def references_in_child(params, exps):
    """checks.references computed in a child interpreter, kept out of this process's memory."""
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCES_CHILD, str(PERFBENCH)],
        input=pickle.dumps((params, exps)), capture_output=True,
        timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError("references failed: %s" % proc.stderr.decode(errors="replace")[-500:])
    return pickle.loads(proc.stdout)


def _sysconf(name, glibc_code):
    """A sysconf value by name, or through libc for names Python does not know."""
    try:
        value = os.sysconf(name) if name in os.sysconf_names else None
        if value is None:
            libc = ctypes.CDLL(None)
            libc.sysconf.restype = ctypes.c_long
            libc.sysconf.argtypes = [ctypes.c_int]
            value = libc.sysconf(glibc_code)
    except (OSError, ValueError, AttributeError):
        return None
    return value if value and value > 0 else None


def environment(threads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_version = "unknown"
    l2 = _sysconf("SC_LEVEL2_CACHE_SIZE", 191)
    l3 = _sysconf("SC_LEVEL3_CACHE_SIZE", 194)

    def level(nbytes):
        if l2 and nbytes <= l2:
            return "L2"
        if l3 and nbytes <= l3:
            return "L3"
        return "memory" if l2 and l3 else "unknown"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": l2,
        "l3_bytes": l3,
        "finite_n_matrix_bytes": {
            str(n): {"bytes": b, "fits": level(b)}
            for n, b in workloads.finite_n_working_set().items()
        },
    }


def _report(key, value):
    print("perfbench %s: %s" % (key, json.dumps(value, sort_keys=True)), flush=True)


def _phase(phases, name, t0):
    """Record the wall time of a phase of the run since t0; returns now."""
    now = time.perf_counter()
    phases[name] = now - t0
    return now


def timed_run(args, exps, runner, warm_runner, phases):
    paths = [path for _, _, path in exps]
    t = time.perf_counter()
    # one untimed start writes the bytecode caches of a fresh checkout
    _setup_probe(paths)
    warm_runner.round()
    t = _phase(phases, "warm-up", t)
    samples, setup_times = [], []
    deadline = t + args.seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(runner.round() / len(exps))
        # set-up probes follow the rounds in proportion to the time spent, so
        # that the host's drift over the run weighs alike on both figures;
        # their own time extends the deadline
        due = SETUP_REPS * min(1.0, (time.perf_counter() - t) / args.seconds)
        while len(setup_times) < due:
            setup_times.append(time_setup(paths))
            deadline += setup_times[-1]
    while len(setup_times) < SETUP_REPS:
        setup_times.append(time_setup(paths))
    _phase(phases, "timed", t)
    # the high-water mark costs nothing to keep, so it is read from the timed pass
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _report("samples", {
        "run_s": samples,
        "setup_s": setup_times,
        "rounds": len(samples),
        "experiments_per_round": len(exps),
    })
    return {
        "run_s": {"value": statistics.median(samples), "unit": "s"},
        "peak_mem_mb": {"value": peak_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def traced_run(args, exps, runner, warm_runner, phases):
    t = time.perf_counter()
    warm_runner.round()
    t = _phase(phases, "warm-up", t)
    plain, traced, summaries, counters, spans = [], [], [], [], []
    deadline = t + args.seconds
    while not traced or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(runner.round())
            continue
        tracer = Tracer().install()
        try:
            traced.append(runner.round(tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        counters.append(tracer.counters)
        spans.append(tracer.dump())
    _phase(phases, "alternating", t)

    layer_self = {layer: statistics.median(s["layer_self"][layer] for s in summaries)
                  for layer in LAYERS + (TRACE_LAYER,)}
    fn_self = {name: statistics.median(s["fn_self"].get(name, 0.0) for s in summaries)
               for name in sorted(set().union(*(s["fn_self"] for s in summaries)))}
    metrics = {}
    for layer in LAYERS:
        if layer in TIMED_LAYERS:
            metrics["%s.self_s" % layer] = (layer_self[layer], "s")
        metrics["%s.calls" % layer] = (summaries[0]["calls"][layer], "count")
        metrics["%s.errors" % layer] = (summaries[0]["errors"][layer], "count")
    for name in FN_METRICS:
        metrics["%s.self_s" % name] = (fn_self.get(name, 0.0), "s")
    metrics.update(counters[0].metrics())
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")

    repeat = all(c.metrics() == counters[0].metrics() for c in counters) and all(
        s["calls"] == summaries[0]["calls"] for s in summaries)
    round_s = statistics.median(traced)
    _report("trace", {
        "plain_round_s": plain,
        "traced_round_s": traced,
        "layer_self_s": layer_self,
        "layer_share_of_traced_round": {k: v / round_s for k, v in layer_self.items()},
        "function_self_s": fn_self,
        "ratio_bases": counters[0].bases(),
        "counters_repeat_across_rounds": repeat,
    })
    with open(OUT_DIR / ("trace-%s-seed%d.json" % (args.workload, args.seed)), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": spans}, fh)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(args, threads):
    params = workloads.draw_params(args.seed)
    # scratch stays inside the checkout, under the ignored output directory,
    # because the benchmark reads and writes nothing outside it
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as scratch:
        work = Path(scratch)
        exps = workloads.write_configs(
            workloads.experiments(args.workload, params), work / "configs")
        warm = workloads.write_configs(
            workloads.experiments(args.workload, params, small=True), work / "warmup")
        _report("env", environment(threads))
        _report("params", {"workload": args.workload, "seed": args.seed,
                           "config_seed": params.config_seed, "lam": params.lam})
        tally = Tally()
        t0 = time.perf_counter()
        refs = references_in_child(params, exps)
        phases = {"references": time.perf_counter() - t0}
        runner = Runner(exps, refs, work / "out", tally)
        # the same commands on the smallest inputs load every lazy import before timing
        warm_runner = Runner(warm, refs, work / "warm-out", tally)
        if args.trace:
            metrics = traced_run(args, exps, runner, warm_runner, phases)
        else:
            metrics = timed_run(args, exps, runner, warm_runner, phases)
        _report("phase_s", phases)
        _report("outcome", {"attempted": tally.attempted, "failed": tally.failed,
                            "failed_frac": tally.failed / max(tally.attempted, 1),
                            "problems": tally.problems[:10]})
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }), flush=True)
    return 0
