"""Command line front end.

Runs one experiment described by a JSON config and writes a manifest,
a result document and CSV tables into the output directory.  All floats
are printed with 17 significant digits and every random stream is seeded,
so identical configurations reproduce identical bytes.

Exit codes: 1 invalid input, 2 budget exceeded, 3 tolerance violation.
"""

import hashlib
import json
import os
import sys

import click

SCHEMA_MATRIX = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dim", "re", "im"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "re": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "im": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
}

SCHEMA_STATE = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "eigenvalues": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "rotation": SCHEMA_MATRIX,
        "matrix": SCHEMA_MATRIX,
    },
}

SCHEMA_KERNEL = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {
            "type": "string",
            "enum": ["pauli-xy", "pauli-xx-yy", "sigma-zz", "goodness", "homogeneity"],
        },
        "matrix": SCHEMA_MATRIX,
        "d": {"type": "integer", "minimum": 2},
        "r": {"type": "integer", "minimum": 1},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command"],
    "properties": {
        "command": {
            "type": "string",
            "enum": [
                "decompose",
                "moments",
                "limit",
                "convergence",
                "test-sim",
                "metrology",
                "hermite-check",
            ],
        },
        "state": SCHEMA_STATE,
        "kernel": SCHEMA_KERNEL,
        "n_list": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "p_list": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "seed": {"type": "integer", "minimum": 0},
        "scaling": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mode"],
            "properties": {
                "mode": {"type": "string", "enum": ["power", "order2"]},
                "exponent": {"type": "integer", "minimum": 0},
            },
        },
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "mc_replicates": {"type": "integer", "minimum": 1},
        "limit_draws": {"type": "integer", "minimum": 1},
        "alternative": SCHEMA_STATE,
        "interval": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
        "t": {"type": "number"},
        "g1": {"type": "number"},
        "g2": {"type": "number"},
        "trunc": {"type": "integer", "minimum": 2},
        "quad_points": {"type": "integer", "minimum": 2},
        "max_order": {"type": "integer", "minimum": 0},
        "sigma_sq_list": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "hermite_tol": {"type": "number", "exclusiveMinimum": 0},
        "dim_budget": {"type": "integer", "minimum": 2},
    },
}

DEFAULTS = {
    "seed": 0,
    "trunc": 64,
    "limit_draws": 1000000,
    "max_order": 6,
    "sigma_sq_list": [0.75, 1.0, 2.0],
    "hermite_tol": 1e-8,
}


def _fail(exc):
    from .errors import QuStatError

    code = exc.exit_code if isinstance(exc, QuStatError) else 1
    payload = {
        "error": {
            "kind": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
    }
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.exit(code)


@click.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Path to the experiment configuration JSON.")
@click.option("--out-dir", "out_dir", default=".", show_default=True,
              type=click.Path(file_okay=False),
              help="Directory receiving manifest.json, result.json, tables/.")
@click.option("--seed", "seed", default=None, type=click.IntRange(min=0),
              help="Override the config seed.")
@click.option("--threads", "threads", default=None, type=click.IntRange(min=1),
              help="Cap BLAS thread counts (set before numerics load).")
def main(config_path, out_dir, seed, threads):
    """Run one experiment from a JSON config."""
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(threads)
    try:
        run(config_path, out_dir, seed_override=seed)
    except Exception as exc:  # noqa: BLE001 - mapped to structured exit codes
        from .errors import QuStatError

        if isinstance(exc, QuStatError):
            _fail(exc)
        raise


def run(config_path, out_dir, seed_override=None):
    import jsonschema

    from .errors import ValidationError

    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError("config is not valid JSON: %s" % exc) from exc
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValidationError("config rejected: %s" % exc.message) from exc

    config = dict(DEFAULTS)
    config.update(raw)
    if seed_override is not None:
        config["seed"] = int(seed_override)

    result, tables = _dispatch(config)
    _write_outputs(config, result, tables, out_dir)


def _dispatch(config):
    from .errors import ValidationError

    command = config["command"]
    handlers = {
        "decompose": _cmd_decompose,
        "moments": _cmd_moments,
        "limit": _cmd_limit,
        "convergence": _cmd_convergence,
        "test-sim": _cmd_test_sim,
        "metrology": _cmd_metrology,
        "hermite-check": _cmd_hermite_check,
    }
    try:
        handler = handlers[command]
    except KeyError:
        raise ValidationError("unknown command %r" % command)
    return handler(config)


def _require(config, *fields):
    from .errors import ValidationError

    for f in fields:
        if f not in config:
            raise ValidationError(
                "command %r requires the %r field" % (config["command"], f)
            )


def _load_state(spec):
    import numpy as np

    from .errors import ValidationError
    from .operators import DensityMatrix
    from .serialize import matrix_from_json

    if "matrix" in spec:
        if "eigenvalues" in spec or "rotation" in spec:
            raise ValidationError("state: give either matrix or eigenvalues")
        return DensityMatrix.from_matrix(matrix_from_json(spec["matrix"]))
    if "eigenvalues" not in spec:
        raise ValidationError("state needs eigenvalues or a matrix")
    rotation = None
    if "rotation" in spec:
        rotation = matrix_from_json(spec["rotation"])
    return DensityMatrix.from_eigenvalues(
        np.asarray(spec["eigenvalues"], dtype=float), rotation=rotation
    )


def _pauli():
    import numpy as np

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


def _load_kernel(spec, state):
    import numpy as np

    from .apps import goodness_kernel, homogeneity_kernel
    from .errors import ValidationError
    from .operators import Kernel, hermitize, symmetrize_kernel
    from .serialize import matrix_from_json

    if "preset" in spec and "matrix" in spec:
        raise ValidationError("kernel: give either preset or matrix")
    if "matrix" in spec:
        if "d" not in spec or "r" not in spec:
            raise ValidationError("explicit kernel matrices need d and r")
        m = matrix_from_json(spec["matrix"])
        return Kernel(spec["d"], spec["r"], hermitize(m, check_tol=1e-12))
    if "preset" not in spec:
        raise ValidationError("kernel needs a preset or a matrix")
    name = spec["preset"]
    sx, sy, sz = _pauli()
    if name == "pauli-xy":
        return symmetrize_kernel([sx, sy])
    if name == "pauli-xx-yy":
        return Kernel(2, 2, hermitize(np.kron(sx, sx) + np.kron(sy, sy)))
    if name == "sigma-zz":
        return Kernel(2, 2, hermitize(np.kron(sz, sz)))
    if name == "goodness":
        if state is None:
            raise ValidationError("the goodness preset needs a state")
        return goodness_kernel(state)
    if name == "homogeneity":
        if "d" not in spec:
            raise ValidationError("the homogeneity preset needs d")
        return homogeneity_kernel(spec["d"])
    raise ValidationError("unknown kernel preset %r" % name)


def _scaling(config, report):
    """Resolve the moment scaling to (exponent_for_csv, factor_fn)."""
    from .errors import ValidationError

    spec = config.get("scaling", {"mode": "power"})
    mode = spec["mode"]
    c = report.c
    if mode == "order2":
        if c != 2:
            raise ValidationError(
                "order2 scaling needs a kernel of degeneracy order 2, got %r" % c
            )
        return 2, lambda n: float(n - 1)
    exponent = spec.get("exponent")
    if exponent is None:
        if c is None:
            raise ValidationError(
                "kernel is fully degenerate; an explicit scaling exponent is required"
            )
        exponent = c
    if c is not None and exponent != c:
        raise ValidationError(
            "scaling exponent %d does not match the degeneracy order %d"
            % (exponent, c)
        )
    return exponent, lambda n: float(n) ** (exponent / 2.0)


def _cmd_decompose(config):
    from .hoeffding import kernel_components

    _require(config, "state", "kernel")
    state = _load_state(config["state"])
    kernel = _load_kernel(config["kernel"], state)
    report = kernel_components(kernel, state)
    rows = [
        {"l": comp.l, "norm_sq": comp.norm_sq}
        for comp in report.components
    ]
    return report.to_json(), {"components": (["l", "norm_sq"], rows)}


def _limit_setup(config, state, kernel):
    from .ccr import build_ccr_basis, kernel_to_limit
    from .hoeffding import kernel_components

    report = kernel_components(kernel, state)
    basis = build_ccr_basis(state)
    limit = kernel_to_limit(kernel, report, basis)
    return report, basis, limit


def _cmd_moments(config):
    result, tables, _ = _moments(config)
    return result, tables


def _moments(config):
    """The moments result and table, and the (state, kernel, report) behind them."""
    from .ccr import limit_moment
    from .ustat import centered_moment

    _require(config, "state", "kernel", "n_list", "p_list")
    state = _load_state(config["state"])
    kernel = _load_kernel(config["kernel"], state)
    report, basis, limit = _limit_setup(config, state, kernel)
    exponent, factor_fn = _scaling(config, report)
    budget = config.get("dim_budget")
    rows = []
    for p in sorted(set(config["p_list"])):
        lim = limit_moment(limit, basis, p, method="wick", trunc=config["trunc"])
        for n in sorted(set(config["n_list"])):
            moment = centered_moment(
                kernel, state, n, p, factor=factor_fn(n), budget=budget
            )
            rows.append({
                "n": n,
                "p": p,
                "scaling_exponent": exponent,
                "moment": moment,
                "limit_moment": lim,
                "abs_gap": abs(moment - lim),
            })
    header = ["n", "p", "scaling_exponent", "moment", "limit_moment", "abs_gap"]
    result = {
        "theta": report.theta,
        "c": report.c,
        "rows": rows,
    }
    return result, {"moments": (header, rows)}, (state, kernel, report)


def _cmd_limit(config):
    from .ccr import limit_moment

    _require(config, "state", "kernel", "p_list")
    state = _load_state(config["state"])
    kernel = _load_kernel(config["kernel"], state)
    report, basis, limit = _limit_setup(config, state, kernel)
    moments = []
    for p in sorted(set(config["p_list"])):
        wick = limit_moment(limit, basis, p, method="wick", trunc=config["trunc"],
                            quad_points=config.get("quad_points"), check=True)
        fock = limit_moment(limit, basis, p, method="fock", trunc=config["trunc"],
                            quad_points=config.get("quad_points"))
        moments.append({"p": p, "wick": wick, "fock": fock, "abs_gap": abs(wick - fock)})
    result = {"polynomial": limit.to_json(), "moments": moments}
    header = ["p", "wick", "fock", "abs_gap"]
    return result, {"limit_moments": (header, moments)}


def _cmd_convergence(config):
    from .errors import ToleranceError
    from .hoeffding import variance_formula
    from .ustat import assemble_direct, variance_exact

    result, tables, (state, kernel, report) = _moments(config)
    budget = config.get("dim_budget")
    variance_rows = []
    for n in sorted(set(config["n_list"])):
        stat = assemble_direct(kernel, n, budget=budget)
        exact = variance_exact(stat, state)
        formula = variance_formula(report, n)
        rel = abs(exact - formula) / max(abs(exact), abs(formula), 1e-300)
        if rel > 1e-9:
            raise ToleranceError(
                "variance routes disagree at n=%d: exact %.17g vs formula %.17g"
                % (n, exact, formula)
            )
        variance_rows.append({
            "n": n,
            "variance_exact": exact,
            "variance_formula": formula,
            "rel_gap": rel,
        })
    by_p = {}
    for row in result["rows"]:
        by_p.setdefault(row["p"], []).append((row["n"], row["abs_gap"]))
    monotone = []
    for p, gaps in sorted(by_p.items()):
        gaps.sort()
        decreasing = all(b[1] < a[1] for a, b in zip(gaps, gaps[1:]))
        monotone.append({"p": p, "gaps_decreasing": decreasing})
    result["variance_checks"] = variance_rows
    result["gap_monotonicity"] = monotone
    tables["variance"] = (
        ["n", "variance_exact", "variance_formula", "rel_gap"],
        variance_rows,
    )
    return result, tables


def _cmd_test_sim(config):
    from .apps import TestSpec, run_test

    _require(config, "state", "alpha", "n_list", "mc_replicates")
    state = _load_state(config["state"])
    alternative = None
    if "alternative" in config:
        alternative = _load_state(config["alternative"])
    interval = tuple(config["interval"]) if "interval" in config else None
    results = []
    for n in sorted(set(config["n_list"])):
        spec = TestSpec(
            null_state=state,
            alpha=config["alpha"],
            n=n,
            mc_replicates=config["mc_replicates"],
            seed=config["seed"],
            interval=interval,
        )
        res = run_test(
            spec,
            alternative=alternative,
            trunc=config["trunc"],
            limit_draws=config["limit_draws"],
            budget=config.get("dim_budget"),
        )
        results.append(res.to_json())
    rows = [
        {
            "n": r["n"],
            "alpha_hat": r["alpha_hat"],
            "alpha_se": r["alpha_se"],
            "beta_hat": float("nan") if r["beta_hat"] is None else r["beta_hat"],
            "beta_se": float("nan") if r["beta_se"] is None else r["beta_se"],
            "interval_lo": r["interval"][0],
            "interval_hi": r["interval"][1],
        }
        for r in results
    ]
    header = ["n", "alpha_hat", "alpha_se", "beta_hat", "beta_se",
              "interval_lo", "interval_hi"]
    result = results[0] if len(results) == 1 else {"results": results}
    return result, {"test": (header, rows)}


def _cmd_metrology(config):
    from .apps import metrology_overlap

    _require(config, "state", "kernel", "n_list", "t", "g1", "g2")
    state = _load_state(config["state"])
    kernel = _load_kernel(config["kernel"], state)
    rows = []
    results = []
    for n in sorted(set(config["n_list"])):
        res = metrology_overlap(
            kernel, state, config["t"], config["g1"], config["g2"], n,
            budget=config.get("dim_budget"),
        )
        doc = res.to_json()
        results.append(doc)
        rows.append({
            "n": doc["n"],
            "overlap_re": doc["overlap_re"],
            "overlap_im": doc["overlap_im"],
            "limit": doc["limit"],
            "abs_gap": abs(res.overlap - res.limit),
        })
    header = ["n", "overlap_re", "overlap_im", "limit", "abs_gap"]
    result = results[0] if len(results) == 1 else {"results": results}
    return result, {"metrology": (header, rows)}


def _cmd_hermite_check(config):
    from .ccr import hermite_orthogonality_check
    from .errors import ToleranceError

    rows = []
    worst = 0.0
    for sigma_sq in config["sigma_sq_list"]:
        for total in range(config["max_order"] + 1):
            for n in range(total + 1):
                m = total - n
                res = hermite_orthogonality_check(
                    n, m, sigma_sq, trunc=config["trunc"]
                )
                worst = max(worst, res)
                rows.append({
                    "n": n,
                    "m": m,
                    "sigma_sq": sigma_sq,
                    "max_residual": res,
                })
    result = {"max_residual": worst, "tolerance": config["hermite_tol"]}
    if worst > config["hermite_tol"]:
        raise ToleranceError(
            "hermite orthogonality residual %.3e exceeds %.1e"
            % (worst, config["hermite_tol"])
        )
    header = ["n", "m", "sigma_sq", "max_residual"]
    return result, {"hermite": (header, rows)}


def _canonical_config(config):
    from .serialize import dump_json

    return dump_json(config, indent=0)


def _write_outputs(config, result, tables, out_dir):
    import numpy as np

    from . import __version__
    from .serialize import dump_json, format_float

    os.makedirs(out_dir, exist_ok=True)
    tables_dir = os.path.join(out_dir, "tables")
    os.makedirs(tables_dir, exist_ok=True)

    canonical = _canonical_config(config)
    manifest = {
        "command": config["command"],
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": config["seed"],
        "versions": {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "qustat": __version__,
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="") as fh:
        fh.write(dump_json(manifest, indent=2))
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8", newline="") as fh:
        fh.write(dump_json(result, indent=2))
    for name, (header, rows) in tables.items():
        path = os.path.join(tables_dir, "%s.csv" % name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                cells = []
                for col in header:
                    val = row[col]
                    if isinstance(val, bool):
                        cells.append("true" if val else "false")
                    elif isinstance(val, (int,)):
                        cells.append(str(val))
                    elif val is None:
                        cells.append("nan")
                    else:
                        fval = float(val)
                        cells.append("nan" if fval != fval else format_float(fval))
                fh.write(",".join(cells) + "\n")


if __name__ == "__main__":
    main()
