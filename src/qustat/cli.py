"""Command line front end.

Runs one experiment described by a JSON config and writes a manifest,
a result document and CSV tables into the output directory.  A table's
rows are the result document's records, with test-sim's interval ends
and metrology's abs_gap added; hermite-check tabulates the residual grid
whose largest entry its document reports.  All floats are printed with
17 significant digits and no command draws random numbers (the config
seed is only recorded in the manifest), so identical configurations
reproduce identical bytes.

`_conforms` checks the config against CONFIG_SCHEMA as JSON Schema
draft-07: it reads the schema dict itself, turns an integral float into
an int wherever the schema says integer, and words the first violation
as draft-07 does, after its key path.  `main` parses its options with
argparse.  Importing this module loads neither numpy nor hashlib; each
is loaded by the function that first uses it, so `main` sets `--threads`
before numpy loads.

Exit codes: 1 invalid input, 2 budget exceeded (a failed allocation
included), 3 tolerance violation.
"""

import json
import math
import os
import sys

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

# Draft-07 gives every keyword used here the meaning of the newer drafts.
CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
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
            },
        },
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        # Accepted and ignored: test-sim rates are exact Born sums, and its
        # critical value is read from the exact limit law.
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
        "max_order": {"type": "integer", "minimum": 0},
        "sigma_sq_list": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "hermite_tol": {"type": "number", "exclusiveMinimum": 0},
        "dim_budget": {"type": "integer", "minimum": 2},
    },
}

DEFAULTS = {
    "seed": 0,
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


def main(args=None):
    """Run one experiment from the command line; args default to sys.argv[1:]."""
    import argparse

    from .errors import BudgetError, QuStatError, ValidationError

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # a usage error exits like any other invalid input
            _fail(ValidationError(message))

    parser = Parser(prog="qustat", description="Run one experiment from a JSON config.",
                    allow_abbrev=False)
    parser.add_argument("--config", required=True, metavar="FILE",
                        help="Path to the experiment configuration JSON.")
    parser.add_argument("--out-dir", default=".", metavar="DIRECTORY",
                        help="Directory receiving manifest.json, result.json, tables/ "
                             "(default: .).")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="Cap BLAS thread counts (set before numerics load).")
    opts = parser.parse_args(args)
    if not os.path.isfile(opts.config):
        parser.error("argument --config: %r is not a file" % opts.config)
    if os.path.isfile(opts.out_dir):
        parser.error("argument --out-dir: %r is a file" % opts.out_dir)
    if opts.threads is not None:
        if opts.threads < 1:
            parser.error("argument --threads: %d is less than 1" % opts.threads)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(opts.threads)
    try:
        run(opts.config, opts.out_dir)
    except QuStatError as exc:
        _fail(exc)
    except MemoryError as exc:  # the machine's memory is a budget too
        _fail(BudgetError("out of memory: %s" % (str(exc) or "allocation failed")))
    sys.exit(0)


# The Python types of the values json.load gives each schema type
_TYPES = {"integer": (int, float), "number": (int, float), "string": (str,), "array": (list,),
          "object": (dict,)}


class _Violation(Exception):
    """A config's first departure from CONFIG_SCHEMA.

    Its args are draft-07's phrase, then the keys from the offending value
    out to the config, which `_conforms` adds only as it unwinds.
    """


def _conforms(value, schema):
    """value as draft-07 reads it under schema; raises _Violation if it does not conform.

    schema is CONFIG_SCHEMA or one of its subschemas.  Interprets the
    keywords CONFIG_SCHEMA uses, with jsonschema's draft-07 types: a bool
    is no number, and an integral float is an integer, returned as an int
    where the schema says integer.  A violation is worded as jsonschema
    words its keyword's error.
    """
    kind, cls = schema["type"], type(value)
    if cls not in _TYPES[kind] or kind == "integer" and cls is float and not value.is_integer():
        raise _Violation("%r is not of type %r" % (value, kind))
    if kind in ("integer", "number"):
        if "minimum" in schema and value < schema["minimum"]:
            raise _Violation("%r is less than the minimum of %r" % (value, schema["minimum"]))
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise _Violation("%r is less than or equal to the minimum of %r"
                             % (value, schema["exclusiveMinimum"]))
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            raise _Violation("%r is greater than or equal to the maximum of %r"
                             % (value, schema["exclusiveMaximum"]))
        return int(value) if kind == "integer" else value
    if kind == "string":
        if "enum" in schema and value not in schema["enum"]:
            raise _Violation("%r is not one of %r" % (value, schema["enum"]))
        return value
    if kind == "array":
        least = schema.get("minItems", 0)
        if len(value) < least:
            raise _Violation("%r %s" % (value, "should be non-empty" if least == 1
                                        else "is too short"))
        if len(value) > schema.get("maxItems", len(value)):
            raise _Violation("%r is too long" % (value,))
        if schema["items"] == {"type": "number"} and set(map(type, value)) <= {int, float}:
            return list(value)  # each item conforms as it is
        out = []
        try:
            for item in value:
                out.append(_conforms(item, schema["items"]))
        except _Violation as exc:
            exc.args += (len(out),)
            raise
        return out
    for key in schema.get("required", ()):
        if key not in value:
            raise _Violation("%r is a required property" % (key,))
    properties = schema["properties"]
    if not value.keys() <= properties.keys():  # every object sets additionalProperties false
        extras = sorted(value.keys() - properties.keys())
        raise _Violation("Additional properties are not allowed (%s %s unexpected)" % (
            ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"))
    out = {}
    try:
        for key, item in value.items():
            out[key] = _conforms(item, properties[key])
    except _Violation as exc:
        exc.args += (key,)
        raise
    return out


def _reject_constant(literal):
    """json's parse_constant hook: NaN, Infinity and -Infinity are not JSON."""
    from .errors import ValidationError

    raise ValidationError("config is not valid JSON: %s is not a JSON number" % literal)


def run(config_path, out_dir):
    from .errors import ValidationError

    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_constant=_reject_constant)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError("config is not valid JSON: %s" % exc) from exc
    try:
        checked = _conforms(raw, CONFIG_SCHEMA)
    except _Violation as exc:
        phrase, *keys = exc.args
        path = "".join("[%d]" % key if type(key) is int else "." + key for key in reversed(keys))
        raise ValidationError("config rejected: config%s: %s" % (path, phrase)) from None
    config = dict(DEFAULTS)
    config.update(checked)

    result, tables = _HANDLERS[config["command"]](config)
    _write_outputs(config, result, tables, out_dir)


def _require(config, *fields):
    from .errors import ValidationError

    for f in fields:
        if f not in config:
            raise ValidationError(
                "command %r requires the %r field" % (config["command"], f)
            )


def _load_state(spec):
    from .errors import ValidationError
    from .operators import DensityMatrix
    from .serialize import matrix_from_json

    if "matrix" in spec:
        if "eigenvalues" in spec or "rotation" in spec:
            raise ValidationError("state: give either matrix or eigenvalues")
        return DensityMatrix.from_matrix(matrix_from_json(spec["matrix"]))
    if "eigenvalues" not in spec:
        raise ValidationError("state needs eigenvalues or a matrix")
    rotation = matrix_from_json(spec["rotation"]) if "rotation" in spec else None
    return DensityMatrix.from_eigenvalues(spec["eigenvalues"], rotation=rotation)


def _load_kernel(config, state):
    """The config's kernel; a preset is checked against dim_budget before it is built."""
    import numpy as np

    from .apps import goodness_kernel, homogeneity_kernel
    from .errors import ValidationError
    from .operators import Kernel, _kron, hermitize, symmetrize_kernel
    from .serialize import matrix_from_json

    spec, budget = config["kernel"], config.get("dim_budget")
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
    sx, sy, sz = (np.array(m, dtype=complex)
                  for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
    if name == "pauli-xy":
        return symmetrize_kernel([sx, sy])
    if name == "pauli-xx-yy":
        return Kernel(2, 2, hermitize(_kron(sx, sx) + _kron(sy, sy)))
    if name == "sigma-zz":
        return Kernel(2, 2, hermitize(_kron(sz, sz)))
    if name == "goodness":
        return goodness_kernel(state, budget)
    # CONFIG_SCHEMA admits no other preset
    if "d" not in spec:
        raise ValidationError("the homogeneity preset needs d")
    return homogeneity_kernel(spec["d"], budget)


def _scaling(config, report):
    """Resolve the moment scaling to (exponent_for_csv, factor_fn)."""
    from .errors import ValidationError

    c = report.c
    if config.get("scaling", {"mode": "power"})["mode"] == "order2":
        if c != 2:
            raise ValidationError("order2 scaling needs a kernel of degeneracy order 2, got %r" % c)
        return 2, lambda n: float(n - 1)
    # `_limit_setup` has rejected a fully degenerate kernel, so c is an order
    return c, lambda n: float(n) ** (c / 2.0)


def _cmd_decompose(config):
    from .hoeffding import kernel_components

    _require(config, "state", "kernel")
    state = _load_state(config["state"])
    kernel = _load_kernel(config, state)
    result = kernel_components(kernel, state).to_json()
    return result, {"components": (["l", "norm_sq"], result["components"])}


def _limit_setup(state, kernel):
    from .ccr import build_ccr_basis, kernel_to_limit
    from .hoeffding import kernel_components

    report = kernel_components(kernel, state)
    basis = build_ccr_basis(state)
    limit = kernel_to_limit(kernel, report, basis)
    return report, basis, limit


def _cmd_moments(config):
    result, tables, _, _ = _moments(config)
    return result, tables


def _moments(config, variance=False):
    """The moments result and table, the kernel's report, and {n: Var(U_n)}.

    One `centered_moments` call serves every n of n_list and every p of
    p_list and, with variance=True, Var(U_n) = E (U_n - theta)^2 as well;
    the variances are left empty otherwise.  The moment of
    factor(n) (U_n - theta) is factor(n)^p times the centered moment; one
    that is not finite raises ToleranceError.
    """
    from .ccr import _route_moments
    from .errors import ToleranceError
    from .ustat import centered_moments

    _require(config, "state", "kernel", "n_list", "p_list")
    state = _load_state(config["state"])
    kernel = _load_kernel(config, state)
    report, basis, limit = _limit_setup(state, kernel)
    exponent, factor_fn = _scaling(config, report)
    budget = config.get("dim_budget")
    ps = sorted(set(config["p_list"]))
    ns = sorted(set(config["n_list"]))
    limits = {p: v["wick"] for p, v in _route_moments(limit, basis, ps, ("wick",)).items()}
    orders = sorted(set(ps) | ({2} if variance else set()))
    values = centered_moments(kernel, state, ns, orders, budget=budget)
    moments, variances = {}, {}
    for n, by_order in zip(ns, values):
        by_order = dict(zip(orders, by_order))
        for p in ps:
            try:
                moments[n, p] = factor_fn(n) ** p * by_order[p]
            except OverflowError:  # factor(n)^p is past the float range
                moments[n, p] = math.inf
            if not math.isfinite(moments[n, p]):
                raise ToleranceError("exact moment of order %d at n=%d is not finite once "
                                     "scaled: %r" % (p, n, moments[n, p]))
        if variance:
            variances[n] = by_order[2]
    rows = [
        {
            "n": n,
            "p": p,
            "scaling_exponent": exponent,
            "moment": moments[n, p],
            "limit_moment": limits[p],
            "abs_gap": abs(moments[n, p] - limits[p]),
        }
        for p in ps
        for n in ns
    ]
    header = ["n", "p", "scaling_exponent", "moment", "limit_moment", "abs_gap"]
    result = {
        "theta": report.theta,
        "c": report.c,
        "rows": rows,
    }
    return result, {"moments": (header, rows)}, report, variances


def _cmd_limit(config):
    from .ccr import _route_moments

    _require(config, "state", "kernel", "p_list")
    state = _load_state(config["state"])
    kernel = _load_kernel(config, state)
    report, basis, limit = _limit_setup(state, kernel)
    routes = _route_moments(limit, basis, sorted(set(config["p_list"])), ("wick", "fock"))
    moments = [{"p": p, "wick": r["wick"], "fock": r["fock"], "abs_gap": abs(r["wick"] - r["fock"])}
               for p, r in routes.items()]
    result = {"polynomial": limit.to_json(), "moments": moments}
    header = ["p", "wick", "fock", "abs_gap"]
    return result, {"limit_moments": (header, moments)}


def _cmd_convergence(config):
    from .errors import ToleranceError
    from .hoeffding import variance_formula

    result, tables, report, variances = _moments(config, variance=True)
    variance_rows = []
    for n, exact in sorted(variances.items()):
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
    from .apps import run_test
    from .errors import ValidationError

    _require(config, "state", "alpha", "n_list")
    if config.get("kernel", {"preset": "goodness"}) != {"preset": "goodness"}:
        raise ValidationError("test-sim runs only the goodness kernel of its state")
    state = _load_state(config["state"])
    alternative = None
    if "alternative" in config:
        alternative = _load_state(config["alternative"])
    results = run_test(state, config["alpha"], sorted(set(config["n_list"])),
                       interval=config.get("interval"), alternative=alternative,
                       budget=config.get("dim_budget"))
    rows = [dict(r, interval_lo=r["interval"][0], interval_hi=r["interval"][1]) for r in results]
    header = ["n", "alpha_hat", "alpha_se", "beta_hat", "beta_se",
              "interval_lo", "interval_hi"]
    result = results[0] if len(results) == 1 else {"results": results}
    return result, {"test": (header, rows)}


def _cmd_metrology(config):
    from .apps import metrology_overlap

    _require(config, "state", "kernel", "n_list", "t", "g1", "g2")
    state = _load_state(config["state"])
    kernel = _load_kernel(config, state)
    results = metrology_overlap(
        kernel, state, config["t"], config["g1"], config["g2"],
        sorted(set(config["n_list"])), budget=config.get("dim_budget"),
    )
    rows = [dict(r, abs_gap=abs(complex(r["overlap_re"], r["overlap_im"]) - r["limit"]))
            for r in results]
    header = ["n", "overlap_re", "overlap_im", "limit", "abs_gap"]
    result = results[0] if len(results) == 1 else {"results": results}
    return result, {"metrology": (header, rows)}


def _cmd_hermite_check(config):
    from .ccr import hermite_orthogonality_check
    from .errors import ToleranceError

    rows = [
        {"n": n, "m": total - n, "sigma_sq": sigma_sq,
         "max_residual": hermite_orthogonality_check(n, total - n, sigma_sq)}
        for sigma_sq in config["sigma_sq_list"]
        for total in range(config["max_order"] + 1)
        for n in range(total + 1)
    ]
    # the first row, n = m = 0, has no lower monomial and reads 0
    worst = max(row["max_residual"] for row in rows)
    result = {"max_residual": worst, "tolerance": config["hermite_tol"]}
    if worst > config["hermite_tol"]:
        raise ToleranceError(
            "hermite orthogonality residual %.3e exceeds %.1e"
            % (worst, config["hermite_tol"])
        )
    header = ["n", "m", "sigma_sq", "max_residual"]
    return result, {"hermite": (header, rows)}


# CONFIG_SCHEMA admits exactly these commands
_HANDLERS = {
    "decompose": _cmd_decompose,
    "moments": _cmd_moments,
    "limit": _cmd_limit,
    "convergence": _cmd_convergence,
    "test-sim": _cmd_test_sim,
    "metrology": _cmd_metrology,
    "hermite-check": _cmd_hermite_check,
}


def _write_outputs(config, result, tables, out_dir):
    import hashlib

    import numpy as np

    from . import __version__
    from .serialize import dump_csv, dump_json, remove_other_files, replace_file

    # every text is formed before any file is touched, so a run that fails
    # to serialize leaves the previous run's outputs as they were
    canonical = dump_json(config, indent=0).encode("utf-8")
    manifest = {
        "command": config["command"],
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "seed": config["seed"],
        "versions": {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "qustat": __version__,
        },
    }
    tables_dir = os.path.join(out_dir, "tables")
    texts = {
        os.path.join(out_dir, "manifest.json"): dump_json(manifest, indent=2),
        os.path.join(out_dir, "result.json"): dump_json(result, indent=2),
    }
    for name, (header, rows) in tables.items():
        texts[os.path.join(tables_dir, name + ".csv")] = dump_csv(header, rows)
    if not os.path.isdir(tables_dir):
        os.makedirs(tables_dir, exist_ok=True)
    # tables/ holds only the tables this run's manifest describes
    remove_other_files(tables_dir, ".csv", [name + ".csv" for name in tables])
    for path, text in texts.items():
        replace_file(path, text)


if __name__ == "__main__":
    main()
