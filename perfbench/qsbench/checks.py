"""Output checks behind the failure count.

Every reference is computed before the timed region.  Exact quantities are
compared at EXACT_RTOL, so a change in summation order (1e-15 drift) never
reads as a failure.  Monte Carlo rates are only range-checked: the window
of acceptance criterion 9 is a test's concern, not the benchmark's.
"""

import itertools
import math

import numpy as np

from .workloads import metrology_limit

EXACT_RTOL = 1e-8
# Exact moments of finite-n are checked against the dense oracle up to here.
ORACLE_MAX_N = 10
# Metrology overlaps are checked against the dense oracle up to here.
METROLOGY_ORACLE_MAX_N = 8
OVERLAP_ATOL = 1e-10

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _site_product(n, ops):
    """Kronecker product of 2x2 factors; ops maps site -> factor, identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for site in range(n):
        out = np.kron(out, ops.get(site, _I2))
    return out


def pauli_xy_oracle(lam, n_list, p_list):
    """{(n, p): E[(n (U_n - theta))^p]} for the pauli-xy kernel under diag(lam, 1-lam).

    U_n is built from kron products over all site pairs and the moment is a
    weighted trace of its dense power; nothing here calls qustat.
    """
    w1 = np.array([lam, 1.0 - lam])
    kernel = 0.5 * (np.kron(_SX, _SY) + np.kron(_SY, _SX))
    theta = float(np.real(np.einsum("i,ii->", np.kron(w1, w1), kernel)))
    out = {}
    for n in n_list:
        if n > ORACLE_MAX_N:
            continue
        u = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for i, j in itertools.combinations(range(n), 2):
            u += 0.5 * (_site_product(n, {i: _SX, j: _SY}) + _site_product(n, {i: _SY, j: _SX}))
        u /= math.comb(n, 2)
        m = n * (u - theta * np.eye(2 ** n))
        w = np.ones(1)
        for _ in range(n):
            w = np.kron(w, w1)
        for p in p_list:
            power = np.linalg.matrix_power(m, p)
            out[(n, p)] = float(np.real(np.einsum("i,ii->", w, power)))
    return out


def metrology_oracle(n_list, t, g1, g2):
    """{n: <+|^n exp(i t (g1-g2) n^(-3/2) H_n) |+>^n} for H_n = sum over site pairs of S[sz sx].

    H_n is built from kron products and exponentiated through its spectrum;
    nothing here calls qustat.
    """
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    out = {}
    for n in n_list:
        if n > METROLOGY_ORACLE_MAX_N:
            continue
        h = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for i, j in itertools.combinations(range(n), 2):
            h += 0.5 * (_site_product(n, {i: _SZ, j: _SX}) + _site_product(n, {i: _SX, j: _SZ}))
        psi = np.ones(1, dtype=complex)
        for _ in range(n):
            psi = np.kron(psi, plus)
        vals, vecs = np.linalg.eigh(h)
        weights = np.abs(vecs.conj().T @ psi) ** 2
        out[n] = complex(np.sum(weights * np.exp(1j * t * (g1 - g2) * n ** -1.5 * vals)))
    return out


def references(params, exps):
    """References for the written experiments of one workload, computed outside the timed region."""
    refs = {}
    for name, config, _ in exps:
        if config["command"] == "convergence":
            refs[name] = pauli_xy_oracle(params.lam, config["n_list"], config["p_list"])
        elif config["command"] == "metrology":
            refs[name] = metrology_oracle(config["n_list"], config["t"], config["g1"], config["g2"])
    return refs


def _close(value, reference):
    return math.isfinite(value) and abs(value - reference) <= EXACT_RTOL * max(1.0, abs(reference))


def _pauli_xy_limit_m2(lam):
    """Limit second moment of the pauli-xy statistic: 1 + (2 lam - 1)^2."""
    return 1.0 + (2.0 * lam - 1.0) ** 2


def _check_convergence(config, result, ref):
    problems = []
    lam = config["state"]["eigenvalues"][0]
    xi2 = 0.5 * _pauli_xy_limit_m2(lam)  # squared norm of the order-2 component
    if result["c"] != 2 or abs(result["theta"]) > 1e-12:
        problems.append("degeneracy order %r or theta %r" % (result["c"], result["theta"]))
    for row in result["rows"]:
        n, p, moment = row["n"], row["p"], row["moment"]
        if (n, p) in ref and not _close(moment, ref[(n, p)]):
            problems.append("moment n=%d p=%d: %r vs oracle %r" % (n, p, moment, ref[(n, p)]))
        if p == 2:
            # n^2 Var(U_n) = n^2 xi_2 / C(n, 2) for a kernel degenerate of order 2
            exact = n * n * xi2 / math.comb(n, 2)
            if not _close(moment, exact):
                problems.append("second moment n=%d: %r vs %r" % (n, moment, exact))
            if not _close(row["limit_moment"], 2.0 * xi2):
                problems.append("limit second moment %r vs %r" % (row["limit_moment"], 2.0 * xi2))
        if not math.isfinite(row["limit_moment"]) or not _close(
                row["abs_gap"], abs(moment - row["limit_moment"])):
            problems.append("limit gap n=%d p=%d" % (n, p))
    for row in result["variance_checks"]:
        exact = xi2 / math.comb(row["n"], 2)
        if not _close(row["variance_exact"], exact) or not _close(row["variance_formula"], exact):
            problems.append("variance n=%d: %r, %r vs %r" % (
                row["n"], row["variance_exact"], row["variance_formula"], exact))
    if sorted({(r["n"], r["p"]) for r in result["rows"]}) != sorted(
            itertools.product(config["n_list"], config["p_list"])):
        problems.append("moment rows do not cover n_list x p_list")
    return problems


def _in_unit(x):
    return x is not None and 0.0 <= x <= 1.0


def _check_test_sim(config, result, ref):
    problems = []
    rows = result["results"] if "results" in result else [result]
    if [r["n"] for r in rows] != sorted(config["n_list"]):
        problems.append("test results do not cover n_list")
    null = config["state"]["eigenvalues"]
    alt = config["alternative"]["eigenvalues"]
    theta = sum((x - y) ** 2 for x, y in zip(alt, null))
    for r in rows:
        lo, hi = r["interval"]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            problems.append("bad interval %r at n=%d" % (r["interval"], r["n"]))
        if not (_in_unit(r["alpha_hat"]) and _in_unit(r["beta_hat"])):
            problems.append("rate outside [0, 1] at n=%d" % r["n"])
        if not (r["alpha_se"] >= 0.0 and r["beta_se"] >= 0.0):
            problems.append("negative standard error at n=%d" % r["n"])
        if not _close(r["theta_true"], theta):
            problems.append("theta_true %r vs %r" % (r["theta_true"], theta))
        if not r["limit_moments"]["kernel_second_moment"] > 0.0:
            problems.append("limit second moment not positive at n=%d" % r["n"])
    return problems


def _check_metrology(config, result, ref):
    problems = []
    rows = result["results"] if "results" in result else [result]
    if [r["n"] for r in rows] != sorted(config["n_list"]):
        problems.append("metrology results do not cover n_list")
    limit = metrology_limit()
    for r in rows:
        if not _close(r["limit"], limit):
            problems.append("metrology limit %r vs %r" % (r["limit"], limit))
        if not math.hypot(r["overlap_re"], r["overlap_im"]) <= 1.0 + 1e-12:
            problems.append("overlap modulus above 1 at n=%d" % r["n"])
        if r["n"] in ref and not abs(complex(r["overlap_re"], r["overlap_im"]) - ref[r["n"]]) <= OVERLAP_ATOL:
            problems.append("overlap n=%d: %r vs oracle %r" % (
                r["n"], complex(r["overlap_re"], r["overlap_im"]), ref[r["n"]]))
    return problems


_CHECKS = {
    "convergence": _check_convergence,
    "test-sim": _check_test_sim,
    "metrology": _check_metrology,
}


def check(config, result, ref=None):
    """Problems found in one experiment's result document; empty when it passes."""
    try:
        return _CHECKS[config["command"]](config, result, ref or {})
    except (KeyError, TypeError, ValueError) as exc:
        return ["malformed result: %r" % (exc,)]
