"""Independent oracles the tests check the package against.

None of these is part of the package: the Monte Carlo samplers draw
seeded random numbers, which no command does, the dense helpers form
matrices the package itself never needs (`_densify` makes a band
dense), `tensor_distinct_plan` is the plan recursion with no Python-list
leaves, `per_block_law` is `finite_law`'s one-block-at-a-time route
with its own densify and Born product, checking each law on its own
(`checked_probabilities`), and
`poly_power` is the plain expansion of L^p that the moment passes of
`qustat.ccr` never form.  The reference routes of the package's
numerical shortcuts take the long way to the same floats: the kernels
built with np.kron (`kron_goodness_entries`, `kron_homogeneity_entries`,
`kron_symmetrized_entries`), the limit terms read entry by entry off the
coefficient tensor (`indexed_limit_terms`), the limit-law CDF with a
numpy ufunc of math.erf (`frompyfunc_law_cdf`) and the JSON writer that
recurses into every item (`recursive_dump_json`).
"""

import functools
import itertools
import math
from collections import Counter

import numpy as np

from qustat import DensityMatrix, HermitianOperator, ToleranceError, ValidationError
from qustat.apps import _ruben_weights
from qustat.ccr import CENTERED_RESIDUE_RTOL
from qustat.operators import _merge_first, _pauli_pair_probes, rotate_sites
from qustat.serialize import _escape, format_float
from qustat.ustat import PROB_DEFICIT_TOL, _spin_stack


def tensor_power_state(rho, n):
    """Dense rho^{\\otimes n}."""
    out = rho.entries
    for _ in range(n - 1):
        out = np.kron(out, rho.entries)
    return out


def dense_power_trace(matrix, rho, n, p=1):
    """Tr(rho^{\\otimes n} matrix^p) of a dense matrix on n sites, from the dense state."""
    power = np.linalg.matrix_power(matrix, p)
    return float(np.sum(tensor_power_state(rho, n) * power.T).real)


def site_permute(matrix, n, d, perm):
    """Conjugate by the permutation operator sending site k to perm[k] (0-based).

    Equivalently: result[i_{perm[0]},...][j_...] = matrix[i_0,...][j_0,...].
    """
    t = matrix.reshape((d,) * (2 * n))
    inv = [0] * n
    for k, p in enumerate(perm):
        inv[p] = k
    axes = [*inv, *(n + a for a in inv)]
    return np.ascontiguousarray(t.transpose(axes)).reshape(d ** n, d ** n)


def _densify(band, levels):
    """The levels x levels matrix of a band kept as band[..., w + s, k] = <k + s| M |k>.

    Leading axes of `band` are batch axes, one matrix each.
    """
    width = band.shape[-2] // 2
    row = np.arange(levels) + np.arange(-width, width + 1)[:, None]
    kept = (row >= 0) & (row < levels)
    out = np.zeros(band.shape[:-2] + (levels, levels), dtype=complex)
    out[..., row[kept], np.nonzero(kept)[1]] = band[..., kept]
    return out


def tensor_distinct_plan(t):
    """`operators._distinct_plan` as a recursion on the tensor down to r = 0.

    Every level, r = 1 included, slices t with np.moveaxis and tests each
    slice with ndarray.any(); each leaf is complex() of a 0-d slice.
    """
    r = t.ndim // 2
    if r == 0:
        return complex(t)
    slices = np.moveaxis(t, r, 1)
    terms = [
        (a, b, tensor_distinct_plan(slices[a, b]))
        for a in range(2)
        for b in range(2)
        if slices[a, b].any()
    ]
    merged = [_merge_first(t, k) for k in range(1, r)]
    return terms, [tensor_distinct_plan(x) for x in merged if x.any()]


def checked_probabilities(probs):
    """Born probabilities that must sum to 1, one array at a time: checked, clipped at 0, renormalized."""
    deficit = abs(1.0 - probs.sum())
    if deficit > PROB_DEFICIT_TOL or probs.min() < -PROB_DEFICIT_TOL:
        raise ToleranceError(
            "measurement probabilities deficient by %.3e (min %.3e)" % (deficit, probs.min())
        )
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def per_block_law(kernel, weights, n_list):
    """`finite_law` for qubits, one spin block at a time: densify, eigh, Born product."""
    bands, stack_weights, edges = _spin_stack(kernel, weights, n_list)
    laws = []
    for e in edges:
        atoms, probs = [], []
        for lo, hi in zip(e[:-1], e[1:]):
            vals, vecs = np.linalg.eigh(_densify(bands[:, lo:hi], hi - lo))
            atoms.append(vals)
            probs.append(np.array([w[lo:hi] for w in stack_weights]) @ np.abs(vecs) ** 2)
        laws.append((np.concatenate(atoms),
                     [checked_probabilities(p) for p in np.hstack(probs)]))
    return laws


def poly_power(poly, p):
    """p-th power of a monomial dict, concatenating monomials in order."""
    out = {(): 1.0}
    for _ in range(p):
        nxt = {}
        for m1, c1 in out.items():
            for m2, c2 in poly.items():
                key = m1 + m2
                nxt[key] = nxt.get(key, 0.0) + c1 * c2
        out = nxt
    return out


def simulate_measurement(op, state, replicates, seed):
    """Sample eigenvalues of an observable under a state, Born distributed.

    `state` may be a density matrix or a 1-d vector of diagonal weights.
    Outcomes are drawn with a seeded generator; replicate i is entry i of
    the returned array for any replicate count.
    """
    matrix = op.entries if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
    sw = state.entries if isinstance(state, DensityMatrix) else np.asarray(state)
    vals, vecs = np.linalg.eigh(matrix)
    if sw.ndim == 1:
        probs = np.einsum("i,ik->k", sw, np.abs(vecs) ** 2)
    else:
        probs = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), sw, vecs))
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(vals), size=int(replicates), p=checked_probabilities(probs))
    return vals[idx]


def classical_mc_oracle(h, lam, n, p, replicates, seed, scale_exponent=1):
    """Monte Carlo moments of a classical U-statistic, for cross-checks.

    h is an order-r array over outcome tuples, lam a probability vector.
    Estimates E[(n^(scale_exponent/2) (U_n - theta))^p] over i.i.d.
    samples; returns (estimate, standard_error).  Replicate i always uses
    row i of the sample matrix drawn from the seeded generator, so the
    result does not depend on evaluation order.
    """
    h = np.asarray(h, dtype=float)
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    r = h.ndim
    if h.shape != (d,) * r:
        raise ValidationError("kernel shape %r incompatible with %d outcomes" % (h.shape, d))
    if abs(lam.sum() - 1.0) > 1e-12 or lam.min() < 0:
        raise ValidationError("lam must be a probability vector")
    sym = np.zeros_like(h)
    for perm in itertools.permutations(range(r)):
        sym += h.transpose(perm)
    h = sym / math.factorial(r)
    theta = h
    for _ in range(r):
        theta = theta @ lam
    theta = float(theta)
    rng = np.random.default_rng(seed)
    draws = rng.choice(d, size=(replicates, n), p=lam)
    counts = np.empty((replicates, d), dtype=np.int64)
    for v in range(d):
        counts[:, v] = (draws == v).sum(axis=1)
    total = np.zeros(replicates)
    for tup in itertools.product(range(d), repeat=r):
        ways = np.ones(replicates)
        for v, mult in Counter(tup).items():
            c = counts[:, v].astype(float)
            for j in range(mult):
                ways = ways * (c - j)
        total += h[tup] * ways
    denom = 1.0
    for j in range(r):
        denom *= n - j
    u = total / denom
    vals = (float(n) ** (scale_exponent / 2.0) * (u - theta)) ** p
    estimate = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(replicates))
    return estimate, se


def _hermitized(m):
    """0.5 (m + m^dagger), the selfadjoint part `hermitize` keeps."""
    return 0.5 * (m + m.conj().T)


def kron_goodness_entries(rho):
    """The entries of `apps.goodness_kernel(rho)`, summed from np.kron products."""
    d = rho.d
    lam = np.real(np.diag(rho.entries))
    acc = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        probe = lam[i] * np.eye(d, dtype=complex)
        probe[i, i] -= 1.0
        acc += np.kron(probe, probe)
    for j, k in itertools.combinations(range(d), 2):
        sym, skew = _pauli_pair_probes(d, j, k)
        acc += 0.5 * (np.kron(sym, sym) + np.kron(skew, skew))
    return _hermitized(acc)


def kron_homogeneity_entries(d):
    """The entries of `apps.homogeneity_kernel(d)`, summed from np.kron products."""
    probes = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        probes.append(e)
    for j, k in itertools.combinations(range(d), 2):
        probes += [x / math.sqrt(2.0) for x in _pauli_pair_probes(d, j, k)]
    eye = np.eye(d, dtype=complex)
    acc = np.zeros((d ** 4, d ** 4), dtype=complex)
    for x in probes:
        y = np.kron(x, eye) - np.kron(eye, x)
        acc += np.kron(y, y)
    return _hermitized(acc)


def kron_symmetrized_entries(mats):
    """The entries of `symmetrize_kernel(mats)`: np.kron products over every ordering."""
    acc = np.zeros((), dtype=complex)
    for order in itertools.permutations(mats):
        acc = acc + functools.reduce(np.kron, order)
    return _hermitized(acc / math.factorial(len(mats)))


def indexed_limit_terms(report, basis):
    """The terms of `ccr.kernel_to_limit`, reading the coefficient tensor one numpy entry at a time.

    The tensor is formed with np.stack and np.tensordot; each entry is a
    numpy scalar, and the coefficients of a multiset are combined as
    numpy floats.  The checks of `kernel_to_limit` are left out.
    """
    c, d = report.c, basis.d
    mat = report.components[c].kernel.op.entries
    if basis.rotation is not None:
        mat = rotate_sites(mat, c, d, basis.rotation)
    cols = [np.eye(d, dtype=complex).reshape(-1)] + [s.matrix.reshape(-1) for s in basis.symbols]
    m_inv = np.linalg.inv(np.stack(cols, axis=1))
    axes = [a for s in range(c) for a in (s, c + s)]
    t = np.ascontiguousarray(mat.reshape((d,) * (2 * c)).transpose(axes)).reshape((d * d,) * c)
    for axis in range(c):
        t = np.moveaxis(np.tensordot(m_inv, t, ([1], [axis])), 0, axis)
    tol = CENTERED_RESIDUE_RTOL * max(1.0, float(np.abs(t).max()))
    grouped = {}
    for idx in itertools.product(range(1, d * d), repeat=c):
        grouped.setdefault(tuple(sorted(i - 1 for i in idx)), []).append(t[idx].real)
    terms = []
    for key, vals in sorted(grouped.items()):
        counts = Counter(key)
        kappa = math.factorial(c)
        for count in counts.values():
            kappa //= math.factorial(count)
        coeff = kappa * (sum(vals) / len(vals))
        if abs(coeff) > tol:
            terms.append((tuple(counts[i] for i in range(basis.n_symbols)), float(coeff)))
    return terms


def frompyfunc_law_cdf(atoms, probs, mu):
    """`apps._law_cdf` with erf applied by np.frompyfunc(math.erf) and the powers by np.outer."""
    beta, c = _ruben_weights(mu)
    k = len(mu)
    tails = np.cumsum(c[::-1])[::-1]
    w = np.concatenate([np.full(k // 2, tails[0]), tails[1:]])
    powers = 0.5 * (k % 2) + np.arange(len(w))
    log_gamma = np.array([math.lgamma(a + 1.0) for a in powers])

    def cdf(x):
        below = np.searchsorted(atoms, x)
        y = (x - atoms[:below]) / (2.0 * beta)
        if k % 2:
            g = tails[0] * np.frompyfunc(math.erf, 1, 1)(np.sqrt(y)).astype(float)
        else:
            g = np.full(below, tails[0])
        if len(w):
            g -= np.exp(np.outer(np.log(y), powers) - y[:, None] - log_gamma) @ w
        return float(probs[:below] @ g)

    return cdf


def recursive_dump_json(obj, indent=0):
    """`serialize.dump_json` with no shortcut: every item and value is encoded by its own call."""
    layouts = []  # layouts[level]: (opening break, item separator, closing break)

    def layout(level):
        while len(layouts) <= level:
            depth = len(layouts)
            if indent:
                inner = "\n" + " " * (indent * (depth + 1))
                layouts.append((inner, "," + inner, "\n" + " " * (indent * depth)))
            else:
                layouts.append(("", ",", ""))
        return layouts[level]

    keys = {}  # key -> its escaped text and ": "

    def encode(obj, level):
        # the common types first; None, bools, numpy scalars and subclasses last
        kind = type(obj)
        if kind is float:
            return format_float(obj)
        if kind is int:
            return str(obj)
        if isinstance(obj, str):
            return _escape(obj)
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            items = []
            for key in sorted(obj):
                prefix = keys.get(key)
                if prefix is None:
                    if not isinstance(key, str):
                        raise ValidationError("JSON object keys must be strings")
                    prefix = keys[key] = _escape(key) + ": "
                items.append(prefix + encode(obj[key], level + 1))
            lead, sep, tail = layout(level)
            return "{" + lead + sep.join(items) + tail + "}"
        if isinstance(obj, (list, tuple)):
            if not len(obj):
                return "[]"
            items = [encode(item, level + 1) for item in obj]
            lead, sep, tail = layout(level)
            return "[" + lead + sep.join(items) + tail + "]"
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return format_float(obj)
        raise ValidationError("cannot serialize %r" % type(obj))

    return encode(obj, 0) + "\n"
