"""Independent oracles the tests check the package against.

None of these is part of the package: the Monte Carlo samplers draw
seeded random numbers, which no command does, the dense helpers form
matrices the package itself never needs (`_densify` makes a band
dense), `tensor_distinct_plan` is the plan recursion with no Python-list
leaves, `per_block_law` is `finite_law`'s one-block-at-a-time route
with its own densify and Born product, checking each law on its own
(`checked_probabilities`), and
`poly_power` is the plain expansion of L^p that the moment passes of
`qustat.ccr` never form.
"""

import itertools
import math
from collections import Counter

import numpy as np

from qustat import DensityMatrix, HermitianOperator, ToleranceError, ValidationError
from qustat.operators import _merge_first
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
