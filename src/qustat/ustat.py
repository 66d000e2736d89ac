"""U-statistics of product states: assembly, variance, exact finite-n laws.

The statistic averages an order-r kernel over all r-subsets of n sites.
Two constructions are provided: the direct subset sum, and a fluctuation
expansion that rewrites l! C(n,l) U_n / n^{l/2} for a fully degenerate
product kernel in terms of collective fluctuation and average operators.
Their agreement is a strong cross-check on both.  Exact moments and laws
of U_n are read off its blocks: spin-j blocks of dimension at most n + 1
for qubits, the dense d^n statistic as the one block for d >= 3.  The
qubit blocks are evaluated from one plan of the kernel's distinct-site
sum, and `centered_moments` takes every moment order and scale asked of
one n in a single pass over them.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError, ValidationError
from .operators import (
    HermitianOperator,
    Kernel,
    _embedded_add,
    _weighted_power_trace,
    binom,
    check_dim_budget,
    eigenframe,
    frobenius,
    hermitize,
    symmetrize,
    symmetrize_kernel,
    tensor_weights,
    weighted_trace,
)

CENTERING_TOL = 1e-10
PROB_DEFICIT_TOL = 1e-10


@dataclass(frozen=True)
class UStatistic:
    """The n-site U-statistic of a kernel, as a dense operator."""

    n: int
    kernel: Kernel
    op: HermitianOperator


def assemble_direct(kernel, n, budget=None):
    """Average the kernel embeddings over all site subsets of size r."""
    d, r = kernel.d, kernel.r
    if n < r:
        raise ValidationError("need n >= r, got n=%d for order %d" % (n, r))
    check_dim_budget(d ** n, budget)
    out = np.zeros((d ** n, d ** n), dtype=complex)
    weight = 1.0 / binom(n, r)
    for beta in itertools.combinations(range(n), r):
        _embedded_add(out, kernel.op.entries, beta, n, d, weight=weight)
    return UStatistic(n=n, kernel=kernel, op=HermitianOperator(d ** n, out))


def variance_exact(ustat, rho):
    """Var(U_n) = Tr(rho^n U^2) - theta^2 from the dense operator."""
    m, n = ustat.op.entries, ustat.n
    return weighted_trace(m, rho, n, 2) - weighted_trace(m, rho, n) ** 2


def centered_moments(kernel, rho, n, orders, budget=None):
    """[E (factor (U_n - theta))^p under rho^{otimes n} for (p, factor) in orders], exactly.

    Every moment is summed over the blocks of U_n (see `_blocks`) in one
    pass, so the blocks are built once however many orders are asked
    for, and for qubits the largest matrix built has dimension n + 1.
    """
    orders = [(int(p), float(factor)) for p, factor in orders]
    if any(p < 1 for p, _ in orders):
        raise ValidationError("moment order must be >= 1")
    w1, u = eigenframe(rho)
    k = kernel if u is None else kernel.rotated(u)
    theta = float(_weighted_power_trace(tensor_weights(w1, k.r), k.op.entries, 1).real)
    totals = [0.0] * len(orders)
    for block, (weights,) in _blocks(k, [w1], n, budget):
        shifted = block - theta * np.eye(len(block))
        for i, (p, factor) in enumerate(orders):
            totals[i] += _weighted_power_trace(weights, factor * shifted, p).real
    return [float(total) for total in totals]


def finite_law(kernel, weights, n, budget=None):
    """The exact law of U_n under each product state diag(w)^{otimes n}.

    `kernel` is written in a frame where every state is diagonal, and
    `weights` holds one vector of one-site weights per state.  Returns
    (atoms, [probabilities per state]): the eigenvalues of U_n, unsorted
    and possibly repeated, and the Born probability of each atom under
    each state.  Atoms of blocks that no state weighs are left out.
    """
    atoms, probs = [], []
    for block, block_weights in _blocks(kernel, weights, n, budget):
        vals, vecs = np.linalg.eigh(block)
        atoms.append(vals)
        probs.append(np.array(block_weights) @ np.abs(vecs) ** 2)
    return np.concatenate(atoms), [_checked_probabilities(p) for p in np.hstack(probs)]


def _checked_probabilities(probs):
    """Born probabilities that must sum to 1: checked, clipped at 0, renormalized."""
    deficit = abs(1.0 - probs.sum())
    if deficit > PROB_DEFICIT_TOL or probs.min() < -PROB_DEFICIT_TOL:
        raise ToleranceError(
            "measurement probabilities deficient by %.3e (min %.3e)"
            % (deficit, probs.min())
        )
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def _blocks(kernel, weights, n, budget=None):
    """Yield (block of U_n, [weights of each state on the block]).

    `kernel` and the one-site `weights` are as for `finite_law`.  Qubit
    statistics split into spin-j blocks of dimension at most n + 1, and
    blocks that every state weighs 0 are skipped; for d >= 3 the dense
    d^n statistic is the one block.  Either way E f(U_n) under a state is
    the sum over blocks of Tr(diag(w) f(block)).
    """
    d, r = kernel.d, kernel.r
    if n < r:
        raise ValidationError("need n >= r, got n=%d for order %d" % (n, r))
    if d != 2:
        stat = assemble_direct(kernel, n, budget=budget)
        yield stat.op.entries, [tensor_weights(w, n) for w in weights]
        return
    check_dim_budget(n + 1, budget)
    plan = _distinct_plan(kernel.op.entries.reshape((2,) * (2 * r)))
    norm = math.factorial(r) * binom(n, r)
    for pieces in zip(*(_spin_blocks(w, n) for w in weights)):
        block_weights = [w for _, w in pieces]
        if any(np.any(w) for w in block_weights):
            yield _distinct_sum(plan, n, pieces[0][0]) / norm, block_weights


# ---------------------------------------------------------------------------
# Spin-j blocks of qubit statistics
#
# U_n commutes with site permutations and rho^{(x)n} is a product state, so
# by Schur-Weyl duality both split over the spin-j irreps of SU(2), with
# j = n/2 - k for k = 0..floor(n/2), each repeated m_j times.  On a block,
# the collective operator J(X) = sum_s X^(s) acts by the spin-j
# representation, and the kernel summed over pairwise distinct sites is a
# polynomial in collective operators.  Hence
# E f(U_n) = sum_j m_j Tr(pi_j(rho) f(A_j)) with blocks of dimension 2j + 1.


def _spin_blocks(w1, n):
    """[(m, weights)] per spin block: S_z eigenvalues m = j, j-1, .., -j and m_j pi_j(rho).

    w1 = (lam_0, lam_1) are the state's eigenvalues in the kernel's frame;
    the vector with S_z = m has n/2 + m sites in state 0 and n/2 - m in
    state 1.  Weights are formed in log space, since C(n, k) and lam^n
    leave the double range long before n = 1000.
    """
    out = []
    for k in range(n // 2 + 1):
        mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        ones = k + np.arange(n - 2 * k + 1)
        logw = math.log(mult) + _xlogy(n - ones, w1[0]) + _xlogy(ones, w1[1])
        out.append((n / 2.0 - ones, np.exp(logw)))
    return out


def _xlogy(count, lam):
    """count * log(lam), with 0 * log(0) = 0; a roundoff-negative lam counts as 0."""
    if lam > 0:
        return count * math.log(lam)
    return np.where(count > 0, -np.inf, 0.0)


def _collective(a, b, mat, n, m):
    """J(E_ab) @ mat on the spin block with S_z eigenvalues m (descending).

    J(E_00) = n/2 + S_z, J(E_11) = n/2 - S_z, J(E_01) = S_+, J(E_10) = S_-.
    """
    if a == b:
        return (n / 2.0 + (m if a == 0 else -m))[:, None] * mat
    j = m[0]
    # S_+ |m> = sqrt((j - m)(j + m + 1)) |m + 1>, and S_- is its transpose
    up = np.sqrt((j - m[1:]) * (j + m[1:] + 1))[:, None]
    out = np.zeros_like(mat)
    if a == 0:
        out[:-1] = up * mat[1:]
    else:
        out[1:] = up * mat[:-1]
    return out


def _merge_first(t, k):
    """The (r-1)-site operator in which site 0 multiplies site k from the left."""
    r = t.ndim // 2
    rows, cols = list(range(r)), list(range(r, 2 * r))
    cols[0] = rows[k]
    out_rows = [rows[0] if s == k else rows[s] for s in range(1, r)]
    return np.einsum(t, rows + cols, out_rows + cols[1:])


def _distinct_plan(t):
    """The recursion of `_distinct_sum` for the r-site operator t, pruned of zero terms.

    t has shape (2,) * 2r, row indices first.  Peeling off site 0 gives
    D(X_1..X_r) = J(X_1) D(X_2..X_r) - sum_k D(X_2, .., X_1 X_k, .., X_r),
    where the subtracted terms are the labellings in which site 0 lands on
    the site of factor k.  The plan of t is its scalar value for r = 0,
    else (terms, merged): the (a, b, plan of the slice X_1 = E_ab) whose
    slice is nonzero, and the plans of the nonzero merged operators.  It
    depends on t alone, so one plan serves every spin block.
    """
    r = t.ndim // 2
    if r == 0:
        return complex(t)
    slices = np.moveaxis(t, r, 1)
    terms = [
        (a, b, _distinct_plan(slices[a, b]))
        for a in range(2)
        for b in range(2)
        if np.any(slices[a, b])
    ]
    merged = [_merge_first(t, k) for k in range(1, r)]
    return terms, [_distinct_plan(x) for x in merged if np.any(x)]


def _distinct_sum(plan, n, m):
    """Sum of an r-site operator over pairwise distinct sites, on one spin block.

    `plan` is the operator's `_distinct_plan`; m holds the block's S_z
    eigenvalues.
    """
    if isinstance(plan, complex):
        return plan * np.eye(len(m), dtype=complex)
    terms, merged = plan
    out = np.zeros((len(m), len(m)), dtype=complex)
    for a, b, child in terms:
        out += _collective(a, b, _distinct_sum(child, n, m), n, m)
    for child in merged:
        out -= _distinct_sum(child, n, m)
    return out


# ---------------------------------------------------------------------------
# Fluctuation expansion


@dataclass(frozen=True)
class FluctuationTerm:
    """One summand: coeff * n^(-t/2) * S[symbols...].

    Each symbol is ("F", tree) for a collective fluctuation or ("P", tree)
    for a collective average; a tree is a factor index (leaf) or a tuple
    of subtrees denoting their symmetrized product.
    """

    t: int
    symbols: tuple
    coeff: int

    def describe(self):
        parts = " ".join(
            "%s(%s)" % (kind, _tree_label(tree)) for kind, tree in self.symbols
        )
        return "%+d * n^(-%d/2) * S[%s]" % (self.coeff, self.t, parts)


def _tree_label(tree):
    if isinstance(tree, int):
        return "A%d" % (tree + 1)
    return "S[" + " ".join(_tree_label(c) for c in tree) + "]"


def _tree_key(tree):
    if isinstance(tree, int):
        return (0, tree)
    return (1, tuple(_tree_key(c) for c in tree))


def _make_node(children):
    return tuple(sorted(children, key=_tree_key))


def _partitions(items):
    """All set partitions of a list, as lists of tuples."""
    if len(items) == 1:
        yield [tuple(items)]
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1 :]
        yield [(first,)] + part


def _expand_blocks(blocks):
    """Terms of n^(-k/2) SD(blocks) as (t, blocks, coeff) triples.

    SD is the symmetrized sum over pairwise-distinct site labellings; the
    leading term replaces each block by its collective fluctuation, and
    every coarser partition contributes a correction with a merged block
    and an extra half power of 1/n per lost block.
    """
    k = len(blocks)
    terms = [(0, tuple(blocks), 1)]
    if k == 1:
        return terms
    for part in _partitions(list(range(k))):
        if len(part) == k:
            continue
        merged = tuple(
            blocks[g[0]] if len(g) == 1 else _make_node([blocks[i] for i in g])
            for g in part
        )
        for t, syms, coeff in _expand_blocks(merged):
            terms.append((t + (k - len(part)), syms, -coeff))
    return terms


@dataclass(frozen=True)
class FluctuationForm:
    """Symbolic expansion of l! C(n,l) U_n / n^(l/2) for degenerate factors."""

    l: int
    terms: tuple

    def describe(self):
        return [term.describe() for term in self.terms]

    def evaluate(self, factors, rho, n, budget=None):
        """Sum the terms numerically as an operator on n sites."""
        mats = _factor_matrices(factors, rho)
        d = rho.d
        check_dim_budget(d ** n, budget)
        cache = {}

        def tree_matrix(tree):
            if isinstance(tree, int):
                return mats[tree]
            if tree not in cache:
                cache[tree] = symmetrize([tree_matrix(c) for c in tree]).entries
            return cache[tree]

        sym_cache = {}

        def symbol_matrix(kind, tree):
            key = (kind, tree)
            if key not in sym_cache:
                block = tree_matrix(tree)
                out = np.zeros((d ** n, d ** n), dtype=complex)
                for s in range(n):
                    _embedded_add(out, block, (s,), n, d)
                out *= n ** -0.5 if kind == "F" else 1.0 / n
                sym_cache[key] = out
            return sym_cache[key]

        total = np.zeros((d ** n, d ** n), dtype=complex)
        for term in self.terms:
            ops = [symbol_matrix(kind, tree) for kind, tree in term.symbols]
            total += term.coeff * float(n) ** (-term.t / 2.0) * symmetrize(ops).entries
        return hermitize(total)


def fluctuation_form(l):
    """Build the symbolic fluctuation expansion for l degenerate factors."""
    if l < 1:
        raise ValidationError("need at least one factor")
    raw = _expand_blocks(tuple(range(l)))
    merged = {}
    for t, blocks, coeff in raw:
        symbols = []
        for tree in blocks:
            if isinstance(tree, int):
                symbols.append(("F", tree))
            else:
                symbols.append(("P", tree))
                t -= 1  # F_n of a composite block is sqrt(n) P_n of it
        if t < 0:
            raise AssertionError("negative power of n in fluctuation expansion")
        key = (t, tuple(sorted(symbols, key=lambda s: (s[0], _tree_key(s[1])))))
        merged[key] = merged.get(key, 0) + coeff
    terms = tuple(
        FluctuationTerm(t=key[0], symbols=key[1], coeff=c)
        for key, c in sorted(merged.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        if c != 0
    )
    return FluctuationForm(l=l, terms=terms)


def _factor_matrices(factors, rho):
    mats = []
    for i, f in enumerate(factors):
        m = f.entries if isinstance(f, HermitianOperator) else np.asarray(f, dtype=complex)
        mean = weighted_trace(m, rho, 1)
        if abs(mean) > CENTERING_TOL * max(1.0, frobenius(m)):
            raise ValidationError(
                "factor %d is not centered: mean %.3e" % (i + 1, mean)
            )
        mats.append(m)
    return mats


def assemble_fluctuation(factors, rho, n, budget=None):
    """U-statistic of the symmetrized product kernel, via the fluctuation form.

    The factors must each be centered under rho.  Returns (form, ustat)
    where ustat.op is the form's value rescaled by n^(l/2) / (l! C(n,l)).
    """
    l = len(factors)
    if n < l:
        raise ValidationError("need n >= l")
    form = fluctuation_form(l)
    total = form.evaluate(factors, rho, n, budget=budget)
    scale = float(n) ** (l / 2.0) / (math.factorial(l) * binom(n, l))
    kernel = symmetrize_kernel(factors, d=rho.d)
    op = HermitianOperator(total.dim, scale * total.entries)
    return form, UStatistic(n=n, kernel=kernel, op=op)


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
        for v, mult in _multiplicities(tup).items():
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


def _multiplicities(tup):
    out = {}
    for v in tup:
        out[v] = out.get(v, 0) + 1
    return out
