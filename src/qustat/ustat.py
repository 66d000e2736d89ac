"""U-statistics of product states: assembly, variance, exact finite-n laws.

The statistic averages an order-r kernel over all r-subsets of n sites.
Two constructions are provided: the direct subset sum, and a fluctuation
expansion that rewrites l! C(n,l) U_n / n^{l/2} for a fully degenerate
product kernel in terms of collective fluctuation and average operators.
Their agreement is a strong cross-check on both.  Exact moments and laws
of U_n are read off its blocks: for qubits the spin-j blocks, of
dimension at most n + 1 and half-bandwidth r, kept as one band stack per
n (`_spin_stack`); for d >= 3 the dense d^n statistic as the one block.
The stack is evaluated from the kernel's distinct-site plan, built once
per kernel; `centered_moments` shares its band powers among every moment
order and scale asked of one n, and `finite_law` makes each block dense
only for its eigendecomposition.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError, ValidationError
from .operators import (
    HermitianOperator,
    Kernel,
    _densify,
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

    For qubits every moment is read off one band stack of the spin blocks
    A_j of U_n (`_spin_stack`): the band powers of A = A_j - theta, up to
    A^ceil(max p / 2), are taken once and shared by every (p, factor)
    pair, and the moment is factor^p sum_i w_i (A^(p//2) A^(p - p//2))_ii.
    For d >= 3 the dense d^n statistic is raised to each power.
    """
    orders = [(int(p), float(factor)) for p, factor in orders]
    if any(p < 1 for p, _ in orders):
        raise ValidationError("moment order must be >= 1")
    w1, u = eigenframe(rho)
    k = kernel if u is None else kernel.rotated(u)
    theta = float(_weighted_power_trace(tensor_weights(w1, k.r), k.op.entries, 1).real)
    if k.d != 2:
        shifted = assemble_direct(k, n, budget=budget).op.entries - theta * np.eye(k.d ** n)
        weights = tensor_weights(w1, n)
        return [float(_weighted_power_trace(weights, factor * shifted, p).real)
                for p, factor in orders]
    bands, sizes, (weights,) = _spin_stack(k, [w1], n, budget)
    inside = 1.0 * (np.arange(n + 1) < sizes[:, None])
    bands[:, k.r] -= theta * inside
    powers = [inside[:, None], bands]
    for _ in range(1, max([(p + 1) // 2 for p, _ in orders], default=1)):
        powers.append(_band_product(powers[-1], bands))
    return [
        float(factor ** p * _band_trace(weights, powers[p // 2], powers[p - p // 2]))
        for p, factor in orders
    ]


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
    """Yield (dense block of U_n, [weights of each state on the block]) for `finite_law`.

    `kernel` and the one-site `weights` are as for `finite_law`.  For
    qubits the blocks are the spin blocks of `_spin_stack` that some state
    weighs, made dense one at a time; for d >= 3 the dense d^n statistic
    is the one block.  Either way E f(U_n) under a state is the sum over
    blocks of Tr(diag(w) f(block)).
    """
    if kernel.d != 2:
        stat = assemble_direct(kernel, n, budget=budget)
        yield stat.op.entries, [tensor_weights(w, n) for w in weights]
        return
    bands, sizes, stack_weights = _spin_stack(kernel, weights, n, budget)
    for b, size in enumerate(sizes):
        yield _densify(bands[b], size), [w[b, :size] for w in stack_weights]


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
# A_j has half-bandwidth r in the S_z basis, so the blocks of one n are
# kept together as one band stack.


def _spin_weights(w1, n):
    """m_j pi_j(rho) on every spin block, as an array of floor(n/2) + 1 rows of n + 1.

    Row k is the block j = n/2 - k and entry i its S_z eigenvalue j - i,
    whose vectors have n - k - i sites in state 0 and k + i in state 1;
    w1 = (lam_0, lam_1) are the state's eigenvalues in the kernel's frame.
    Entries past the block's 2j + 1 levels are 0.  The weights are formed
    in log space, since m_j = C(n, k) - C(n, k - 1) and lam^n leave the
    double range long before n = 1000; m_j is an exact integer, so its
    log is rounded once.
    """
    log_mult, comb, previous = [], 1, 0
    for k in range(n // 2 + 1):
        log_mult.append(math.log(comb - previous))
        previous, comb = comb, comb * (n - k) // (k + 1)
    k = np.arange(n // 2 + 1)[:, None]
    ones = k + np.arange(n + 1)
    logw = np.array(log_mult)[:, None] + _xlogy(n - ones, w1[0]) + _xlogy(ones, w1[1])
    return np.exp(np.where(ones <= n - k, logw, -np.inf))


def _xlogy(count, lam):
    """count * log(lam), with 0 * log(0) = 0; a roundoff-negative lam counts as 0."""
    if lam > 0:
        return count * math.log(lam)
    return np.where(count > 0, -np.inf, 0.0)


def _spin_stack(kernel, weights, n, budget=None):
    """The spin blocks A_j of U_n that some state weighs, as one band stack.

    Returns (bands, sizes, [weights of each state on the stack]).  Block b
    has sizes[b] = 2j + 1 levels, zero-padded to n + 1, and is kept as its
    2r + 1 diagonals, bands[b, r + s, i] = <i + s| A_j |i> (the layout of
    `ccr._quadrature_times`); row b of each weights array holds its
    `_spin_weights`.  The kernel's `_distinct_plan` is evaluated on the
    whole stack at once.
    """
    r = kernel.r
    if n < r:
        raise ValidationError("need n >= r, got n=%d for order %d" % (n, r))
    check_dim_budget(n + 1, budget)
    spin_weights = [_spin_weights(w, n) for w in weights]
    kept = np.flatnonzero(np.any([w.any(axis=1) for w in spin_weights], axis=0))
    sizes = n + 1 - 2 * kept
    # the level i + s of band entry (r + s, i), and the factors J(E_ab) puts
    # on it in each block: n/2 + S_z, n/2 - S_z, and the S_+ and S_-
    # couplings, which are 0 past the block's edge
    row = np.arange(n + 1) + np.arange(-r, r + 1)[:, None]
    k, size = kept[:, None, None], sizes[:, None, None]
    factors = (
        n - k - row,
        k + row,
        np.sqrt(np.maximum((row + 1) * (size - 1 - row), 0)),
        np.sqrt(np.maximum(row * (size - row), 0)),
    )
    eye = np.zeros((len(sizes), 2 * r + 1, n + 1), dtype=complex)
    eye[:, r] = row[r] < sizes[:, None]
    bands = _distinct_bands(kernel._plan, factors, eye)
    bands /= math.factorial(r) * binom(n, r)
    return bands, sizes, [w[kept] for w in spin_weights]


def _collective(a, b, bands, factors):
    """J(E_ab) M for every band M of a stack, written over it; `factors` as in `_spin_stack`.

    J(E_00) = n/2 + S_z and J(E_11) = n/2 - S_z scale each row; with the
    S_z eigenvalues descending, S_+ = J(E_01) moves level i + 1 to i and
    S_- = J(E_10) moves level i - 1 to i, so they shift the diagonals.
    """
    if a == b:
        bands *= factors[a]
    elif a == 0:
        bands[:, :-1] = factors[2][:, :-1] * bands[:, 1:]
        bands[:, -1] = 0.0
    else:
        bands[:, 1:] = factors[3][:, 1:] * bands[:, :-1]
        bands[:, 0] = 0.0
    return bands


def _distinct_bands(plan, factors, eye):
    """The distinct-site sum of a `_distinct_plan`, on every block of a stack.

    `eye` is the stack's identity band; at most r collective operators act
    on it, so 2r + 1 diagonals hold every product exactly.
    """
    if isinstance(plan, complex):
        return plan * eye
    terms, merged = plan
    out = np.zeros_like(eye)
    for a, b, child in terms:
        out += _collective(a, b, _distinct_bands(child, factors, eye), factors)
    for child in merged:
        out -= _distinct_bands(child, factors, eye)
    return out


def _band_product(x, y):
    """The band stack of X Y from those of X and Y; the widths add."""
    wx, wy = x.shape[1] // 2, y.shape[1] // 2
    levels = x.shape[2]
    out = np.zeros((len(x), 2 * (wx + wy) + 1, levels), dtype=complex)
    for t in range(-wy, wy + 1):
        # <i + s| X |i + t> <i + t| Y |i>, on the levels i with i + t a level
        lo, hi = max(0, -t), levels - max(0, t)
        term = x[:, :, lo + t : hi + t] * y[:, wy + t, None, lo:hi]
        out[:, wy + t : wy + t + 2 * wx + 1, lo:hi] += term
    return out


def _band_trace(weights, x, y):
    """Re sum_i w_i (X Y)_ii over a stack, for hermitian X no wider than Y.

    (X Y)_ii = sum_s X_{i, i+s} Y_{i+s, i}, and X_{i, i+s} is the conjugate
    of the band entry <i + s| X |i>.
    """
    wx, wy = x.shape[1] // 2, y.shape[1] // 2
    y = y[:, wy - wx : wy + wx + 1]
    return (np.einsum("bi,bsi,bsi->", weights, x.real, y.real)
            + np.einsum("bi,bsi,bsi->", weights, x.imag, y.imag))


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
