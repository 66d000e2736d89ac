"""U-statistics of product states: assembly, variance, exact finite-n laws.

The statistic averages an order-r kernel over all r-subsets of n sites.
Two constructions are provided: the direct subset sum, and a fluctuation
expansion that rewrites l! C(n,l) U_n / n^{l/2} for a fully degenerate
product kernel in terms of collective fluctuation and average operators.
Their agreement is a strong cross-check on both.  Exact moments and laws
of U_n are read off its blocks: for qubits the spin-j blocks, of
dimension at most n + 1 and half-bandwidth r; for d >= 3 the dense d^n
statistic as the one block.  The qubit blocks of every n of a call
follow one another on one level axis, with no padding, as one band
stack (`_spin_stack`), evaluated once from the kernel's distinct-site
plan, which is built once per kernel.  `centered_moments` takes the band
powers once and reads every n and moment order off them, and
`finite_law` makes each block dense only for its own eigendecomposition
and checks the law of each n on its own.
The goodness test's qubit rates need none of this: `apps._qubit_rates`
reads that law in closed form from the block multiplicities
(`_log_multiplicities`) and the weights `_spin_levels` puts on a level.
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
    _state_trace,
    _weighted_power_trace,
    binom,
    check_dim_budget,
    frobenius,
    hermitize,
    symmetrize,
    symmetrize_kernel,
    tensor_weights,
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
    return _state_trace(m @ m, rho, n) - _state_trace(m, rho, n) ** 2


def centered_moments(kernel, rho, n_list, p_list, budget=None):
    """[[E (U_n - theta)^p for p in p_list] for n in n_list] under rho^{otimes n}, exactly.

    theta = Tr(rho^{otimes r} K) is the site contraction of the kernel as
    given, the theta of `kernel_components`.  The kernel is put in the
    state's eigenframe once per call, rotated by `DensityMatrix.frame`
    unless that is None, and weighted by the state's eigenvalues.  For
    qubits every moment is read off one band stack that holds the spin
    blocks of every n (`_spin_stack`): the band powers of
    A = U - theta, up to A^ceil(max p / 2), are taken once on the whole
    stack, and the moment of n is sum_i w_i (A^(p//2) A^(p - p//2))_ii
    over that n's levels.  For d >= 3 the dense d^n statistic of each n
    is raised to each power.  A scaled moment E (s (U_n - theta))^p is
    s^p times the value returned.
    """
    p_list = [int(p) for p in p_list]
    if any(p < 1 for p in p_list):
        raise ValidationError("moment order must be >= 1")
    w1, u = rho.eigenvalues, rho.frame
    k = kernel if u is None else kernel.rotated(u)
    theta = _state_trace(kernel.op.entries, rho, kernel.r)
    if k.d != 2:
        moments = []
        for n in n_list:
            block = assemble_direct(k, n, budget).op.entries
            shifted = block - theta * np.eye(len(block))
            moments.append([float(_weighted_power_trace(tensor_weights(w1, n), shifted, p).real)
                            for p in p_list])
        return moments
    bands, (weights,), edges = _spin_stack(k, [w1], n_list, budget)
    bands[k.r] -= theta
    powers = [np.ones((1, bands.shape[1])), bands]
    for _ in range(1, max([(p + 1) // 2 for p in p_list], default=1)):
        powers.append(_band_product(powers[-1], bands))
    moments = []
    for e in edges:
        levels = slice(e[0], e[-1])
        moments.append([float(_band_trace(weights[levels], powers[p // 2][:, levels],
                                          powers[p - p // 2][:, levels])) for p in p_list])
    return moments


def finite_law(kernel, weights, n_list, budget=None):
    """The exact law of U_n under each product state diag(w)^{otimes n}, for each n of n_list.

    `kernel` is written in a frame where every state is diagonal, and
    `weights` holds one vector of one-site weights per state.  Returns one
    (atoms, [probabilities per state]) pair per n: the eigenvalues of U_n,
    unsorted and possibly repeated, and the Born probability of each atom
    under each state.  Atoms of blocks that no state weighs are left out;
    a qubit n whose blocks no state weighs raises ValidationError.
    Each kept qubit block is made dense from its band rows and
    diagonalized on its own, so at large n one dense (n + 1)^2 block is
    formed at a time.
    """
    if kernel.d != 2:
        laws = []
        for n in n_list:
            atoms, probs = _eigen_born(assemble_direct(kernel, n, budget).op.entries,
                                       np.array([tensor_weights(w, n) for w in weights]))
            laws.append((atoms, _checked_probabilities(probs)))
        return laws
    bands, stack_weights, edges = _spin_stack(kernel, weights, n_list, budget)
    laws = []
    for e in edges:
        blocks = [_eigen_born(_dense_block(bands[:, lo:hi]), stack_weights[:, lo:hi])
                  for lo, hi in zip(e[:-1], e[1:])]
        atoms, probs = zip(*blocks)
        laws.append((np.concatenate(atoms), _checked_probabilities(np.concatenate(probs, 1))))
    return laws


def _dense_block(band):
    """The dense matrix of a block kept as band[w + s, c] = <c + s| A |c>, as in `_ladder`.

    Entry (c + s, c) is flat entry (w + s) size + c (size + 1) of the matrix padded by
    w rows above and below: one strided view takes every band row, spilling into the padding.
    """
    width, size = len(band) // 2, band.shape[1]
    padded = np.zeros((size + 2 * width) * size, dtype=complex)
    item = padded.itemsize
    np.ndarray(band.shape, complex, padded, 0, (item * size, item * (size + 1)))[...] = band
    return padded[width * size : (width + size) * size].reshape(size, size)


def _eigen_born(block, weights):
    """eigh of a dense block: (eigenvalues, weights @ |eigenvectors|^2)."""
    atoms, vecs = np.linalg.eigh(block)
    born = np.abs(vecs)
    return atoms, weights @ np.square(born, out=born)


def _checked_probabilities(probs):
    """Born probabilities that must sum to 1, one law per row: checked, clipped at 0, renormalized.

    Returns the list of rows.  Each row is summed on its own, and only a
    row with a negative entry is clipped.
    """
    laws = []
    for p in probs:
        total, least = p.sum(), p.min()
        deficit = abs(1.0 - total)
        if deficit > PROB_DEFICIT_TOL or least < -PROB_DEFICIT_TOL:
            raise ToleranceError(
                "measurement probabilities deficient by %.3e (min %.3e)" % (deficit, least)
            )
        if least < 0:
            p = np.clip(p, 0.0, None)
            total = p.sum()
        laws.append(p / total)
    return laws


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
# A_j has half-bandwidth r in the S_z basis, so the blocks of every n of a
# call follow one another on one level axis as one band stack.


def _spin_levels(n_list, weights):
    """The levels of the spin blocks of each n of n_list, block after block, and the weights on them.

    Returns (m, k, i, weights), with the levels of n = n_list[m] after
    those of n_list[m - 1] and one row of weights m_j pi_j(rho) per level
    for each state.  Block
    k = 0..floor(n/2) is j = n/2 - k, of n + 1 - 2k levels; its level i is
    the S_z eigenvalue j - i, whose vectors have n - k - i sites in state
    0 and k + i in state 1.  Each state is given as w1 = (lam_0, lam_1),
    its eigenvalues in the kernel's frame.  The weights are formed in log
    space, since m_j = C(n, k) - C(n, k - 1) and lam^n leave the double
    range long before n = 1000 (`_log_multiplicities`).
    """
    blocks, sizes, log_mult, first = [], [], [], 0
    for m, n in enumerate(n_list):
        log_mult += _log_multiplicities(n)
        for k in range(n // 2 + 1):
            blocks += m, n, k, first
            sizes.append(n + 1 - 2 * k)
            first += sizes[-1]
    # (m, n, k, first level of the block) on every level
    m, n, k, first = np.array(blocks).reshape(-1, 4).T.repeat(sizes, axis=1)
    level = np.arange(first.size) - first
    ones = k + level
    zeros = n - ones
    log_mult = np.array(log_mult).repeat(sizes)
    return m, k, level, np.exp([log_mult + _xlogy(zeros, w[0]) + _xlogy(ones, w[1])
                                for w in weights])


def _log_multiplicities(n):
    """[log m_j for the spin blocks k = 0..floor(n/2) of n], m_j = C(n, k) - C(n, k - 1).

    m_j is an exact integer, so its log is rounded once.
    """
    out, comb, previous = [], 1, 0
    for k in range(n // 2 + 1):
        out.append(math.log(comb - previous))
        previous, comb = comb, comb * (n - k) // (k + 1)
    return out


def _xlogy(count, lam):
    """count * log(lam), with 0 * log(0) = 0; a roundoff-negative lam counts as 0."""
    if lam > 0:
        return count * math.log(lam)
    return np.where(count > 0, -np.inf, 0.0)


def _band_identity(width, levels):
    """The identity on `levels` levels, kept as 2 width + 1 diagonals."""
    eye = np.zeros((2 * width + 1, levels), dtype=complex)
    eye[width] = 1.0
    return eye


def _ladder(band, coupling, step):
    """A M (step -1) or A^dagger M (step +1) for a ladder A, written over the band of M.

    M is kept as band[w + s, k] = <k + s| M |k>, and the real
    coupling[w + s, k] = <l - 1| A |l> on the level l = k + s is 0 where
    l - 1 or l is not a level, so one coupling array serves both
    directions.  No level is cut off: w ladders on the identity are exact.
    """
    if step < 0:
        band[:-1] = coupling[1:] * band[1:]
        band[-1] = 0.0
    else:
        band[1:] = coupling[1:] * band[:-1]
        band[0] = 0.0
    return band


def _spin_stack(kernel, weights, n_list, budget=None):
    """The spin blocks A_j of U_n that some state weighs, for every n of n_list, as one band stack.

    Returns (bands, weights, edges), with one row of weights per state.  The
    kept blocks follow one another on one level axis with no padding, n
    after n in n_list order and j descending within an n; the stack is
    kept as its 2r + 1 diagonals, bands[r + s, i] = <i + s| A |i> (the
    layout of `_ladder`), and its entries across a block
    edge are 0.  The weights are those of `_spin_levels` on the kept levels,
    and the list edges[m] holds the first level of every kept block of
    n_list[m], then the end of its last; an n with no kept block raises
    ValidationError.  Where every block is kept, the
    level arrays are used as they are.  The kernel's `_distinct_plan` is
    evaluated once on the whole stack.
    """
    r = kernel.r
    if not len(n_list):
        raise ValidationError("need at least one n")
    for n in n_list:
        if n < r:
            raise ValidationError("need n >= r, got n=%d for order %d" % (n, r))
        check_dim_budget(n + 1, budget)
    m, k, level, spin_weights = _spin_levels(n_list, weights)
    sizes = [n + 1 - 2 * j for n in n_list for j in range(n // 2 + 1)]
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    weighed = np.logical_or.reduceat(spin_weights != 0, starts, axis=1).any(axis=0).tolist()
    # edges[m]: the kept block starts of n_list[m], then the end of its levels
    edges, end, blocks = [], 0, zip(sizes, weighed)
    for n in n_list:
        edge = []
        for size, kept in itertools.islice(blocks, n // 2 + 1):
            if kept:
                edge.append(end)
                end += size
        if not edge:
            raise ValidationError("no state weighs a spin block at n=%d: every level weight "
                                  "is 0" % n)
        edges.append(edge + [end])
    if end < len(level):
        keep = np.array(weighed).repeat(sizes)
        m, k, level, spin_weights = m[keep], k[keep], level[keep], spin_weights[:, keep]
    norm = np.array([float(math.factorial(r) * binom(n, r)) for n in n_list])[m]
    eye = _band_identity(r, len(m))
    bands = _distinct_bands(kernel._plan, _level_factors(np.asarray(n_list)[m], k, level, r), eye)
    bands /= norm
    return bands, spin_weights, edges


def _level_factors(n, k, level, r):
    """What J(E_ab) puts on band entry (r + s, i), read on level l = level[i] + s of i's block.

    Returns J(E_00) = n/2 + S_z = n - k - l and J(E_11) = n/2 - S_z = k + l
    per entry, and <l - 1| S_+ |l> = sqrt(l (2j + 1 - l)) per entry, the
    `_ladder` coupling of S_+ and S_-, 0 at and past the entry's block edge.
    """
    row = level + np.arange(-r, r + 1)[:, None]
    size = n + 1 - 2 * k
    ones = k + row
    return n - ones, ones, np.sqrt(np.maximum(row * (size - row), 0))


def _collective(a, b, bands, factors):
    """J(E_ab) M for the band stack M, written over it; `factors` as in `_level_factors`.

    J(E_00) and J(E_11) scale each row; with the S_z eigenvalues
    descending, S_+ = J(E_01) lowers the level and S_- = J(E_10) raises
    it, the two directions of `_ladder`.
    """
    zeros, ones, coupling = factors
    if a != b:
        return _ladder(bands, coupling, -1 if a == 0 else 1)
    bands *= zeros if a == 0 else ones
    return bands


def _distinct_bands(plan, factors, eye):
    """The distinct-site sum of a `_distinct_plan`, on a whole band stack.

    `eye` is the stack's identity band; at most r collective operators act
    on it, so 2r + 1 diagonals hold every product exactly.  The sum
    starts from its first term; a plan with no terms is the zero operator.
    """
    if isinstance(plan, complex):
        return plan * eye
    terms, merged = plan
    parts = (_collective(a, b, _distinct_bands(child, factors, eye), factors)
             for a, b, child in terms)
    out = next(parts, None)
    if out is None:
        return np.zeros_like(eye)
    for part in parts:
        out += part
    for child in merged:
        out -= _distinct_bands(child, factors, eye)
    return out


def _band_product(x, y):
    """The band stack of X Y from those of X and Y; the widths add."""
    wx, wy = len(x) // 2, len(y) // 2
    levels = x.shape[1]
    out = np.zeros((2 * (wx + wy) + 1, levels), dtype=complex)
    for t in range(-wy, wy + 1):
        # <i + s| X |i + t> <i + t| Y |i>, on the levels i with i + t a level
        lo, hi = max(0, -t), levels - max(0, t)
        out[wy + t : wy + t + 2 * wx + 1, lo:hi] += x[:, lo + t : hi + t] * y[wy + t, lo:hi]
    return out


def _band_trace(weights, x, y):
    """Re sum_i w_i (X Y)_ii over a stack, for hermitian X no wider than Y.

    (X Y)_ii = sum_s X_{i, i+s} Y_{i+s, i}, and X_{i, i+s} is the conjugate
    of the band entry <i + s| X |i>.
    """
    wx, wy = len(x) // 2, len(y) // 2
    y = y[wy - wx : wy + wx + 1]
    return (np.einsum("i,si,si->", weights, x.real, y.real)
            + np.einsum("i,si,si->", weights, x.imag, y.imag))


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
        if m.shape != (rho.d, rho.d):
            raise ValidationError(
                "factor %d is not %d x %d like the state" % (i + 1, rho.d, rho.d)
            )
        mean = _state_trace(m, rho, 1)
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
    kernel = symmetrize_kernel(factors)
    op = HermitianOperator(total.dim, scale * total.entries)
    return form, UStatistic(n=n, kernel=kernel, op=op)
