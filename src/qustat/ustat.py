"""U-statistics of product states: assembly, variance, exact moments.

The statistic averages an order-r kernel over all r-subsets of n sites.
Two constructions are provided: the direct subset sum, and a fluctuation
expansion that rewrites l! C(n,l) U_n / n^{l/2} for a fully degenerate
product kernel in terms of collective fluctuation and average operators.
Their agreement is a strong cross-check on both.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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


def _assemble_diagonal(diag, d, r, n):
    """Diagonal of the U-statistic for a kernel with diagonal matrix."""
    out = np.zeros((d,) * n)
    kd = np.real(diag).reshape((d,) * r + (1,) * (n - r))
    for beta in itertools.combinations(range(n), r):
        rest = [s for s in range(n) if s not in set(beta)]
        view = out.transpose([*beta, *rest])
        view += kd
    return out.reshape(-1) / binom(n, r)


def variance_exact(ustat, rho):
    """Var(U_n) = Tr(rho^n U^2) - theta^2 from the dense operator."""
    m, n = ustat.op.entries, ustat.n
    return weighted_trace(m, rho, n, 2) - weighted_trace(m, rho, n) ** 2


def centered_moment(kernel, rho, n, p, exponent=None, factor=None, budget=None):
    """p-th moment of scale * (U_n - theta) under rho^{otimes n}, exactly.

    The scale is n^(exponent/2) when `exponent` is given, or the explicit
    `factor`.  Exactly one of the two must be provided.
    """
    if (exponent is None) == (factor is None):
        raise ValidationError("provide exactly one of exponent or factor")
    scale = float(n) ** (exponent / 2.0) if exponent is not None else float(factor)
    if p < 1:
        raise ValidationError("moment order must be >= 1")
    d, r = kernel.d, kernel.r
    check_dim_budget(d ** n, budget)
    w1, u = eigenframe(rho)
    k = kernel if u is None else kernel.rotated(u)
    wr = tensor_weights(w1, r)
    theta = float(_weighted_power_trace(wr, k.op.entries, 1).real)
    w = tensor_weights(w1, n)
    kmat = k.op.entries
    if not np.any(kmat - np.diag(np.diag(kmat))):
        # kernel diagonal in the state's frame: the statistic is diagonal too
        uvec = _assemble_diagonal(np.diag(kmat), d, r, n)
        vals = scale * (uvec - theta)
        return float(np.dot(w, vals ** p))
    stat = assemble_direct(k, n, budget=budget)
    m = scale * (stat.op.entries - theta * np.eye(d ** n))
    return float(_weighted_power_trace(w, m, p).real)


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
