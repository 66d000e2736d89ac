"""Conditional expectations and the orthogonal kernel decomposition.

For a product state rho^{\\otimes n}, conditioning an observable on a
subset A of sites contracts the complementary sites against rho and
re-embeds the result with identities.  The projections

    P_A = sum_{B subset A} (-1)^{|A| - |B|} E(. | B)

are mutually orthogonal in L^2(rho^{\\otimes n}) across distinct subsets
and sum to the identity map over all subsets.

The order-l component of an order-r kernel never leaves d^l sites: the
kernel is first contracted against rho on sites l+1..r, one site at a
time, and P_{1..l} is taken of that reduced operator on l sites in its
factored form, the product over s of (1 - E(. | all sites but s)).
`cond_expectation` and `hoeffding_project` are the definitions.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import (
    HermitianOperator,
    Kernel,
    SiteSubset,
    _embedded_add,
    _reduce_to_sites,
    _site_subset,
    _state_trace,
    _tensordot,
    binom,
    check_dim_budget,
    hermitize,
)

# A component counts as vanishing when its Frobenius norm falls below
# this fraction of the kernel's norm.
DEGENERACY_RTOL = 1e-9


def cond_expectation(op, subset, rho, budget=None):
    """E(op | A): contract sites outside A against rho, re-embed with identity.

    op acts on n sites of rho's dimension d; n is read off its size d^n.
    """
    matrix = op.entries if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
    d = rho.d
    n = _infer_sites(matrix.shape[0], d)
    subset = _site_subset(subset, n)
    check_dim_budget(d ** n, budget)
    keep = list(subset.zero_based)
    reduced = _reduce_to_sites(matrix, n, d, keep, rho)
    out = np.zeros((d ** n, d ** n), dtype=complex)
    if keep:
        _embedded_add(out, reduced, keep, n, d)
    else:
        out[np.diag_indices(d ** n)] = complex(reduced[0, 0])
    return hermitize(out)


def hoeffding_project(op, subset, rho, budget=None):
    """P_A(op), the component of op supported exactly on the subset A."""
    matrix = op.entries if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
    d = rho.d
    n = _infer_sites(matrix.shape[0], d)
    subset = _site_subset(subset, n)
    acc = np.zeros((d ** n, d ** n), dtype=complex)
    a = subset.indices
    for size in range(len(a) + 1):
        sign = (-1) ** (len(a) - size)
        for b in itertools.combinations(a, size):
            e = cond_expectation(matrix, SiteSubset(n, b), rho, budget=budget)
            acc += sign * e.entries
    return hermitize(acc)


def _infer_sites(dim, d):
    n = 0
    total = 1
    while total < dim:
        total *= d
        n += 1
    if total != dim:
        raise ValidationError("dimension %d is not a power of %d" % (dim, d))
    return n


@dataclass(frozen=True)
class HoeffdingComponent:
    """The order-l component of a kernel, restricted to its first l sites."""

    l: int
    kernel: Kernel
    norm_sq: float  # Tr(rho^{otimes l} kernel^2)


@dataclass(frozen=True)
class DegeneracyReport:
    theta: float
    c: object  # int or None when every component of order >= 1 vanishes
    components: tuple

    def to_json(self):
        from .serialize import matrix_to_json

        return {
            "theta": float(self.theta),
            "c": None if self.c is None else int(self.c),
            "components": [
                {
                    "l": int(comp.l),
                    "norm_sq": float(comp.norm_sq),
                    "kernel": matrix_to_json(comp.kernel.op.entries),
                }
                for comp in self.components
            ],
        }


def _remove_site_mean(matrix, n, d, s, rho):
    """(1 - E_s) of an operator on n sites, E_s = E(. | all sites but s).

    E_s contracts site s (0-based) against rho and puts the identity back
    on it.
    """
    t = matrix.reshape((d,) * (2 * n))
    mean = _tensordot(t, rho.entries, [s, n + s], [1, 0])
    out = t.copy()
    # out with the row and column axes of site s last: its diagonal in
    # them is where the identity on s puts the mean
    rest = [i for i in range(2 * n) if i not in (s, n + s)]
    site_last = out.transpose(*rest, s, n + s)
    for a in range(d):
        site_last[..., a, a] -= mean
    return out.reshape(d ** n, d ** n)


def kernel_components(kernel, rho):
    """Decompose a kernel into its orthogonal components K_0, ..., K_r.

    K_l is P_{{1..l}}(K) restricted to the first l sites; K_0 is the mean
    theta times the trivial kernel.  Each K_l is built on d^l sites: by
    the tower property E(K | B) = E(E(K | {1..l}) | B) for B inside
    {1..l}, so K_l is P_{{1..l}} of K with sites l+1..r contracted
    against rho.  Those reductions are taken one site at a time, from r
    sites down to 0, and P_{{1..l}} is applied in its factored form
    (1 - E_1) ... (1 - E_l), with E_s = E(. | all sites but s): expanded,
    the product is the inclusion-exclusion sum over the subsets of
    {1..l} that defines P.  The degeneracy order c is the smallest
    l >= 1 whose component has Frobenius norm at least DEGENERACY_RTOL
    times max(1, the kernel norm).  c is None when all of them
    vanish, i.e. the kernel is a multiple of the identity.
    """
    d, r = kernel.d, kernel.r
    if rho.d != d:
        raise ValidationError("state dimension %d != kernel site dimension %d" % (rho.d, d))
    tol = DEGENERACY_RTOL * max(1.0, kernel.op.frobenius_norm())
    reduced = [kernel.op.entries]
    for l in range(r, 0, -1):
        reduced.append(_reduce_to_sites(reduced[-1], l, d, range(l - 1), rho))
    components = []
    theta = None
    c = None
    for l, comp in enumerate(reversed(reduced)):
        for s in range(l):
            comp = _remove_site_mean(comp, l, d, s, rho)
        comp_kernel = Kernel(d, l, hermitize(comp))
        ent = comp_kernel.op.entries
        norm_sq = _state_trace(ent @ ent, rho, l)
        if l == 0:
            theta = float(ent[0, 0].real)
        elif c is None and comp_kernel.op.frobenius_norm() >= tol:
            c = l
        components.append(HoeffdingComponent(l=l, kernel=comp_kernel, norm_sq=norm_sq))
    return DegeneracyReport(theta=theta, c=c, components=tuple(components))


def variance_formula(report, n):
    """Exact variance of the n-sample U-statistic from component norms."""
    r = len(report.components) - 1
    if n < r:
        raise ValidationError("need n >= r, got n=%d for an order-%d kernel" % (n, r))
    total = 0.0
    for l in range(1, r + 1):
        total += binom(r, l) ** 2 / binom(n, l) * report.components[l].norm_sq
    return total
