"""Operators, states and kernels on finite tensor products.

Everything acts on (C^d)^{\\otimes n} stored as dense complex matrices in
row-major multi-index order, so site 1 is the slowest index.  Sites are
1-based in the public interface and 0-based internally.

Every site contraction, against rho in `_reduce_to_sites` and
`hoeffding`, or by a one-site matrix in `rotate_sites` and
`ccr.kernel_to_limit`, is `_tensordot`: np.tensordot's own transpose,
reshape and np.dot, so the floats are tensordot's, without the argument
checks that cost more than the product at these sizes.  Likewise every
Kronecker product of two matrices is `_kron`, np.kron's one broadcast
multiply and reshape, and `frobenius` takes np.linalg.norm's two dot
products and square root.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError

# Hermiticity is validated entrywise at this absolute tolerance.
HERMITICITY_ATOL = 1e-12
# Arithmetic chains may drift; hermitize() checks asymmetry here before
# reprojecting onto the selfadjoint part.
ASYMMETRY_CHECK_TOL = 1e-10
# Kernels must commute with adjacent site transpositions to within this
# Frobenius norm.
SYMMETRY_TOL = 1e-10
# Largest matrix dimension any operation will materialize: d^n for a dense
# statistic, or n + 1 for the largest spin block of a qubit statistic.
DEFAULT_DIM_BUDGET = 2 ** 14


def check_dim_budget(dim, budget=None):
    """Raise BudgetError if a dense dim x dim complex matrix is over budget."""
    limit = DEFAULT_DIM_BUDGET if budget is None else budget
    if dim > limit:
        required = 16 * dim * dim
        raise BudgetError(
            "matrix dimension %d exceeds budget %d (a dense matrix needs "
            "%d bytes)" % (dim, limit, required),
            required_bytes=required,
        )


def _as_complex_matrix(matrix):
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("expected a square matrix, got shape %r" % (m.shape,))
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains non-finite entries")
    return m


def frobenius(matrix):
    x = np.asarray(matrix).ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag) if x.dtype.kind == "c" else x.dot(x))


@dataclass(frozen=True)
class HermitianOperator:
    """A selfadjoint matrix; entries are validated and frozen on creation."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        if m.shape[0] != self.dim:
            raise ValidationError(
                "dim %d does not match matrix of shape %r" % (self.dim, m.shape)
            )
        gap = np.abs(m - m.conj().T).max()
        if gap > HERMITICITY_ATOL:
            raise ValidationError(
                "matrix is not hermitian: max asymmetry %.3e exceeds %.1e"
                % (gap, HERMITICITY_ATOL)
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def frobenius_norm(self):
        return frobenius(self.entries)


def hermitize(matrix, check_tol=ASYMMETRY_CHECK_TOL):
    """Project a nearly-hermitian matrix onto its selfadjoint part.

    The asymmetry must stay below check_tol (relative to max(1, norm));
    anything larger signals a real bug upstream, not roundoff.  The input
    is validated here, and the result 0.5 (m + m^dagger) is hermitian bit
    for bit, so it is only checked to be finite before it is frozen.
    """
    m = _as_complex_matrix(matrix)
    adjoint = m.conj().T
    if (m != adjoint).any():  # else the gap is 0
        gap = frobenius(m - adjoint)
        if gap > check_tol * max(1.0, frobenius(m)):
            raise ValidationError(
                "matrix asymmetry %.3e is too large to be roundoff" % gap
            )
    m = 0.5 * (m + adjoint)
    if not np.isfinite(m).all():  # the sum can overflow
        raise ValidationError("matrix contains non-finite entries")
    m.setflags(write=False)
    op = object.__new__(HermitianOperator)
    object.__setattr__(op, "dim", m.shape[0])
    object.__setattr__(op, "entries", m)
    return op


@dataclass(frozen=True)
class DensityMatrix:
    """A state: positive semidefinite, unit trace.

    Eigenvalues are stored in decreasing order; eigenvectors[:, i] is the
    eigenvector for eigenvalues[i].
    """

    d: int
    entries: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    PSD_TOL = -1e-12
    TRACE_TOL = 1e-12
    # require_positive: least eigenvalue and least spectral gap
    GAP_TOL = 1e-10

    def __post_init__(self):
        for name in ("entries", "eigenvalues", "eigenvectors"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @classmethod
    def from_matrix(cls, matrix):
        """The state of a density matrix; equal eigenvalues keep their order."""
        m = _as_complex_matrix(matrix)
        adjoint = m.conj().T
        gap = np.abs(m - adjoint).max()
        if gap > HERMITICITY_ATOL:
            raise ValidationError("density matrix is not hermitian (gap %.3e)" % gap)
        m = 0.5 * (m + adjoint)
        tr = m.trace()
        if abs(tr - 1.0) > cls.TRACE_TOL:
            raise ValidationError("density matrix trace %r is not 1" % complex(tr))
        if np.count_nonzero(m) == np.count_nonzero(m.diagonal()):  # diagonal: no eigensolver
            vals, vecs = m.diagonal().real, np.eye(len(m), dtype=complex)
        else:
            vals, vecs = np.linalg.eigh(m)
        if vals.min() < cls.PSD_TOL:
            raise ValidationError(
                "density matrix has negative eigenvalue %.3e" % vals.min()
            )
        order = (-vals).argsort(kind="stable")
        return cls(
            d=m.shape[0],
            entries=m,
            eigenvalues=vals[order],
            eigenvectors=vecs[:, order],
        )

    @classmethod
    def from_eigenvalues(cls, values, rotation=None):
        vals = np.asarray(values, dtype=float)
        m = np.diag(vals).astype(complex)
        if rotation is not None:
            u = np.asarray(rotation, dtype=complex)
            if u.shape != m.shape:
                raise ValidationError("rotation of shape %r does not match the state's %r"
                                      % (u.shape, m.shape))
            if frobenius(u.conj().T @ u - np.eye(len(vals))) > 1e-10:
                raise ValidationError("rotation is not unitary")
            m = u @ m @ u.conj().T
        return cls.from_matrix(m)

    @property
    def frame(self):
        """The eigenvectors, or None where they are exactly the identity.

        This is the state's eigenframe: rotated into it by `rotate_sites`,
        an operator is written in the basis where the state is
        diag(eigenvalues).  An ascending diagonal state takes a
        permutation frame.
        """
        if (self.eigenvectors == np.eye(self.d)).all():
            return None
        return self.eigenvectors

    @property
    def is_diagonal(self):
        return np.count_nonzero(self.entries) == np.count_nonzero(self.entries.diagonal())

    def require_positive(self):
        """Check the spectrum is strictly positive with distinct eigenvalues."""
        vals = self.eigenvalues
        if vals.min() <= self.GAP_TOL:
            raise ValidationError(
                "state must be strictly positive; smallest eigenvalue %.3e"
                % vals.min()
            )
        gaps = vals[:-1] - vals[1:]
        if len(gaps) and gaps.min() <= self.GAP_TOL:
            raise ValidationError(
                "state spectrum must be non-degenerate; smallest gap %.3e"
                % (gaps.min() if len(gaps) else float("inf"))
            )


def _site_axes_perm(n, sites, rest):
    """Axis order putting row/col axes of `sites` first, then of `rest`."""
    return [*sites, *(n + s for s in sites), *rest, *(n + s for s in rest)]


def _embedded_add(acc, block, sites, n, d, weight=1.0):
    """acc += weight * (block acting on `sites`, identity elsewhere).

    acc is a d^n x d^n array updated in place; block is d^r x d^r with
    r = len(sites); sites are 0-based and need not be sorted (their order
    gives the slot order of the block).  Runs in O(d^(n+r)) time without
    materializing the embedded matrix.
    """
    r = len(sites)
    rest = [s for s in range(n) if s not in set(sites)]
    m = len(rest)
    t = acc.reshape((d,) * (2 * n))
    v = t.transpose(_site_axes_perm(n, list(sites), rest))
    # Collapse each (row, col) axis pair of the identity sites onto its
    # diagonal via strides; the resulting view has no self-overlap.
    shape = (d,) * (2 * r) + (d,) * m
    strides = v.strides[: 2 * r] + tuple(
        v.strides[2 * r + j] + v.strides[2 * r + m + j] for j in range(m)
    )
    diag = np.lib.stride_tricks.as_strided(v, shape=shape, strides=strides)
    diag += weight * block.reshape((d,) * (2 * r) + (1,) * m)


def _reduce_to_sites(matrix, n, d, keep, rho):
    """Contract every site not in `keep` (0-based, sorted) against rho.

    Returns the reduced tensor on the kept sites as a d^k x d^k matrix.
    The sites are contracted one at a time, from the last.
    """
    t = matrix.reshape((d,) * (2 * n))
    sites = list(range(n))
    for s in [s for s in range(n) if s not in set(keep)][::-1]:
        pos = sites.index(s)
        k = len(sites)
        # sum_{a,b} T[.., a at row pos, .., b at col pos, ..] rho[b, a]
        t = _tensordot(t, rho.entries, [pos, k + pos], [1, 0])
        sites.pop(pos)
    k = len(keep)
    return np.ascontiguousarray(t).reshape(d ** k, d ** k)


def _state_trace(matrix, rho, n):
    """Tr(rho^{\\otimes n} matrix) for a dense matrix on n sites: every site contracted."""
    return float(_reduce_to_sites(matrix, n, rho.d, (), rho)[0, 0].real)


@dataclass(frozen=True)
class SiteSubset:
    """A subset of sites of an n-fold tensor product, 1-based and sorted."""

    n: int
    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 1 or i > self.n for i in idx):
            raise ValidationError(
                "site indices %r out of range 1..%d" % (idx, self.n)
            )
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValidationError("site indices %r must be strictly increasing" % (idx,))
        object.__setattr__(self, "indices", idx)

    @property
    def zero_based(self):
        return tuple(i - 1 for i in self.indices)

    @property
    def size(self):
        return len(self.indices)


@dataclass(frozen=True)
class Kernel:
    """An order-r selfadjoint kernel on (C^d)^{\\otimes r}.

    Kernels must be invariant under permutations of their sites; this is
    checked against all adjacent transpositions at SYMMETRY_TOL.
    """

    d: int
    r: int
    op: HermitianOperator

    def __post_init__(self):
        if self.r < 0:
            raise ValidationError("kernel order must be >= 0")
        if self.op.dim != self.d ** self.r:
            raise ValidationError(
                "kernel operator dim %d != %d^%d" % (self.op.dim, self.d, self.r)
            )
        for i in range(self.r - 1):
            swapped = site_transpose(self.op.entries, self.r, self.d, i)
            gap = frobenius(self.op.entries - swapped)
            if gap > SYMMETRY_TOL:
                raise ValidationError(
                    "kernel is not permutation symmetric: swapping sites "
                    "%d,%d changes it by %.3e" % (i + 1, i + 2, gap)
                )

    def rotated(self, u):
        """Conjugate every site by the unitary u (kernel in the new frame)."""
        ent = rotate_sites(self.op.entries, self.r, self.d, u)
        return Kernel(self.d, self.r, hermitize(ent))

    @functools.cached_property
    def _plan(self):
        """The `_distinct_plan` of a qubit kernel, built on first use."""
        return _distinct_plan(self.op.entries.reshape((2,) * (2 * self.r)))


def _merge_first(t, k):
    """The (r-1)-site operator in which site 0 multiplies site k from the left."""
    r = t.ndim // 2
    rows, cols = list(range(r)), list(range(r, 2 * r))
    cols[0] = rows[k]
    out_rows = [rows[0] if s == k else rows[s] for s in range(1, r)]
    return np.einsum(t, rows + cols, out_rows + cols[1:])


def _distinct_plan(t):
    """The sum of a qubit r-site operator t over pairwise distinct sites, as a plan.

    t has shape (2,) * 2r, row indices first.  Peeling off site 0 gives
    D(X_1..X_r) = J(X_1) D(X_2..X_r) - sum_k D(X_2, .., X_1 X_k, .., X_r),
    with J(X) = sum_s X^(s) the collective operator, where the subtracted
    terms are the labellings in which site 0 lands on the site of factor
    k.  The plan of t is its scalar value for r = 0, else (terms, merged):
    the (a, b, plan of the slice X_1 = E_ab) whose slice is nonzero, and
    the plans of the nonzero merged operators.  It depends on t alone, so
    one plan serves every n; `ustat._distinct_bands` evaluates it.
    """
    r = t.ndim // 2
    if r == 0:
        return complex(t)
    if r == 1:  # the leaves: one Python complex per nonzero entry
        rows = t.tolist()
        return [(a, b, rows[a][b]) for a in range(2) for b in range(2) if rows[a][b]], []
    slices = t.transpose(0, r, *range(1, r), *range(r + 1, 2 * r))
    terms = [
        (a, b, _distinct_plan(slices[a, b]))
        for a in range(2)
        for b in range(2)
        if slices[a, b].any()
    ]
    merged = [_merge_first(t, k) for k in range(1, r)]
    return terms, [_distinct_plan(x) for x in merged if x.any()]


def site_transpose(matrix, n, d, i):
    """Conjugate by the transposition of 0-based sites i and i+1."""
    t = matrix.reshape((d,) * (2 * n))
    t = t.swapaxes(i, i + 1).swapaxes(n + i, n + i + 1)
    return np.ascontiguousarray(t).reshape(d ** n, d ** n)


def rotate_sites(matrix, n, d, u):
    """Apply u^dagger (.) u on every site of an operator on n sites."""
    t = matrix.reshape((d,) * (2 * n))
    uc = np.conj(u)
    for s in range(2 * n):
        # row index: (u^dagger O)_{i..} = sum_a conj(u[a, i]) O_{a..};
        # column index: (O u)_{..j} = sum_b O_{..b} u[b, j]; the new
        # axis goes back to place s
        t = _tensordot(uc if s < n else u, t, [0], [s])
        t = t.transpose(*range(1, s + 1), 0, *range(s + 1, 2 * n))
    return np.ascontiguousarray(t).reshape(d ** n, d ** n)


def _tensordot(a, b, a_axes, b_axes):
    """np.tensordot(a, b, (a_axes, b_axes)) for arrays and axis lists known to fit.

    It takes tensordot's own steps, the contracted axes of a moved last
    and those of b first, a reshape of each to a matrix and one np.dot,
    so every float is tensordot's, without its argument checks.
    """
    a = a.transpose([i for i in range(a.ndim) if i not in a_axes] + a_axes)
    b = b.transpose(b_axes + [i for i in range(b.ndim) if i not in b_axes])
    outer, inner = a.shape[: a.ndim - len(a_axes)], math.prod(b.shape[: len(b_axes)])
    product = np.dot(a.reshape(-1, inner), b.reshape(inner, -1))
    return product.reshape(outer + b.shape[len(b_axes) :])


def _kron(a, b):
    """np.kron(a, b) of two matrices: its one broadcast multiply and reshape, so its floats."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _site_subset(beta, n):
    """beta, a SiteSubset or 1-based site indices, as a SiteSubset of n sites."""
    if not isinstance(beta, SiteSubset):
        return SiteSubset(n, tuple(beta))
    if beta.n != n:
        raise ValidationError("subset is over %d sites but the operator has %d" % (beta.n, n))
    return beta


def embed(kernel, beta, n, budget=None):
    """Embed a kernel on the sites beta of an n-fold product, identity elsewhere."""
    subset = _site_subset(beta, n)
    if subset.size != kernel.r:
        raise ValidationError(
            "kernel has order %d but subset has %d sites" % (kernel.r, subset.size)
        )
    d = kernel.d
    check_dim_budget(d ** n, budget)
    out = np.zeros((d ** n, d ** n), dtype=complex)
    _embedded_add(out, kernel.op.entries, subset.zero_based, n, d)
    return HermitianOperator(d ** n, out)


def _ordered_mean(ops, product, name):
    """(mean over all orderings of the d x d ops of their product, d).

    Each ordering's product is folded left to right by `product`, and
    the products are summed in the order of itertools.permutations onto
    a zero array, so every bit, the sign of a zero included, is fixed.
    """
    mats = [op.entries if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
            for op in ops]
    if not mats:
        raise ValidationError("%s needs at least one operator" % name)
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValidationError("all factors must be %d x %d" % (d, d))
    acc = np.zeros((), dtype=complex)
    for order in itertools.permutations(mats):
        acc = acc + functools.reduce(product, order)
    return hermitize(acc / math.factorial(len(mats))), d


def symmetrize(ops):
    """Average of products of the given operators over all orderings."""
    return _ordered_mean(ops, operator.matmul, "symmetrize")[0]


def symmetrize_kernel(ops):
    """Average of tensor products of one-site operators over all orderings.

    Returns a Kernel of order len(ops) on sites of the first operator's size.
    """
    mean, d = _ordered_mean(ops, _kron, "symmetrize_kernel")
    return Kernel(d, len(ops), mean)


def state_covariance(a, b, rho):
    """Symmetric inner product and symplectic form of two observables.

    Returns (re, im) where re = Tr(rho (ab+ba)/2) and
    im = (i/2) Tr(rho [a, b]).  Both are real for selfadjoint a, b;
    Tr(rho a b) = re - 1j * im.
    """
    am = a.entries if isinstance(a, HermitianOperator) else np.asarray(a, dtype=complex)
    bm = b.entries if isinstance(b, HermitianOperator) else np.asarray(b, dtype=complex)
    rm = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    sym, skew = _covariance_parts(np.trace(rm @ am @ bm), np.trace(rm @ bm @ am))
    return float(sym), float(skew)


def _covariance_parts(ab, ba):
    """The (re, im) of `state_covariance` from ab = Tr(rho a b) and ba = Tr(rho b a).

    ab and ba are scalars or arrays of equal shape; the check that both
    parts are real applies to every entry.
    """
    sym = 0.5 * (ab + ba)
    skew = 0.5j * (ab - ba)
    if (np.abs(sym.imag) > 1e-10 * np.maximum(1.0, np.abs(sym))).any() or (
        np.abs(skew.imag) > 1e-10 * np.maximum(1.0, np.abs(skew))
    ).any():
        raise ValidationError("state_covariance expects selfadjoint operands")
    return sym.real, skew.real


def tensor_weights(w, n):
    """n-fold Kronecker power of a weight vector."""
    w = np.asarray(w, dtype=float)
    out = np.ones(1)
    for _ in range(n):
        out = np.multiply.outer(out, w).reshape(-1)
    return out


def _pauli_pair_probes(d, j, k):
    """The two selfadjoint probes of the (j, k) off-diagonal, 0-based."""
    sym = np.zeros((d, d), dtype=complex)
    sym[j, k] = sym[k, j] = 1.0
    skew = np.zeros((d, d), dtype=complex)
    skew[j, k] = 1.0j
    skew[k, j] = -1.0j
    return sym, skew


def _weighted_power_trace(w, m, p):
    """Tr(diag(w) m^p) using one split; no product larger than m itself."""
    if p == 1:
        return complex(np.einsum("i,ii->", w, m))
    a, b = p // 2, p - p // 2
    x = m
    for _ in range(a - 1):
        x = x @ m
    y = x if b == a else x @ m
    return complex(np.einsum("i,ij,ji->", w, x, y))


def binom(n, k):
    return math.comb(n, k)
