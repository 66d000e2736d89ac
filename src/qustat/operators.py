"""Operators, states and kernels on finite tensor products.

Everything acts on (C^d)^{\\otimes n} stored as dense complex matrices in
row-major multi-index order, so site 1 is the slowest index.  Sites are
1-based in the public interface and 0-based internally.
"""

import itertools
import math
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
# Largest total Hilbert space dimension any operation will materialize.
DEFAULT_DIM_BUDGET = 2 ** 14


def check_dim_budget(dim, budget=None):
    """Raise BudgetError if a dense dim x dim complex matrix is over budget."""
    limit = DEFAULT_DIM_BUDGET if budget is None else budget
    if dim > limit:
        required = 16 * dim * dim
        raise BudgetError(
            "total dimension %d exceeds budget %d (a dense matrix needs "
            "%d bytes)" % (dim, limit, required),
            required_bytes=required,
        )


def _as_complex_matrix(matrix):
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("expected a square matrix, got shape %r" % (m.shape,))
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix contains non-finite entries")
    return m


def frobenius(matrix):
    return float(np.linalg.norm(matrix))


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

    @classmethod
    def from_matrix(cls, matrix):
        m = _as_complex_matrix(matrix)
        return cls(dim=m.shape[0], entries=m)

    @classmethod
    def identity(cls, dim):
        return cls(dim=dim, entries=np.eye(dim, dtype=complex))

    def frobenius_norm(self):
        return frobenius(self.entries)

    def __add__(self, other):
        return HermitianOperator(self.dim, self.entries + other.entries)

    def __sub__(self, other):
        return HermitianOperator(self.dim, self.entries - other.entries)

    def __mul__(self, scalar):
        s = complex(scalar)
        if abs(s.imag) > 0:
            raise ValidationError("scaling a hermitian operator needs a real scalar")
        return HermitianOperator(self.dim, s.real * self.entries)

    __rmul__ = __mul__


def hermitize(matrix, check_tol=ASYMMETRY_CHECK_TOL):
    """Project a nearly-hermitian matrix onto its selfadjoint part.

    The asymmetry must stay below check_tol (relative to max(1, norm));
    anything larger signals a real bug upstream, not roundoff.
    """
    m = _as_complex_matrix(matrix)
    gap = frobenius(m - m.conj().T)
    if gap > check_tol * max(1.0, frobenius(m)):
        raise ValidationError(
            "matrix asymmetry %.3e is too large to be roundoff" % gap
        )
    return HermitianOperator.from_matrix(0.5 * (m + m.conj().T))


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

    def __post_init__(self):
        for name in ("entries", "eigenvalues", "eigenvectors"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @classmethod
    def from_matrix(cls, matrix):
        m = _as_complex_matrix(matrix)
        gap = np.abs(m - m.conj().T).max()
        if gap > HERMITICITY_ATOL:
            raise ValidationError("density matrix is not hermitian (gap %.3e)" % gap)
        m = 0.5 * (m + m.conj().T)
        tr = m.trace()
        if abs(tr - 1.0) > cls.TRACE_TOL:
            raise ValidationError("density matrix trace %r is not 1" % tr)
        vals, vecs = np.linalg.eigh(m)
        if vals.min() < cls.PSD_TOL:
            raise ValidationError(
                "density matrix has negative eigenvalue %.3e" % vals.min()
            )
        order = np.argsort(vals)[::-1]
        return cls(
            d=m.shape[0],
            entries=m.copy(),
            eigenvalues=vals[order].copy(),
            eigenvectors=vecs[:, order].copy(),
        )

    @classmethod
    def from_eigenvalues(cls, values, rotation=None):
        vals = np.asarray(values, dtype=float)
        m = np.diag(vals).astype(complex)
        if rotation is not None:
            u = np.asarray(rotation, dtype=complex)
            if frobenius(u.conj().T @ u - np.eye(len(vals))) > 1e-10:
                raise ValidationError("rotation is not unitary")
            m = u @ m @ u.conj().T
        return cls.from_matrix(m)

    @property
    def is_diagonal(self):
        off = self.entries - np.diag(np.diag(self.entries))
        return not np.any(off)

    def require_positive(self, gap_tol=1e-10):
        """Check the spectrum is strictly positive with distinct eigenvalues."""
        vals = self.eigenvalues
        if vals.min() <= gap_tol:
            raise ValidationError(
                "state must be strictly positive; smallest eigenvalue %.3e"
                % vals.min()
            )
        gaps = vals[:-1] - vals[1:]
        if len(gaps) and gaps.min() <= gap_tol:
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

    def complement(self):
        inside = set(self.indices)
        return SiteSubset(self.n, tuple(i for i in range(1, self.n + 1) if i not in inside))


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

    @property
    def dim(self):
        return self.op.dim

    def rotated(self, u):
        """Conjugate every site by the unitary u (kernel in the new frame)."""
        ent = rotate_sites(self.op.entries, self.r, self.d, u)
        return Kernel(self.d, self.r, hermitize(ent))


def site_transpose(matrix, n, d, i):
    """Conjugate by the transposition of 0-based sites i and i+1."""
    t = matrix.reshape((d,) * (2 * n))
    t = np.swapaxes(t, i, i + 1)
    t = np.swapaxes(t, n + i, n + i + 1)
    return np.ascontiguousarray(t).reshape(d ** n, d ** n)


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


def rotate_sites(matrix, n, d, u):
    """Apply u^dagger (.) u on every site of an operator on n sites."""
    t = matrix.reshape((d,) * (2 * n))
    uc = np.conj(u)
    for s in range(n):
        # row index: (u^dagger O)_{i..} = sum_a conj(u[a, i]) O_{a..}
        t = np.moveaxis(np.tensordot(uc, t, axes=([0], [s])), 0, s)
    for s in range(n):
        # column index: (O u)_{..j} = sum_b O_{..b} u[b, j]
        t = np.moveaxis(np.tensordot(u, t, axes=([0], [n + s])), 0, n + s)
    return np.ascontiguousarray(t).reshape(d ** n, d ** n)


def embed(kernel, beta, n, budget=None):
    """Embed a kernel on the sites beta of an n-fold product, identity elsewhere."""
    if isinstance(beta, SiteSubset):
        subset = beta
        if subset.n != n:
            raise ValidationError("subset is over %d sites, embed target has %d" % (subset.n, n))
    else:
        subset = SiteSubset(n, tuple(beta))
    if subset.size != kernel.r:
        raise ValidationError(
            "kernel has order %d but subset has %d sites" % (kernel.r, subset.size)
        )
    d = kernel.d
    check_dim_budget(d ** n, budget)
    out = np.zeros((d ** n, d ** n), dtype=complex)
    _embedded_add(out, kernel.op.entries, subset.zero_based, n, d)
    return HermitianOperator(d ** n, out)


def symmetrize(ops):
    """Average of products of the given operators over all orderings."""
    mats = [op.entries if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
            for op in ops]
    if not mats:
        raise ValidationError("symmetrize needs at least one operator")
    dim = mats[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    count = 0
    for order in itertools.permutations(range(len(mats))):
        prod = mats[order[0]]
        for k in order[1:]:
            prod = prod @ mats[k]
        acc += prod
        count += 1
    return hermitize(acc / count)


def jordan(a, b):
    """Jordan product (ab + ba) / 2 of two matrices or operators."""
    am = a.entries if isinstance(a, HermitianOperator) else np.asarray(a, dtype=complex)
    bm = b.entries if isinstance(b, HermitianOperator) else np.asarray(b, dtype=complex)
    return hermitize(0.5 * (am @ bm + bm @ am))


def symmetrize_kernel(ops, d=None):
    """Average of tensor products of one-site operators over all orderings.

    Returns a Kernel of order len(ops).
    """
    mats = [op.entries if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
            for op in ops]
    if not mats:
        raise ValidationError("symmetrize_kernel needs at least one operator")
    if d is None:
        d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValidationError("all factors must be %d x %d" % (d, d))
    r = len(mats)
    acc = np.zeros((d ** r, d ** r), dtype=complex)
    count = 0
    for order in itertools.permutations(range(r)):
        prod = mats[order[0]]
        for k in order[1:]:
            prod = np.kron(prod, mats[k])
        acc += prod
        count += 1
    return Kernel(d, r, hermitize(acc / count))


def state_covariance(a, b, rho):
    """Symmetric inner product and symplectic form of two observables.

    Returns (re, im) where re = Tr(rho (ab+ba)/2) and
    im = (i/2) Tr(rho [a, b]).  Both are real for selfadjoint a, b;
    Tr(rho a b) = re - 1j * im.
    """
    am = a.entries if isinstance(a, HermitianOperator) else np.asarray(a, dtype=complex)
    bm = b.entries if isinstance(b, HermitianOperator) else np.asarray(b, dtype=complex)
    rm = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    ab = np.trace(rm @ am @ bm)
    ba = np.trace(rm @ bm @ am)
    sym = 0.5 * (ab + ba)
    skew = 0.5j * (ab - ba)
    if abs(sym.imag) > 1e-10 * max(1.0, abs(sym)) or abs(skew.imag) > 1e-10 * max(1.0, abs(skew)):
        raise ValidationError("state_covariance expects selfadjoint operands")
    return float(sym.real), float(skew.real)


def eigenframe(rho):
    """A frame where rho is diagonal: (weights, rotation).

    rotation is None when rho is already diagonal, in which case the
    weights are its diagonal in the computational basis (not sorted);
    otherwise weights are the descending eigenvalues and rotation the
    matching eigenvector matrix.
    """
    if rho.is_diagonal:
        return np.real(np.diag(rho.entries)).copy(), None
    return rho.eigenvalues.copy(), rho.eigenvectors


def tensor_weights(w, n):
    """n-fold Kronecker power of a weight vector."""
    w = np.asarray(w, dtype=float)
    out = np.ones(1)
    for _ in range(n):
        out = np.multiply.outer(out, w).reshape(-1)
    return out


def tensor_power_state(rho, n, budget=None):
    """Dense rho^{\\otimes n} (subject to the dimension budget)."""
    check_dim_budget(rho.d ** n, budget)
    out = rho.entries
    for _ in range(n - 1):
        out = np.kron(out, rho.entries)
    return out


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


def weighted_trace(matrix, rho, n, p=1):
    """Tr(rho^{\\otimes n} matrix^p) for a matrix on n sites.

    The matrix is rotated into the eigenframe of rho only when rho is not
    diagonal; the trace of the power is then weighted by the product
    eigenvalues.
    """
    w1, u = eigenframe(rho)
    m = matrix if u is None else rotate_sites(matrix, n, rho.d, u)
    return float(_weighted_power_trace(tensor_weights(w1, n), m, p).real)


def binom(n, k):
    return math.comb(n, k)
