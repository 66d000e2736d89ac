"""Limit laws of degenerate U-statistics on the CCR/Gaussian algebra.

For a full-rank state with non-degenerate spectrum the centered one-site
observables split into a commutative block (diagonal matrices, which
become real Gaussians) and one harmonic oscillator per off-diagonal pair
(j, k), whose quadratures satisfy [Q, P] = i in a thermal state of
variance sigma^2 = (mu_j + mu_k) / (2 (mu_j - mu_k)).

The scaled statistic n^{c/2} (U_n - theta) converges in moments to a
polynomial in these limit variables.  The polynomial's coefficients are
read off the order-c kernel component, with each power pattern completed
to a monic Hermite polynomial in the normalized generators (symmetric
ordering for mixed quadrature monomials).

Moments of the limit are computed along two independent routes: a Wick
pair-partition sum, and numerically on a truncated Fock space with
Gauss-Hermite quadrature for the commutative block.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import hermite as _herm
from numpy.polynomial import hermite_e as _herme

from .errors import (
    ExpansionBudgetError,
    ToleranceError,
    TruncationError,
    ValidationError,
)
from .operators import binom, frobenius, rotate_sites, state_covariance

# Internal consistency of the constructed basis (orthonormality, the
# symplectic normal form) is asserted at this tolerance.
BASIS_SELFCHECK_TOL = 1e-10
# Coefficients attached to the identity component of a fully degenerate
# kernel must vanish to within this relative tolerance.
CENTERED_RESIDUE_RTOL = 1e-8
# Default Fock truncation and thermal tail requirement.
DEFAULT_TRUNC = 64
TAIL_TOL = 1e-12
# Hard caps for symbolic moment expansions.
MAX_WICK_DEGREE = 16
MAX_POLY_TERMS = 200_000


@dataclass(frozen=True)
class Symbol:
    """One normalized limit variable.

    kind is "classical" (standard Gaussian), "q" or "p" (oscillator
    quadratures scaled to unit variance).  pair_id indexes the oscillator
    a quadrature belongs to; sigma_sq is that oscillator's variance
    before normalization.
    """

    name: str
    kind: str
    pair_id: int
    sigma_sq: float
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class OscillatorPair:
    j: int  # 1-based indices into the decreasing spectrum, j < k
    k: int
    q_gen: np.ndarray = field(repr=False)
    p_gen: np.ndarray = field(repr=False)
    sigma_sq: float


@dataclass(frozen=True)
class CCRBasis:
    """Centered generator basis of one-site observables for a fixed state.

    All matrices are expressed in the frame where the state is diagonal
    with decreasing eigenvalues; `rotation` maps that frame back to the
    computational basis (columns are eigenvectors).
    """

    d: int
    eigenvalues: np.ndarray = field(repr=False)
    rotation: np.ndarray = field(repr=False)
    classical_cov: np.ndarray = field(repr=False)
    oscillator_pairs: tuple
    symbols: tuple  # normalized variables (classical then q, p per pair)
    two_point: np.ndarray = field(repr=False)  # C[a,b] = <ab> + i sigma(a,b)

    @property
    def n_symbols(self):
        return len(self.symbols)

    @property
    def rotation_is_identity(self):
        return bool(np.array_equal(self.rotation, np.eye(self.d)))

    def symbol_index(self, name):
        for i, s in enumerate(self.symbols):
            if s.name == name:
                return i
        raise ValidationError("no symbol named %r" % name)


def build_ccr_basis(rho, gap_tol=1e-10):
    """Construct the limit-variable basis for a faithful non-degenerate state."""
    rho.require_positive(gap_tol)
    d = rho.d
    mu = np.asarray(rho.eigenvalues, dtype=float)
    u = np.asarray(rho.eigenvectors, dtype=complex)

    classical = []
    for i in range(d - 1):
        g = -mu[i] * np.eye(d, dtype=complex)
        g[i, i] += 1.0
        classical.append(g)
    cov = np.diag(mu[: d - 1]) - np.outer(mu[: d - 1], mu[: d - 1])

    pairs = []
    for j, k in itertools.combinations(range(d), 2):
        delta = mu[j] - mu[k]
        norm = math.sqrt(2.0 * delta)
        sym = np.zeros((d, d), dtype=complex)
        sym[j, k] = sym[k, j] = 1.0 / norm
        skew = np.zeros((d, d), dtype=complex)
        skew[j, k] = 1.0j / norm
        skew[k, j] = -1.0j / norm
        # Pair roles are assigned so the symplectic form of (q, p) is
        # +1/2, matching [Q, P] = +i for the Fock quadratures.
        pairs.append(
            OscillatorPair(
                j=j + 1,
                k=k + 1,
                q_gen=sym,
                p_gen=skew,
                sigma_sq=(mu[j] + mu[k]) / (2.0 * delta),
            )
        )

    symbols = []
    if d > 1:
        chol = np.linalg.cholesky(cov)
        whiten = np.linalg.inv(chol)
        for a in range(d - 1):
            mat = sum(whiten[a, b] * classical[b] for b in range(d - 1))
            symbols.append(
                Symbol(
                    name="c%d" % (a + 1),
                    kind="classical",
                    pair_id=-1,
                    sigma_sq=1.0,
                    matrix=mat,
                )
            )
    for pid, pair in enumerate(pairs):
        s = math.sqrt(pair.sigma_sq)
        symbols.append(
            Symbol(
                name="q%d%d" % (pair.j, pair.k),
                kind="q",
                pair_id=pid,
                sigma_sq=pair.sigma_sq,
                matrix=pair.q_gen / s,
            )
        )
        symbols.append(
            Symbol(
                name="p%d%d" % (pair.j, pair.k),
                kind="p",
                pair_id=pid,
                sigma_sq=pair.sigma_sq,
                matrix=pair.p_gen / s,
            )
        )

    two_point = _two_point_matrix(symbols, mu)
    basis = CCRBasis(
        d=d,
        eigenvalues=mu,
        rotation=u,
        classical_cov=cov,
        oscillator_pairs=tuple(pairs),
        symbols=tuple(symbols),
        two_point=two_point,
    )
    _selfcheck(basis)
    return basis


def _two_point_matrix(symbols, mu):
    """Wick two-point function C[a, b] = (a, b)_rho + i sigma(a, b)."""
    rho = np.diag(mu).astype(complex)
    k = len(symbols)
    out = np.zeros((k, k), dtype=complex)
    for a in range(k):
        for b in range(k):
            out[a, b] = complex(*state_covariance(symbols[a].matrix, symbols[b].matrix, rho))
    return out


def _selfcheck(basis):
    c = basis.two_point
    k = len(basis.symbols)
    if frobenius(c.real - np.eye(k)) > BASIS_SELFCHECK_TOL:
        raise ToleranceError("normalized generators are not orthonormal")
    for a, sa in enumerate(basis.symbols):
        for b, sb in enumerate(basis.symbols):
            im = c[a, b].imag
            if sa.kind == "q" and sb.kind == "p" and sa.pair_id == sb.pair_id:
                want = 0.5 / sa.sigma_sq
            elif sa.kind == "p" and sb.kind == "q" and sa.pair_id == sb.pair_id:
                want = -0.5 / sa.sigma_sq
            else:
                want = 0.0
            if abs(im - want) > BASIS_SELFCHECK_TOL:
                raise ToleranceError(
                    "symplectic form of (%s, %s) is %.3e, expected %.3e"
                    % (sa.name, sb.name, im, want)
                )


@dataclass(frozen=True)
class LimitPolynomial:
    """The limit of n^{c/2} (U_n - theta): binom_factor * sum_m k_m H_m.

    Each term is a multiplicity vector m over the normalized basis
    symbols together with the coefficient k_m of the symmetrized kernel
    built from that multiset; H_m is the product of monic Hermite
    polynomials in the individual symbols, with mixed quadrature
    monomials symmetrically ordered.
    """

    c: int
    binom_factor: int
    terms: tuple  # of (m tuple, float coeff)

    def to_json(self):
        return {
            "c": int(self.c),
            "binom_factor": int(self.binom_factor),
            "terms": [
                {"m": [int(x) for x in m], "coeff": float(k)} for m, k in self.terms
            ],
        }

    def degree(self):
        return max((sum(m) for m, _ in self.terms), default=0)


def kernel_to_limit(kernel, report, basis, rtol=CENTERED_RESIDUE_RTOL):
    """Read the limit polynomial off the first non-vanishing kernel component."""
    if report.c is None:
        raise ValidationError(
            "kernel is fully degenerate: every component of order >= 1 vanishes"
        )
    c = report.c
    comp = report.components[c].kernel
    d = basis.d
    if comp.d != d:
        raise ValidationError("component dimension mismatch")
    mat = comp.op.entries
    if not basis.rotation_is_identity:
        mat = rotate_sites(mat, c, d, basis.rotation)

    # change of basis on each site: columns are vec(identity), vec(symbols)
    cols = [np.eye(d, dtype=complex).reshape(-1)]
    cols += [s.matrix.reshape(-1) for s in basis.symbols]
    m_mat = np.stack(cols, axis=1)
    m_inv = np.linalg.inv(m_mat)

    # pair row/column indices per site, then solve site by site
    t = mat.reshape((d,) * (2 * c))
    axes = []
    for s in range(c):
        axes += [s, c + s]
    t = np.ascontiguousarray(t.transpose(axes)).reshape((d * d,) * c)
    for axis in range(c):
        t = np.moveaxis(np.tensordot(m_inv, t, axes=([1], [axis])), 0, axis)

    scale = max(1.0, float(np.abs(t).max()))
    nsym = basis.n_symbols
    grouped = {}
    for idx in itertools.product(range(d * d), repeat=c):
        val = t[idx]
        if any(i == 0 for i in idx):
            if abs(val) > rtol * scale:
                raise ToleranceError(
                    "component of order %d is not centered: identity "
                    "coefficient %r at %r" % (c, val, idx)
                )
            continue
        if abs(val.imag) > rtol * scale:
            raise ToleranceError("coefficient %r at %r is not real" % (val, idx))
        key = tuple(sorted(i - 1 for i in idx))
        grouped.setdefault(key, []).append(val.real)
    terms = []
    for key, vals in sorted(grouped.items()):
        spread = max(vals) - min(vals)
        if spread > rtol * scale:
            raise ToleranceError(
                "coefficients of multiset %r differ by %.3e; kernel is not "
                "permutation symmetric in the generator basis" % (key, spread)
            )
        mean = sum(vals) / len(vals)
        mvec = [0] * nsym
        for i in key:
            mvec[i] += 1
        kappa = math.factorial(c)
        for count in mvec:
            kappa //= math.factorial(count)
        if len(vals) != kappa:
            raise ToleranceError(
                "expected %d arrangements of %r, saw %d" % (kappa, key, len(vals))
            )
        coeff = kappa * mean
        if abs(coeff) > rtol * scale:
            terms.append((tuple(mvec), float(coeff)))
    r = kernel.r
    return LimitPolynomial(c=c, binom_factor=binom(r, c), terms=tuple(terms))


# ---------------------------------------------------------------------------
# Polynomials in the limit variables


def _monic_hermite_coeffs(n):
    """He_n(x) = sum_j coeff_j x^(n-2j), the monic (probabilists') Hermite."""
    out = []
    for j in range(n // 2 + 1):
        coeff = (-1) ** j * math.factorial(n) / (
            math.factorial(j) * math.factorial(n - 2 * j) * 2 ** j
        )
        out.append((n - 2 * j, coeff))
    return out


def _distinct_arrangements(counts):
    """All distinct orderings of a multiset given as a list of (item, count)."""
    items = []
    for item, cnt in counts:
        items.extend([item] * cnt)
    if not items:
        yield ()
        return
    seen = sorted(set(items))
    remaining = {i: items.count(i) for i in seen}

    def rec(prefix, left):
        if left == 0:
            yield tuple(prefix)
            return
        for i in seen:
            if remaining[i] > 0:
                remaining[i] -= 1
                prefix.append(i)
                yield from rec(prefix, left - 1)
                prefix.pop()
                remaining[i] += 1

    yield from rec([], len(items))


def limit_to_poly(limit, basis):
    """Expand a LimitPolynomial into S-ordered monomials over the symbols.

    Returns a dict mapping ordered symbol-index tuples to real
    coefficients; the empty tuple is the constant term.
    """
    poly = {}
    for m, k in limit.terms:
        base = limit.binom_factor * k
        active = [i for i, cnt in enumerate(m) if cnt > 0]
        per_symbol = [_monic_hermite_coeffs(m[i]) for i in active]
        for choice in itertools.product(*per_symbol):
            coeff = base
            counts = []
            for i, (power, hc) in zip(active, choice):
                coeff *= hc
                if power:
                    counts.append((i, power))
            arrangements = list(_distinct_arrangements(counts))
            share = coeff / len(arrangements)
            for arr in arrangements:
                poly[arr] = poly.get(arr, 0.0) + share
    return {mon: c for mon, c in poly.items() if c != 0.0}


def poly_power(poly, p, max_terms=MAX_POLY_TERMS):
    """p-th power of a monomial dict, concatenating monomials in order."""
    out = {(): 1.0}
    for _ in range(p):
        nxt = {}
        for m1, c1 in out.items():
            for m2, c2 in poly.items():
                key = m1 + m2
                nxt[key] = nxt.get(key, 0.0) + c1 * c2
            if len(nxt) > max_terms:
                raise ExpansionBudgetError(
                    "moment expansion exceeded %d terms" % max_terms
                )
        out = nxt
    return out


# ---------------------------------------------------------------------------
# Wick route


def quasifree_moment_wick(symbols, basis):
    """Moment of an ordered product of normalized generators by Wick pairing.

    Odd products vanish; even products are the sum over pair partitions
    of products of two-point functions, taken with each pair in its
    original left-to-right order.
    """
    mon = tuple(int(s) for s in symbols)
    for s in mon:
        if s < 0 or s >= basis.n_symbols:
            raise ValidationError("symbol index %d out of range" % s)
    if len(mon) > MAX_WICK_DEGREE:
        raise ExpansionBudgetError(
            "monomial degree %d exceeds the Wick budget %d"
            % (len(mon), MAX_WICK_DEGREE)
        )
    return _wick(mon, basis.two_point)


def _wick(mon, c):
    k = len(mon)
    if k % 2 == 1:
        return 0.0 + 0.0j
    if k == 0:
        return 1.0 + 0.0j
    first, rest = mon[0], mon[1:]
    total = 0.0 + 0.0j
    for pos in range(len(rest)):
        pair = c[first, rest[pos]]
        if pair != 0.0:
            total += pair * _wick(rest[:pos] + rest[pos + 1 :], c)
    return total


def wick_poly_moment(poly, basis):
    total = 0.0 + 0.0j
    for mon, coeff in poly.items():
        if len(mon) > MAX_WICK_DEGREE:
            raise ExpansionBudgetError(
                "monomial degree %d exceeds the Wick budget" % len(mon)
            )
        total += coeff * _wick(mon, basis.two_point)
    return total


# ---------------------------------------------------------------------------
# Fock route


class FockRep:
    """Truncated harmonic oscillator quadratures.

    [Q, P] = i holds exactly on the leading (trunc-1)-dimensional block;
    the last row/column carries the truncation defect.
    """

    def __init__(self, trunc=DEFAULT_TRUNC):
        if trunc < 2:
            raise ValidationError("truncation must be at least 2")
        self.trunc = trunc
        a = np.zeros((trunc, trunc), dtype=complex)
        for k in range(1, trunc):
            a[k - 1, k] = math.sqrt(k)
        self.Q = (a + a.conj().T) / math.sqrt(2.0)
        self.P = (a - a.conj().T) / (1j * math.sqrt(2.0))
        self.Nop = a.conj().T @ a
        comm = self.Q @ self.P - self.P @ self.Q - 1j * np.eye(trunc)
        lead = comm[: trunc - 1, : trunc - 1]
        if np.abs(lead).max() > 1e-10:
            raise ToleranceError("quadrature commutator defect on leading block")

    def thermal(self, sigma_sq):
        """Diagonal weights of the centered Gaussian state with Var(Q) = sigma_sq."""
        if sigma_sq < 0.5 - 1e-12:
            raise ValidationError("oscillator variance must be >= 1/2")
        w = np.zeros(self.trunc)
        if abs(sigma_sq - 0.5) <= 1e-12:
            w[0] = 1.0
            return w
        beta = 2.0 * math.atanh(1.0 / (2.0 * sigma_sq))
        k = np.arange(self.trunc)
        w = np.exp(-beta * k)
        return w / w.sum()

    def tail_mass(self, sigma_sq):
        """Thermal weight beyond the truncation: exp(-beta * trunc)."""
        if abs(sigma_sq - 0.5) <= 1e-12:
            return 0.0
        beta = 2.0 * math.atanh(1.0 / (2.0 * sigma_sq))
        return math.exp(-beta * self.trunc)

    def require_tail(self, sigma_sq, tol=TAIL_TOL):
        mass = self.tail_mass(sigma_sq)
        if mass >= tol:
            raise TruncationError(
                "thermal tail %.3e at truncation %d exceeds %g"
                % (mass, self.trunc, tol)
            )


def _classical_moments(max_degree, quad_points):
    """E[x^k] for a standard Gaussian, k = 0..max_degree, by quadrature."""
    q = max(2, quad_points)
    x, w = _herme.hermegauss(q)
    w = w / math.sqrt(2.0 * math.pi)
    return [float(np.dot(w, x ** k)) for k in range(max_degree + 1)]


def fock_moment(target, basis, trunc=DEFAULT_TRUNC, quad_points=None, tail_tol=TAIL_TOL):
    """Moment of a limit polynomial evaluated on a truncated Fock space.

    `target` may be a LimitPolynomial, a monomial dict as produced by
    limit_to_poly, or a single ordered tuple of symbol indices.  The
    commutative block is integrated with Gauss-Hermite quadrature in
    whitened coordinates (the classical variables are i.i.d. standard
    Gaussians there); each oscillator is evaluated in its thermal state.
    """
    if isinstance(target, LimitPolynomial):
        poly = limit_to_poly(target, basis)
    elif isinstance(target, dict):
        poly = target
    else:
        poly = {tuple(int(s) for s in target): 1.0}
    if not poly:
        return 0.0 + 0.0j
    degree = max((len(m) for m in poly), default=0)
    if quad_points is None:
        quad_points = degree + 1
    cmoms = _classical_moments(degree, quad_points)

    rep = FockRep(trunc)
    pair_sigma = {}
    for s in basis.symbols:
        if s.pair_id >= 0:
            pair_sigma[s.pair_id] = s.sigma_sq
    weights = {}
    for pid, ssq in pair_sigma.items():
        rep.require_tail(ssq, tail_tol)
        weights[pid] = rep.thermal(ssq)
    quad = {}
    for pid, ssq in pair_sigma.items():
        scale = 1.0 / math.sqrt(ssq)
        quad[pid] = {"q": rep.Q * scale, "p": rep.P * scale}

    chain_cache = {}

    def chain_value(pid, ops):
        key = (pid, ops)
        if key not in chain_cache:
            m = np.eye(rep.trunc, dtype=complex)
            for kind in ops:
                m = m @ quad[pid][kind]
            chain_cache[key] = complex(np.dot(weights[pid], np.diag(m)))
        return chain_cache[key]

    total = 0.0 + 0.0j
    for mon, coeff in poly.items():
        val = complex(coeff)
        counts = {}
        chains = {}
        for s in mon:
            sym = basis.symbols[s]
            if sym.kind == "classical":
                counts[s] = counts.get(s, 0) + 1
            else:
                chains.setdefault(sym.pair_id, []).append(sym.kind)
        for s, k in counts.items():
            val *= cmoms[k]
        for pid, ops in chains.items():
            val *= chain_value(pid, tuple(ops))
        total += val
    return total


# ---------------------------------------------------------------------------
# Moments of a limit polynomial, both routes


ROUTE_AGREEMENT_RTOL = 1e-6
ROUTE_AGREEMENT_ATOL = 1e-9


def limit_moment(limit, basis, p, method="wick", trunc=DEFAULT_TRUNC,
                 quad_points=None, check=False):
    """E[L^p] for the limit polynomial L, via "wick" or "fock".

    With check=True both routes are computed and must agree to
    ROUTE_AGREEMENT_RTOL (absolute ROUTE_AGREEMENT_ATOL below 1e-3).
    """
    if p < 0:
        raise ValidationError("moment order must be >= 0")
    poly = limit_to_poly(limit, basis)
    poly_p = poly_power(poly, p)
    values = {}
    methods = ("wick", "fock") if check else (method,)
    for name in methods:
        if name == "wick":
            values[name] = wick_poly_moment(poly_p, basis)
        elif name == "fock":
            values[name] = fock_moment(poly_p, basis, trunc=trunc, quad_points=quad_points)
        else:
            raise ValidationError("unknown method %r" % name)
    if check:
        a, b = values["wick"], values["fock"]
        gap = abs(a - b)
        ref = max(abs(a), abs(b))
        ok = gap <= ROUTE_AGREEMENT_ATOL if ref < 1e-3 else gap <= ROUTE_AGREEMENT_RTOL * ref
        if not ok:
            raise ToleranceError(
                "wick %r and fock %r moments disagree (gap %.3e)" % (a, b, gap)
            )
    val = values[method if not check else "wick"]
    if abs(val.imag) > 1e-8 * max(1.0, abs(val)):
        raise ToleranceError("moment %r of a selfadjoint polynomial is not real" % val)
    return float(val.real)


# ---------------------------------------------------------------------------
# Hermite polynomials and the orthogonality diagnostic


def hermite(m, x):
    """Physicists' Hermite polynomial H_m evaluated at x (scalar or array)."""
    if m < 0:
        raise ValidationError("order must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if m == 0:
        return h_prev if h_prev.shape else float(h_prev)
    h = 2.0 * x
    for k in range(1, m):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.shape else float(h)


def hermite_op(m, matrix, scale=1.0):
    """H_m(matrix / scale) by the three-term recurrence."""
    a = np.asarray(matrix, dtype=complex) / scale
    dim = a.shape[0]
    h_prev = np.eye(dim, dtype=complex)
    if m == 0:
        return h_prev
    h = 2.0 * a
    for k in range(1, m):
        h, h_prev = 2.0 * (a @ h) - 2.0 * k * h_prev, h
    return h


def _s_ordered_power_product(rep, a, b):
    """S[Q^a P^b]: average over all distinct interleavings on Fock space."""
    acc = np.zeros((rep.trunc, rep.trunc), dtype=complex)
    count = 0
    for arr in _distinct_arrangements([("q", a), ("p", b)]):
        m = np.eye(rep.trunc, dtype=complex)
        for kind in arr:
            m = m @ (rep.Q if kind == "q" else rep.P)
        acc += m
        count += 1
    return acc / count


def hermite_orthogonality_check(n, m, sigma_sq, trunc=DEFAULT_TRUNC, tail_tol=TAIL_TOL):
    """Orthogonality of the degree-(n+m) Hermite form to all lower S-monomials.

    Builds X = S[H_n(Q / sqrt(2 sigma^2)) H_m(P / sqrt(2 sigma^2))] in the
    thermal state of variance sigma_sq and returns the largest
    |<Y, X>| / (||Y|| ||X||) over Y = S[Q^a P^b] with a + b < n + m,
    using the complex inner product <A, B> = Tr(phi A* B).

    The thermal tail guard applies at `trunc`; the operators themselves
    live on a space padded by their total degree, because entries of a
    degree-g quadrature polynomial are only exact that far from the
    truncation boundary.
    """
    FockRep(trunc).require_tail(sigma_sq, tail_tol)
    rep = FockRep(trunc + 2 * (n + m))
    phi = rep.thermal(sigma_sq)
    s = math.sqrt(2.0 * sigma_sq)
    cn = _herm.herm2poly([0.0] * n + [1.0])
    cm = _herm.herm2poly([0.0] * m + [1.0])
    x = np.zeros((rep.trunc, rep.trunc), dtype=complex)
    for a, ca in enumerate(cn):
        if ca == 0.0:
            continue
        for b, cb in enumerate(cm):
            if cb == 0.0:
                continue
            x += ca * cb * s ** (-(a + b)) * _s_ordered_power_product(rep, a, b)

    def inner(y, z):
        return complex(np.einsum("k,km,mk->", phi, y.conj().T, z))

    norm_x = math.sqrt(max(inner(x, x).real, 0.0))
    worst = 0.0
    for a in range(n + m):
        for b in range(n + m - a):
            y = _s_ordered_power_product(rep, a, b)
            norm_y = math.sqrt(max(inner(y, y).real, 0.0))
            if norm_x == 0.0 or norm_y == 0.0:
                continue
            worst = max(worst, abs(inner(y, x)) / (norm_x * norm_y))
    return worst
