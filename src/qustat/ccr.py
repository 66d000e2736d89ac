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

Moments of the limit are computed along two independent routes, each
taking every order up to p from one left-to-right pass over the copies
of L whose live states are capped at MAX_POLY_TERMS: a Wick
pair-partition sum, and on Fock space, where each oscillator keeps the
levels `thermal_levels` derives from its variance and the degree of what
is evaluated, and the commutative block uses the exact Gaussian moments.
On Fock space a product of quadratures is kept as bands of diagonals,
which reach every level it passes through: `fock_moments` takes their
thermal traces, and `oscillator_polynomial` gives an oscillator's
polynomial as the exact operator compressed to its kept levels, the
form in which the exact law of an order-2 limit diagonalizes it.
"""

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetError,
    ExpansionBudgetError,
    ToleranceError,
    ValidationError,
)
from .operators import (
    DEFAULT_DIM_BUDGET,
    _band_identity,
    _covariance_parts,
    _densify,
    _ladder,
    _pauli_pair_probes,
    binom,
    frobenius,
    rotate_sites,
)

# Internal consistency of the constructed basis (orthonormality, the
# symplectic normal form) is asserted at this tolerance.
BASIS_SELFCHECK_TOL = 1e-10
# Coefficients attached to the identity component of a fully degenerate
# kernel must vanish to within this relative tolerance.
CENTERED_RESIDUE_RTOL = 1e-8
# Largest effect of an oscillator's thermal tail beyond its Fock truncation.
TAIL_TOL = 1e-12
# Cap on the live states of a moment pass, Wick or Fock.
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
    sigma_sq: float


@dataclass(frozen=True)
class CCRBasis:
    """Centered generator basis of one-site observables for a fixed state.

    All matrices are expressed in the frame where the state is diagonal
    with decreasing eigenvalues.  `rotation` is the state's
    `DensityMatrix.frame`: the matrix whose columns are the eigenvectors,
    mapping that frame back to the computational basis, or None where it
    is exactly the identity.
    """

    d: int
    eigenvalues: np.ndarray = field(repr=False)
    rotation: object = field(repr=False)  # np.ndarray or None
    classical_cov: np.ndarray = field(repr=False)
    oscillator_pairs: tuple
    symbols: tuple  # normalized variables (classical then q, p per pair)
    two_point: np.ndarray = field(repr=False)  # C[a,b] = <ab> + i sigma(a,b)

    @property
    def n_symbols(self):
        return len(self.symbols)


def build_ccr_basis(rho):
    """Construct the limit-variable basis for a faithful non-degenerate state."""
    rho.require_positive()
    d = rho.d
    mu = np.asarray(rho.eigenvalues, dtype=float)

    classical = []
    for i in range(d - 1):
        g = -mu[i] * np.eye(d, dtype=complex)
        g[i, i] += 1.0
        classical.append(g)
    cov = np.diag(mu[: d - 1]) - np.outer(mu[: d - 1], mu[: d - 1])

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

    pairs = []
    for pid, (j, k) in enumerate(itertools.combinations(range(d), 2)):
        delta = mu[j] - mu[k]
        norm = math.sqrt(2.0 * delta)
        pair = OscillatorPair(j=j + 1, k=k + 1, sigma_sq=(mu[j] + mu[k]) / (2.0 * delta))
        pairs.append(pair)
        s = math.sqrt(pair.sigma_sq)
        # Pair roles are assigned so the symplectic form of (q, p) is
        # +1/2, matching [Q, P] = +i for the Fock quadratures.
        for kind, probe in zip("qp", _pauli_pair_probes(d, j, k)):
            symbols.append(
                Symbol(
                    name="%s%d%d" % (kind, pair.j, pair.k),
                    kind=kind,
                    pair_id=pid,
                    sigma_sq=pair.sigma_sq,
                    matrix=probe / norm / s,
                )
            )

    two_point = _two_point_matrix(symbols, mu)
    basis = CCRBasis(
        d=d,
        eigenvalues=mu,
        rotation=rho.frame,
        classical_cov=cov,
        oscillator_pairs=tuple(pairs),
        symbols=tuple(symbols),
        two_point=two_point,
    )
    _selfcheck(basis)
    return basis


def _two_point_matrix(symbols, mu):
    """Wick two-point function C[a, b] = (a, b)_rho + i sigma(a, b).

    Tr(rho S_a S_b) for every pair comes from one batched product
    (rho S_a) S_b, split as `operators.state_covariance` splits one pair.
    """
    d = len(mu)
    rho = np.diag(mu).astype(complex)
    s = np.array([sym.matrix for sym in symbols], dtype=complex).reshape(-1, d, d)
    t = np.trace((rho @ s)[:, None] @ s[None], axis1=-2, axis2=-1)
    sym, skew = _covariance_parts(t, t.T)
    out = np.empty(t.shape, dtype=complex)
    out.real, out.imag = sym, skew
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


def kernel_to_limit(kernel, report, basis):
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
    if basis.rotation is not None:
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

    tol = CENTERED_RESIDUE_RTOL * max(1.0, float(np.abs(t).max()))
    nsym = basis.n_symbols
    grouped = {}
    for idx in itertools.product(range(d * d), repeat=c):
        val = t[idx]
        if any(i == 0 for i in idx):
            if abs(val) > tol:
                raise ToleranceError(
                    "component of order %d is not centered: identity "
                    "coefficient %r at %r" % (c, val, idx)
                )
            continue
        if abs(val.imag) > tol:
            raise ToleranceError("coefficient %r at %r is not real" % (val, idx))
        key = tuple(sorted(i - 1 for i in idx))
        grouped.setdefault(key, []).append(val.real)
    terms = []
    for key, vals in sorted(grouped.items()):
        spread = max(vals) - min(vals)
        if spread > tol:
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
        coeff = kappa * mean
        if abs(coeff) > tol:
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


# ---------------------------------------------------------------------------
# Wick route


def quasifree_moment_wick(symbols, basis):
    """Moment of an ordered product of normalized generators by Wick pairing.

    Odd products vanish; even products are the sum over pair partitions
    of products of two-point functions, taken with each pair in its
    original left-to-right order.
    """
    return wick_moments({tuple(int(s) for s in symbols): 1.0}, basis, 1)[1]


def _check_symbols(poly, basis):
    """Raise ValidationError unless every symbol of the monomial dict indexes `basis`."""
    for mon in poly:
        for s in mon:
            if s < 0 or s >= basis.n_symbols:
                raise ValidationError("symbol index %d out of range" % s)


def wick_moments(poly, basis, max_p):
    """[E[P^t] for t = 0..max_p] of a monomial dict P, by one left-to-right Wick pass.

    A state counts the open slots of each symbol of P.  Each factor b of
    P^max_p, read left to right, opens a slot or closes one of the
    count_a open slots of a symbol a with weight count_a * C[a, b]
    (C = `basis.two_point`, left factor first): the pair-partition sum of
    every monomial, and after the t-th copy of P the all-closed state
    holds E[P^t].  States with more open slots than factors left to close
    them are dropped; over MAX_POLY_TERMS live states raise
    ExpansionBudgetError.
    """
    _check_symbols(poly, basis)
    names = sorted({s for mon in poly for s in mon})
    degree = max(map(len, poly), default=0)
    # A state is the integer opened + sum_a count_a base^(a + 1): no more
    # than half of all max_p * degree factors are ever open.
    base = max_p * degree // 2 + 1
    place = {s: base ** (a + 1) for a, s in enumerate(names)}
    c = basis.two_point.tolist()
    # per factor b: its place, and the (place of a, C[a, b]) of each symbol a it can close
    steps = {b: (place[b], [(place[a], c[a][b]) for a in names if c[a][b] != 0.0]) for b in names}
    terms = [(coeff, [steps[s] for s in mon]) for mon, coeff in poly.items()]
    states, moments = {0: 1.0 + 0.0j}, [1.0 + 0.0j]
    for t in range(1, max_p + 1):
        spare = (max_p - t) * degree
        out = {}
        for coeff, factors in terms:
            read = states
            for i, (slot, closers) in enumerate(factors):
                read = _wick_step(read, slot, closers, base, spare + len(factors) - 1 - i)
            for key, amp in read.items():
                out[key] = out.get(key, 0.0) + coeff * amp
        states = out
        moments.append(states.get(0, 0.0 + 0.0j))
    return moments


def _wick_step(states, place, closers, base, cap):
    """The states after a factor that opens a slot at `place` or closes one of `closers`.

    States with more than `cap` open slots are dropped.
    """
    out = {}
    for key, amp in states.items():
        opened = key % base
        if opened < cap:
            up = key + 1 + place
            out[up] = out.get(up, 0.0) + amp
        if opened and opened <= cap + 1:
            for slot, pair in closers:
                count = key // slot % base
                if count:
                    down = key - 1 - slot
                    out[down] = out.get(down, 0.0) + amp * count * pair
    if len(out) > MAX_POLY_TERMS:
        raise ExpansionBudgetError("Wick pass exceeded %d live states" % MAX_POLY_TERMS)
    return out


# ---------------------------------------------------------------------------
# Fock route


def thermal_levels(sigma_sq, degree, budget=None):
    """An oscillator's thermal state on the Fock levels a degree-g evaluation needs.

    The state is exp(-beta N) / Z with beta = 2 atanh(1 / (2 sigma_sq))
    (the vacuum at sigma_sq = 1/2).  Its tail beyond level T moves a
    degree-g moment by about exp(-beta T) (2T + g + 1)^(g/2); the least T
    where that is at most TAIL_TOL is kept, plus g levels (2 at least).
    Returns (weights, tail): the normalized weights exp(-beta k) / Z_T of
    the kept levels and the thermal mass beyond them.  The truncation is
    capped by `budget` (default DEFAULT_DIM_BUDGET).
    """
    if not 0.5 - 1e-12 <= sigma_sq < math.inf:
        raise ValidationError(
            "oscillator variance must be a finite number >= 1/2, got %r" % (sigma_sq,)
        )
    limit = DEFAULT_DIM_BUDGET if budget is None else budget
    beta, need = math.inf, 1.0  # the vacuum fills one level
    if sigma_sq > 0.5 + 1e-12:
        beta = 2.0 * math.atanh(1.0 / (2.0 * sigma_sq))
        need = -math.log(TAIL_TOL) / beta
    # the least fixed point of T = (-ln TAIL_TOL + (g/2) ln(2T + g + 1)) / beta,
    # approached from below since the right side grows with T
    levels = 0
    while levels < need:
        if max(2.0, need + degree) > limit:
            raise BudgetError(
                "Fock truncation of the oscillator with sigma^2 = %.6g needs at least "
                "%.4g levels, over the budget %d" % (sigma_sq, max(2.0, need + degree), limit)
            )
        levels = math.ceil(need)
        need = (-math.log(TAIL_TOL) + 0.5 * degree * math.log(2 * levels + degree + 1)) / beta
    trunc = max(2, levels + degree)
    # the vacuum has all its weight on level 0
    weights = np.exp(-beta * np.arange(trunc)) if beta < math.inf else np.eye(1, trunc)[0]
    return weights / weights.sum(), math.exp(-beta * trunc)


def _band_roots(width, levels):
    """The `_ladder` coupling of a: <l - 1| a |l> = sqrt(l) on l = k + s, 0 below level 0."""
    offsets = np.arange(-width, width + 1)[:, None]
    return np.sqrt(np.maximum(offsets + np.arange(levels), 0))


def _quadrature_times(kind, band, roots, scale=1.0):
    """scale * Q M or scale * P M for M kept as 2w + 1 diagonals.

    band[w + s, k] = <k + s| M |k> for the levels k of a thermal state;
    a M and a^dagger M are the two `_ladder` directions on the couplings
    `roots` of `_band_roots`, taken on copies of the band.
    """
    lowered = _ladder(band.copy(), roots, -1)
    raised = _ladder(band.copy(), roots, 1)
    if kind == "q":
        return (lowered + raised) * (scale / math.sqrt(2.0))
    return (lowered - raised) * (scale / (1j * math.sqrt(2.0)))


def _word_bands(words, roots, scale):
    """Yield (word, band of X_1 ... X_g) for words of "q"/"p" quadratures.

    Each word is applied right to left, each quadrature scaled by `scale`;
    visiting the words in the order of their reversals, the bands of a
    shared suffix are computed once.
    """
    bands, previous = [_band_identity(len(roots) // 2, roots.shape[1])], ()
    for suffix in sorted(word[::-1] for word in words):
        shared = 0
        while shared < min(len(previous), len(suffix)) and previous[shared] == suffix[shared]:
            shared += 1
        del bands[shared + 1 :]
        for kind in suffix[shared:]:
            bands.append(_quadrature_times(kind, bands[-1], roots, scale))
        yield suffix[::-1], bands[-1]
        previous = suffix


def _word_traces(words, sigma_sq, degree, budget):
    """{word: <X_1 ... X_g>} for words of normalized "q"/"p" quadratures.

    The expectation is taken in the thermal state of variance sigma_sq on
    the levels `thermal_levels` keeps for `degree`.
    """
    weights, _ = thermal_levels(sigma_sq, degree, budget)
    width = max(len(word) for word in words)
    bands = _word_bands(words, _band_roots(width, len(weights)), 1.0 / math.sqrt(sigma_sq))
    return {word: complex(np.dot(weights, band[width])) for word, band in bands}


def oscillator_polynomial(words, sigma_sq, levels):
    """sum_w c_w X_1 ... X_g on an oscillator's first `levels` Fock levels.

    `words` maps words of "q"/"p" quadratures, normalized by the variance
    sigma_sq, to their coefficients c_w.  The bands reach every level a
    word passes through, so the dense matrix returned is the exact
    operator compressed to the kept levels.
    """
    width = max(len(word) for word in words)
    bands = _word_bands(words, _band_roots(width, levels), 1.0 / math.sqrt(sigma_sq))
    return _densify(sum(words[word] * band for word, band in bands), levels)


def _classical_moments(max_degree):
    """E[x^k] for a standard Gaussian, k = 0..max_degree: (k - 1)!! or 0."""
    return [
        0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2)))
        for k in range(max_degree + 1)
    ]


def fock_moments(poly, basis, max_p, budget=None):
    """[E[P^t] for t = 0..max_p] of a monomial dict P, by one left-to-right pass on Fock space.

    A state holds what the copies of P read so far put on each mode of P:
    a power of each classical variable, and a word of "q"/"p" quadratures
    on each oscillator.  Classical variables commute with everything and
    quadratures of different oscillators commute, so equal states merge,
    and a state's expectation is the product of its modes': the exact
    moment of each classical power (the classical variables are i.i.d.
    standard Gaussians in whitened coordinates), and the thermal trace of
    each word on the levels `thermal_levels` keeps for degree
    max_p * deg P, every distinct word traced once after the pass.  Over
    MAX_POLY_TERMS live states raise ExpansionBudgetError.
    """
    _check_symbols(poly, basis)
    symbols = basis.symbols
    # a mode is ("c", symbol) for a classical variable, ("o", pair_id) for an oscillator
    mode_of = [("c", s) if sym.kind == "classical" else ("o", sym.pair_id)
               for s, sym in enumerate(symbols)]
    modes = sorted({mode_of[s] for mon in poly for s in mon})
    at = {mode: i for i, mode in enumerate(modes)}
    empty = tuple(0 if kind == "c" else "" for kind, _ in modes)
    terms = []
    for mon, coeff in poly.items():
        step = list(empty)
        for s in mon:
            kind = symbols[s].kind
            step[at[mode_of[s]]] += 1 if kind == "classical" else kind
        terms.append((step, coeff))
    passes = [{empty: 1.0 + 0.0j}]
    for _ in range(max_p):
        out = {}
        for state, amp in passes[-1].items():
            for step, coeff in terms:
                key = tuple(map(operator.add, state, step))
                out[key] = out.get(key, 0.0) + amp * coeff
            if len(out) > MAX_POLY_TERMS:
                raise ExpansionBudgetError("Fock pass exceeded %d live states" % MAX_POLY_TERMS)
        passes.append(out)
    degree = max_p * max(map(len, poly), default=0)
    values = [
        _classical_moments(degree) if kind == "c" else _word_traces(
            {state[i] for states in passes for state in states},
            basis.oscillator_pairs[key].sigma_sq, degree, budget)
        for i, (kind, key) in enumerate(modes)
    ]
    return [
        sum((amp * math.prod(v[e] for v, e in zip(values, state)) for state, amp in states.items()),
            0.0 + 0.0j)
        for states in passes
    ]


# ---------------------------------------------------------------------------
# Moments of a limit polynomial, both routes


ROUTE_AGREEMENT_RTOL = 1e-6
ROUTE_AGREEMENT_ATOL = 1e-9


def limit_moment(limit, basis, p, method="wick", budget=None):
    """E[L^p] for the limit polynomial L, via "wick" or "fock"."""
    return _route_moments(limit, basis, [p], (method,), budget)[p][method]


def _route_moments(limit, basis, ps, methods, budget=None):
    """{p: {method: E[L^p]}} for the orders ps, all from one pass per route; two routes must agree."""
    if min(ps) < 0:
        raise ValidationError("moment order must be >= 0")
    for name in methods:
        if name not in ("wick", "fock"):
            raise ValidationError("unknown method %r" % name)
    poly = limit_to_poly(limit, basis)
    runs = {
        name: wick_moments(poly, basis, max(ps)) if name == "wick"
        else fock_moments(poly, basis, max(ps), budget)
        for name in methods
    }
    out = {}
    for p in ps:
        values = {}
        for name in methods:
            val = runs[name][p]
            if abs(val.imag) > 1e-8 * max(1.0, abs(val)):
                raise ToleranceError("moment %r of a selfadjoint polynomial is not real" % val)
            values[name] = val
        if len(values) == 2:
            a, b = values["wick"], values["fock"]
            gap, ref = abs(a - b), max(abs(a), abs(b))
            if not gap <= (ROUTE_AGREEMENT_ATOL if ref < 1e-3 else ROUTE_AGREEMENT_RTOL * ref):
                raise ToleranceError("wick %r and fock %r disagree (gap %.3e)" % (a, b, gap))
        out[p] = {name: float(val.real) for name, val in values.items()}
    return out


# ---------------------------------------------------------------------------
# The Hermite orthogonality diagnostic


def _s_ordered_products(degree, roots):
    """{(a, b): S[Q^a P^b]} for a + b <= degree, as bands.

    S[Q^a P^b] averages the distinct orderings of a Q's and b P's; sorting
    them by their first factor gives
    S[Q^a P^b] = (a Q S[Q^(a-1) P^b] + b P S[Q^a P^(b-1)]) / (a + b).
    """
    out = {(0, 0): _band_identity(degree, roots.shape[1])}
    for total in range(1, degree + 1):
        for a in range(total + 1):
            b = total - a
            q = a * _quadrature_times("q", out[a - 1, b], roots) if a else 0.0
            p = b * _quadrature_times("p", out[a, b - 1], roots) if b else 0.0
            out[a, b] = (q + p) / total
    return out


def hermite_orthogonality_check(n, m, sigma_sq, budget=None):
    """Orthogonality of the degree-(n+m) Hermite form to all lower S-monomials.

    Builds X = S[He_n(Q / sigma) He_m(P / sigma)], the monic Hermite form
    of the limit polynomials, in the thermal state phi of variance
    sigma_sq and returns the largest |<Y, X>| / (||Y|| ||X||) over
    Y = S[Q^a P^b] with a + b < n + m, using the complex inner product
    <A, B> = Tr(phi A* B).  The products are kept as bands, and phi on
    the levels `thermal_levels` keeps for the degree 2(n + m) of A* B.
    """
    phi, _ = thermal_levels(sigma_sq, 2 * (n + m), budget)
    products = _s_ordered_products(n + m, _band_roots(n + m, len(phi)))
    s = math.sqrt(sigma_sq)
    x = sum(
        ca * cb * s ** (-(a + b)) * products[a, b]
        for a, ca in _monic_hermite_coeffs(n)
        for b, cb in _monic_hermite_coeffs(m)
    )

    def inner(y, z):
        # Tr(phi Y* Z) = sum over columns k and rows k + s of phi_k conj(Y) Z
        return complex(np.vdot(y * phi, z))

    norm_x = math.sqrt(max(inner(x, x).real, 0.0))
    worst = 0.0
    for (a, b), y in products.items():
        norm_y = math.sqrt(max(inner(y, y).real, 0.0))
        if a + b < n + m and norm_x > 0.0 and norm_y > 0.0:
            worst = max(worst, abs(inner(y, x)) / (norm_x * norm_y))
    return worst
