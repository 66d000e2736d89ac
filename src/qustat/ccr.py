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
pair-partition sum over the two-point function, and a pass on Fock space
that reads only each oscillator's variance.  There a product of
quadratures is reordered into normal order b^dagger^i b^j with
[b, b^dagger] = 1 / (2 sigma^2), whose thermal means are exact (Cahill &
Glauber 1969), so no Fock level is truncated; the Hermite orthogonality
diagnostic uses the same rule.  Normal order also writes the one
oscillator operator that keeps Fock levels: the exact law of an order-2
limit diagonalizes each oscillator's quadratic form, in closed form
(`_oscillator_form`), on the levels `thermal_levels` keeps.
"""

import cmath
import itertools
import math
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
    _covariance_parts,
    _pauli_pair_probes,
    _tensordot,
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

    classical, eye = [], np.eye(d, dtype=complex)
    for i in range(d - 1):
        g = -mu[i] * eye
        g[i, i] += 1.0
        classical.append(g)
    cov = np.diag(mu[: d - 1]) - mu[: d - 1, None] * mu[: d - 1]

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
    t = ((rho @ s)[:, None] @ s[None]).trace(axis1=-2, axis2=-1)
    sym, skew = _covariance_parts(t, t.T)
    out = np.empty(t.shape, dtype=complex)
    out.real, out.imag = sym, skew
    return out


def _selfcheck(basis):
    c = basis.two_point
    k = len(basis.symbols)
    if frobenius(c.real - np.eye(k)) > BASIS_SELFCHECK_TOL:
        raise ToleranceError("normalized generators are not orthonormal")
    imag = c.imag.tolist()
    for a, sa in enumerate(basis.symbols):
        for b, sb in enumerate(basis.symbols):
            im = imag[a][b]
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
    m_inv = np.linalg.inv(np.array(cols).T)

    # pair row/column indices per site, then solve site by site
    t = mat.reshape((d,) * (2 * c))
    axes = []
    for s in range(c):
        axes += [s, c + s]
    t = np.ascontiguousarray(t.transpose(axes)).reshape((d * d,) * c)
    for axis in range(c):
        t = _tensordot(m_inv, t, [1], [axis])
        t = t.transpose(*range(1, axis + 1), 0, *range(axis + 1, c))  # the new axis back in place

    tol = CENTERED_RESIDUE_RTOL * max(1.0, float(np.abs(t).max()))
    nsym = basis.n_symbols
    grouped = {}
    for idx, val in zip(itertools.product(range(d * d), repeat=c), t.ravel().tolist()):
        if 0 in idx:
            if abs(val) > tol:
                raise ToleranceError(
                    "component of order %d is not centered: identity "
                    "coefficient %r at %r" % (c, complex(val), idx)
                )
            continue
        if abs(val.imag) > tol:
            raise ToleranceError("coefficient %r at %r is not real" % (complex(val), idx))
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


def limit_to_poly(limit):
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
            items = []
            for i, (power, hc) in zip(active, choice):
                coeff *= hc
                items += [i] * power
            # every distinct ordering of the multiset, in lexicographic order
            arrangements = sorted(set(itertools.permutations(items)))
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
    bad = [s for mon in poly for s in mon if not 0 <= s < basis.n_symbols]
    if bad:
        raise ValidationError("symbol index %d out of range" % bad[0])


def wick_moments(poly, basis, max_p):
    """[E[P^t] for t = 0..max_p] of a monomial dict P, by one left-to-right Wick pass.

    A state counts the open slots of each symbol of P.  Each factor b of
    P^max_p, read left to right, opens a slot or closes one of the
    count_a open slots of a symbol a with weight count_a * C[a, b]
    (C = `basis.two_point`, left factor first): the pair-partition sum of
    every monomial, and after the t-th copy of P the all-closed state
    holds E[P^t].  States with more open slots than factors left to close
    them are dropped (`_moment_pass`).
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
    terms = [(coeff, [(steps[s], 1) for s in mon]) for mon, coeff in poly.items()]
    return _moment_pass(
        terms, 0, lambda states, factor, cap: _wick_step(states, *factor, base, cap),
        max_p, lambda states: states.get(0, 0.0 + 0.0j))


def _moment_pass(terms, start, step, max_p, mean):
    """[mean(states after t copies of P)] for t = 0..max_p, reading P^max_p left to right.

    P's terms are (coeff, [(factor, reach)]), a factor's reach being the
    most it can move a state toward one of nonzero mean.  From the state
    `start`, step(states, factor, cap) gives the states after one more
    factor, less those the reach `cap` of the factors left cannot bring
    to a nonzero mean.  Over MAX_POLY_TERMS live states raise ExpansionBudgetError.
    """
    reach = max((sum(r for _, r in factors) for _, factors in terms), default=0)
    states = {start: 1.0 + 0.0j}
    moments = [mean(states)]
    for t in range(1, max_p + 1):
        out = {}
        for coeff, factors in terms:
            read, left = states, (max_p - t) * reach + sum(r for _, r in factors)
            for factor, r in factors:
                left -= r
                read = step(read, factor, left)
                if len(read) > MAX_POLY_TERMS:
                    raise ExpansionBudgetError("moment pass exceeded %d live states" % MAX_POLY_TERMS)
            for key, amp in read.items():
                out[key] = out.get(key, 0.0) + coeff * amp
        states = out
        moments.append(mean(states))
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
    return out


# ---------------------------------------------------------------------------
# Fock route


def _thermal_ladder(sigma_sq, top):
    """(eps, [<b^dagger^j b^j> for j = 0..top]) of the thermal state of variance sigma_sq >= 1/2.

    In b = a / sqrt(2 sigma_sq) the normalized quadratures are q = b +
    b^dagger and p = -i (b - b^dagger), [b, b^dagger] = eps = 1 / (2 sigma_sq),
    and <b^dagger^i b^j> = delta_ij i! nu^i with nu = 1/2 - eps / 2 (Cahill
    & Glauber 1969): finite at every sigma_sq, the vacuum's 0 at 1/2.
    """
    if not 0.5 - 1e-12 <= sigma_sq < math.inf:
        raise ValidationError(
            "oscillator variance must be a finite number >= 1/2, got %r" % (sigma_sq,)
        )
    eps = min(1.0, 0.5 / sigma_sq)
    return eps, list(itertools.accumulate(
        range(1, top + 1), lambda v, j: v * j * (0.5 - 0.5 * eps), initial=1.0))


def thermal_levels(sigma_sq, budget=None):
    """An oscillator's thermal state on the Fock levels that hold all but TAIL_TOL of its mass.

    The state is exp(-beta N) / Z with beta = 2 atanh(1 / (2 sigma_sq))
    (the vacuum at sigma_sq = 1/2), kept on the least T >= 2 levels with
    exp(-beta T) <= TAIL_TOL, at most `budget` (default DEFAULT_DIM_BUDGET).
    Returns (weights, tail): the normalized weights exp(-beta k) / Z_T of
    the kept levels and the thermal mass beyond them.
    """
    _thermal_ladder(sigma_sq, 0)  # checks sigma_sq
    limit = DEFAULT_DIM_BUDGET if budget is None else budget
    beta = 2.0 * math.atanh(1.0 / (2.0 * sigma_sq)) if sigma_sq > 0.5 + 1e-12 else math.inf
    need = -math.log(TAIL_TOL) / beta
    if need > limit:
        raise BudgetError(
            "Fock truncation of the oscillator with sigma^2 = %.6g needs at least "
            "%.4g levels, over the budget %d" % (sigma_sq, need, limit)
        )
    trunc = max(2, math.ceil(need))
    # the vacuum has all its weight on level 0
    weights = np.exp(-beta * np.arange(trunc)) if beta < math.inf else np.eye(1, trunc)[0]
    return weights / weights.sum(), math.exp(-beta * trunc)


def _oscillator_form(f_qq, f_pp, f_qp, sigma_sq, levels):
    """f_qq q^2 + f_pp p^2 + f_qp (qp + pq) on an oscillator's first `levels` levels, made real.

    In normal order (`_thermal_ladder`) q^2 = b^2 + b^dagger^2 + 2 b^dagger b
    + eps, p^2 = -b^2 - b^dagger^2 + 2 b^dagger b + eps and qp + pq = 2i
    (b^dagger^2 - b^2), with b = sqrt(eps) a on the levels l = a^dagger a.
    So the form is eps (f_qq + f_pp) (2l + 1) on the diagonal and
    <l| . |l + 2> = eps z sqrt((l + 1) (l + 2)), z = f_qq - f_pp - 2i f_qp:
    the exact operator compressed to the kept levels.  Taking level l as
    e^{-il phi/2} |l>, phi = arg z, makes it real symmetric (off-diagonal
    eps |z| sqrt(...)) and changes no eigenvalue, nor any Born weight of
    the thermal state, which is diagonal in the Fock basis.
    """
    eps, _ = _thermal_ladder(sigma_sq, 0)
    level = np.arange(levels)
    out = np.diag(eps * (f_qq + f_pp) * (2.0 * level + 1.0))
    low = level[:-2]
    out[low, low + 2] = out[low + 2, low] = (
        eps * math.hypot(f_qq - f_pp, 2.0 * f_qp) * np.sqrt((low + 1.0) * (low + 2.0)))
    return out


def _classical_moments(max_degree):
    """E[x^k] for a standard Gaussian, k = 0..max_degree: (k - 1)!! or 0."""
    return [0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2))) for k in range(max_degree + 1)]


def _reorder_weights(j, i, eps):
    """[C(j, s) C(i, s) s! eps^s]: b^j b^dagger^i = sum_s w_s b^dagger^(i - s) b^(j - s)."""
    return [math.comb(j, s) * math.comb(i, s) * math.factorial(s) * eps ** s
            for s in range(min(i, j) + 1 if eps else 1)]


def _ladder_term(at, spread, i, j, eps, coeff=1.0):
    """The `_fock_step` term coeff b^dagger^i b^j of the mode whose i - j digit is at `at`."""
    return at, i - j, j, [[coeff * w for w in _reorder_weights(top, i, eps)] for top in range(spread + 1)]


def _fock_step(states, terms, base, spread, cap):
    """The states times one more factor on the right, a sum of `_ladder_term` terms, in normal order.

    A state is the integer imbalance + sum over modes of two digits in
    base `base`, i - j + spread and j, for the mode's b^dagger^i b^j; a
    classical power k is i = j = k of a commuting ladder (eps = 0).  States
    whose imbalance, the sum of |i - j|, exceeds `cap` are dropped.
    """
    out = {}
    get = out.get
    for at, lift, j, weights in terms:
        j_place = at * base
        for key, amp in states.items():
            diff = key // at % base - spread
            moved = key + lift * at + abs(diff + lift) - abs(diff)
            if moved % base <= cap:
                # c b^top b^dagger^i = sum_s w_s b^dagger^(i - s) b^(top - s)
                for s, w in enumerate(weights[key // j_place % base]):
                    new = moved + (j - s) * j_place
                    out[new] = get(new, 0.0) + amp * w
    return out


def _symbol_factors(at, spread, eps):
    """The `_fock_step` factor of each symbol kind: q = b + b^dagger, p = -i b + i b^dagger, x."""
    return {"q": [_ladder_term(at, spread, 0, 1, eps), _ladder_term(at, spread, 1, 0, eps)],
            "p": [_ladder_term(at, spread, 0, 1, eps, -1j), _ladder_term(at, spread, 1, 0, eps, 1j)],
            "classical": [_ladder_term(at, spread, 1, 1, eps)]}


def fock_moments(poly, basis, max_p):
    """[E[P^t] for t = 0..max_p] of a monomial dict P, by one left-to-right pass in normal order.

    P is first put in normal order in each oscillator's ladder b
    (`_thermal_ladder`): a sum of products over modes of b^dagger^i b^j
    or classical powers, one of which a state of the pass holds
    (`_fock_step`).  Modes commute, so equal states merge, and a state's
    mean is its modes' delta_ij i! nu^i times (k - 1)!! for each classical
    power k (i.i.d. standard Gaussians in whitened coordinates).  A factor
    b^dagger^i b^j moves i - j by exactly i - j, so a state more
    imbalanced than the factors left can undo is dropped (`_moment_pass`).
    """
    _check_symbols(poly, basis)
    degree = max(map(len, poly), default=0)
    spread = max(1, max_p) * degree
    base = 2 * spread + 1
    # mode: (place of its i - j digit, eps, means by j, factors of its symbols)
    modes, factors = {}, {}
    for s in sorted({s for mon in poly for s in mon}):
        sym = basis.symbols[s]
        mode = sym.name if sym.kind == "classical" else sym.pair_id
        if mode not in modes:
            at = base ** (1 + 2 * len(modes))
            # a balanced b^dagger^j b^j of at most spread factors has j <= spread // 2
            eps, means = ((0.0, _classical_moments(spread)) if sym.kind == "classical"
                          else _thermal_ladder(sym.sigma_sq, spread // 2))
            modes[mode] = (at, eps, means, _symbol_factors(at, spread, eps))
        factors[s] = modes[mode][3][sym.kind]
    start = spread * sum(at for at, *_ in modes.values())
    # P in normal order, each shared prefix of its sorted monomials taken once;
    # a term more imbalanced than the other copies of P can undo is dropped
    normal, reads, previous = {}, [{start: 1.0 + 0.0j}], ()
    for mon in sorted(poly):
        shared = next((i for i, pair in enumerate(zip(previous, mon)) if pair[0] != pair[1]),
                      min(len(previous), len(mon)))
        del reads[shared + 1:]
        for s in mon[shared:]:
            reads.append(_fock_step(reads[-1], factors[s], base, spread, spread - len(reads)))
        for key, amp in reads[-1].items():
            normal[key] = normal.get(key, 0.0) + poly[mon] * amp
        previous = mon
    # each term as one factor per mode, which reaches |i - j| toward balance
    terms = []
    for key, coeff in normal.items():
        digits = [(at, eps, key // at % base - spread, key // (at * base) % base)
                  for at, eps, _, _ in modes.values()]
        if coeff:
            terms.append((coeff, [([_ladder_term(at, spread, diff + j, j, eps)], abs(diff))
                                  for at, eps, diff, j in digits if diff or j]))

    def mean(states):
        return sum((amp * math.prod(means[key // (at * base) % base] for at, _, means, _ in modes.values())
                    for key, amp in states.items() if key % base == 0), 0.0 + 0.0j)

    return _moment_pass(
        terms, start, lambda states, factor, cap: _fock_step(states, factor, base, spread, cap),
        max_p, mean)


# ---------------------------------------------------------------------------
# Moments of a limit polynomial, both routes


ROUTE_AGREEMENT_RTOL = 1e-6
ROUTE_AGREEMENT_ATOL = 1e-9


def limit_moment(limit, basis, p, method="wick"):
    """E[L^p] for the limit polynomial L, via "wick" or "fock"."""
    return _route_moments(limit, basis, [p], (method,))[p][method]


def _route_moments(limit, basis, ps, methods):
    """{p: {method: E[L^p]}} for the orders ps, all from one pass per route; two routes must agree.

    Each route's moments are checked as soon as its pass ends: one that is
    not finite, or not real, raises ToleranceError.
    """
    if min(ps) < 0:
        raise ValidationError("moment order must be >= 0")
    routes = {"wick": wick_moments, "fock": fock_moments}
    for name in methods:
        if name not in routes:
            raise ValidationError("unknown method %r" % name)
    poly = limit_to_poly(limit)
    runs = {}
    for name in methods:
        runs[name] = routes[name](poly, basis, max(ps))
        for p in ps:
            val = runs[name][p]
            if not cmath.isfinite(val):
                raise ToleranceError("%s moment of order %d is not finite: %r" % (name, p, val))
            if abs(val.imag) > 1e-8 * max(1.0, abs(val)):
                raise ToleranceError("moment %r of a selfadjoint polynomial is not real"
                                     % complex(val))
    out = {}
    for p in ps:
        if len(runs) == 2:
            a, b = runs["wick"][p], runs["fock"][p]
            gap, ref = abs(a - b), max(abs(a), abs(b))
            if not gap <= (ROUTE_AGREEMENT_ATOL if ref < 1e-3 else ROUTE_AGREEMENT_RTOL * ref):
                raise ToleranceError("wick %r and fock %r disagree (gap %.3e)"
                                     % (complex(a), complex(b), gap))
        out[p] = {name: float(run[p].real) for name, run in runs.items()}
    return out


# ---------------------------------------------------------------------------
# The Hermite orthogonality diagnostic


def hermite_orthogonality_check(n, m, sigma_sq):
    """Orthogonality of the degree-(n+m) Hermite form to all lower S-monomials.

    Builds X = S[He_n(q) He_m(p)], the monic Hermite form of the limit
    polynomials, in the normalized quadratures of the thermal state phi of
    variance sigma_sq and returns the largest |<Y, X>| / (||Y|| ||X||)
    over Y = S[q^a p^b] with a + b < n + m, for <A, B> = Tr(phi A B), which
    is Tr(phi A* B) on these selfadjoint forms.  Sorting the orderings of
    S[q^a p^b] by their last factor gives S[q^a p^b] = (a S[q^(a-1) p^b] q
    + b S[q^a p^(b-1)] p) / (a + b), kept in normal order (`_fock_step`);
    the traces are exact (`_reorder_weights`, `_thermal_ladder`).
    """
    size = n + m + 1
    eps, means = _thermal_ladder(sigma_sq, 2 * size)
    base = 2 * size + 1
    factors = _symbol_factors(base, size, eps)
    ys = {(0, 0): {size * base: 1.0 + 0.0j}}
    for total in range(1, size):
        for a in range(total + 1):
            b = total - a
            q = _fock_step(ys[a - 1, b], factors["q"], base, size, base) if a else {}
            p = _fock_step(ys[a, b - 1], factors["p"], base, size, base) if b else {}
            ys[a, b] = {key: (a * q.get(key, 0.0) + b * p.get(key, 0.0)) / total for key in q.keys() | p.keys()}
    # y[i, j]: the coefficient of b^dagger^i b^j
    for ab, states in ys.items():
        ys[ab] = np.zeros((size, size), dtype=complex)
        for key, amp in states.items():
            j = key // base ** 2 % base
            ys[ab][key // base % base - size + j, j] = amp
    x = sum(ca * cb * ys[a, b] for a, ca in _monic_hermite_coeffs(n) for b, cb in _monic_hermite_coeffs(m))
    # gram[i, j, k, l] = Tr(phi b^dagger^i b^j b^dagger^k b^l), 0 unless i + k = j + l
    gram = np.zeros((size,) * 4)
    for i, j, k in itertools.product(range(size), repeat=3):
        if 0 <= i + k - j < size:
            gram[i, j, k, i + k - j] = sum(w * means[i + k - s] for s, w in enumerate(_reorder_weights(j, k, eps)))

    def inner(y, z):
        return complex(np.einsum("ij,ijkl,kl", y, gram, z))

    norm_x = math.sqrt(max(inner(x, x).real, 0.0))
    worst = 0.0
    for (a, b), y in ys.items():
        norm_y = math.sqrt(max(inner(y, y).real, 0.0))
        if a + b < n + m and norm_x > 0.0 and norm_y > 0.0:
            worst = max(worst, abs(inner(y, x)) / (norm_x * norm_y))
    return worst
