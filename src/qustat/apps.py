"""Applications: a goodness-of-fit test, goodness and homogeneity kernels, metrology overlap.

The test kernels estimate squared Frobenius distances between states and
are degenerate of order 2 at their null, so the natural test statistic
is n (U_n - 0) and its null distribution converges to a quadratic
polynomial in the limit variables.  The kernels estimate a distance that
is zero exactly at the null, so only large values of n U_n speak against
it: the default critical region is the upper tail beyond the (1 - alpha)
quantile of that limit law.  The law is exact and reads only the
polynomial's constant and its symmetric coefficient matrix: a discrete
variable (the thermal Born law of the spectrum of each oscillator's
quadratic form, summed over oscillators) plus an independent weighted
sum of chi-square(1) variables for the commutative block, whose CDF is
Ruben's chi-square mixture.  It is built
once per test run and serves every sample size; the level and power at
each n are exact Born sums over the law of n U_n, read in closed form
for qubits (`_qubit_rates`) and from `ustat.finite_law` for d >= 3.
Nothing is sampled.  The metrology overlap is read from `finite_law`.
"""

import itertools
import math

import numpy as np

from .ccr import (
    _oscillator_form,
    build_ccr_basis,
    kernel_to_limit,
    limit_moment,
    limit_to_poly,
    thermal_levels,
)
from .errors import ToleranceError, ValidationError
from .hoeffding import kernel_components
from .operators import (
    DensityMatrix,
    Kernel,
    _kron,
    _pauli_pair_probes,
    binom,
    check_dim_budget,
    hermitize,
)
from .ustat import PROB_DEFICIT_TOL, _log_multiplicities, _xlogy, finite_law

# The exact limit law drops its least likely joint oscillator atoms up to
# _DROPPED_MASS and leaves at most _RUBEN_REMAINDER of the Ruben series
# unsummed; with the Fock tails these make up its error bound, held to
# PROB_DEFICIT_TOL.  Its quantiles are found to _ROOT_RTOL relative.
_DROPPED_MASS = 0.1 * PROB_DEFICIT_TOL
_RUBEN_REMAINDER = 0.1 * PROB_DEFICIT_TOL
_MAX_RUBEN_TERMS = 10_000
_ROOT_RTOL = 1e-12
# Entries of the largest (atoms x Ruben terms) array `_law_cdf` forms at once.
_STACK_ENTRIES = 2 ** 20
# Past 2^53 one ulp of a metrology phase is about a radian, so its
# exponential is rounding noise.
_MAX_PHASE = 2.0 ** 53


def goodness_kernel(rho, budget=None):
    """Order-2 kernel whose mean under sigma^{otimes 2} is ||sigma - rho||_2^2.

    Requires rho diagonal in the working basis; rotate first otherwise.
    The probe family is the diagonal set lambda_i 1 - E_ii together with
    both off-diagonal probes per pair, scaled by 1/sqrt(2) so that the
    probe squares resolve the squared Frobenius norm exactly.  Its d^2 x
    d^2 matrix is checked against `budget` before it is allocated.
    """
    if not rho.is_diagonal:
        raise ValidationError(
            "goodness kernel needs the reference state diagonal; rotate "
            "to its eigenbasis first"
        )
    d = rho.d
    check_dim_budget(d * d, budget)
    lam = rho.entries.diagonal().real
    eye = np.eye(d, dtype=complex)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        probe = lam[i] * eye
        probe[i, i] -= 1.0
        acc += _kron(probe, probe)
    for j, k in itertools.combinations(range(d), 2):
        sym, skew = _pauli_pair_probes(d, j, k)
        acc += 0.5 * (_kron(sym, sym) + _kron(skew, skew))
    return Kernel(d, 2, hermitize(acc))


def homogeneity_kernel(d, budget=None):
    """Order-2 kernel on pairs of systems estimating ||sigma1 - sigma2||_2^2.

    Each site is C^d x C^d carrying one sample from each source.  Probes
    are X x 1 - 1 x X over an orthonormal hermitian basis X, so the mean
    under (sigma1 x sigma2)^{otimes 2} is exact for every pair of states.
    Its d^4 x d^4 matrix is checked against `budget` before it is allocated.
    """
    check_dim_budget(d ** 4, budget)
    probes = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        probes.append(e)
    for j, k in itertools.combinations(range(d), 2):
        sym, skew = _pauli_pair_probes(d, j, k)
        probes.append(sym / math.sqrt(2.0))
        probes.append(skew / math.sqrt(2.0))
    eye = np.eye(d, dtype=complex)
    acc = np.zeros((d ** 4, d ** 4), dtype=complex)
    for x in probes:
        y = _kron(x, eye) - _kron(eye, x)
        acc += _kron(y, y)
    return Kernel(d * d, 2, hermitize(acc))


def _limit_law(limit, basis, budget=None):
    """Exact law of an order-2 limit polynomial that is additive across blocks.

    Returns (atoms, probs, mu): the constant plus the oscillator blocks
    form a discrete variable with increasing `atoms` and probabilities
    `probs`, and the commutative block is sum_i mu_i Z_i^2 for i.i.d.
    standard normals Z_i, independent of it.  The polynomial
    (`limit_to_poly`) is read as a constant plus x^T F x over the symbols
    with F symmetric; it must have no monomial of degree other than 0 or
    2, and F no entry linking two blocks (the commutative block, each
    oscillator), since the law is a sum over the independent blocks.  mu
    are the eigenvalues of F's commutative block.  Each oscillator's 2 x 2
    block must be a definite (q, p) form, as one that is not has a
    continuous spectrum; it is written on the Fock levels
    `thermal_levels` keeps as a real symmetric matrix
    (`ccr._oscillator_form`) and diagonalized with its even and odd
    levels apart, which it never couples.  Its
    eigenvalues are weighted by their thermal Born probabilities, the
    oscillators combine by outer sum, and the least likely joint atoms
    are dropped up to a total mass _DROPPED_MASS.  The thermal tails and
    the dropped atoms are the deficit 1 - sum(probs).
    """
    symbols = range(basis.n_symbols)
    const, form = 0.0, [[0.0 for _ in symbols] for _ in symbols]
    for mon, coeff in limit_to_poly(limit).items():
        if not mon:
            const += coeff
        elif len(mon) == 2:
            form[mon[0]][mon[1]] += 0.5 * coeff
            form[mon[1]][mon[0]] += 0.5 * coeff
        else:
            raise ValidationError(
                "limit polynomial has a monomial of degree %d, an odd degree or one "
                "above 2; its exact law needs degree 0 or 2" % len(mon)
            )
    # the block of each symbol: its oscillator, or -1 for the commutative block
    block = [s.pair_id for s in basis.symbols]
    if any(form[a][b] for a in symbols for b in symbols if block[a] != block[b]):
        raise ValidationError(
            "limit polynomial has a monomial spanning several "
            "independent blocks; its law is not a sum over blocks"
        )
    members = [[a for a in symbols if block[a] == pid]
               for pid in range(-1, len(basis.oscillator_pairs))]
    mu = np.linalg.eigvalsh(np.array(form)[members[0]][:, members[0]])
    reached = [pid for pid, row in enumerate(members[1:]) if any(any(form[a]) for a in row)]
    atoms, probs = np.array([float(const)]), np.ones(1)
    for pid in reached:
        q, p = members[pid + 1]
        f_qq, f_pp, f_qp = form[q][q], form[p][p], form[q][p]
        if f_qq * f_pp <= f_qp * f_qp:
            raise ValidationError(
                "limit polynomial has a (q, p) form on oscillator %d that is not definite "
                "and so has a continuous spectrum; its exact law needs a definite one" % pid
            )
        sigma_sq = basis.oscillator_pairs[pid].sigma_sq
        weights, tail = thermal_levels(sigma_sq, budget)
        op = _oscillator_form(f_qq, f_pp, f_qp, sigma_sq, len(weights))
        thermal = weights * (1.0 - tail)
        # a quadratic form couples only levels of equal parity
        vals, born = [], []
        for par in range(2):
            par_vals, vecs = np.linalg.eigh(op[par::2, par::2])
            vals.append(par_vals)
            born.append(thermal[par::2] @ vecs ** 2)
        # ascending, as one eigh of all levels orders them, so that the
        # joint atoms below are summed in the same order
        vals, born = np.concatenate(vals), np.concatenate(born)
        order = vals.argsort(kind="stable")
        atoms = np.add.outer(atoms, vals[order]).ravel()
        probs = np.multiply.outer(probs, born[order]).ravel()
        order = probs.argsort()
        dropped = probs[order].cumsum().searchsorted(_DROPPED_MASS / len(reached), side="right")
        atoms, probs = atoms[order[dropped:]], probs[order[dropped:]]
    order = atoms.argsort()
    return atoms[order], probs[order], mu


def _ruben_weights(mu):
    """Ruben's (1962) chi-square mixture for sum_i mu_i Z_i^2, all mu_i > 0.

    With beta = min(mu) and k = len(mu),
    P(sum_i mu_i Z_i^2 <= x) = sum_j c_j F_{k + 2j}(x / beta) for the
    chi-square CDFs F_nu, and every c_j >= 0 with sum 1.  Returns beta and
    c_0, c_1, ... up to an unsummed weight of at most _RUBEN_REMAINDER,
    or _MAX_RUBEN_TERMS of them.
    """
    if mu.size == 0 or mu.min() <= 0.0:
        raise ValidationError(
            "the exact limit law needs a positive definite commutative block"
        )
    beta = float(mu.min())
    gamma = 1.0 - beta / mu
    c = np.zeros(_MAX_RUBEN_TERMS)
    g = np.zeros(_MAX_RUBEN_TERMS)  # g[m - 1] = sum_i gamma_i^m
    c[0] = np.sqrt(beta / mu).prod()
    total, j = c[0], 1
    while 1.0 - total > _RUBEN_REMAINDER and j < _MAX_RUBEN_TERMS:
        g[j - 1] = (gamma ** j).sum()
        c[j] = np.dot(g[:j], c[j - 1 :: -1]) / (2.0 * j)
        total += c[j]
        j += 1
    return beta, c[:j]


def _law_cdf(atoms, probs, mu):
    """CDF of the law of `_limit_law`, low by at most PROB_DEFICIT_TOL.

    F(x) = sum_{a < x} p_a G(x - a) with G the CDF of sum_i mu_i Z_i^2 as
    Ruben's mixture.  Its chi-square CDFs are regularized gamma functions
    P(k/2 + j, y), reached from P(1/2, y) = erf(sqrt(y)) (k odd) or
    P(0, y) = 1 (k even) by P(a + 1, y) = P(a, y) - y^a exp(-y) / Gamma(a + 1).  Raises
    ToleranceError when the law's deficit (Fock tails and dropped atoms)
    plus the unsummed Ruben weight exceeds PROB_DEFICIT_TOL.
    """
    beta, c = _ruben_weights(mu)
    bound = (1.0 - probs.sum()) + (1.0 - c.sum())
    if bound > PROB_DEFICIT_TOL:
        raise ToleranceError(
            "limit law error bound %.3e exceeds %g (%d Ruben terms)"
            % (bound, PROB_DEFICIT_TOL, len(c))
        )
    k = len(mu)
    # G(y) = sum_j c_j P(k/2 + j, y) = C P(base, y) - sum_l w_l t_l(y) with
    # base = 0 or 1/2, t_l(y) = y^(base + l) exp(-y) / Gamma(base + l + 1)
    # and w_l the weight of the terms whose order lies beyond base + l
    tails = c[::-1].cumsum()[::-1]
    w = np.concatenate([tails[:1].repeat(k // 2), tails[1:]])
    powers = 0.5 * (k % 2) + np.arange(len(w))
    log_gamma = np.array([math.lgamma(a + 1.0) for a in powers.tolist()])
    chunk = max(1, _STACK_ENTRIES // max(1, len(w)))

    def cdf(x):
        below = atoms.searchsorted(x)
        y = (x - atoms[:below]) / (2.0 * beta)
        if k % 2:
            g = tails[0] * np.array(list(map(math.erf, np.sqrt(y).tolist())))
        else:
            g = tails[:1].repeat(below)
        if len(w):
            log_y = np.log(y)
            for lo in range(0, below, chunk):
                part = slice(lo, lo + chunk)
                t = np.exp(log_y[part, None] * powers - y[part, None] - log_gamma)
                g[part] -= t @ w
        return float(probs[:below] @ g)

    return cdf


def _law_quantile(atoms, probs, mu, level):
    """The `level` quantile of the law of `_limit_law`, to _ROOT_RTOL relative.

    The root of F(x) = level lies above the smallest atom, where F is 0,
    and below Cantelli's bound mean + sd sqrt(level / (1 - level)), which
    is widened while the law's error leaves F short of level there; the
    Illinois variant of regula falsi closes the bracket.  A level within
    PROB_DEFICIT_TOL of 1 is out of the law's reach: ToleranceError.
    """
    if 1.0 - level <= PROB_DEFICIT_TOL:
        raise ToleranceError(
            "quantile level %r is within the limit law's error bound %g of 1"
            % (level, PROB_DEFICIT_TOL)
        )
    cdf = _law_cdf(atoms, probs, mu)
    discrete_mean = float(probs @ atoms)
    mean = discrete_mean + float(mu.sum())
    sd = math.sqrt(float(probs @ (atoms - discrete_mean) ** 2) + 2.0 * float(mu @ mu))
    lo, hi = float(atoms[0]), mean + sd * math.sqrt(level / (1.0 - level))
    f_lo, f_hi = -level, cdf(hi) - level
    while f_hi < 0.0:
        hi += hi - lo
        f_hi = cdf(hi) - level
    side = 0
    while hi - lo > _ROOT_RTOL * max(abs(lo), abs(hi), sd):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        f_x = cdf(x) - level
        if f_x == 0.0:
            return x
        if f_x > 0.0:
            hi, f_hi = x, f_x
            if side == 1:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = x, f_x
            if side == -1:
                f_hi *= 0.5
            side = -1
    return 0.5 * (lo + hi)


def run_test(null_state, alpha, n_list, interval=None, alternative=None, budget=None):
    """Exact level and power of the goodness-of-fit test of null_state at each n of n_list.

    alpha lies in (0, 1) and every n is at least 2.  A given interval
    (a, b), a < b, is a two-sided acceptance interval: the test rejects
    when n U_n < a or n U_n > b.  Without it the test rejects when n U_n
    exceeds the (1 - alpha) quantile q of the null limit law, built once
    per call and read from its exact CDF (`_limit_law`, `_law_quantile`);
    the reported interval is then (smallest atom of n U_n, q), its lower
    end for information only.  At each n the rejection rate under the
    null and, when an alternative state is given, the acceptance rate
    under it are exact Born sums over the law of n U_n, for every n at
    once: in closed form for qubits (`_qubit_rates`, no block and no
    eigensolver), from one `finite_law` call for d >= 3 (`_dense_rates`).
    Nothing is drawn at random, so the standard
    errors are 0 (None for the power without an alternative).  Returns
    one record per n, in n_list order, as `result.json` holds it: n,
    alpha, interval, alpha_hat, alpha_se, beta_hat, beta_se, theta_true
    (None without an alternative) and limit_moments.

    The test is biased against purer alternatives at small n.  At null
    diag(0.75, 0.25) and alpha = 0.05, diag(0.9, 0.1) is accepted more
    often than the null at every n <= 17 (0.9556 against 0.9485 at
    n = 10) and less often at every n from 18 to 200 (0.7919 against
    0.9397 at n = 18, 0.0012 at n = 200).  diag(0.6, 0.4) is accepted less
    often than the null at every n from 2 to 200.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    n_list = [int(n) for n in n_list]
    if not n_list or min(n_list) < 2:
        raise ValidationError("need a non-empty n_list with every n >= 2")
    if interval is not None and not interval[0] < interval[1]:
        raise ValidationError("interval must satisfy a < b")
    if alternative is not None and alternative.d != null_state.d:
        raise ValidationError(
            "alternative state has dimension %d, the null state %d" % (alternative.d, null_state.d)
        )
    if alternative is not None and not alternative.is_diagonal:
        raise ValidationError("alternative state must be diagonal too")
    kernel = goodness_kernel(null_state, budget)
    basis = build_ccr_basis(null_state)
    limit = kernel_to_limit(kernel, kernel_components(kernel, null_state), basis)
    kernel_second = limit_moment(limit, basis, 2, method="wick")
    if interval is None:
        quantile = _law_quantile(*_limit_law(limit, basis, budget), 1.0 - alpha)
    weights = [null_state.entries.diagonal().real]
    theta_true = None
    if alternative is not None:
        theta_true = float((np.abs(alternative.entries - null_state.entries) ** 2).sum())
        weights.append(alternative.entries.diagonal().real)
    lo, hi = interval or (-math.inf, quantile)
    if null_state.d == 2:
        lows, accepted, rejected = _qubit_rates(weights, n_list, lo, hi, budget)
    else:
        lows, accepted, rejected = _dense_rates(kernel, weights, n_list, lo, hi, budget)
    return [{
        "n": n,
        "alpha": float(alpha),
        "interval": [float(lows[m] if interval is None else lo), float(hi)],
        "alpha_hat": float(rejected[0][m]),
        "alpha_se": 0.0,
        "beta_hat": None if alternative is None else float(accepted[1][m]),
        "beta_se": None if alternative is None else 0.0,
        "theta_true": theta_true,
        "limit_moments": {"kernel_second_moment": kernel_second},
    } for m, n in enumerate(n_list)]


def _dense_rates(kernel, weights, n_list, lo, hi, budget=None):
    """The rates of `_qubit_rates`, read off the law of U_n from `finite_law`."""
    lows, accepted, rejected = [], [], []
    for n, (atoms, probs) in zip(n_list, finite_law(kernel, weights, n_list, budget)):
        scaled = n * atoms
        accept = (scaled >= lo) & (scaled <= hi)
        lows.append(scaled.min())
        accepted.append([p[accept].sum() for p in probs])
        rejected.append([p[~accept].sum() for p in probs])
    return lows, np.transpose(accepted), np.transpose(rejected)


def _qubit_rates(weights, n_list, lo, hi, budget=None):
    """Exact rates of the qubit goodness test of the null weights[0], from its law in closed form.

    On the spin block k = 0..floor(n/2), the two-row shape (n - k, k),
    sum_{i<j} SWAP_ij is the content c_k = C(n - k, 2) + C(k, 2) - k
    (Jucys-Murphy), and on its level i, with k + i sites in state 1,
    U_n = c_k / C(n, 2) - (2/n) (lam_0 (n - k - i) + lam_1 (k + i)) + Tr rho^2
    for the null rho = diag(lam).  So n U_n is linear in i, with slope
    2 (lam_0 - lam_1), and for lo <= hi the levels with
    lo <= n U_n <= hi are one run of each block, found from the bounds and
    checked level by level at its ends.  A level weighs
    m_j w_0^(n-k-i) w_1^(k+i) under the state w (`_spin_levels`), geometric
    in i, so a run's mass is one geometric sum (`_run_mass`).  Each n's
    size is checked against `budget` as its spin stack's would be.
    Returns (lows, accepted, rejected): per n the smallest n U_n on a block
    that some state weighs, and per state and n the probability of the
    runs and of the rest, each normalized by the state's total.  A total
    further than PROB_DEFICIT_TOL from 1 raises ToleranceError.
    """
    for n in n_list:
        check_dim_budget(n + 1, budget)
    n, k = np.array([(m, j) for m in n_list for j in range(m // 2 + 1)]).T
    starts = [0, *itertools.accumulate(m // 2 + 1 for m in n_list[:-1])]
    log_mult = np.concatenate([_log_multiplicities(m) for m in n_list])
    last = n - 2 * k
    lam = weights[0]
    slope = 2.0 * (lam[0] - lam[1])
    # n U_n on level i over the common denominator n - 1, which keeps the
    # content term an exact integer: (base + step i) / (n - 1)
    denominator = n - 1
    step = slope * denominator
    base = ((n * ((1.0 - lam[0]) ** 2 + lam[1] ** 2) + slope * k) * denominator
            - 2 * k * (n - k + 1))

    def value(i):
        return (base + step * i) / denominator

    if slope == 0.0:
        # each block is one atom, in the run or not
        inside = (value(0) >= lo) & (value(0) <= hi)
        runs = np.array([np.full_like(k, -1), np.where(inside, last, -1)])
    else:
        # sign n U_n rises with the level: the run follows the levels where
        # it lies below sign near, at most the float before it, and ends at
        # the last level where it is at most sign far
        sign = 1.0 if slope > 0.0 else -1.0
        near, far = (lo, hi) if slope > 0.0 else (hi, lo)
        bound = np.array([[np.nextafter(sign * near, -math.inf)], [sign * far]])
        runs = _last_level(np.floor((sign * bound * denominator - base) / step), last,
                           lambda i: sign * value(i) <= bound)
    # the last level before each segment of a block: none, then the
    # levels below the run, the run and the levels above it
    ends = np.concatenate([[np.full_like(k, -1)], runs, [last]])
    accepted, rejected = [], []
    weighed = np.zeros(n.size, dtype=bool)
    for w in weights:
        mass = _run_mass(log_mult, n, k, ends[:-1] + 1, ends[1:], w)
        weighed |= mass.any(axis=0)
        below, run, above = np.add.reduceat(mass, starts, axis=1)
        total = below + run + above
        deficit = np.abs(1.0 - total)
        if not deficit.max() <= PROB_DEFICIT_TOL:
            m = next(m for m, d in enumerate(deficit) if not d <= PROB_DEFICIT_TOL)
            raise ToleranceError("measurement probabilities deficient by %.3e at n=%d"
                                 % (deficit[m], n_list[m]))
        accepted.append(run / total)
        rejected.append((below + above) / total)
    lowest = np.minimum(value(0), value(last))
    lows = np.minimum.reduceat(np.where(weighed, lowest, np.inf), starts)
    return lows, accepted, rejected


def _last_level(guess, last, holds):
    """The last level i in [-1, last] of each block with holds(i), where holds is true up to it.

    `guess` is the bound read off n U_n, within a level or so of the
    answer; it is moved one level at a time while holds disagrees.
    """
    i = guess.clip(-1, last).astype(np.int64)
    while (up := (i < last) & holds(i + 1)).any():
        i += up
    while (down := (i >= 0) & ~holds(i)).any():
        i -= down
    return i


def _run_mass(log_mult, n, k, first, final, w):
    """sum_{i=first}^{final} m_j w_0^(n-k-i) w_1^(k+i) on each block, 0 where final = first - 1.

    The terms are geometric with ratio w_1 / w_0, so the sum is the
    heaviest term, at one end of the run, times
    expm1(count r) / expm1(r) with r = -|log(w_1 / w_0)|, formed in log
    space as `_spin_levels` forms each term.
    """
    count = final - first + 1
    # log(w_1 / w_0), infinite where a weight is 0
    ratio = _xlogy(1, w[1]) - _xlogy(1, w[0])
    end = first if ratio <= 0.0 else final
    heaviest = log_mult + _xlogy(n - k - end, w[0]) + _xlogy(k + end, w[1])
    r = -abs(ratio)
    if r == 0.0:
        factor = count
    elif r == -math.inf:
        factor = (count > 0).astype(float)
    else:
        factor = np.expm1(count * r) / math.expm1(r)
    return np.exp(np.where(count > 0, heaviest, -np.inf)) * factor


def metrology_overlap(kernel, rho0, t, g1, g2, n_list, budget=None):
    """Overlap of two conjugated probe states after n-sample evolution, per n.

    The generator is the subset sum of the kernel; parameters g1, g2
    scale it by t (g1 - g2) n^{1/2 - r}.  Requires a pure reference with
    vanishing kernel mean and a non-degenerate first component; these
    checks and the kernel in the reference's eigenframe (rotated by
    `DensityMatrix.frame` unless that is None) are formed once per call;
    in that frame the reference is the first basis vector.  Returns one
    record per n, in n_list order, as `result.json` holds it: n,
    overlap_re and overlap_im, the exact overlap read from one
    `finite_law` call (one spin block per n for qubits), and limit, the
    Gaussian exp(-t^2 (g1-g2)^2 xi_1 / (2 ((r-1)!)^2)).  Phases that
    are not finite, or past 2^53 where one ulp is about a radian, raise
    ValidationError.
    """
    vals = rho0.eigenvalues
    if abs(vals[0] - 1.0) > 1e-10:
        raise ValidationError("reference state must be pure")
    r = kernel.r
    report = kernel_components(kernel, rho0)
    if abs(report.theta) > 1e-10 * max(1.0, kernel.op.frobenius_norm()):
        raise ValidationError("kernel mean must vanish at the reference state")
    xi1 = report.components[1].norm_sq
    if xi1 <= 1e-12:
        raise ValidationError("kernel is degenerate at the reference state")
    dg = float(g1) - float(g2)
    if t == 0.0 or dg == 0.0:
        return [{"n": int(n), "overlap_re": 1.0, "overlap_im": 0.0, "limit": 1.0} for n in n_list]
    # In its eigenframe the reference is the first basis vector, of the
    # largest eigenvalue; exact 0/1 weights keep every other block out.
    u = rho0.frame
    k = kernel if u is None else kernel.rotated(u)
    reference = [np.eye(rho0.d)[0]]
    records = []
    for n, (atoms, (probs,)) in zip(n_list, finite_law(k, reference, n_list, budget)):
        scale = t * dg * float(n) ** (0.5 - r) * binom(n, r)
        top = abs(scale) * float(np.abs(atoms).max())
        if not math.isfinite(top):
            raise ValidationError("metrology phases are not finite at n=%d: the largest, |t (g1 - "
                                  "g2)| n^(1/2 - r) C(n, r) max|atom|, is %r" % (n, top))
        if top > _MAX_PHASE:
            raise ValidationError("metrology phases at n=%d reach %r, past 2^53, where one ulp of "
                                  "a phase is about a radian" % (n, top))
        # top >= |t (g1 - g2)| r^(1 - r) sqrt(xi1), so past the checks the square is finite
        limit = math.exp(-(t * dg) ** 2 * xi1 / (2.0 * math.factorial(r - 1) ** 2))
        overlap = complex(np.dot(probs, np.exp(1j * scale * atoms)))
        records.append({"n": int(n), "overlap_re": overlap.real, "overlap_im": overlap.imag,
                        "limit": limit})
    return records
