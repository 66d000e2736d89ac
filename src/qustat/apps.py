"""Applications: goodness-of-fit and homogeneity tests, metrology overlap.

The test kernels estimate squared Frobenius distances between states and
are degenerate of order 2 at their null, so the natural test statistic
is n (U_n - 0) and its null distribution converges to a quadratic
polynomial in the limit variables.  The kernels estimate a distance that
is zero exactly at the null, so only large values of n U_n speak against
it: the default critical region is the upper tail beyond the (1 - alpha)
quantile of that limit law, obtained by Monte Carlo on the exact limit
distribution (Born sampling per oscillator, Gaussian sampling for the
commutative block).  The limit law is built once per test run and serves
every sample size; the level and power at each n are exact Born sums over
the law of n U_n from `ustat.finite_law`, not samples from it.  The
metrology overlap is read from the same kind of law.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ccr import (
    DEFAULT_TRUNC,
    FockRep,
    build_ccr_basis,
    kernel_to_limit,
    limit_moment,
    limit_to_poly,
)
from .errors import ValidationError
from .hoeffding import kernel_components
from .operators import (
    DensityMatrix,
    HermitianOperator,
    Kernel,
    binom,
    eigenframe,
    hermitize,
)
from .ustat import _checked_probabilities, finite_law

DEFAULT_LIMIT_DRAWS = 10 ** 6


def _pauli_pair_probes(d, j, k):
    """The two selfadjoint probes of the (j, k) off-diagonal, 0-based."""
    sym = np.zeros((d, d), dtype=complex)
    sym[j, k] = sym[k, j] = 1.0
    skew = np.zeros((d, d), dtype=complex)
    skew[j, k] = 1.0j
    skew[k, j] = -1.0j
    return sym, skew


def goodness_kernel(rho):
    """Order-2 kernel whose mean under sigma^{otimes 2} is ||sigma - rho||_2^2.

    Requires rho diagonal in the working basis; rotate first otherwise.
    The probe family is the diagonal set lambda_i 1 - E_ii together with
    both off-diagonal probes per pair, scaled by 1/sqrt(2) so that the
    probe squares resolve the squared Frobenius norm exactly.
    """
    if not rho.is_diagonal:
        raise ValidationError(
            "goodness kernel needs the reference state diagonal; rotate "
            "to its eigenbasis first"
        )
    d = rho.d
    lam = np.real(np.diag(rho.entries))
    acc = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        probe = lam[i] * np.eye(d, dtype=complex)
        probe[i, i] -= 1.0
        acc += np.kron(probe, probe)
    for j, k in itertools.combinations(range(d), 2):
        sym, skew = _pauli_pair_probes(d, j, k)
        acc += 0.5 * (np.kron(sym, sym) + np.kron(skew, skew))
    return Kernel(d, 2, hermitize(acc))


def homogeneity_kernel(d):
    """Order-2 kernel on pairs of systems estimating ||sigma1 - sigma2||_2^2.

    Each site is C^d x C^d carrying one sample from each source.  Probes
    are X x 1 - 1 x X over an orthonormal hermitian basis X, so the mean
    under (sigma1 x sigma2)^{otimes 2} is exact for every pair of states.
    """
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
        y = np.kron(x, eye) - np.kron(eye, x)
        acc += np.kron(y, y)
    return Kernel(d * d, 2, hermitize(acc))


def simulate_measurement(op, state, replicates, seed):
    """Sample eigenvalues of an observable under a state, Born distributed.

    `state` may be a density matrix or a 1-d vector of diagonal weights.
    Outcomes are drawn with a seeded generator; replicate i is entry i of
    the returned array for any replicate count.
    """
    matrix = op.entries if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
    sw = state.entries if isinstance(state, DensityMatrix) else np.asarray(state)
    vals, vecs = np.linalg.eigh(matrix)
    if sw.ndim == 1:
        probs = np.einsum("i,ik->k", sw, np.abs(vecs) ** 2)
    else:
        probs = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), sw, vecs))
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(vals), size=int(replicates), p=_checked_probabilities(probs))
    return vals[idx]


@dataclass(frozen=True)
class TestSpec:
    """Configuration of one goodness-of-fit test over several sample sizes.

    `n_list` holds the sample sizes n (each at least 2) at which the test
    is evaluated.  A caller-given `interval` (a, b) is a two-sided
    acceptance interval: the test rejects when n U_n < a or n U_n > b.
    Without it `run_test` rejects in the upper tail of the limit law.
    """

    __test__ = False  # not a test case, despite the name

    null_state: DensityMatrix
    alpha: float
    n_list: tuple
    seed: int
    interval: tuple = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        n_list = tuple(int(n) for n in self.n_list)
        if not n_list or min(n_list) < 2:
            raise ValidationError("need a non-empty n_list with every n >= 2")
        object.__setattr__(self, "n_list", n_list)
        if self.interval is not None:
            a, b = self.interval
            if not a < b:
                raise ValidationError("interval must satisfy a < b")
            object.__setattr__(self, "interval", (float(a), float(b)))


@dataclass(frozen=True)
class TestResult:
    """Exact level and power of the test at one sample size n.

    The rates are exact Born sums, so the standard errors written by
    `to_json` are 0 (None for the power when there is no alternative).
    """

    __test__ = False  # not a test case, despite the name

    n: int
    alpha: float
    interval: tuple
    alpha_hat: float
    beta_hat: object  # float or None
    theta_true: object
    limit_moments: dict

    def to_json(self):
        return {
            "n": int(self.n),
            "alpha": float(self.alpha),
            "interval": [float(self.interval[0]), float(self.interval[1])],
            "alpha_hat": float(self.alpha_hat),
            "alpha_se": 0.0,
            "beta_hat": None if self.beta_hat is None else float(self.beta_hat),
            "beta_se": None if self.beta_hat is None else 0.0,
            "theta_true": None if self.theta_true is None else float(self.theta_true),
            "limit_moments": {k: float(v) for k, v in self.limit_moments.items()},
        }


def _split_additive(poly, basis):
    """Split monomials into constant, commutative, and per-oscillator parts.

    Raises when a monomial mixes blocks; sampling relies on additivity
    across the independent blocks of the limit algebra.
    """
    const = 0.0
    classical = {}
    per_pair = {}
    for mon, coeff in poly.items():
        if not mon:
            const += coeff
            continue
        kinds = {basis.symbols[s].kind for s in mon}
        pids = {basis.symbols[s].pair_id for s in mon}
        if kinds <= {"classical"}:
            classical[mon] = classical.get(mon, 0.0) + coeff
        elif "classical" not in kinds and len(pids) == 1:
            pid = next(iter(pids))
            per_pair.setdefault(pid, {})[mon] = coeff
        else:
            raise ValidationError(
                "limit polynomial has a monomial spanning several "
                "independent blocks; cannot sample it additively"
            )
    return const, classical, per_pair


def sample_limit_law(limit, basis, draws, seed, trunc=DEFAULT_TRUNC):
    """Monte Carlo draws from the limit distribution of a polynomial.

    The commutative block is evaluated on i.i.d. standard normals; every
    oscillator block is diagonalized once and its eigenvalues sampled
    under the thermal state.  Blocks are summed, which requires the
    polynomial to be additive across blocks.
    """
    poly = limit_to_poly(limit, basis)
    const, classical, per_pair = _split_additive(poly, basis)
    rng = np.random.default_rng(seed)
    total = np.full(int(draws), float(const))
    if classical:
        n_cl = sum(1 for s in basis.symbols if s.kind == "classical")
        z = rng.standard_normal((int(draws), n_cl))
        for mon, coeff in sorted(classical.items()):
            total += coeff * np.prod(z[:, list(mon)], axis=1)
    rep = FockRep(trunc) if per_pair else None
    for pid in sorted(per_pair):
        sigma_sq = None
        for s in basis.symbols:
            if s.pair_id == pid:
                sigma_sq = s.sigma_sq
        rep.require_tail(sigma_sq)
        scale = 1.0 / math.sqrt(sigma_sq)
        mats = {"q": rep.Q * scale, "p": rep.P * scale}
        op = np.zeros((trunc, trunc), dtype=complex)
        for mon, coeff in per_pair[pid].items():
            chain = np.eye(trunc, dtype=complex)
            for s in mon:
                chain = chain @ mats[basis.symbols[s].kind]
            op += coeff * chain
        op = hermitize(op).entries
        vals, vecs = np.linalg.eigh(op)
        born = np.einsum("i,ik->k", rep.thermal(sigma_sq), np.abs(vecs) ** 2)
        idx = rng.choice(len(vals), size=int(draws), p=_checked_probabilities(born))
        total += vals[idx]
    return total


def run_test(spec, alternative=None, trunc=DEFAULT_TRUNC,
             limit_draws=DEFAULT_LIMIT_DRAWS, budget=None):
    """Exact level and power of the goodness-of-fit test at each n of spec.n_list.

    The null limit law is built once per call.  Without spec.interval the
    test rejects when n * U_n exceeds the (1 - spec.alpha) quantile q of
    that law, estimated from seeded Monte Carlo draws (the only random
    draws made here); the reported interval is (smallest atom of n * U_n,
    q), its lower end for information only.  At each n the rejection rate
    under the null and, when an alternative state is given, the acceptance
    rate under it are exact Born sums over the law of n * U_n from
    `finite_law`.  Returns one TestResult per n, in spec.n_list order.

    The test is biased against purer alternatives at small n.  At null
    diag(0.75, 0.25), alpha = 0.05 and seed 0, diag(0.9, 0.1) is accepted
    more often than the null at every n <= 17 (0.9556 against 0.9485 at
    n = 10) and less often at every n from 18 to 200 (0.7919 against
    0.9397 at n = 18, 0.0012 at n = 200).  diag(0.6, 0.4) is accepted less
    often than the null at every n from 2 to 200.
    """
    rho = spec.null_state
    if alternative is not None and not alternative.is_diagonal:
        raise ValidationError("alternative state must be diagonal too")
    kernel = goodness_kernel(rho)
    basis = build_ccr_basis(rho)
    limit = kernel_to_limit(kernel, kernel_components(kernel, rho), basis)
    kernel_second = limit_moment(limit, basis, 2, method="wick")
    if spec.interval is None:
        limit_seed = np.random.SeedSequence(spec.seed).spawn(1)[0]
        draws = sample_limit_law(limit, basis, limit_draws, limit_seed, trunc=trunc)
        quantile = float(np.quantile(draws, 1.0 - spec.alpha))
    weights = [np.real(np.diag(rho.entries))]
    theta_true = None
    if alternative is not None:
        theta_true = float(np.real(np.sum(np.abs(alternative.entries - rho.entries) ** 2)))
        weights.append(np.real(np.diag(alternative.entries)))

    results = []
    for n in spec.n_list:
        atoms, probs = finite_law(kernel, weights, n, budget=budget)
        scaled = n * atoms
        interval = spec.interval or (float(scaled.min()), quantile)
        accept = scaled <= interval[1]
        if spec.interval is not None:
            accept &= scaled >= interval[0]
        alpha_hat = float(probs[0][~accept].sum())
        beta_hat = None if alternative is None else float(probs[1][accept].sum())
        results.append(TestResult(
            n=n,
            alpha=spec.alpha,
            interval=interval,
            alpha_hat=alpha_hat,
            beta_hat=beta_hat,
            theta_true=theta_true,
            limit_moments={"kernel_second_moment": kernel_second},
        ))
    return results


@dataclass(frozen=True)
class OverlapResult:
    n: int
    overlap: complex
    limit: float

    def to_json(self):
        return {
            "n": int(self.n),
            "overlap_re": float(self.overlap.real),
            "overlap_im": float(self.overlap.imag),
            "limit": float(self.limit),
        }


def metrology_overlap(kernel, rho0, t, g1, g2, n, budget=None):
    """Overlap of two conjugated probe states after n-sample evolution.

    The generator is the subset sum of the kernel; parameters g1, g2
    scale it by t (g1 - g2) n^{1/2 - r}.  Requires a pure reference with
    vanishing kernel mean and a non-degenerate first component.  Returns
    the exact overlap, read from `finite_law` (one spin block for qubits),
    and its Gaussian limit
    exp(-t^2 (g1-g2)^2 xi_1 / (2 ((r-1)!)^2)).
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
    limit = math.exp(-(t * dg) ** 2 * xi1 / (2.0 * math.factorial(r - 1) ** 2))
    if t == 0.0 or dg == 0.0:
        return OverlapResult(n=n, overlap=1.0 + 0.0j, limit=1.0)
    # In its eigenframe the reference is the basis vector of its largest
    # weight; exact 0/1 weights keep every other block out.
    w1, u = eigenframe(rho0)
    k = kernel if u is None else kernel.rotated(u)
    atoms, (probs,) = finite_law(k, [np.eye(len(w1))[np.argmax(w1)]], n, budget=budget)
    phases = np.exp(1j * t * dg * float(n) ** (0.5 - r) * binom(n, r) * atoms)
    overlap = complex(np.dot(probs, phases))
    return OverlapResult(n=n, overlap=overlap, limit=limit)
