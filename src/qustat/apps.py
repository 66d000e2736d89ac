"""Applications: goodness-of-fit and homogeneity tests, metrology overlap.

The test kernels estimate squared Frobenius distances between states and
are degenerate of order 2 at their null, so the natural test statistic
is n (U_n - 0) and its null distribution converges to a quadratic
polynomial in the limit variables.  Critical regions are equal-tail
intervals of that limit law, obtained by Monte Carlo on the exact limit
distribution (Born sampling per oscillator, Gaussian sampling for the
commutative block).
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
from .errors import ToleranceError, ValidationError
from .hoeffding import kernel_components
from .operators import (
    DensityMatrix,
    HermitianOperator,
    Kernel,
    binom,
    hermitize,
    tensor_weights,
)
from .ustat import assemble_direct

PROB_DEFICIT_TOL = 1e-10
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


def _born_probabilities(eigvectors, state_weights_or_matrix):
    sw = state_weights_or_matrix
    if sw.ndim == 1:
        probs = np.einsum("i,ik->k", sw, np.abs(eigvectors) ** 2)
    else:
        probs = np.real(np.einsum("ik,ij,jk->k", eigvectors.conj(), sw, eigvectors))
    deficit = abs(1.0 - probs.sum())
    if deficit > PROB_DEFICIT_TOL or probs.min() < -PROB_DEFICIT_TOL:
        raise ToleranceError(
            "measurement probabilities deficient by %.3e (min %.3e)"
            % (deficit, probs.min())
        )
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def simulate_measurement(op, state, replicates, seed):
    """Sample eigenvalues of an observable under a state, Born distributed.

    `state` may be a density matrix or a 1-d vector of diagonal weights.
    Outcomes are drawn with a seeded generator; replicate i is entry i of
    the returned array for any replicate count.
    """
    matrix = op.entries if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
    if isinstance(state, DensityMatrix):
        sw = state.entries
    else:
        sw = np.asarray(state)
        sw = sw if sw.ndim == 1 else sw.astype(complex)
    vals, vecs = np.linalg.eigh(matrix)
    probs = _born_probabilities(vecs, sw)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(vals), size=int(replicates), p=probs)
    return vals[idx]


@dataclass(frozen=True)
class TestSpec:
    """Configuration of one hypothesis-test simulation."""

    __test__ = False  # not a test case, despite the name

    null_state: DensityMatrix
    alpha: float
    n: int
    mc_replicates: int
    seed: int
    interval: tuple = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        if self.n < 2:
            raise ValidationError("need n >= 2 samples")
        if self.mc_replicates < 1:
            raise ValidationError("need at least one measurement replicate")
        if self.interval is not None:
            a, b = self.interval
            if not a < b:
                raise ValidationError("interval must satisfy a < b")
            object.__setattr__(self, "interval", (float(a), float(b)))


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a test case, despite the name

    n: int
    alpha: float
    interval: tuple
    alpha_hat: float
    alpha_se: float
    beta_hat: object  # float or None
    beta_se: object
    theta_true: object
    limit_moments: dict

    def to_json(self):
        return {
            "n": int(self.n),
            "alpha": float(self.alpha),
            "interval": [float(self.interval[0]), float(self.interval[1])],
            "alpha_hat": float(self.alpha_hat),
            "alpha_se": float(self.alpha_se),
            "beta_hat": None if self.beta_hat is None else float(self.beta_hat),
            "beta_se": None if self.beta_se is None else float(self.beta_se),
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
        probs = _born_probabilities(vecs, rep.thermal(sigma_sq))
        idx = rng.choice(len(vals), size=int(draws), p=probs)
        total += vals[idx]
    return total


def _display_second_moment(rho, basis):
    """Second moment of the plain-probe form of the goodness limit.

    Uses the full singular covariance of all d diagonal probes and one
    unweighted number-type term per oscillator; recorded alongside the
    kernel-derived moment so any gap between the two is visible.
    """
    lam = basis.eigenvalues
    v_full = np.diag(lam) - np.outer(lam, lam)
    classical = 2.0 * float(np.sum(v_full ** 2))
    osc = 0.0
    for pair in basis.oscillator_pairs:
        osc += 4.0 - 1.0 / pair.sigma_sq ** 2
    return classical + osc


def run_test(spec, alternative=None, trunc=DEFAULT_TRUNC,
             limit_draws=DEFAULT_LIMIT_DRAWS, budget=None):
    """Simulate the goodness-of-fit test of a reference state.

    Measures n * U_n on spec.n copies; the acceptance interval is
    spec.interval or, when absent, the equal-tail interval of the limit
    law at level spec.alpha estimated from seeded Monte Carlo draws.
    Returns a TestResult with rejection/acceptance rates under the null
    and, when an alternative state is given, under the alternative.
    """
    rho = spec.null_state
    kernel = goodness_kernel(rho)
    report = kernel_components(kernel, rho)
    basis = build_ccr_basis(rho)
    limit = kernel_to_limit(kernel, report, basis)

    seed_root = np.random.SeedSequence(spec.seed)
    limit_seed, null_seed, alt_seed = seed_root.spawn(3)

    if spec.interval is not None:
        interval = spec.interval
    else:
        draws = sample_limit_law(limit, basis, limit_draws, limit_seed, trunc=trunc)
        lo, hi = np.quantile(draws, [spec.alpha / 2.0, 1.0 - spec.alpha / 2.0])
        interval = (float(lo), float(hi))

    stat = assemble_direct(kernel, spec.n, budget=budget)
    scaled = spec.n * stat.op.entries
    vals, vecs = np.linalg.eigh(scaled)

    null_w = tensor_weights(np.real(np.diag(rho.entries)), spec.n)
    probs0 = _born_probabilities(vecs, null_w)
    rng0 = np.random.default_rng(null_seed)
    out0 = vals[rng0.choice(len(vals), size=spec.mc_replicates, p=probs0)]
    reject0 = (out0 < interval[0]) | (out0 > interval[1])
    alpha_hat = float(reject0.mean())
    alpha_se = math.sqrt(alpha_hat * (1.0 - alpha_hat) / spec.mc_replicates)

    beta_hat = beta_se = theta_true = None
    if alternative is not None:
        sigma = alternative
        if not sigma.is_diagonal:
            raise ValidationError("alternative state must be diagonal too")
        theta_true = float(np.real(np.sum(np.abs(sigma.entries - rho.entries) ** 2)))
        alt_w = tensor_weights(np.real(np.diag(sigma.entries)), spec.n)
        probs1 = _born_probabilities(vecs, alt_w)
        rng1 = np.random.default_rng(alt_seed)
        out1 = vals[rng1.choice(len(vals), size=spec.mc_replicates, p=probs1)]
        accept1 = (out1 >= interval[0]) & (out1 <= interval[1])
        beta_hat = float(accept1.mean())
        beta_se = math.sqrt(beta_hat * (1.0 - beta_hat) / spec.mc_replicates)

    kernel_second = limit_moment(limit, basis, 2, method="wick")
    display_second = _display_second_moment(rho, basis)
    limit_moments = {
        "kernel_second_moment": kernel_second,
        "display_second_moment": display_second,
        "second_moment_gap": abs(kernel_second - display_second),
    }
    return TestResult(
        n=spec.n,
        alpha=spec.alpha,
        interval=interval,
        alpha_hat=alpha_hat,
        alpha_se=alpha_se,
        beta_hat=beta_hat,
        beta_se=beta_se,
        theta_true=theta_true,
        limit_moments=limit_moments,
    )


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
    the exact overlap and its Gaussian limit
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
    stat = assemble_direct(kernel, n, budget=budget)
    h = binom(n, r) * stat.op.entries
    w, v = np.linalg.eigh(h)
    psi = rho0.eigenvectors[:, 0]
    vec = psi
    for _ in range(n - 1):
        vec = np.kron(vec, psi)
    amps = v.conj().T @ vec
    phases = np.exp(1j * t * dg * float(n) ** (0.5 - r) * w)
    overlap = complex(np.dot(np.abs(amps) ** 2, phases))
    return OverlapResult(n=n, overlap=overlap, limit=limit)
