"""Hypothesis-test simulations and the metrology overlap."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import qustat
from qustat import (
    BudgetError,
    DensityMatrix,
    Kernel,
    LimitPolynomial,
    ToleranceError,
    ValidationError,
    assemble_direct,
    build_ccr_basis,
    goodness_kernel,
    homogeneity_kernel,
    kernel_components,
    kernel_to_limit,
    limit_moment,
    metrology_overlap,
    run_test,
    symmetrize_kernel,
)
import qustat.apps
import qustat.ustat
from qustat.apps import _last_level, _law_cdf, _law_quantile, _limit_law, _qubit_rates
from qustat.ccr import thermal_levels
from qustat.operators import hermitize, tensor_weights
from qustat.ustat import finite_law

from oracles import frompyfunc_law_cdf, indexed_limit_terms, simulate_measurement

ATOL = 1e-12


def _pair_mean(kernel, sigma1, sigma2=None):
    sigma2 = sigma1 if sigma2 is None else sigma2
    state = np.kron(sigma1, sigma2)
    return float(np.real(np.trace(np.kron(state, state) @ kernel.op.entries)))


def test_goodness_kernel_mean_is_squared_distance(rho_75):
    k = goodness_kernel(rho_75)
    sigma = np.diag([0.8, 0.2]).astype(complex)
    mean = float(np.real(np.trace(np.kron(sigma, sigma) @ k.op.entries)))
    np.testing.assert_allclose(mean, 0.005, atol=ATOL)
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = g @ g.conj().T
        sigma = h / np.trace(h)
        mean = float(np.real(np.trace(np.kron(sigma, sigma) @ k.op.entries)))
        dist = float(np.sum(np.abs(sigma - rho_75.entries) ** 2))
        np.testing.assert_allclose(mean, dist, atol=1e-12)


def test_goodness_kernel_needs_diagonal_reference():
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    rho = DensityMatrix.from_matrix(u @ np.diag([0.75, 0.25]) @ u.T)
    with pytest.raises(ValidationError):
        goodness_kernel(rho)


@pytest.mark.parametrize("d", [12, 100])
def test_homogeneity_kernel_checks_its_budget_before_it_allocates(monkeypatch, d):
    # its d^4 x d^4 matrix would take 6.9 GB at d = 12; any use of numpy
    # in apps, such as allocating it, fails the test
    monkeypatch.setattr(qustat.apps, "np", None)
    with pytest.raises(BudgetError, match="matrix dimension %d exceeds budget" % d ** 4):
        homogeneity_kernel(d)
    with pytest.raises(BudgetError):
        homogeneity_kernel(2, budget=15)


def test_goodness_kernel_checks_its_budget_before_it_allocates(monkeypatch):
    rho = DensityMatrix.from_eigenvalues(np.full(129, 1.0 / 129))
    monkeypatch.setattr(qustat.apps, "np", None)
    with pytest.raises(BudgetError, match="matrix dimension 16641 exceeds budget"):
        goodness_kernel(rho)
    with pytest.raises(BudgetError):
        goodness_kernel(DensityMatrix.from_eigenvalues([0.75, 0.25]), budget=3)


def test_homogeneity_kernel_mean_is_squared_distance():
    k = homogeneity_kernel(2)
    s1 = np.diag([0.75, 0.25]).astype(complex)
    s2 = np.diag([0.8, 0.2]).astype(complex)
    np.testing.assert_allclose(_pair_mean(k, s1, s2), 0.005, atol=ATOL)
    np.testing.assert_allclose(_pair_mean(k, s1, s1), 0.0, atol=ATOL)
    rng = np.random.default_rng(32)
    for _ in range(5):
        mats = []
        for _ in range(2):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = g @ g.conj().T
            mats.append(h / np.trace(h))
        dist = float(np.sum(np.abs(mats[0] - mats[1]) ** 2))
        np.testing.assert_allclose(_pair_mean(k, *mats), dist, atol=1e-12)


def test_simulate_measurement_distribution(rho_75, paulis):
    _, _, sz = paulis
    draws = simulate_measurement(sz, rho_75, 20000, seed=8)
    assert set(np.unique(draws)) <= {-1.0, 1.0}
    freq_up = float((draws == 1.0).mean())
    assert abs(freq_up - 0.75) < 0.0125
    again = simulate_measurement(sz, rho_75, 20000, seed=8)
    np.testing.assert_array_equal(draws, again)
    prefix = simulate_measurement(sz, rho_75, 500, seed=8)
    np.testing.assert_array_equal(prefix, draws[:500])


def test_spec_validation(rho_75):
    # run_test checks its alpha, n_list and interval before anything else,
    # so a null it would reject later (not diagonal) gets the same messages
    rotated = DensityMatrix.from_eigenvalues(
        [0.75, 0.25], rotation=np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    for alpha, n_list, interval, message in (
        (1.5, (4,), None, "alpha must be in (0, 1)"),
        (0.05, (4, 1), None, "need a non-empty n_list with every n >= 2"),
        (0.05, (), None, "need a non-empty n_list with every n >= 2"),
        (0.05, (4,), (2.0, 1.0), "interval must satisfy a < b"),
    ):
        for state in (rho_75, rotated):
            with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
                run_test(state, alpha, n_list, interval=interval)


def test_run_test_trivial_interval_never_rejects(rho_75):
    (result,) = run_test(rho_75, 0.05, (4,), interval=(-1e9, 1e9))
    assert result["alpha_hat"] == 0.0
    assert result["beta_hat"] is None
    assert result["limit_moments"].keys() == {"kernel_second_moment"}
    np.testing.assert_allclose(
        result["limit_moments"]["kernel_second_moment"], 1.03125, rtol=1e-10
    )


def _exact_rates(n, interval, null=(0.75, 0.25), alternative=(0.9, 0.1)):
    """Born rejection under the null and acceptance under the alternative."""
    vals, vecs = np.linalg.eigh(n * assemble_direct(goodness_kernel(
        DensityMatrix.from_eigenvalues(list(null))), n).op.entries)
    accept = (vals >= interval[0]) & (vals <= interval[1])
    rates = []
    for weights, region in ((null, ~accept), (alternative, accept)):
        w = tensor_weights(np.array(weights), n)
        rates.append(float(np.einsum("i,ik->k", w, np.abs(vecs) ** 2)[region].sum()))
    return rates


def test_run_test_matches_exact_born_rejection(rho_75):
    n = 6
    interval = (-0.8, 2.0)
    exact, _ = _exact_rates(n, interval)
    (result,) = run_test(rho_75, 0.05, (n,), interval=interval)
    np.testing.assert_allclose(result["alpha_hat"], exact, rtol=0.0, atol=1e-12)


def test_run_test_rates_match_monte_carlo_measurement(rho_75):
    n, replicates = 6, 20000
    alt = DensityMatrix.from_eigenvalues([0.9, 0.1])
    (result,) = run_test(rho_75, 0.05, (n,), alternative=alt)
    hi = result["interval"][1]
    scaled = n * assemble_direct(goodness_kernel(rho_75), n).op.entries
    for weights, seed, exact, rejects in (
        ([0.75, 0.25], 61, result["alpha_hat"], True),
        ([0.9, 0.1], 62, result["beta_hat"], False),
    ):
        out = simulate_measurement(
            scaled, tensor_weights(np.array(weights), n), replicates, seed
        )
        inside = out <= hi
        rate = float((~inside if rejects else inside).mean())
        se = np.sqrt(exact * (1.0 - exact) / replicates)
        assert abs(rate - exact) < 4.0 * se, (weights, rate, exact)


def test_run_test_default_interval_is_upper_tail(rho_75):
    n, alpha = 10, 0.05
    (result,) = run_test(rho_75, alpha, (n,))
    kernel = goodness_kernel(rho_75)
    vals, vecs = np.linalg.eigh(n * assemble_direct(kernel, n).op.entries)
    np.testing.assert_allclose(result["interval"][0], vals[0], rtol=0.0, atol=ATOL)
    basis = build_ccr_basis(rho_75)
    limit = kernel_to_limit(kernel, kernel_components(kernel, rho_75), basis)
    np.testing.assert_allclose(
        result["interval"][1], _law_quantile(*_limit_law(limit, basis), 1.0 - alpha),
        rtol=0.0, atol=ATOL,
    )
    # No null outcome lies below the lower end: only the upper tail rejects,
    # and its exact null probability is close to alpha.
    w = tensor_weights(np.array([0.75, 0.25]), n)
    probs = np.einsum("i,ik->k", w, np.abs(vecs) ** 2)
    assert probs[vals < result["interval"][0] - ATOL].sum() == 0.0
    np.testing.assert_allclose(
        probs[vals > result["interval"][1]].sum(), 0.0515, atol=5e-5
    )
    np.testing.assert_allclose(result["alpha_hat"], 0.0515, atol=5e-5)
    assert result["alpha_se"] == 0.0


def test_run_test_alternative_reports_power(rho_75):
    alt = DensityMatrix.from_matrix(np.diag([0.9, 0.1]))
    interval = (-0.5, 0.5)
    (result,) = run_test(rho_75, 0.05, (4,), interval=interval, alternative=alt)
    np.testing.assert_allclose(result["theta_true"], 0.045, atol=ATOL)
    np.testing.assert_allclose(
        result["beta_hat"], _exact_rates(4, interval)[1], rtol=0.0, atol=1e-12
    )
    assert result["beta_se"] == 0.0
    assert isinstance(result["limit_moments"], dict)


def test_run_test_seeded_runs_are_identical(rho_75):
    first = run_test(rho_75, 0.1, (4, 6))
    second = run_test(rho_75, 0.1, (4, 6))
    assert [r["n"] for r in first] == [4, 6]
    assert first == second


_ALTERNATIVES = [(0.6, 0.4), (0.9, 0.1), (0.5, 0.5), (1.0, 0.0)]
_GRID_N = [2, 3, 4, 5, 10, 17, 50, 200, 400]
# an acceptance interval whose ends lie on no atom of n U_n at these n and nulls
_INTERVAL = (-0.3137, 2.345678)


def _finite_law_rates(null, n_list, regions):
    """Per (lo, hi) of regions, [(smallest n U_n, alpha_hat, [beta_hat per alternative])] per n.

    Read from the atoms of one `finite_law` call.
    """
    kernel = goodness_kernel(DensityMatrix.from_eigenvalues(list(null)))
    weights = [np.array(w) for w in [null] + _ALTERNATIVES]
    laws = finite_law(kernel, weights, n_list)
    rates = []
    for lo, hi in regions:
        rates.append([])
        for n, (atoms, probs) in zip(n_list, laws):
            scaled = n * atoms
            accept = (scaled >= lo) & (scaled <= hi)
            rates[-1].append((scaled.min(), probs[0][~accept].sum(),
                              [p[accept].sum() for p in probs[1:]]))
    return rates


@pytest.mark.parametrize("null", [(0.75, 0.25), (0.25, 0.75), (0.70, 0.30), (0.80, 0.20)])
def test_qubit_run_test_matches_the_finite_law_oracle(null):
    # the closed-form rates against the eigenvalues of the dense blocks,
    # upper tail and two-sided, with pure and uniform alternatives
    rho = DensityMatrix.from_eigenvalues(list(null))
    runs = {interval: [run_test(rho, 0.05, _GRID_N, interval=interval,
                                alternative=DensityMatrix.from_eigenvalues(list(alt)))
                       for alt in _ALTERNATIVES]
            for interval in (None, _INTERVAL)}
    quantile = runs[None][0][0]["interval"][1]
    regions = {None: (-math.inf, quantile), _INTERVAL: _INTERVAL}
    oracles = _finite_law_rates(null, _GRID_N, regions.values())
    for (interval, (lo, hi)), oracle in zip(regions.items(), oracles):
        for a, records in enumerate(runs[interval]):
            for record, (low, alpha_hat, betas) in zip(records, oracle):
                assert record["interval"][1] == hi
                if interval is None:
                    assert record["interval"][0] == pytest.approx(low, rel=0.0, abs=ATOL)
                assert record["alpha_hat"] == pytest.approx(alpha_hat, rel=0.0, abs=ATOL)
                assert record["beta_hat"] == pytest.approx(betas[a], rel=0.0, abs=ATOL)


def test_qubit_rates_match_finite_law_at_the_degenerate_null():
    # at diag(0.5, 0.5) n U_n does not move within a block: each block is one atom
    null, n_list = (0.5, 0.5), [2, 3, 4, 5, 10, 17, 50, 200]
    weights = [np.array(w) for w in [null] + _ALTERNATIVES]
    regions = [(-math.inf, 1.2345678), _INTERVAL]
    for (lo, hi), oracle in zip(regions, _finite_law_rates(null, n_list, regions)):
        lows, accepted, rejected = _qubit_rates(weights, n_list, lo, hi)
        for m, (low, alpha_hat, betas) in enumerate(oracle):
            assert lows[m] == pytest.approx(low, rel=0.0, abs=ATOL)
            assert rejected[0][m] == pytest.approx(alpha_hat, rel=0.0, abs=ATOL)
            assert [a[m] for a in accepted[1:]] == pytest.approx(betas, rel=0.0, abs=ATOL)
            assert [a[m] + r[m] for a, r in zip(accepted, rejected)] == pytest.approx(
                [1.0] * len(weights), rel=0.0, abs=ATOL)


def test_qubit_run_test_accepts_the_atoms_on_its_interval_ends(rho_75):
    # at diag(0.75, 0.25) every n U_n is a fraction over n - 1 that the
    # closed form reaches exactly, so atoms lie on these ends; the
    # acceptance interval is closed, as the exact sum over every level shows
    alt = (Fraction(1, 2), Fraction(1, 2))
    for n, interval in ((8, (1, 3)), (9, (Fraction(-1, 8), Fraction(41, 8)))):
        accepted = rejected = Fraction(0)
        for k in range(n // 2 + 1):
            mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            for ones in range(k, n - k + 1):
                # n U_n = n Tr rho^2 + 2 c_k / (n - 1) - 2 (lam_0 (n - ones) + lam_1 ones)
                value = (Fraction(5 * n, 8) + Fraction(n * (n - 1) - 2 * k * (n - k + 1), n - 1)
                         - Fraction(3 * (n - ones) + ones, 2))
                inside = interval[0] <= value <= interval[1]
                null = mult * Fraction(3, 4) ** (n - ones) * Fraction(1, 4) ** ones
                rejected += 0 if inside else null
                accepted += mult * alt[0] ** (n - ones) * alt[1] ** ones if inside else 0
        (record,) = run_test(rho_75, 0.05, [n], interval=tuple(map(float, interval)),
                             alternative=DensityMatrix.from_eigenvalues([0.5, 0.5]))
        assert record["alpha_hat"] == pytest.approx(float(rejected), rel=0.0, abs=ATOL)
        assert record["beta_hat"] == pytest.approx(float(accepted), rel=0.0, abs=ATOL)


def test_qutrit_run_test_rates_are_born_sums_over_the_dense_statistic():
    null, alt = (0.5, 0.3, 0.2), (0.4, 0.35, 0.25)
    for interval in (None, _INTERVAL):
        records = run_test(DensityMatrix.from_eigenvalues(list(null)), 0.05, [3, 4],
                           interval=interval, alternative=DensityMatrix.from_eigenvalues(list(alt)))
        for record in records:
            exact = _exact_rates(record["n"], interval or (-math.inf, record["interval"][1]),
                                 null, alt)
            assert [record["alpha_hat"], record["beta_hat"]] == pytest.approx(
                exact, rel=0.0, abs=ATOL)


def test_last_level_moves_a_guess_to_the_last_level_that_holds():
    rng = np.random.default_rng(7)
    values = np.sort(rng.integers(0, 6, size=(200, 12)), axis=1)
    blocks = np.arange(len(values))
    last = np.full(len(values), values.shape[1] - 1)
    truth = (values <= 2).sum(axis=1) - 1
    for offset in (-9.0, -2.0, 0.0, 1.0, 5.0, np.inf, -np.inf):
        guess = truth + np.where(rng.random(len(values)) < 0.5, offset, 0.0)
        found = _last_level(guess, last, lambda i: values[blocks, np.clip(i, 0, last)] <= 2)
        np.testing.assert_array_equal(found, truth)


def test_qubit_run_test_forms_no_block_and_calls_no_eigh_outside_the_limit_law(rho_75,
                                                                               monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("qubit test rates need no finite_law and no band stack")

    for owner, name in ((qustat.ustat, "finite_law"), (qustat.apps, "finite_law"),
                        (qustat.ustat, "_spin_stack")):
        monkeypatch.setattr(owner, name, refuse)
    callers, eigh = [], np.linalg.eigh

    def traced(a, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", traced)
    alt = DensityMatrix.from_eigenvalues([0.6, 0.4])
    records = run_test(rho_75, 0.05, [2, 10, 400], alternative=alt)
    assert [r["n"] for r in records] == [2, 10, 400]
    assert all(0.0 < r["alpha_hat"] < 1.0 and 0.0 < r["beta_hat"] < 1.0 for r in records)
    assert callers and set(callers) == {"_limit_law"}


def test_run_test_bias_against_purer_alternatives_is_the_documented_table(rho_75):
    n_list = list(range(2, 201))
    purer, closer = (run_test(rho_75, 0.05, n_list, alternative=DensityMatrix.from_eigenvalues(alt))
                     for alt in ([0.9, 0.1], [0.6, 0.4]))
    for p, c in zip(purer, closer):
        # the null's acceptance rate is 1 - alpha_hat
        assert (p["beta_hat"] > 1.0 - p["alpha_hat"]) == (p["n"] <= 17), p["n"]
        assert c["beta_hat"] < 1.0 - c["alpha_hat"], c["n"]
    by_n = {r["n"]: r for r in purer}
    for n, beta, null_accepts in ((10, 0.9556, 0.9485), (18, 0.7919, 0.9397)):
        assert by_n[n]["beta_hat"] == pytest.approx(beta, rel=0.0, abs=5e-5)
        assert 1.0 - by_n[n]["alpha_hat"] == pytest.approx(null_accepts, rel=0.0, abs=5e-5)
    assert by_n[200]["beta_hat"] == pytest.approx(0.0012, rel=0.0, abs=5e-5)


def _goodness_limit(eigenvalues):
    rho = DensityMatrix.from_eigenvalues(eigenvalues)
    kernel = goodness_kernel(rho)
    basis = build_ccr_basis(rho)
    return kernel_to_limit(kernel, kernel_components(kernel, rho), basis), basis


_ROTATION = np.array([[math.cos(0.3), -math.sin(0.3) * np.exp(0.4j)],
                      [math.sin(0.3), math.cos(0.3) * np.exp(0.4j)]])


def _goodness_case(case):
    """(kernel, state, report, basis) of the goodness test of a diagonal, rotated or qutrit null."""
    eigenvalues, rotation = {"diagonal": ([0.7, 0.3], None), "rotated": ([0.7, 0.3], _ROTATION),
                             "qutrit": ([0.5, 0.3, 0.2], None)}[case]
    kernel = goodness_kernel(DensityMatrix.from_eigenvalues(eigenvalues))
    state = DensityMatrix.from_eigenvalues(eigenvalues, rotation=rotation)
    if rotation is not None:  # the same kernel written in the computational basis
        kernel = kernel.rotated(rotation.conj().T)
    return kernel, state, kernel_components(kernel, state), build_ccr_basis(state)


@pytest.mark.parametrize("case", ["diagonal", "rotated", "qutrit"])
def test_kernel_to_limit_gives_the_bits_of_the_indexed_reading(case):
    kernel, state, report, basis = _goodness_case(case)
    got = kernel_to_limit(kernel, report, basis).terms
    assert [(m, v.hex()) for m, v in got] == [
        (m, v.hex()) for m, v in indexed_limit_terms(report, basis)]


@pytest.mark.parametrize("case", ["diagonal", "rotated", "qutrit"])
def test_law_cdf_and_quantile_give_the_bits_of_the_frompyfunc_cdf(case, monkeypatch):
    kernel, state, report, basis = _goodness_case(case)
    law = _limit_law(kernel_to_limit(kernel, report, basis), basis)
    got_cdf, want_cdf = _law_cdf(*law), frompyfunc_law_cdf(*law)
    for x in np.linspace(law[0][0] - 1.0, law[0][-1] + 5.0, 97).tolist():
        assert got_cdf(x).hex() == want_cdf(x).hex(), x
    levels = (0.5, 0.9, 0.95, 0.99)
    got = [_law_quantile(*law, level) for level in levels]
    monkeypatch.setattr(qustat.apps, "_law_cdf", frompyfunc_law_cdf)
    assert [q.hex() for q in got] == [_law_quantile(*law, level).hex() for level in levels]


def test_limit_law_cdf_matches_closed_form_at_d2():
    # At diag(0.75, 0.25) the limit is 0.375 Z^2 + N - 0.875 with N
    # geometric, P(N = k) = (2/3)(1/3)^k, so
    # F(x) = sum_k (2/3)(1/3)^k erf(sqrt((x + 0.875 - k) / 0.75)).
    def closed_form(x):
        return sum(
            (2.0 / 3.0) * 3.0 ** -k * math.erf(math.sqrt((x + 0.875 - k) / 0.75))
            for k in range(60) if x + 0.875 - k > 0.0
        )

    law = _limit_law(*_goodness_limit([0.75, 0.25]))
    cdf = _law_cdf(*law)
    # points off the atoms -0.875 + k, where a rounding of the atom by e
    # moves the CDF by about sqrt(e)
    for x in (-0.8, -0.5, 0.0, 0.2, 0.7, 1.3, 2.13, 3.0, 5.5, 9.0):
        assert abs(cdf(x) - closed_form(x)) < 1e-10, x
    q = _law_quantile(*law, 0.95)
    assert abs(q - 2.1300147526) < 1e-9
    assert abs(closed_form(q) - 0.95) < 1e-10


def test_limit_law_quantiles_keep_their_values_toward_degeneracy():
    # pinned 0.95 quantiles as the null nears degeneracy; at
    # diag(0.505, 0.495) each oscillator keeps 1382 Fock levels
    for lam, q95 in ((0.75, 2.1300147526145135), (0.7234, 2.057781666122575),
                     (0.55, 2.40153795703589), (0.505, 2.4073822646268273)):
        q = _law_quantile(*_limit_law(*_goodness_limit([lam, 1.0 - lam])), 0.95)
        assert q == pytest.approx(q95, rel=1e-12, abs=0.0), lam


def test_law_cdf_matches_chi_square_closed_forms():
    # the law of sum_i mu_i Z_i^2 alone: one atom at 0 of probability 1
    one = (np.zeros(1), np.ones(1))
    nodes, weights = np.polynomial.legendre.leggauss(60)
    for x in (0.3, 1.0, 2.5, 6.0, 15.0):
        chi3 = math.erf(math.sqrt(x / 2)) - math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
        chi4 = 1.0 - math.exp(-x / 2) * (1.0 + x / 2)
        assert abs(_law_cdf(*one, np.ones(3))(x) - chi3) < 1e-12, x
        assert abs(_law_cdf(*one, np.full(4, 2.0))(2.0 * x) - chi4) < 1e-12, x
        # Z1^2 + Z2^2 + 2 Z3^2: given Z3 = z, Z1^2 + Z2^2 is exponential of
        # mean 2, so F(x) = erf(a / sqrt 2) - exp(-x/2) int_{-a}^{a} exp(z^2/2) dz
        # / sqrt(2 pi) with a = sqrt(x / 2)
        a = math.sqrt(x / 2)
        integral = a * float(np.dot(weights, np.exp((a * nodes) ** 2 / 2)))
        mixed = math.erf(a / math.sqrt(2)) - math.exp(-x / 2) * integral / math.sqrt(2 * math.pi)
        assert abs(_law_cdf(*one, np.array([1.0, 1.0, 2.0]))(x) - mixed) < 1e-12, x


def test_limit_law_moments_match_wick():
    for eigenvalues in ([0.75, 0.25], [0.6, 0.3, 0.1]):
        limit, basis = _goodness_limit(eigenvalues)
        atoms, probs, mu = _limit_law(limit, basis)
        assert mu.min() > 0.0 and len(mu) == len(eigenvalues) - 1
        # moments of sum_i mu_i Z_i^2 from its cumulants 2^(m-1) (m-1)! sum_i mu_i^m
        kappa = [0.0] + [2.0 ** (m - 1) * math.factorial(m - 1) * float(np.sum(mu ** m))
                         for m in range(1, 5)]
        gauss = [1.0]
        for m in range(1, 5):
            gauss.append(sum(math.comb(m - 1, i - 1) * kappa[i] * gauss[m - i]
                             for i in range(1, m + 1)))
        for p in (2, 3, 4):
            law_moment = sum(math.comb(p, i) * float(probs @ atoms ** i) * gauss[p - i]
                             for i in range(p + 1))
            # The law drops a mass below 1e-10 at its largest atoms, which
            # moves the p-th moment by that mass times their p-th power.
            np.testing.assert_allclose(
                law_moment, limit_moment(limit, basis, p, method="wick"), rtol=1e-6,
                err_msg="%r p=%d" % (eigenvalues, p),
            )


def _law_moment(atoms, probs, mu, p):
    """E[(A + sum_i mu_i Z_i^2)^p] for A on `atoms` with `probs`, independent of the Z_i."""
    # moments of sum_i mu_i Z_i^2 from its cumulants 2^(m-1) (m-1)! sum_i mu_i^m
    kappa = [0.0] + [2.0 ** (m - 1) * math.factorial(m - 1) * float(np.sum(mu ** m))
                     for m in range(1, p + 1)]
    gauss = [1.0]
    for m in range(1, p + 1):
        gauss.append(sum(math.comb(m - 1, i - 1) * kappa[i] * gauss[m - i]
                         for i in range(1, m + 1)))
    return sum(math.comb(p, i) * float(probs @ atoms ** i) * gauss[p - i] for i in range(p + 1))


def test_moments_command_reaches_order_six_on_a_qutrit(tmp_path, monkeypatch):
    from qustat.cli import run

    # The law drops a mass below 1e-10 at its largest atoms; at p = 6 that
    # moves the moment by about 2e-6 relative, so here it keeps every atom.
    monkeypatch.setattr(qustat.apps, "_DROPPED_MASS", 0.0)
    eigenvalues = [0.5, 0.3, 0.2]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "command": "moments",
        "state": {"eigenvalues": eigenvalues},
        "kernel": {"preset": "goodness"},
        "n_list": [2],
        "p_list": [6],
    }), encoding="utf-8")
    run(str(config), str(tmp_path / "out"))
    result = json.loads((tmp_path / "out" / "result.json").read_text(encoding="utf-8"))
    limit, basis = _goodness_limit(eigenvalues)
    law_moment = _law_moment(*_limit_law(limit, basis), 6)
    np.testing.assert_allclose(result["rows"][0]["limit_moment"], law_moment, rtol=1e-6)


def test_limit_law_quantile_matches_monte_carlo():
    # Independent of the Fock route: for a diagonal null l the goodness
    # limit is |X|^2 - sum_i l_i (1 - l_i) for X ~ N(0, diag(l) - l l^T),
    # plus per pair j < k the value (l_j - l_k)(2 N + 1) - (l_j + l_k) with
    # N geometric of ratio l_k / l_j.
    draws, alpha = 400000, 0.05
    rng = np.random.default_rng(2024)
    for eigenvalues in ([0.75, 0.25], [0.6, 0.3, 0.1]):
        lam = np.array(eigenvalues)
        cov_vals, cov_vecs = np.linalg.eigh(np.diag(lam) - np.outer(lam, lam))
        scale = np.sqrt(np.clip(cov_vals, 0.0, None))
        x = (rng.standard_normal((draws, len(lam))) * scale) @ cov_vecs.T
        total = np.sum(x ** 2, axis=1) - float(np.sum(lam * (1.0 - lam)))
        for j, k in itertools.combinations(range(len(lam)), 2):
            number = rng.geometric(1.0 - lam[k] / lam[j], size=draws) - 1
            total += (lam[j] - lam[k]) * (2.0 * number + 1.0) - (lam[j] + lam[k])
        q = _law_quantile(*_limit_law(*_goodness_limit(eigenvalues)), 1.0 - alpha)
        se = math.sqrt(alpha * (1.0 - alpha) / draws)
        assert abs(float(np.mean(total <= q)) - (1.0 - alpha)) < 4.0 * se, eigenvalues
        assert abs(float(np.mean(total))) < 4.0 * float(np.std(total)) / math.sqrt(draws)


def test_limit_law_rejects_cross_block_monomials(rho_75):
    basis = build_ccr_basis(rho_75)
    mixed = LimitPolynomial(c=2, binom_factor=1, terms=(((1, 1, 0), 1.0),))
    with pytest.raises(ValidationError, match="several independent blocks"):
        _limit_law(mixed, basis)
    linear = LimitPolynomial(c=1, binom_factor=1, terms=(((1, 0, 0), 1.0),))
    with pytest.raises(ValidationError):
        _limit_law(linear, basis)
    # q12 p13 links two oscillators of a qutrit, over (c1, c2, q12, p12, q13, p13, q23, p23)
    qutrit = build_ccr_basis(DensityMatrix.from_eigenvalues([0.5, 0.3, 0.2]))
    linked = LimitPolynomial(c=2, binom_factor=1, terms=(((0, 0, 1, 0, 0, 1, 0, 0), 1.0),))
    with pytest.raises(ValidationError, match="several independent blocks"):
        _limit_law(linked, qutrit)


def test_limit_law_rejects_a_degree_four_oscillator_term(rho_75):
    # He_4(q) = q^4 - 6 q^2 + 3 has a definite q^2 part, but its law is
    # not that of a quadratic form
    limit = LimitPolynomial(c=4, binom_factor=1, terms=(((2, 0, 0), 1.0), ((0, 4, 0), 1.0)))
    with pytest.raises(ValidationError, match="degree 4"):
        _limit_law(limit, build_ccr_basis(rho_75))


def _full_eigh_law(sigma_sq):
    """The discrete part of the law of the form below, from one eigh of all kept Fock levels.

    q^2 + 0.4 (qp + pq) + 0.5 p^2 is built from dense ladder matrices on
    two more levels than kept, which every product of two quadratures
    passes through, and compressed.  The Hermite constants of c1^2 - 1,
    q^2 - 1 and 0.5 (p^2 - 1) add -2.5 to its atoms.
    """
    weights, tail = thermal_levels(sigma_sq)
    levels = len(weights)
    a = np.diag(np.sqrt(np.arange(1.0, levels + 2)), 1)
    q = (a + a.T) / np.sqrt(2.0 * sigma_sq)
    p = (a - a.T) / (1j * np.sqrt(2.0 * sigma_sq))
    op = (q @ q + 0.4 * (q @ p + p @ q) + 0.5 * p @ p)[:levels, :levels]
    vals, vecs = np.linalg.eigh(op)
    probs = (weights * (1.0 - tail)) @ np.abs(vecs) ** 2
    order = np.argsort(vals)
    return -2.5 + vals[order], probs[order]


def test_limit_law_parity_blocks_match_one_full_eigh(monkeypatch):
    monkeypatch.setattr(qustat.apps, "_DROPPED_MASS", 0.0)
    # c1^2 + q^2 + 0.8 (qp + pq) / 2 + 0.5 p^2 in Hermite form, over (c1, q12, p12)
    limit = LimitPolynomial(c=2, binom_factor=1, terms=(
        ((2, 0, 0), 1.0), ((0, 2, 0), 1.0), ((0, 1, 1), 0.8), ((0, 0, 2), 0.5),
    ))
    for sigma_sq in (0.6, 1.0, 3.0):
        lam = 0.5 + 0.25 / sigma_sq  # sigma^2 = 1 / (2 (2 lam - 1)) on a qubit
        basis = build_ccr_basis(DensityMatrix.from_eigenvalues([lam, 1.0 - lam]))
        assert basis.oscillator_pairs[0].sigma_sq == pytest.approx(sigma_sq, rel=1e-12)
        atoms, probs, mu = _limit_law(limit, basis)
        ref_atoms, ref_probs = _full_eigh_law(basis.oscillator_pairs[0].sigma_sq)
        assert len(atoms) == len(ref_atoms) >= 10
        scale = float(np.abs(ref_atoms).max())
        np.testing.assert_allclose(atoms, ref_atoms, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(probs, ref_probs, rtol=0.0, atol=1e-13)
        assert mu.tolist() == [1.0]


def test_limit_law_rejects_odd_oscillator_words(rho_75):
    basis = build_ccr_basis(rho_75)
    # q alone, and He_3(p) = p^3 - 3p: words of odd length couple both parities
    for terms in ((((0, 1, 0), 1.0),), (((2, 0, 0), 1.0), ((0, 0, 3), 1.0))):
        limit = LimitPolynomial(c=len(terms), binom_factor=1, terms=terms)
        with pytest.raises(ValidationError, match="odd degree"):
            _limit_law(limit, basis)


def test_limit_law_rejects_a_form_with_a_continuous_spectrum(rho_75, paulis):
    # pauli-xy's limit -(qp + pq) / 2 is indefinite: on kept Fock levels it
    # gave 26 atoms with P(L <= 1) = 0.794, where the exact value is 0.876
    sx, sy, _ = paulis
    kernel = symmetrize_kernel([sx, sy])
    basis = build_ccr_basis(rho_75)
    limit = kernel_to_limit(kernel, kernel_components(kernel, rho_75), basis)
    with pytest.raises(ValidationError, match="not definite"):
        _limit_law(limit, basis)
    # q^2 alone is semidefinite, its spectrum continuous too
    with pytest.raises(ValidationError, match="not definite"):
        _limit_law(LimitPolynomial(c=2, binom_factor=1, terms=(((2, 0, 0), 1.0), ((0, 2, 0), 1.0))), basis)


def test_limit_law_error_bound_is_enforced():
    atoms, probs, mu = _limit_law(*_goodness_limit([0.75, 0.25]))
    assert 0.0 <= 1.0 - probs.sum() <= 1e-10
    with pytest.raises(ToleranceError):
        _law_cdf(atoms, probs * (1.0 - 1e-9), mu)
    with pytest.raises(ToleranceError):
        _law_quantile(atoms, probs, mu, 1.0 - 1e-12)
    # a spread of 1e4 in mu needs far more Ruben terms than are summed
    with pytest.raises(ToleranceError):
        _law_cdf(atoms, probs, np.array([1e-4, 1.0]))


def test_run_test_leaves_scipy_unloaded():
    # scipy is not a dependency: the exact quantile uses math.erf and numpy
    root = os.path.dirname(os.path.dirname(os.path.abspath(qustat.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from qustat import DensityMatrix, run_test\n"
         "rho = DensityMatrix.from_eigenvalues([0.75, 0.25])\n"
         "(r,) = run_test(rho, 0.05, (6,))\n"
         "print(round(r['interval'][1], 9), 'scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2.130014753", "False"]


def _plus_state():
    return DensityMatrix.from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_metrology_overlap_reference_checks(rho_75, paulis):
    sx, _, sz = paulis
    k = symmetrize_kernel([sz, sx])
    with pytest.raises(ValidationError):
        metrology_overlap(k, rho_75, 1.0, 0.5, 0.0, [4])
    plus = _plus_state()
    with pytest.raises(ValidationError):
        metrology_overlap(symmetrize_kernel([sx, sx]), plus, 1.0, 0.5, 0.0, [4])
    with pytest.raises(ValidationError):
        metrology_overlap(symmetrize_kernel([sz, sz]), plus, 1.0, 0.5, 0.0, [4])


def test_metrology_overlap_values(paulis):
    sx, _, sz = paulis
    k = symmetrize_kernel([sz, sx])
    plus = _plus_state()
    (equal,) = metrology_overlap(k, plus, 1.0, 0.7, 0.7, [6])
    assert equal == {"n": 6, "overlap_re": 1.0, "overlap_im": 0.0, "limit": 1.0}
    (frozen,) = metrology_overlap(k, plus, 0.0, 0.5, 0.0, [6])
    assert frozen == equal
    (result,) = metrology_overlap(k, plus, 1.0, 0.5, 0.0, [8])
    assert set(result) == {"n", "overlap_re", "overlap_im", "limit"}
    np.testing.assert_allclose(result["limit"], np.exp(-0.03125), rtol=1e-12)
    assert abs(complex(result["overlap_re"], result["overlap_im"])) <= 1.0 + 1e-12
    # phases past 2^53 are rounding noise: one ulp of a phase is about a radian
    with pytest.raises(ValidationError, match="metrology phases at n=8 reach .*, past 2\\^53"):
        metrology_overlap(k, plus, 1e200, 0.5, 0.0, [8])
    with pytest.raises(ValidationError, match="metrology phases are not finite at n=8"):
        metrology_overlap(k, plus, 1e300, 1e10, -1e10, [8])
    (flipped,) = metrology_overlap(k, plus, 1.0, 0.0, 0.5, [8])
    assert flipped["overlap_re"] == pytest.approx(result["overlap_re"], abs=1e-12)
    assert flipped["overlap_im"] == pytest.approx(-result["overlap_im"], abs=1e-12)


def _kron_overlap(kernel_matrix, psi, r, n, c):
    """<psi^n| exp(i c H) |psi^n> for H the kernel summed over all r-subsets.

    H is built from plain Kronecker products and axis permutations and
    exponentiated through its spectrum; nothing here calls qustat.
    """
    d = len(psi)
    h = np.zeros((d ** n, d ** n), dtype=complex)
    on_first = np.kron(kernel_matrix, np.eye(d ** (n - r))).reshape((d,) * (2 * n))
    for beta in itertools.combinations(range(n), r):
        order = list(beta) + [s for s in range(n) if s not in beta]
        axes = list(np.argsort(order))
        h += on_first.transpose(axes + [n + a for a in axes]).reshape(d ** n, d ** n)
    psi_n = np.ones(1, dtype=complex)
    for _ in range(n):
        psi_n = np.kron(psi_n, psi)
    vals, vecs = np.linalg.eigh(h)
    return complex(np.abs(vecs.conj().T @ psi_n) ** 2 @ np.exp(1j * c * vals))


def test_metrology_overlap_matches_kron_oracle(paulis):
    sx, _, sz = paulis
    rng = np.random.default_rng(41)
    u2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    u3, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a3 = np.diag([1.0, 0.0, -1.0]).astype(complex)
    b3 = np.zeros((3, 3), dtype=complex)
    b3[0, 1] = b3[1, 0] = 1.0
    # P0 x P0 has mean 0 at |1> but not at |0>, so the two references differ
    p0 = np.diag([1.0, 0.0]).astype(complex)
    zx_p0 = Kernel(2, 2, hermitize(symmetrize_kernel([sx, sz]).op.entries + np.kron(p0, p0)))
    # (kernel, reference vector, largest n): each kernel has mean 0 and a
    # non-vanishing first component at its reference
    cases = [
        (symmetrize_kernel([sz, sx]), np.array([1.0, 1.0]) / np.sqrt(2.0), 8),
        (symmetrize_kernel([sx, sz]), np.array([1.0, 0.0]), 8),
        (zx_p0, np.array([0.0, 1.0]), 8),
        (symmetrize_kernel([u2 @ sx @ u2.conj().T, u2 @ sz @ u2.conj().T]), u2[:, 0], 8),
        (symmetrize_kernel([a3, b3]), np.array([1.0, 0.0, 0.0]), 5),
        (symmetrize_kernel([u3 @ a3 @ u3.conj().T, u3 @ b3 @ u3.conj().T]), u3[:, 0], 5),
    ]
    t, g1, g2 = 1.3, 0.5, -0.2
    for kernel, psi, n_max in cases:
        rho0 = DensityMatrix.from_matrix(np.outer(psi, psi.conj()))
        results = metrology_overlap(kernel, rho0, t, g1, g2, range(n_max, 1, -1))
        assert [result["n"] for result in results] == list(range(n_max, 1, -1))
        for result in results:
            n = result["n"]
            c = t * (g1 - g2) * float(n) ** (0.5 - 2)
            expected = _kron_overlap(kernel.op.entries, psi, 2, n, c)
            overlap = complex(result["overlap_re"], result["overlap_im"])
            np.testing.assert_allclose(overlap, expected, rtol=0.0, atol=1e-12,
                                       err_msg="d=%d n=%d" % (len(psi), n))
