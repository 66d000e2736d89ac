"""Statistic assembly, exact moments and the fluctuation expansion."""

import numpy as np
import pytest

from qustat import (
    Kernel,
    ValidationError,
    assemble_direct,
    assemble_fluctuation,
    centered_moment,
    classical_mc_oracle,
    fluctuation_form,
    symmetrize_kernel,
)
from qustat.operators import hermitize, site_transpose, tensor_weights, weighted_trace

ATOL = 1e-12
ROUTE_RTOL = 1e-9


def _centered(matrix, rho):
    mean = np.trace(rho.entries @ matrix)
    return matrix - mean * np.eye(matrix.shape[0])


def test_pair_statistic_spectrum_and_born_weights(rho_75, paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    stat = assemble_direct(k, 2)
    m = stat.op.entries
    np.testing.assert_allclose(site_transpose(m, 2, 2, 0), m, atol=ATOL)
    np.testing.assert_allclose(
        weighted_trace(m, rho_75, 2), weighted_trace(k.op.entries, rho_75, 2), atol=ATOL
    )
    vals, vecs = np.linalg.eigh(stat.op.entries)
    np.testing.assert_allclose(sorted(vals), [-1.0, 0.0, 0.0, 1.0], atol=ATOL)
    w = tensor_weights(np.array([0.75, 0.25]), 2)
    probs = {}
    for val, vec in zip(vals, vecs.T):
        p = float(np.dot(w, np.abs(vec) ** 2))
        probs[round(val, 9)] = probs.get(round(val, 9), 0.0) + p
    np.testing.assert_allclose(probs[-1.0], 0.3125, atol=ATOL)
    np.testing.assert_allclose(probs[1.0], 0.3125, atol=ATOL)
    np.testing.assert_allclose(probs[0.0], 0.375, atol=ATOL)


def test_statistic_mean_is_theta(rho_75, paulis):
    _, _, sz = paulis
    k = Kernel(2, 2, hermitize(np.kron(sz, sz)))
    for n in (2, 3, 5):
        stat = assemble_direct(k, n)
        w = tensor_weights(np.array([0.75, 0.25]), n)
        mean = float(np.dot(w, np.diag(stat.op.entries).real))
        np.testing.assert_allclose(mean, 0.25, atol=ATOL)


def test_centered_moment_requires_one_scaling(rho_75, paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    with pytest.raises(ValidationError):
        centered_moment(k, rho_75, 4, 2)
    with pytest.raises(ValidationError):
        centered_moment(k, rho_75, 4, 2, exponent=2, factor=3.0)


def test_centered_moment_factor_equals_exponent(rho_75, paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    n = 6
    via_factor = centered_moment(k, rho_75, n, 2, factor=float(n))
    via_exponent = centered_moment(k, rho_75, n, 2, exponent=2)
    np.testing.assert_allclose(via_factor, via_exponent, rtol=1e-14)


def test_diagonal_fast_path_matches_dense(rho_75, paulis):
    _, _, sz = paulis
    k = Kernel(2, 2, hermitize(np.kron(sz, sz)))
    n = 6
    fast = centered_moment(k, rho_75, n, 3, exponent=1)
    # force the dense route by adding a numerically invisible perturbation
    bumped = np.kron(sz, sz).astype(complex)
    bumped[0, 1] = bumped[1, 0] = 1e-300
    slow = centered_moment(Kernel(2, 2, hermitize(bumped)), rho_75, n, 3, exponent=1)
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-15)


def test_second_moment_identity_for_degenerate_pair_kernel(rho_75, paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    for n in (4, 8, 12):
        m2 = centered_moment(k, rho_75, n, 2, factor=float(n - 1))
        expected = 2.0 * (n - 1) / n * 0.625
        np.testing.assert_allclose(m2, expected, rtol=1e-12)


def test_fluctuation_form_structure():
    form = fluctuation_form(2)
    labels = sorted(term.describe() for term in form.terms)
    assert any("F" in lbl for lbl in labels)
    assert all(term.t >= 0 for term in form.terms)
    with pytest.raises(ValidationError):
        fluctuation_form(0)


def test_fluctuation_route_equals_direct_route(rho_75):
    rng = np.random.default_rng(5)
    for l in (1, 2, 3):
        factors = []
        for _ in range(l):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            factors.append(_centered((g + g.conj().T) / 2.0, rho_75))
        for n in (l, l + 2, 6):
            form, stat = assemble_fluctuation(factors, rho_75, n)
            direct = assemble_direct(symmetrize_kernel(factors), n)
            gap = np.linalg.norm(stat.op.entries - direct.op.entries)
            scale = max(np.linalg.norm(direct.op.entries), 1e-300)
            assert gap / scale < ROUTE_RTOL


def test_fluctuation_requires_centered_factors(rho_75, paulis):
    _, _, sz = paulis
    with pytest.raises(ValidationError):
        assemble_fluctuation([sz + np.eye(2)], rho_75, 4)


def test_classical_oracle_deterministic_and_consistent():
    h = np.array([[1.0, -1.0], [-1.0, 1.0]])
    lam = np.array([0.75, 0.25])
    first = classical_mc_oracle(h, lam, 6, 2, replicates=2000, seed=11)
    second = classical_mc_oracle(h, lam, 6, 2, replicates=2000, seed=11)
    assert first == second
    other = classical_mc_oracle(h, lam, 6, 2, replicates=2000, seed=12)
    assert first != other


def test_classical_oracle_matches_quantum_diagonal(rho_75, paulis):
    _, _, sz = paulis
    k = Kernel(2, 2, hermitize(np.kron(sz, sz)))
    n = 6
    exact = centered_moment(k, rho_75, n, 2, exponent=1)
    h = np.array([[1.0, -1.0], [-1.0, 1.0]])
    estimate, se = classical_mc_oracle(
        h, np.array([0.75, 0.25]), n, 2, replicates=200000, seed=99, scale_exponent=1
    )
    assert abs(estimate - exact) < 3.0 * se
