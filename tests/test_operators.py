"""States, kernels, subset embedding and the weighted operator calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qustat import (
    BudgetError,
    DensityMatrix,
    HermitianOperator,
    Kernel,
    SiteSubset,
    ValidationError,
    embed,
    hermitize,
    jordan,
    state_covariance,
    symmetrize,
    symmetrize_kernel,
)
from qustat.operators import (
    eigenframe,
    rotate_sites,
    site_permute,
    tensor_power_state,
    tensor_weights,
    weighted_trace,
)

ATOL = 1e-12
RNG = np.random.default_rng(20240817)


def random_hermitian(d, rng=RNG):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def random_unitary(d, rng=RNG):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_hermitian_operator_rejects_asymmetry():
    with pytest.raises(ValidationError):
        HermitianOperator(2, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_hermitize_averages_and_guards():
    m = np.array([[1.0, 2.0 + 1e-12j], [2.0 - 1e-12j, 3.0]])
    h = hermitize(m)
    np.testing.assert_allclose(h.entries, h.entries.conj().T, atol=ATOL)
    with pytest.raises(ValidationError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
def test_hermitize_fixes_hermitian_input(vals):
    a, b, c, d = vals
    m = np.array([[a, b + 1j * c], [b - 1j * c, d]])
    np.testing.assert_allclose(hermitize(m).entries, m, atol=ATOL)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix.from_matrix(np.diag([0.9, 0.2]))  # trace != 1
    with pytest.raises(ValidationError):
        DensityMatrix.from_matrix(np.diag([1.2, -0.2]))  # not PSD
    rho = DensityMatrix.from_eigenvalues([0.75, 0.25])
    assert rho.is_diagonal
    np.testing.assert_allclose(rho.eigenvalues, [0.75, 0.25])
    with pytest.raises(ValidationError):
        DensityMatrix.from_eigenvalues([0.6, 0.4], rotation=np.ones((2, 2)))


def test_density_matrix_eigenvalues_descend_with_matching_vectors():
    u = random_unitary(3)
    vals = np.array([0.2, 0.5, 0.3])
    rho = DensityMatrix.from_matrix(u @ np.diag(vals) @ u.conj().T)
    assert np.all(np.diff(rho.eigenvalues) <= 1e-14)
    recon = rho.eigenvectors @ np.diag(rho.eigenvalues) @ rho.eigenvectors.conj().T
    np.testing.assert_allclose(recon, rho.entries, atol=1e-12)


def test_eigenframe_keeps_unsorted_diagonal_weights_in_place():
    rho = DensityMatrix.from_matrix(np.diag([0.25, 0.75]))
    w, u = eigenframe(rho)
    assert u is None
    np.testing.assert_allclose(w, [0.25, 0.75])


def test_require_positive_rejects_pure_states():
    pure = DensityMatrix.from_eigenvalues([1.0, 0.0])
    with pytest.raises(ValidationError):
        pure.require_positive()


def test_site_subset_validation_and_complement():
    s = SiteSubset(5, (2, 4))
    assert s.zero_based == (1, 3)
    assert s.complement().indices == (1, 3, 5)
    with pytest.raises(ValidationError):
        SiteSubset(5, (4, 2))
    with pytest.raises(ValidationError):
        SiteSubset(5, (0, 1))


def test_kernel_requires_site_symmetry(paulis):
    sx, sy, _ = paulis
    with pytest.raises(ValidationError):
        Kernel(2, 2, hermitize(np.kron(sx, sy)))
    k = symmetrize_kernel([sx, sy])
    swapped = site_permute(k.op.entries, 2, 2, (1, 0))
    np.testing.assert_allclose(swapped, k.op.entries, atol=ATOL)


def test_embed_matches_explicit_permutation(paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    n, d = 4, 2
    got = embed(k, (2, 4), n)
    eye = np.eye(d, dtype=complex)
    direct = np.zeros((d ** n,) * 2, dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for e in range(2):
                    block = k.op.entries.reshape(2, 2, 2, 2)[a, b, c, e]
                    direct += block * np.kron(
                        np.kron(eye, np.outer(np.eye(2)[a], np.eye(2)[c])),
                        np.kron(eye, np.outer(np.eye(2)[b], np.eye(2)[e])),
                    )
    np.testing.assert_allclose(got.entries, direct, atol=ATOL)


def test_embed_is_a_frobenius_isometry_up_to_dimension(paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    n, d = 3, 2
    emb = embed(k, (1, 3), n)
    ratio = np.linalg.norm(emb.entries) / np.linalg.norm(k.op.entries)
    np.testing.assert_allclose(ratio, np.sqrt(d ** (n - k.r)), atol=ATOL)


def test_embed_budget_guard(paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    with pytest.raises(BudgetError) as err:
        embed(k, (1, 2), 12, budget=2 ** 6)
    assert err.value.required_bytes > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_jordan_is_symmetric(i, j):
    ops = [random_hermitian(2) for _ in range(4)]
    np.testing.assert_allclose(
        jordan(ops[i], ops[j]).entries, jordan(ops[j], ops[i]).entries, atol=ATOL
    )


def test_symmetrize_orders_average():
    a, b = random_hermitian(2), random_hermitian(2)
    np.testing.assert_allclose(
        symmetrize([a, b]).entries, (a @ b + b @ a) / 2.0, atol=ATOL
    )


def test_symmetrize_kernel_averages_tensor_orders(paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    expected = (np.kron(sx, sy) + np.kron(sy, sx)) / 2.0
    np.testing.assert_allclose(k.op.entries, expected, atol=ATOL)


def test_state_covariance_pauli_pair(rho_75, paulis):
    sx, sy, _ = paulis
    re, im = state_covariance(sx, sy, rho_75)
    np.testing.assert_allclose(re, 0.0, atol=ATOL)
    np.testing.assert_allclose(im, -0.5, atol=ATOL)


def test_state_covariance_recovers_product_trace(rho_75):
    a, b = random_hermitian(2), random_hermitian(2)
    re, im = state_covariance(a, b, rho_75)
    direct = np.trace(rho_75.entries @ a @ b)
    np.testing.assert_allclose(re - 1j * im, direct, atol=1e-12)


def test_tensor_weights_normalized():
    w = tensor_weights(np.array([0.75, 0.25]), 5)
    assert w.shape == (32,)
    np.testing.assert_allclose(w.sum(), 1.0, atol=ATOL)
    np.testing.assert_allclose(w[0], 0.75 ** 5, atol=ATOL)


def test_tensor_power_state_matches_weights(rho_75):
    full = tensor_power_state(rho_75, 3)
    np.testing.assert_allclose(
        np.diag(full).real, tensor_weights(np.array([0.75, 0.25]), 3), atol=ATOL
    )


def test_rotate_sites_matches_global_conjugation():
    d, n = 2, 3
    u = random_unitary(d)
    m = random_hermitian(d ** n)
    big = np.kron(np.kron(u, u), u)
    np.testing.assert_allclose(
        rotate_sites(m, n, d, u), big.conj().T @ m @ big, atol=1e-11
    )


def test_weighted_trace_matches_dense_power():
    rng = np.random.default_rng(11)
    rho = DensityMatrix.from_eigenvalues([0.5, 0.3, 0.2], rotation=random_unitary(3, rng))
    assert not rho.is_diagonal
    for n in (1, 2, 3):
        m = random_hermitian(3 ** n, rng) / 3 ** n
        state = tensor_power_state(rho, n)
        for p in (1, 2, 3, 4):
            want = np.trace(state @ np.linalg.matrix_power(m, p)).real
            np.testing.assert_allclose(weighted_trace(m, rho, n, p), want, rtol=1e-10, atol=ATOL)
