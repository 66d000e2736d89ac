"""Conditional expectations, projections and the degeneracy report."""

import numpy as np
import pytest

from qustat import (
    DensityMatrix,
    Kernel,
    ValidationError,
    cond_expectation,
    hoeffding_project,
    kernel_components,
    symmetrize_kernel,
    variance_formula,
)
from qustat.operators import hermitize, site_permute, tensor_power_state
from qustat.ustat import assemble_direct, variance_exact

ATOL = 1e-12


def test_cond_expectation_single_site(rho_75, paulis):
    _, _, sz = paulis
    zz = np.kron(sz, sz)
    got = cond_expectation(zz, (1,), rho_75, n=2, d=2)
    expected = np.kron(0.5 * sz, np.eye(2))
    np.testing.assert_allclose(got.entries, expected, atol=ATOL)


def test_cond_expectation_empty_subset_is_mean(rho_75, paulis):
    _, _, sz = paulis
    zz = np.kron(sz, sz)
    got = cond_expectation(zz, (), rho_75, n=2, d=2)
    np.testing.assert_allclose(got.entries, 0.25 * np.eye(4), atol=ATOL)


def test_projection_inclusion_exclusion_consistency(rho_75):
    rng = np.random.default_rng(7)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (g + g.conj().T) / 2.0
    total = np.zeros_like(h)
    import itertools

    for size in range(4):
        for a in itertools.combinations((1, 2, 3), size):
            total = total + hoeffding_project(h, a, rho_75, n=3, d=2).entries
    full = cond_expectation(h, (1, 2, 3), rho_75, n=3, d=2)
    np.testing.assert_allclose(total, full.entries, atol=1e-10)
    np.testing.assert_allclose(total, h, atol=1e-10)


def test_degeneracy_report_sigma_zz(rho_75, paulis):
    _, _, sz = paulis
    k = Kernel(2, 2, hermitize(np.kron(sz, sz)))
    report = kernel_components(k, rho_75)
    assert report.c == 1
    np.testing.assert_allclose(report.theta, 0.25, atol=ATOL)
    np.testing.assert_allclose(report.components[1].norm_sq, 0.1875, atol=ATOL)
    k1 = report.components[1].kernel.op.entries
    np.testing.assert_allclose(k1, 0.5 * sz - 0.25 * np.eye(2), atol=ATOL)


def test_degeneracy_report_pauli_xy(rho_75, paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    report = kernel_components(k, rho_75)
    assert report.c == 2
    np.testing.assert_allclose(report.theta, 0.0, atol=ATOL)
    np.testing.assert_allclose(report.components[1].norm_sq, 0.0, atol=ATOL)
    np.testing.assert_allclose(report.components[2].norm_sq, 0.625, atol=ATOL)


def test_identity_kernel_is_fully_degenerate(rho_75):
    k = Kernel(2, 2, hermitize(np.eye(4, dtype=complex)))
    report = kernel_components(k, rho_75)
    assert report.c is None
    assert report.fully_degenerate


def test_report_json_shape(rho_75, paulis):
    _, _, sz = paulis
    k = Kernel(2, 2, hermitize(np.kron(sz, sz)))
    doc = kernel_components(k, rho_75).to_json()
    assert set(doc) == {"theta", "c", "components"}
    assert [row["l"] for row in doc["components"]] == [0, 1, 2]
    assert all({"l", "norm_sq", "kernel"} <= set(row) for row in doc["components"])


def test_variance_formula_matches_exact_on_nondiagonal_state(paulis):
    sx, sy, _ = paulis
    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = g @ g.conj().T
    rho = DensityMatrix.from_matrix(m / np.trace(m).real)
    k = symmetrize_kernel([sx, sy])
    report = kernel_components(k, rho)
    for n in (2, 4, 6):
        stat = assemble_direct(k, n)
        exact = variance_exact(stat, rho)
        formula = variance_formula(report, n)
        np.testing.assert_allclose(exact, formula, rtol=1e-10, atol=1e-14)


def test_projection_orthogonal_to_coarser_conditioning(rho_75):
    rng = np.random.default_rng(21)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (g + g.conj().T) / 2.0
    p12 = hoeffding_project(h, (1, 2), rho_75, n=3, d=2).entries
    # conditioning on a strict subset of the support annihilates the component
    reduced = cond_expectation(p12, (1,), rho_75, n=3, d=2)
    np.testing.assert_allclose(reduced.entries, 0.0, atol=1e-10)
    state = tensor_power_state(rho_75, 3)
    assert abs(np.trace(state @ p12)) < 1e-10


def test_subset_site_count_mismatch_raises(rho_75):
    with pytest.raises(ValidationError):
        cond_expectation(np.eye(4, dtype=complex), (3,), rho_75, n=2, d=2)


def test_components_on_leading_sites_are_projections_on_r_sites():
    import itertools

    rng = np.random.default_rng(5)
    r = 3
    for d, spectrum in ((2, [0.7, 0.3]), (3, [0.5, 0.3, 0.2])):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u, _ = np.linalg.qr(g)
        rho = DensityMatrix.from_eigenvalues(spectrum, rotation=u)
        assert not rho.is_diagonal
        g = rng.standard_normal((d ** r,) * 2) + 1j * rng.standard_normal((d ** r,) * 2)
        h = (g + g.conj().T) / 2.0
        perms = list(itertools.permutations(range(r)))
        sym = sum(site_permute(h, r, d, perm) for perm in perms) / len(perms)
        k = Kernel(d, r, hermitize(sym))
        report = kernel_components(k, rho)
        for l in range(r + 1):
            lifted = np.kron(report.components[l].kernel.op.entries, np.eye(d ** (r - l)))
            proj = hoeffding_project(k.op, tuple(range(1, l + 1)), rho, n=r, d=d)
            np.testing.assert_allclose(lifted, proj.entries, atol=ATOL)
