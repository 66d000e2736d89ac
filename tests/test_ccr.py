"""Limit-variable basis, limit polynomials and their moments."""

import math

import numpy as np
import pytest

from qustat import (
    BudgetError,
    DensityMatrix,
    ExpansionBudgetError,
    Kernel,
    ValidationError,
    build_ccr_basis,
    goodness_kernel,
    fock_moments,
    homogeneity_kernel,
    hermite_orthogonality_check,
    kernel_components,
    kernel_to_limit,
    limit_moment,
    limit_to_poly,
    quasifree_moment_wick,
    symmetrize_kernel,
)
from qustat.ccr import (
    ROUTE_AGREEMENT_ATOL,
    ROUTE_AGREEMENT_RTOL,
    TAIL_TOL,
    _classical_moments,
    _oscillator_form,
    _two_point_matrix,
    thermal_levels,
    wick_moments,
)
from qustat.operators import hermitize, state_covariance

from oracles import poly_power

ATOL = 1e-12
ROUTE_RTOL = 1e-6


def _checked_moment(limit, basis, p):
    """The Wick moment E[L^p], after checking that the Fock route agrees with it.

    The routes must agree to ROUTE_AGREEMENT_RTOL, or to ROUTE_AGREEMENT_ATOL
    where both moments are below 1e-3, as the `limit` command requires.
    """
    wick = limit_moment(limit, basis, p, method="wick")
    fock = limit_moment(limit, basis, p, method="fock")
    gap, ref = abs(wick - fock), max(abs(wick), abs(fock))
    bound = ROUTE_AGREEMENT_ATOL if ref < 1e-3 else ROUTE_AGREEMENT_RTOL * ref
    assert gap <= bound, (p, wick, fock)
    return wick


def _symbol_indices(basis, *names):
    symbols = [s.name for s in basis.symbols]
    return [symbols.index(name) for name in names]


def test_basis_structure_qubit(rho_75):
    basis = build_ccr_basis(rho_75)
    assert basis.d == 2
    assert basis.n_symbols == 3
    names = [s.name for s in basis.symbols]
    assert names == ["c1", "q12", "p12"]
    kinds = [s.kind for s in basis.symbols]
    assert kinds == ["classical", "q", "p"]
    pair = basis.oscillator_pairs[0]
    np.testing.assert_allclose(pair.sigma_sq, 1.0, atol=ATOL)
    np.testing.assert_allclose(basis.classical_cov, [[0.1875]], atol=ATOL)
    assert basis.rotation is None
    iq, ip = names.index("q12"), names.index("p12")
    two = basis.two_point
    np.testing.assert_allclose(two[iq, iq], 1.0, atol=ATOL)
    np.testing.assert_allclose(two[ip, ip], 1.0, atol=ATOL)
    np.testing.assert_allclose(two[iq, ip], 0.5j, atol=ATOL)
    np.testing.assert_allclose(two[ip, iq], -0.5j, atol=ATOL)
    np.testing.assert_allclose(two[0, 0], 1.0, atol=ATOL)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("rotated", [False, True])
def test_two_point_matrix_is_state_covariance_entrywise(d, rotated):
    """The batched two-point matrix equals the pairwise state_covariance bit for bit."""
    rng = np.random.default_rng(10 * d + rotated)
    for _ in range(5):
        mu = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        rotation = None
        if rotated:
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rotation = np.linalg.qr(z)[0]
        basis = build_ccr_basis(DensityMatrix.from_eigenvalues(mu, rotation=rotation))
        rho = np.diag(basis.eigenvalues).astype(complex)
        expected = np.array([
            [complex(*state_covariance(a.matrix, b.matrix, rho)) for b in basis.symbols]
            for a in basis.symbols
        ])
        assert np.array_equal(_two_point_matrix(basis.symbols, basis.eigenvalues), expected)
        assert np.array_equal(basis.two_point, expected)


def test_basis_requires_faithful_nondegenerate_state():
    pure = DensityMatrix.from_eigenvalues([1.0, 0.0])
    with pytest.raises(ValidationError):
        build_ccr_basis(pure)
    flat = DensityMatrix.from_eigenvalues([0.5, 0.5])
    with pytest.raises(ValidationError):
        build_ccr_basis(flat)


def test_pair_kernel_limit_polynomial(rho_75, paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    report = kernel_components(k, rho_75)
    basis = build_ccr_basis(rho_75)
    lim = kernel_to_limit(k, report, basis)
    assert lim.c == 2
    assert lim.binom_factor == 1
    assert len(lim.terms) == 1
    (mvec, coeff), = lim.terms
    assert mvec == (0, 1, 1)
    np.testing.assert_allclose(coeff, -1.0, atol=ATOL)
    assert _checked_moment(lim, basis, 1) == pytest.approx(0.0, abs=1e-10)
    p2 = _checked_moment(lim, basis, 2)
    p4 = _checked_moment(lim, basis, 4)
    np.testing.assert_allclose(p2, 1.25, rtol=1e-10)
    np.testing.assert_allclose(p4, 12.8125, rtol=1e-8)


def test_pair_kernel_monomial_expansion(rho_75, paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    report = kernel_components(k, rho_75)
    basis = build_ccr_basis(rho_75)
    lim = kernel_to_limit(k, report, basis)
    poly = limit_to_poly(lim)
    iq, ip = _symbol_indices(basis, "q12", "p12")
    assert set(poly) == {(iq, ip), (ip, iq)}
    np.testing.assert_allclose(poly[(iq, ip)], -0.5, atol=ATOL)
    np.testing.assert_allclose(poly[(ip, iq)], -0.5, atol=ATOL)


def test_single_degenerate_kernel_limit(rho_75, paulis):
    _, _, sz = paulis
    k = Kernel(2, 2, hermitize(np.kron(sz, sz)))
    report = kernel_components(k, rho_75)
    basis = build_ccr_basis(rho_75)
    lim = kernel_to_limit(k, report, basis)
    assert lim.c == 1
    assert lim.binom_factor == 2
    (mvec, coeff), = lim.terms
    assert mvec == (1, 0, 0)
    np.testing.assert_allclose(coeff, np.sqrt(0.1875), rtol=1e-12)
    p2 = _checked_moment(lim, basis, 2)
    np.testing.assert_allclose(p2, 0.75, rtol=1e-10)


def test_number_operator_kernel_limit(rho_75, paulis):
    sx, sy, _ = paulis
    mat = np.kron(sx, sx) + np.kron(sy, sy)
    k = Kernel(2, 2, hermitize(mat))
    report = kernel_components(k, rho_75)
    basis = build_ccr_basis(rho_75)
    lim = kernel_to_limit(k, report, basis)
    assert lim.c == 2
    assert lim.binom_factor == 1
    terms = dict(lim.terms)
    assert set(terms) == {(0, 2, 0), (0, 0, 2)}
    np.testing.assert_allclose(terms[(0, 2, 0)], 1.0, atol=1e-10)
    np.testing.assert_allclose(terms[(0, 0, 2)], 1.0, atol=1e-10)
    p2 = _checked_moment(lim, basis, 2)
    np.testing.assert_allclose(p2, 3.0, rtol=1e-10)


def test_fully_degenerate_kernel_rejected(rho_75):
    k = Kernel(2, 2, hermitize(np.eye(4, dtype=complex)))
    report = kernel_components(k, rho_75)
    basis = build_ccr_basis(rho_75)
    with pytest.raises(ValidationError):
        kernel_to_limit(k, report, basis)


def test_fock_rep_thermal_weights():
    vac, tail = thermal_levels(0.5)
    assert list(vac) == [1.0, 0.0] and tail == 0.0
    w, tail = thermal_levels(1.0)
    np.testing.assert_allclose(w[1] / w[0], 1.0 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-12)
    assert tail == pytest.approx(3.0 ** -len(w), rel=1e-12)
    mean_n = float(np.dot(w, np.arange(len(w))))
    np.testing.assert_allclose(mean_n, 0.5, rtol=1e-10)
    for bad in (0.3, 0.4, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            thermal_levels(bad)


def test_oscillator_form_matches_dense_ladder_operators():
    # a reference on two more levels than kept sees every level a product
    # of two quadratures passes through, so its leading block is the exact
    # operator; taking level l as e^{-il phi/2} |l>, phi = arg(f_qq - f_pp -
    # 2i f_qp), makes it real
    levels = 12
    a = np.diag(np.sqrt(np.arange(1.0, levels + 2)), 1)
    quad = {"q": (a + a.T) / np.sqrt(2.0), "p": (a - a.T) / (1j * np.sqrt(2.0))}
    for sigma_sq in (0.5, 1.0, 3.0, 50.0):
        q, p = (x / np.sqrt(sigma_sq) for x in quad.values())
        forms = {"q^2": ((1.0, 0.0, 0.0), q @ q), "p^2": ((0.0, 1.0, 0.0), p @ p),
                 "qp + pq": ((0.0, 0.0, 1.0), q @ p + p @ q)}
        forms["their sum"] = ((1.0, 1.0, 1.0), sum(dense for _, dense in forms.values()))
        forms["anisotropic"] = ((1.0, 0.5, 0.4), q @ q + 0.5 * p @ p + 0.4 * (q @ p + p @ q))
        for name, ((f_qq, f_pp, f_qp), dense) in forms.items():
            phase = np.exp(-0.5j * np.angle(f_qq - f_pp - 2j * f_qp) * np.arange(levels + 2))
            rephased = (phase.conj()[:, None] * dense * phase[None, :])[:levels, :levels]
            built = _oscillator_form(f_qq, f_pp, f_qp, sigma_sq, levels)
            assert built.dtype == np.float64
            np.testing.assert_allclose(built, rephased, atol=ATOL,
                                       err_msg="%s at sigma^2 = %g" % (name, sigma_sq))


def test_thermal_levels_hold_the_tail_bound_at_the_least_truncation():
    for sigma_sq in (0.55, 0.75, 1.0, 2.0, 3.0, 12.5, 50.0):
        beta = 2.0 * np.arctanh(1.0 / (2.0 * sigma_sq))
        weights, tail = thermal_levels(sigma_sq)
        levels = len(weights)
        assert -beta * levels <= np.log(TAIL_TOL)
        assert -beta * (levels - 1) > np.log(TAIL_TOL)
        assert tail == pytest.approx(np.exp(-beta * levels), rel=1e-12)
    with pytest.raises(BudgetError, match="Fock truncation"):
        thermal_levels(50.0, budget=100)
    with pytest.raises(BudgetError, match="Fock truncation"):
        thermal_levels(1e300)
    trunc = len(thermal_levels(2.0)[0])
    assert len(thermal_levels(2.0, budget=trunc)[0]) == trunc
    with pytest.raises(BudgetError, match="Fock truncation"):
        thermal_levels(2.0, budget=trunc - 1)


def test_thermal_levels_at_degree_zero_keep_the_tail_mass_rule():
    # the exact limit law truncated each oscillator at max(2, ceil(-ln TAIL_TOL / beta))
    for lam in np.linspace(0.70, 0.80, 201):
        sigma_sq = 1.0 / (2.0 * (2.0 * lam - 1.0))
        beta = 2.0 * math.atanh(1.0 / (2.0 * sigma_sq))
        expected = max(2, math.ceil(-math.log(TAIL_TOL) / beta))
        weights, tail = thermal_levels(sigma_sq)
        assert len(weights) == expected
        assert tail == math.exp(-beta * expected)


def test_classical_moments_are_exact_double_factorials():
    exact = [1, 0, 1, 0, 3, 0, 15, 0, 105, 0, 945, 0, 10395, 0, 135135, 0,
             2027025, 0, 34459425, 0, 654729075, 0, 13749310575, 0, 316234143225]
    assert _classical_moments(24) == [float(v) for v in exact]


def test_hermite_forms_orthogonal_to_lower_monomials():
    worst = hermite_orthogonality_check(1, 1, 1.0)
    assert worst < 1e-8


def test_hermite_check_is_exact_at_every_variance():
    # the vacuum, a variance whose old Fock truncation took 0.66 s, and one no truncation reaches
    for sigma_sq in (0.5, 50.0, 1e300):
        worst = max(hermite_orthogonality_check(n, total - n, sigma_sq)
                    for total in range(7) for n in range(total + 1))
        assert worst < 1e-14, sigma_sq
    for bad in (0.3, 0.4, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="oscillator variance"):
            hermite_orthogonality_check(1, 1, bad)


def test_wick_route_details(rho_75, monkeypatch):
    import qustat.ccr

    basis = build_ccr_basis(rho_75)
    assert quasifree_moment_wick((0,), basis) == 0.0
    np.testing.assert_allclose(quasifree_moment_wick((0, 0), basis), 1.0, atol=ATOL)
    iq, ip = _symbol_indices(basis, "q12", "p12")
    np.testing.assert_allclose(quasifree_moment_wick((iq, ip), basis), 0.5j, atol=ATOL)
    monkeypatch.setattr(qustat.ccr, "MAX_POLY_TERMS", 4)
    with pytest.raises(ExpansionBudgetError):
        quasifree_moment_wick((0,) * 18, basis)
    with pytest.raises(ValidationError):
        quasifree_moment_wick((7,), basis)


def test_fock_route_matches_wick_on_monomials(rho_75):
    basis = build_ccr_basis(rho_75)
    rng = np.random.default_rng(7)
    for _ in range(25):
        deg = int(rng.integers(0, 7))
        mon = tuple(int(s) for s in rng.integers(0, basis.n_symbols, size=deg))
        w = quasifree_moment_wick(mon, basis)
        f = fock_moments({mon: 1.0}, basis, 1)[1]
        assert abs(w - f) <= ROUTE_RTOL * max(1.0, abs(w))


def _wick_unmemoised(mon, c):
    """The pair-partition sum of a monomial, pairing its first factor with each later one."""
    if len(mon) % 2 == 1:
        return 0.0 + 0.0j
    if not mon:
        return 1.0 + 0.0j
    first, rest = mon[0], mon[1:]
    total = 0.0 + 0.0j
    for pos in range(len(rest)):
        pair = c[first, rest[pos]]
        if pair != 0.0:
            total += pair * _wick_unmemoised(rest[:pos] + rest[pos + 1 :], c)
    return total


def test_wick_pass_matches_the_plain_recursion(rho_75, paulis):
    sx, sy, _ = paulis
    basis = build_ccr_basis(rho_75)
    for kernel in (symmetrize_kernel([sx, sy]), goodness_kernel(rho_75)):
        limit = kernel_to_limit(kernel, kernel_components(kernel, rho_75), basis)
        poly = limit_to_poly(limit)
        moments = wick_moments(poly, basis, 6)
        for p in range(2, 7):
            expected = 0.0 + 0.0j
            for mon, coeff in poly_power(poly, p).items():
                expected += coeff * _wick_unmemoised(mon, basis.two_point)
            assert abs(moments[p] - expected) <= 1e-12 * abs(expected), (p, kernel)


def test_fock_pass_budget(rho_75, monkeypatch):
    import qustat.ccr

    basis = build_ccr_basis(rho_75)
    # the normal-ordered pass of c1 + q12 + p12 peaks at 16 live states at p = 6
    monkeypatch.setattr(qustat.ccr, "MAX_POLY_TERMS", 10)
    with pytest.raises(ExpansionBudgetError):
        fock_moments({(0,): 1.0, (1,): 1.0, (2,): 1.0}, basis, 6)


def test_passes_check_the_symbol_range(rho_75):
    basis = build_ccr_basis(rho_75)
    for s in (-1, basis.n_symbols):
        for moment in (
            lambda mon: wick_moments({mon: 1.0}, basis, 1),
            lambda mon: fock_moments({mon: 1.0}, basis, 1),
            lambda mon: quasifree_moment_wick(mon, basis),
        ):
            with pytest.raises(ValidationError, match="symbol index %d out of range" % s):
                moment((s, s))


@pytest.mark.parametrize("eigenvalues, preset", [
    ([0.75, 0.25], "pauli-xy"),
    ([0.75, 0.25], "goodness"),
    ([0.5, 0.3, 0.2], "goodness"),
], ids=["pauli-xy", "goodness-qubit", "goodness-qutrit"])
def test_fock_pass_matches_the_plain_expansion(paulis, eigenvalues, preset):
    sx, sy, _ = paulis
    rho = DensityMatrix.from_eigenvalues(eigenvalues)
    basis = build_ccr_basis(rho)
    kernel = symmetrize_kernel([sx, sy]) if preset == "pauli-xy" else goodness_kernel(rho)
    poly = limit_to_poly(kernel_to_limit(kernel, kernel_components(kernel, rho), basis))
    moments = fock_moments(poly, basis, 6)
    # the qutrit's expansion of L^6 has over a million monomials; it is checked to t = 5.
    # E[L] = 0, so each bound is relative to max(1, |E[L^t]|).
    for t in range(6 if basis.d > 2 else 7):
        expected = fock_moments(poly_power(poly, t), basis, 1)[1]
        assert abs(moments[t] - expected) <= 1e-12 * max(1.0, abs(expected)), (t, moments[t], expected)


def _preset_poly(eigenvalues, preset, paulis):
    sx, sy, sz = paulis
    rho = DensityMatrix.from_eigenvalues(eigenvalues)
    basis = build_ccr_basis(rho)
    kernel = {
        "pauli-xy": lambda: symmetrize_kernel([sx, sy]),
        "pauli-xx-yy": lambda: Kernel(2, 2, hermitize(np.kron(sx, sx) + np.kron(sy, sy))),
        "sigma-zz": lambda: Kernel(2, 2, hermitize(np.kron(sz, sz))),
        "goodness": lambda: goodness_kernel(rho),
        # at diag(0.75, 0.25) on one source and diag(0.6, 0.4) on the other
        "homogeneity": lambda: homogeneity_kernel(2),
    }[preset]()
    poly = limit_to_poly(kernel_to_limit(kernel, kernel_components(kernel, rho), basis))
    return poly, basis


@pytest.mark.parametrize("eigenvalues, preset, max_p", [
    ([0.75, 0.25], "pauli-xy", 12),
    ([0.75, 0.25], "pauli-xx-yy", 12),
    ([0.75, 0.25], "sigma-zz", 12),
    ([0.75, 0.25], "goodness", 12),
    ([0.45, 0.3, 0.15, 0.1], "homogeneity", 12),
    ([0.5, 0.3, 0.2], "goodness", 10),
    ([0.505, 0.495], "goodness", 12),
    ([0.500001, 0.499999], "goodness", 12),
])
def test_fock_pass_in_normal_order_is_exact(paulis, eigenvalues, preset, max_p):
    """The Fock route keeps no truncation: it matches Wick to rounding at every order."""
    poly, basis = _preset_poly(eigenvalues, preset, paulis)
    wick = wick_moments(poly, basis, max_p)
    fock = fock_moments(poly, basis, max_p)
    for t, (w, f) in enumerate(zip(wick, fock)):
        assert abs(w - f) <= 1e-12 * max(1.0, abs(w)), (t, w, f)
