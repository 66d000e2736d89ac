"""States, kernels, subset embedding and the weighted operator calculus."""

import itertools

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
    state_covariance,
    symmetrize,
    symmetrize_kernel,
)
from qustat.operators import (
    _kron,
    _state_trace,
    _tensordot,
    frobenius,
    rotate_sites,
    tensor_weights,
)
from qustat.ustat import _ladder, _level_factors, _spin_levels

from oracles import (
    _densify,
    dense_power_trace,
    kron_symmetrized_entries,
    site_permute,
    tensor_power_state,
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


def test_a_trace_other_than_one_is_worded_in_plain_numbers():
    with pytest.raises(ValidationError) as exc:
        DensityMatrix.from_eigenvalues([0.7, 0.7])
    assert str(exc.value) == "density matrix trace (1.4+0j) is not 1"
    assert "np." not in str(exc.value)


def test_a_rotation_of_another_dimension_is_rejected():
    with pytest.raises(ValidationError, match=r"rotation of shape \(3, 3\) does not match"):
        DensityMatrix.from_eigenvalues([0.6, 0.4], rotation=np.eye(3))


def test_density_matrix_eigenvalues_descend_with_matching_vectors():
    u = random_unitary(3)
    vals = np.array([0.2, 0.5, 0.3])
    rho = DensityMatrix.from_matrix(u @ np.diag(vals) @ u.conj().T)
    assert np.all(np.diff(rho.eigenvalues) <= 1e-14)
    recon = rho.eigenvectors @ np.diag(rho.eigenvalues) @ rho.eigenvectors.conj().T
    np.testing.assert_allclose(recon, rho.entries, atol=1e-12)


def test_frame_is_none_only_where_the_eigenvectors_are_the_identity():
    assert DensityMatrix.from_eigenvalues([0.75, 0.25]).frame is None
    assert DensityMatrix.from_eigenvalues([0.5, 0.3, 0.2]).frame is None
    # an ascending diagonal state takes a permutation frame
    ascending = DensityMatrix.from_eigenvalues([0.25, 0.75])
    np.testing.assert_array_equal(np.abs(ascending.frame), [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(ascending.eigenvalues, [0.75, 0.25])
    u = random_unitary(3, np.random.default_rng(5))
    rotated = DensityMatrix.from_eigenvalues([0.5, 0.3, 0.2], rotation=u)
    frame = rotated.frame
    np.testing.assert_allclose(
        frame @ np.diag(rotated.eigenvalues) @ frame.conj().T, rotated.entries, atol=1e-12
    )


def test_equal_eigenvalues_keep_their_place():
    assert DensityMatrix.from_eigenvalues([0.5, 0.5]).frame is None
    assert DensityMatrix.from_matrix(np.diag([0.4, 0.3, 0.3])).frame is None
    assert DensityMatrix.from_eigenvalues([0.4, 0.3, 0.3]).frame is None


def test_diagonal_states_agree_across_constructors():
    rng = np.random.default_rng(11)
    for trial in range(1200):
        d = int(rng.integers(2, 6))
        v = rng.random(d)
        if trial % 3 == 0:
            i, j = rng.choice(d, 2, replace=False)
            v[j] = v[i]
        v /= v.sum()
        a = DensityMatrix.from_matrix(np.diag(v))
        b = DensityMatrix.from_eigenvalues(v)
        for name in ("entries", "eigenvalues", "eigenvectors"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (v, name)
        assert (a.frame is None) == (b.frame is None), v
        if a.frame is not None:
            assert a.frame.tobytes() == b.frame.tobytes(), v


def test_require_positive_rejects_pure_states():
    pure = DensityMatrix.from_eigenvalues([1.0, 0.0])
    with pytest.raises(ValidationError):
        pure.require_positive()


def test_site_subset_validation():
    s = SiteSubset(5, (2, 4))
    assert s.zero_based == (1, 3)
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


def test_tensordot_gives_the_bits_of_np_tensordot():
    """The site contraction is np.tensordot bit for bit on every axis pattern the package uses."""
    rng = np.random.default_rng(47)

    def random_complex(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for d in (2, 3):
        for n in (1, 2, 3):
            t = random_complex(*(d,) * (2 * n))
            mat = random_complex(d, d)
            # `_reduce_to_sites` and `hoeffding._remove_site_mean`: one site against rho
            cases = [(t, mat, [s, n + s], [1, 0]) for s in range(n)]
            # `rotate_sites`: one row or column index, also of a transposed operator
            transposed = t.transpose(rng.permutation(2 * n))
            cases += [(mat, x, [0], [s]) for x in (t, transposed) for s in range(2 * n)]
            # `ccr.kernel_to_limit`: one (row, column) pair of a site in the symbol basis
            paired = random_complex(*(d * d,) * n)
            cases += [(random_complex(d * d, d * d), paired, [1], [s]) for s in range(n)]
            for a, b, a_axes, b_axes in cases:
                got = _tensordot(a, b, a_axes, b_axes)
                want = np.tensordot(a, b, (a_axes, b_axes))
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes(), (d, n, a_axes, b_axes)


def test_kron_gives_the_bits_of_np_kron():
    """The Kronecker product of two matrices is np.kron bit for bit, signed zeros included."""
    rng = np.random.default_rng(48)
    signed = np.array([0.0, -0.0, 1.5, -2.25, 1e-150, -1e150])
    for (a_rows, a_cols), (b_rows, b_cols) in [((2, 2), (2, 2)), ((3, 3), (3, 3)), ((4, 4), (2, 2)),
                                               ((2, 3), (3, 1)), ((1, 1), (3, 3))]:
        a = rng.choice(signed, (a_rows, a_cols)) + 1j * rng.choice(signed, (a_rows, a_cols))
        b = rng.choice(signed, (b_rows, b_cols)) + 1j * rng.choice(signed, (b_rows, b_cols))
        for x, y in [(a, b), (b, a), (a.T, b), (a, b.conj().T)]:
            assert _kron(x, y).tobytes() == np.kron(x, y).tobytes(), (x.shape, y.shape)


def test_frobenius_gives_the_bits_of_np_linalg_norm():
    rng = np.random.default_rng(49)
    for shape in [(1, 1), (2, 2), (4, 4), (9, 9), (3, 5)]:
        real = rng.standard_normal(shape)
        cplx = real + 1j * rng.standard_normal(shape)
        for m in (real, cplx, real.T, cplx.T, cplx.conj().T, cplx[::2], np.zeros(shape)):
            got, want = frobenius(m), float(np.linalg.norm(m))
            assert type(got) is float and got.hex() == want.hex(), (shape, m.dtype)


@pytest.mark.parametrize("count", [2, 3])
def test_symmetrize_kernel_gives_the_bits_of_its_kron_oracle(paulis, count):
    rng = np.random.default_rng(50 + count)
    for ops in (paulis[:count], [random_hermitian(2, rng) for _ in range(count)],
                [random_hermitian(3, rng) for _ in range(count)]):
        want = kron_symmetrized_entries([np.asarray(m, dtype=complex) for m in ops])
        assert symmetrize_kernel(list(ops)).op.entries.tobytes() == want.tobytes()


_H = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, -1.0]])


# (constructor call, the exact type and message of the error it raises)
@pytest.mark.parametrize("make, message", [
    (lambda: hermitize(np.array([[1.0, np.nan], [np.nan, 1.0]])),
     "matrix contains non-finite entries"),
    (lambda: hermitize(np.array([[1.0, 0.0], [0.0, np.inf]])), "matrix contains non-finite entries"),
    (lambda: hermitize(np.diag([1.5e308, 1.5e308])), "matrix contains non-finite entries"),
    (lambda: hermitize(np.array([[0.0, 1.0], [0.0, 0.0]])),
     "matrix asymmetry 1.414e+00 is too large to be roundoff"),
    (lambda: hermitize(np.array([[1.0, 1e-9], [0.0, 1.0]]), check_tol=1e-12),
     "matrix asymmetry 1.414e-09 is too large to be roundoff"),
    (lambda: hermitize(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
    (lambda: HermitianOperator(2, np.array([[np.nan, 0.0], [0.0, 1.0]])),
     "matrix contains non-finite entries"),
    (lambda: HermitianOperator(2, np.array([[np.inf, 0.0], [0.0, 1.0]])),
     "matrix contains non-finite entries"),
    (lambda: HermitianOperator(2, np.array([[0.0, 1.0], [0.0, 0.0]])),
     "matrix is not hermitian: max asymmetry 1.000e+00 exceeds 1.0e-12"),
    (lambda: HermitianOperator(3, _H), "dim 3 does not match matrix of shape (2, 2)"),
    (lambda: Kernel(2, 2, hermitize(np.diag([1.0, 2.0, 3.0, 4.0]))),
     "kernel is not permutation symmetric: swapping sites 1,2 changes it by 1.414e+00"),
    (lambda: Kernel(2, 3, hermitize(np.eye(4))), "kernel operator dim 4 != 2^3"),
    (lambda: DensityMatrix.from_matrix(np.array([[np.nan, 0.0], [0.0, 0.5]])),
     "matrix contains non-finite entries"),
    (lambda: DensityMatrix.from_matrix(np.array([[np.inf, 0.0], [0.0, 0.5]])),
     "matrix contains non-finite entries"),
    (lambda: DensityMatrix.from_matrix(np.array([[0.5, 0.2], [0.1, 0.5]])),
     "density matrix is not hermitian (gap 1.000e-01)"),
    (lambda: DensityMatrix.from_matrix(np.diag([0.9, 0.2])),
     "density matrix trace (1.1+0j) is not 1"),
    (lambda: DensityMatrix.from_matrix(np.diag([1.2, -0.2])),
     "density matrix has negative eigenvalue -2.000e-01"),
    (lambda: DensityMatrix.from_matrix(np.array([[0.5, 0.7], [0.7, 0.5]])),
     "density matrix has negative eigenvalue -2.000e-01"),
    (lambda: DensityMatrix.from_matrix(np.zeros((2, 3))),
     "expected a square matrix, got shape (2, 3)"),
    (lambda: DensityMatrix.from_eigenvalues([np.nan, 0.5]), "matrix contains non-finite entries"),
    (lambda: DensityMatrix.from_eigenvalues([np.inf, 0.5]), "matrix contains non-finite entries"),
    (lambda: DensityMatrix.from_eigenvalues([0.7, 0.2]),
     "density matrix trace (0.8999999999999999+0j) is not 1"),
    (lambda: DensityMatrix.from_eigenvalues([1.2, -0.2]),
     "density matrix has negative eigenvalue -2.000e-01"),
    (lambda: DensityMatrix.from_eigenvalues([0.6, 0.4], rotation=np.ones((2, 2))),
     "rotation is not unitary"),
])
def test_validation_raises_the_same_error_on_every_bad_input(make, message):
    with pytest.raises(ValidationError) as err, np.errstate(all="ignore"):
        make()
    assert type(err.value) is ValidationError and str(err.value) == message


def test_validated_results_are_read_only(paulis):
    rotation = random_unitary(2)
    made = [hermitize(_H).entries, HermitianOperator(2, _H).entries,
            symmetrize_kernel(paulis[:2]).op.entries, Kernel(2, 1, hermitize(_H)).op.entries]
    for rho in (DensityMatrix.from_matrix(np.diag([0.75, 0.25])),
                DensityMatrix.from_eigenvalues([0.6, 0.4], rotation=rotation)):
        made += [rho.entries, rho.eigenvalues, rho.eigenvectors]
    for m in made:
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0] = 0.0


def test_hermitize_leaves_its_input_alone():
    m = np.array([[1.0, 2.0 + 1e-13j], [2.0, 3.0]])
    before = m.copy()
    h = hermitize(m)
    assert m.tobytes() == before.tobytes() and m.flags.writeable
    assert h.entries.tobytes() == (0.5 * (m + m.conj().T)).tobytes()


def test_state_trace_matches_dense_power():
    rng = np.random.default_rng(11)
    rho = DensityMatrix.from_eigenvalues([0.5, 0.3, 0.2], rotation=random_unitary(3, rng))
    assert not rho.is_diagonal
    for n in (1, 2, 3):
        m = random_hermitian(3 ** n, rng) / 3 ** n
        for p in (1, 2, 3, 4):
            np.testing.assert_allclose(_state_trace(np.linalg.matrix_power(m, p), rho, n),
                                       dense_power_trace(m, rho, n, p), rtol=1e-10, atol=ATOL)


def _banded(m, width):
    """The 2 width + 1 diagonals of m, band[width + s, k] = m[k + s, k] (0 off the levels)."""
    levels = len(m)
    band = np.zeros((2 * width + 1, levels), dtype=complex)
    for s in range(-width, width + 1):
        kept = np.arange(max(0, -s), levels - max(0, s))
        band[width + s, kept] = m[kept + s, kept]
    return band


def test_densify_of_a_stack_is_densify_of_each_item():
    """Leading axes of a band are batch axes: one call equals one call per item."""
    rng = np.random.default_rng(37)
    for width, levels in ((0, 4), (1, 1), (2, 3), (2, 6), (3, 9)):
        stack = (rng.standard_normal((2, 3, 2 * width + 1, levels))
                 + 1j * rng.standard_normal((2, 3, 2 * width + 1, levels)))
        dense = _densify(stack, levels)
        assert dense.shape == (2, 3, levels, levels)
        for i, j in itertools.product(range(2), range(3)):
            assert np.array_equal(dense[i, j], _densify(stack[i, j], levels))
            assert np.array_equal(_banded(dense[i, j], width),
                                  np.where(_banded(np.ones((levels, levels)), width) != 0,
                                           stack[i, j], 0))


def test_ladder_matches_dense_ladder_matrices():
    """Both `_ladder` directions equal dense A M and A^dagger M on spin and Fock couplings."""
    rng = np.random.default_rng(31)
    width = 2

    def random_banded(levels):
        m = rng.standard_normal((levels, levels)) + 1j * rng.standard_normal((levels, levels))
        return np.triu(np.tril(m, width), -width)

    # the spin blocks j = 2, 1, 0 of n = 4 qubits, one after the other on
    # 9 levels: the band of a block-diagonal M reaches across the edges at
    # levels 5 and 8, and S_+- must not carry it into another block
    _, k, level, _ = _spin_levels([4], [])
    _, _, spin = _level_factors(np.full(len(k), 4), k, level, width)
    size = 5 - 2 * k
    s_plus = np.diag(np.sqrt(level[1:] * (size[1:] - level[1:])), 1)
    assert s_plus[4, 5] == s_plus[7, 8] == 0.0 and s_plus[3, 4] == 2.0
    block_diagonal = np.zeros((9, 9), dtype=complex)
    for lo, hi in ((0, 5), (5, 8), (8, 9)):
        block_diagonal[lo:hi, lo:hi] = random_banded(hi - lo)
    # Fock levels, with <l - 1| a |l> = sqrt(l) on l = k + s, 0 below level 0
    a = np.diag(np.sqrt(np.arange(1.0, 9)), 1)
    roots = np.sqrt(np.maximum(np.arange(-width, width + 1)[:, None] + np.arange(9), 0))
    cases = [
        ("spin", spin, s_plus, block_diagonal),
        ("fock", roots, a, random_banded(9)),
    ]
    for name, coupling, lower, m in cases:
        band = _banded(m, width)
        assert np.array_equal(_densify(band, len(m)), m)
        for step, dense in ((-1, lower), (1, lower.T)):
            got = _ladder(band.copy(), coupling, step)
            # the band keeps the diagonals of A M up to offset width
            want = np.triu(np.tril(dense @ m, width), -width)
            assert np.array_equal(_densify(got, len(m)), want), (name, step)
