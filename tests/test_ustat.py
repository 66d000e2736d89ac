"""Statistic assembly, exact moments and the fluctuation expansion."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import qustat.ustat
from qustat import (
    DensityMatrix,
    Kernel,
    ToleranceError,
    ValidationError,
    assemble_direct,
    assemble_fluctuation,
    centered_moments,
    finite_law,
    fluctuation_form,
    goodness_kernel,
    kernel_components,
    symmetrize_kernel,
)
from qustat.operators import (
    _distinct_plan,
    _merge_first,
    _state_trace,
    hermitize,
    site_transpose,
    tensor_weights,
)
from qustat.ustat import _checked_probabilities, _spin_levels, _spin_stack

from oracles import (
    _densify,
    checked_probabilities,
    classical_mc_oracle,
    dense_power_trace,
    per_block_law,
    site_permute,
    tensor_distinct_plan,
    tensor_power_state,
)

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
        dense_power_trace(m, rho_75, 2), dense_power_trace(k.op.entries, rho_75, 2), atol=ATOL
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


def test_diagonal_kernel_moments_match_outcome_enumeration(rho_d3):
    # A kernel diagonal in the state's frame gives a classical U-statistic:
    # U_n averages h(x_i) h(x_j) over the pairs of an i.i.d. outcome string x.
    h = np.array([1.0, 0.0, -1.0])
    k = Kernel(3, 2, hermitize(np.diag(np.kron(h, h)).astype(complex)))
    lam = np.array([0.5, 0.3, 0.2])
    theta = float(h @ lam) ** 2
    for n in (4, 6):
        pairs = list(itertools.combinations(range(n), 2))
        strings = np.array(list(itertools.product(range(3), repeat=n)))
        probs = np.prod(lam[strings], axis=1)
        values = h[strings]
        u = sum(values[:, i] * values[:, j] for i, j in pairs) / len(pairs)
        (moments,) = centered_moments(k, rho_d3, [n], [1, 2, 3])
        for p, moment in zip((1, 2, 3), moments):
            exact = float(probs @ (np.sqrt(n) * (u - theta)) ** p)
            moment *= (float(n) ** 0.5) ** p
            np.testing.assert_allclose(moment, exact, rtol=1e-10, atol=1e-13,
                                       err_msg="n=%d p=%d" % (n, p))


def _random_symmetric_kernel(rng, r, d=2):
    g = rng.standard_normal((d ** r, d ** r)) + 1j * rng.standard_normal((d ** r, d ** r))
    h = (g + g.conj().T) / 2.0
    perms = list(itertools.permutations(range(r)))
    sym = sum(site_permute(h, r, d, perm) for perm in perms) / len(perms)
    return Kernel(d, r, hermitize(sym))


def test_centered_moments_centres_on_the_theta_of_kernel_components(monkeypatch):
    """One theta: the bits kernel_components reports are the bits centered_moments subtracts."""
    seen = []

    def recorded(matrix, rho, n):
        seen.append(_state_trace(matrix, rho, n))
        return seen[-1]

    monkeypatch.setattr(qustat.ustat, "_state_trace", recorded)
    rng = np.random.default_rng(37)
    for case in range(60):
        d = 2 + case % 2
        r = int(rng.integers(1, 4 if d == 2 else 3))
        vals = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        rho = [DensityMatrix.from_eigenvalues(vals),
               DensityMatrix.from_eigenvalues(vals[::-1]),
               DensityMatrix.from_eigenvalues(vals, rotation=u)][case % 3]
        k = _random_symmetric_kernel(rng, r, d)
        seen.clear()
        centered_moments(k, rho, [r], [1])
        assert seen == [kernel_components(k, rho).theta], "case %d: d=%d r=%d" % (case, d, r)


def test_spin_block_moments_match_dense_statistic(rho_75, paulis):
    """Qubit moments from spin-j blocks equal the dense d^n route."""
    sx, sy, sz = paulis
    rng = np.random.default_rng(17)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    states = [
        rho_75,
        DensityMatrix.from_eigenvalues([0.7, 0.3], rotation=u),
        DensityMatrix.from_eigenvalues([1.0, 0.0]),
        DensityMatrix.from_eigenvalues([0.25, 0.75]),
    ]
    kernels = [_random_symmetric_kernel(rng, r) for r in (1, 2, 3)] + [
        symmetrize_kernel([sx, sy]),
        Kernel(2, 2, hermitize(np.kron(sz, sz))),
        goodness_kernel(rho_75),
    ]
    for k in kernels:
        for rho in states:
            theta = dense_power_trace(k.op.entries, rho, k.r)
            ns = sorted({k.r, k.r + 1, 6, 9})
            for n, blocks in zip(ns, centered_moments(k, rho, ns, range(1, 6))):
                centered = assemble_direct(k, n).op.entries - theta * np.eye(2 ** n)
                for p, block in zip(range(1, 6), blocks):
                    dense = dense_power_trace(centered, rho, n, p)
                    np.testing.assert_allclose(block, dense, rtol=1e-10, atol=1e-13,
                                               err_msg="r=%d n=%d p=%d" % (k.r, n, p))
    with pytest.raises(ValidationError):
        centered_moments(kernels[2], rho_75, [4, 2], [2])


def test_centered_moments_one_pass_equals_separate_calls(rho_75, rho_d3, paulis):
    """Every n and p of one call give the bits of one call per n and p."""
    sx, sy, _ = paulis
    rng = np.random.default_rng(23)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    cases = [
        (symmetrize_kernel([sx, sy]), rho_75, [9, 4, 12, 2, 9]),
        (_random_symmetric_kernel(rng, 3), DensityMatrix.from_eigenvalues([0.7, 0.3], u),
         [7, 3, 10]),
        (goodness_kernel(rho_d3), rho_d3, [4, 2]),
    ]
    orders = [4, 2, 3, 1, 2, 6]
    for k, rho, ns in cases:
        together = centered_moments(k, rho, ns, orders)
        apart = [[centered_moments(k, rho, [n], [p])[0][0] for p in orders] for n in ns]
        assert together == apart
        assert all(type(value) is float for values in together for value in values)
    assert centered_moments(cases[0][0], rho_75, [4, 6], []) == [[], []]
    with pytest.raises(ValidationError):
        centered_moments(cases[0][0], rho_75, [4], [2, 0])
    with pytest.raises(ValidationError):
        centered_moments(cases[0][0], rho_75, [], [2])


def _dense_collective(a, b, mat, n, m):
    """J(E_ab) @ mat on the dense spin block with S_z eigenvalues m (descending).

    J(E_00) = n/2 + S_z, J(E_11) = n/2 - S_z, J(E_01) = S_+, J(E_10) = S_-.
    """
    if a == b:
        return (n / 2.0 + (m if a == 0 else -m))[:, None] * mat
    j = m[0]
    # S_+ |m> = sqrt((j - m)(j + m + 1)) |m + 1>, and S_- is its transpose
    up = np.sqrt((j - m[1:]) * (j + m[1:] + 1))[:, None]
    out = np.zeros_like(mat)
    if a == 0:
        out[:-1] = up * mat[1:]
    else:
        out[1:] = up * mat[:-1]
    return out


def _distinct_sum_reference(t, n, m):
    """The distinct-site sum of the r-site operator t on one dense spin block.

    It recurses on the tensor at every block, with no plan, and applies the
    collective operators as dense matrices.
    """
    r = t.ndim // 2
    if r == 0:
        return complex(t) * np.eye(len(m), dtype=complex)
    out = np.zeros((len(m), len(m)), dtype=complex)
    slices = np.moveaxis(t, r, 1)
    for a in range(2):
        for b in range(2):
            if np.any(slices[a, b]):
                out += _dense_collective(a, b, _distinct_sum_reference(slices[a, b], n, m), n, m)
    for k in range(1, r):
        merged = _merge_first(t, k)
        if np.any(merged):
            out -= _distinct_sum_reference(merged, n, m)
    return out


def test_distinct_plan_gives_the_bits_of_the_tensor_recursion(paulis):
    """Each block of the band stack, made dense, is the per-block dense recursion bit for bit."""
    sx, sy, sz = paulis
    rng = np.random.default_rng(29)
    kernels = [_random_symmetric_kernel(rng, r) for r in (1, 2, 3)] + [
        symmetrize_kernel([sx, sy]),
        Kernel(2, 2, hermitize(np.kron(sz, sz))),
    ]
    for k in kernels:
        t = k.op.entries.reshape((2,) * (2 * k.r))
        ns = (k.r, 5, 8, 13)
        bands, _, edges = _spin_stack(k, [np.array([0.75, 0.25])], ns)
        # every block of every n, one after another, with no padding
        levels = sum(n + 1 - 2 * j for n in ns for j in range(n // 2 + 1))
        assert bands.shape == (2 * k.r + 1, levels)
        assert [e[0] for e in edges] == [0] + [e[-1] for e in edges[:-1]]
        assert edges[-1][-1] == levels
        block_of = np.zeros(levels, dtype=int)
        for n, e in zip(ns, edges):
            norm = math.factorial(k.r) * math.comb(n, k.r)
            assert list(np.diff(e)) == list(range(n + 1, 0, -2))
            for lo, hi in zip(e[:-1], e[1:]):
                size = hi - lo
                m = n / 2.0 - ((n + 1 - size) // 2 + np.arange(size))
                reference = _distinct_sum_reference(t, n, m) / norm
                assert np.array_equal(_densify(bands[:, lo:hi], size), reference)
                block_of[lo:hi] = lo
        # an entry that would couple two blocks is 0
        target = np.arange(levels) + np.arange(-k.r, k.r + 1)[:, None]
        inside = (target >= 0) & (target < levels)
        across = ~inside | (block_of[np.clip(target, 0, levels - 1)] != block_of)
        assert not np.any(bands[across])
        # the plan is built once per kernel and serves every n
        assert k._plan is k._plan
        assert k._plan == _distinct_plan(t)


def _sparse_symmetric_kernel(rng, r, keep):
    """A random symmetric qubit kernel with each entry kept with probability `keep`, else exactly 0.

    An entry is dropped together with its images under every site
    permutation and the adjoint, so the kernel stays symmetric and hermitian.
    """
    t = _random_symmetric_kernel(rng, r).op.entries.reshape((2,) * (2 * r)).copy()
    drop = rng.random(t.shape) > keep
    adjoint = [*range(r, 2 * r), *range(r)]
    closed = np.zeros_like(drop)
    for perm in itertools.permutations(range(r)):
        image = drop.transpose([*perm, *(r + p for p in perm)])
        closed |= image | image.transpose(adjoint)
    t[closed] = 0.0
    return Kernel(2, r, hermitize(t.reshape(2 ** r, 2 ** r)))


def test_distinct_plan_equals_the_numpy_recursion(paulis):
    """Leaves read from Python lists give the plan of the numpy recursion, zero entries included."""
    sx, sy, sz = paulis
    rng = np.random.default_rng(43)
    kernels = [symmetrize_kernel([sx, sy]), symmetrize_kernel([sz, sx]),
               goodness_kernel(DensityMatrix.from_eigenvalues([0.75, 0.25]))]
    kernels += [_sparse_symmetric_kernel(rng, r, keep)
                for r in (1, 2, 3, 4) for keep in (1.0, 0.5, 0.2)]
    assert any(not k.op.entries.all() for k in kernels)
    for k in kernels:
        t = k.op.entries.reshape((2,) * (2 * k.r))
        assert _distinct_plan(t) == tensor_distinct_plan(t), k.r
        assert k._plan == tensor_distinct_plan(t)


def test_spin_block_weights_stay_finite_at_large_n():
    # C(1100, 550) overflows a double, and 0.25^1100 underflows one
    for w1 in ([0.75, 0.25], [1.0, 0.0]):
        *_, (weights,) = _spin_levels([1100], [np.array(w1)])
        # blocks of 1101, 1099, .., 1 levels, one after another
        assert weights.shape == (551 * 551,)
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
        np.testing.assert_allclose(weights.sum(), 1.0, rtol=1e-10)
    # exact 0/1 weights leave the largest block alone in the stack
    bands, (weights,), (edges,) = _spin_stack(goodness_kernel(DensityMatrix.from_eigenvalues(
        [0.75, 0.25])), [np.array([1.0, 0.0])], [1100])
    assert bands.shape == (5, 1101) and list(edges) == [0, 1101]
    assert weights[0] == 1.0 and not np.any(weights[1:])


def test_pair_statistic_second_moment_is_exact_at_n_1000(rho_75, paulis):
    # E[(n (U_n - theta))^2] = n^2 xi_2 / C(n, 2) with xi_2 = 0.625 for pauli-xy
    sx, sy, _ = paulis
    ((m2,),) = centered_moments(symmetrize_kernel([sx, sy]), rho_75, [1000], [2])
    np.testing.assert_allclose(1000.0 ** 2 * m2, 1.25 * 1000 / 999, rtol=1e-12, atol=0.0)


def test_zero_and_identity_kernels_give_exact_zero_moments(rho_75):
    """A plan with no terms is the zero operator; U_n = 1 has no fluctuation at all."""
    zero = Kernel(2, 2, hermitize(np.zeros((4, 4))))
    identity = Kernel(2, 3, hermitize(np.eye(8)))
    ns, orders = [3, 4, 9], [1, 2, 3, 4]
    for k in (zero, identity):
        assert centered_moments(k, rho_75, ns, orders) == [[0.0] * len(orders)] * len(ns)
    # every atom of the zero statistic is 0, each level carrying its block weight
    weights = np.array([0.75, 0.25])
    for n, (atoms, (probs,)) in zip(ns, finite_law(zero, [weights], ns)):
        assert len(atoms) == len(probs) == (n // 2 + 1) * (n + 1 - n // 2)
        assert not np.any(atoms)
        np.testing.assert_allclose(probs, _spin_levels([n], [weights])[3][0], rtol=1e-14)


def test_p4_moment_peaks_under_seven_band_arrays(rho_75, paulis):
    """The p = 4 moment of n = 200 needs at most 7 complex (2r + 1, L) arrays at its peak.

    The bands, their square, the two level factors and the intermediates of
    the plan's recursion make up the peak; L = 101^2 levels at n = 200.
    """
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    centered_moments(k, rho_75, [4], [4])  # builds the kernel's plan
    tracemalloc.start()
    try:
        centered_moments(k, rho_75, [200], [4])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    band_array = 16 * (2 * k.r + 1) * 101 ** 2
    assert peak <= 7 * band_array, peak / band_array


def test_finite_law_keeps_its_dense_memory_within_one_chunk(rho_75):
    """n = 200, two states, one dense block at a time: the peak is far below all blocks at once.

    The blocks of n = 200 (201, 199, .., 1 levels) hold 1.37e6 complex
    entries, 21 MB dense; the largest alone holds 201^2, 0.65 MB.
    """
    k = goodness_kernel(rho_75)
    weights = [np.array([0.75, 0.25]), np.array([0.6, 0.4])]
    finite_law(k, weights, [4])  # builds the kernel's plan
    tracemalloc.start()
    try:
        finite_law(k, weights, [200])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak / 2 ** 20


def test_probability_check_gives_the_bits_of_the_per_array_check():
    """Every state's law, checked as one row of the one-law check, equals the per-array check.

    Laws with exact zeros, with entries just below 0 (clipped), and with
    a deficit or an entry beyond the tolerance (the same error) are all
    compared bit for bit; the laws of a case are cut from one array.
    """
    rng = np.random.default_rng(53)
    raised = 0
    for case in range(300):
        sizes = rng.integers(1, 12, size=int(rng.integers(1, 6)))
        bounds = [0, *np.cumsum(sizes).tolist()]
        probs = rng.random((int(rng.integers(1, 4)), bounds[-1]))
        zero = rng.random(probs.shape) < 0.2
        zero[:, bounds[:-1]] = False  # no law is all zeros
        probs[zero] = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            probs[:, lo:hi] /= probs[:, lo:hi].sum(axis=1, keepdims=True)
        negative = zero & (rng.random(probs.shape) < 0.5)
        probs[negative] = -1e-12 * rng.random(int(negative.sum()))
        if case % 10 == 0:
            probs[0, bounds[-2]:] *= 1.0 + 1e-9
        if case % 10 == 5:
            probs[-1, 0] = -1e-9
        want = []
        try:
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                want.append([checked_probabilities(p[lo:hi]) for p in probs])
        except ToleranceError as exc:
            with pytest.raises(ToleranceError) as got:
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    _checked_probabilities(probs[:, lo:hi])
            assert str(got.value) == str(exc)
            raised += 1
            continue
        got = [_checked_probabilities(probs[:, lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert [[p.tobytes() for p in law] for law in got] == [
            [p.tobytes() for p in law] for law in want]
    assert raised == 60


def _dense_law(kernel, rho, n):
    """Atoms of U_n and their Born weights under rho^{otimes n}, from the dense statistic."""
    vals, vecs = np.linalg.eigh(assemble_direct(kernel, n).op.entries)
    state = tensor_power_state(rho, n)
    return vals, np.real(np.einsum("ik,ij,jk->k", vecs.conj(), state, vecs))


def _assert_same_law(atoms, probs, vals, dense, msg):
    """Equal CDFs at every distinct dense atom, and equal moments up to order 4."""
    last_of_cluster = np.append(np.diff(vals) > 1e-8, True)
    for x in vals[last_of_cluster]:
        np.testing.assert_allclose(
            probs[atoms <= x + 1e-9].sum(), dense[vals <= x + 1e-9].sum(),
            rtol=0.0, atol=1e-10, err_msg=msg,
        )
    for power in range(1, 5):
        np.testing.assert_allclose(probs @ atoms ** power, dense @ vals ** power,
                                   rtol=1e-10, atol=1e-12, err_msg=msg)


def test_finite_law_matches_dense_spectrum(rho_75, rho_d3):
    """Block atoms and Born weights give the law of the dense statistic."""
    rng = np.random.default_rng(29)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    diagonal = [rho_75, DensityMatrix.from_eigenvalues([0.9, 0.1]),
                DensityMatrix.from_eigenvalues([1.0, 0.0])]
    pure = DensityMatrix.from_eigenvalues([0.0, 1.0])
    rotated = DensityMatrix.from_eigenvalues([0.7, 0.3], rotation=u)
    kernels = [_random_symmetric_kernel(rng, r) for r in (1, 2, 3)] + [
        goodness_kernel(rho_75)]
    for k in kernels:
        for n in sorted({k.r, 5, 8}):
            # several states in one call share the blocks
            ((atoms, probs),) = finite_law(k, [np.real(np.diag(s.entries)) for s in diagonal], [n])
            for rho, p in zip(diagonal, probs):
                _assert_same_law(atoms, p, *_dense_law(k, rho, n),
                                 msg="r=%d n=%d diagonal" % (k.r, n))
            # a pure state alone weighs one block
            ((atoms, (p,)),) = finite_law(k, [np.array([0.0, 1.0])], [n])
            assert len(atoms) == n + 1
            _assert_same_law(atoms, p, *_dense_law(k, pure, n), msg="r=%d n=%d pure" % (k.r, n))
            ((atoms, (p,)),) = finite_law(k.rotated(rotated.frame), [rotated.eigenvalues], [n])
            _assert_same_law(atoms, p, *_dense_law(k, rotated, n),
                             msg="r=%d n=%d rotated" % (k.r, n))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    qutrit = DensityMatrix.from_eigenvalues([0.5, 0.3, 0.2], rotation=q)
    k = goodness_kernel(rho_d3)
    ((atoms, (p,)),) = finite_law(k.rotated(qutrit.frame), [qutrit.eigenvalues], [4])
    _assert_same_law(atoms, p, *_dense_law(k, qutrit, 4), msg="qutrit rotated")


def test_finite_law_one_call_equals_one_call_per_n(paulis):
    """Every n of one call gives the bits of one call per n, for every state."""
    sx, _, sz = paulis
    rng = np.random.default_rng(31)
    states = [np.array([0.75, 0.25]), np.array([1.0, 0.0]), np.array([0.9, 0.1])]
    for k in (_random_symmetric_kernel(rng, 3), symmetrize_kernel([sz, sx])):
        ns = [9, 3, 6, 9]
        together = finite_law(k, states, ns)
        for n, (atoms, probs) in zip(ns, together):
            ((alone_atoms, alone_probs),) = finite_law(k, states, [n])
            assert np.array_equal(atoms, alone_atoms)
            assert all(np.array_equal(p, q) for p, q in zip(probs, alone_probs))


def _assert_laws_equal(laws, reference, msg):
    assert len(laws) == len(reference), msg
    for (atoms, probs), (want_atoms, want_probs) in zip(laws, reference):
        assert np.array_equal(atoms, want_atoms), msg
        assert len(probs) == len(want_probs), msg
        assert all(np.array_equal(p, q) for p, q in zip(probs, want_probs)), msg


def test_finite_law_stacks_give_the_bits_of_one_block_at_a_time(paulis):
    """The laws of one call equal the per-block oracle bit for bit."""
    sx, _, sz = paulis
    rng = np.random.default_rng(41)
    kernels = [_random_symmetric_kernel(rng, r) for r in (1, 2, 3)] + [
        symmetrize_kernel([sz, sx])]
    # two diagonal states, which keep every block, and a pure one, which keeps one
    states = [np.array([0.75, 0.25]), np.array([0.9, 0.1]), np.array([0.0, 1.0])]
    for k in kernels:
        for ns in ([4, 5, 6, 8, 10, 11], [9, 3, 6, 9]):
            _assert_laws_equal(finite_law(k, states, ns), per_block_law(k, states, ns),
                               "r=%d ns=%r" % (k.r, ns))


def test_finite_law_takes_one_eigh_per_kept_block(monkeypatch, paulis):
    """n = 4, 6, 8, 10 have 18 spin blocks: 18 eigh calls, each on one 2-D block."""
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    shapes = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    ns = [4, 6, 8, 10]
    finite_law(k, [np.array([0.75, 0.25]), np.array([0.6, 0.4])], ns)
    assert shapes == [(size, size) for n in ns for size in range(n + 1, 0, -2)]
    assert len(shapes) == 18
    # a pure state weighs one block of each n
    shapes.clear()
    finite_law(k, [np.array([1.0, 0.0])], ns)
    assert shapes == [(n + 1, n + 1) for n in ns]


def test_finite_law_names_an_n_whose_blocks_no_state_weighs(paulis):
    sx, _, sz = paulis
    k = symmetrize_kernel([sz, sx])
    for weights in ([np.zeros(2)], [np.zeros(2), np.zeros(2)]):
        with pytest.raises(ValidationError, match=r"^no state weighs a spin block at n=4: "):
            finite_law(k, weights, [4, 6])
    # one state that weighs nothing next to one that does: its law is deficient
    with pytest.raises(ToleranceError, match="measurement probabilities deficient by 1.000e"):
        finite_law(k, [np.zeros(2), np.array([1.0, 0.0])], [4])


def test_second_moment_identity_for_degenerate_pair_kernel(rho_75, paulis):
    sx, sy, _ = paulis
    k = symmetrize_kernel([sx, sy])
    for n, (m2,) in zip((4, 8, 12), centered_moments(k, rho_75, (4, 8, 12), [2])):
        m2 *= float(n - 1) ** 2
        expected = 2.0 * (n - 1) / n * 0.625
        np.testing.assert_allclose(m2, expected, rtol=1e-12)


def test_fluctuation_form_structure():
    form = fluctuation_form(2)
    assert any(kind == "F" for term in form.terms for kind, _ in term.symbols)
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


def test_fluctuation_requires_factors_of_the_state_size(rho_75, paulis):
    _, _, sz = paulis
    with pytest.raises(ValidationError, match="factor 2 is not 2 x 2"):
        assemble_fluctuation([sz - 0.5 * np.eye(2), np.diag([1.0, -1.0, 0.0])], rho_75, 4)


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
    ((exact,),) = centered_moments(k, rho_75, [n], [2])
    exact *= (float(n) ** 0.5) ** 2
    h = np.array([[1.0, -1.0], [-1.0, 1.0]])
    estimate, se = classical_mc_oracle(
        h, np.array([0.75, 0.25]), n, 2, replicates=200000, seed=99, scale_exponent=1
    )
    assert abs(estimate - exact) < 3.0 * se
