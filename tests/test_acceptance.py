"""Acceptance suite: one test per published verification criterion.

Each test prints through the terminal summary hook in conftest.py as a
single criterion line.  Tests compute every clause of their criterion and
fail with an aggregate message naming the clauses that missed, so a red
line always carries the measured numbers.
"""

import itertools
import json
import time

import numpy as np
import pytest

from qustat import (
    DensityMatrix,
    Kernel,
    assemble_direct,
    assemble_fluctuation,
    build_ccr_basis,
    centered_moments,
    cond_expectation,
    fock_moments,
    goodness_kernel,
    hermite_orthogonality_check,
    hoeffding_project,
    kernel_components,
    kernel_to_limit,
    limit_moment,
    metrology_overlap,
    quasifree_moment_wick,
    run_test,
    symmetrize_kernel,
    variance_exact,
    variance_formula,
)
from qustat.ccr import _oscillator_form
from qustat.cli import run as cli_run
from qustat.operators import hermitize, tensor_weights

from oracles import classical_mc_oracle, site_permute, tensor_power_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

RHO_75 = DensityMatrix.from_eigenvalues([0.75, 0.25])


def _random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h)


def _random_state(rng, d, min_gap=0.05):
    while True:
        lam = np.sort(rng.random(d) + 0.5)[::-1]
        lam = lam / lam.sum()
        if np.min(lam[:-1] - lam[1:]) >= min_gap and lam[-1] >= min_gap:
            break
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return DensityMatrix.from_eigenvalues(lam, rotation=q)


def test_criterion_01():
    """Component orthogonality, resolution, and the conditioning tower."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    n = 4
    subsets = []
    for size in range(n + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), size))
    for d in (2, 3):
        rho = _random_state(rng, d)
        big = tensor_power_state(rho, n)
        hs = [_random_hermitian(rng, d ** n) for _ in range(20)]
        proj = [
            {a: hoeffding_project(h, a, rho).entries for a in subsets}
            for h in hs
        ]
        cond = [
            {a: cond_expectation(h, a, rho).entries for a in subsets}
            for h in hs
        ]
        weighted = [{a: big @ p[a] for a in subsets} for p in proj]
        norms = [
            {a: np.sqrt(max(np.trace(weighted[i][a] @ proj[i][a]).real, 0.0))
             for a in subsets}
            for i in range(len(hs))
        ]
        pairs = [(i, i) for i in range(len(hs))]
        pairs += [(i, i + 1) for i in range(len(hs) - 1)]
        worst_orth = 0.0
        for i, j in pairs:
            for a in subsets:
                for b in subsets:
                    if a == b:
                        continue
                    inner = np.sum(weighted[i][a] * proj[j][b].T).real
                    scale = max(norms[i][a] * norms[j][b], 1e-300)
                    worst_orth = max(worst_orth, abs(inner) / scale)
        assert worst_orth < 1e-10, (
            "components of distinct supports are not orthogonal: "
            "worst normalized inner product %.3e at d=%d" % (worst_orth, d)
        )
        worst_res = 0.0
        for i in range(len(hs)):
            for a in subsets:
                total = np.zeros_like(cond[i][a])
                for b in subsets:
                    if set(b) <= set(a):
                        total += proj[i][b]
                worst_res = max(worst_res, np.abs(total - cond[i][a]).max())
        assert worst_res < 1e-10, (
            "summed components do not rebuild the conditional expectation: "
            "worst entry gap %.3e at d=%d" % (worst_res, d)
        )
        worst_tower = 0.0
        for i in range(len(hs)):
            for a in subsets:
                for b in subsets:
                    ab = tuple(sorted(set(a) & set(b)))
                    twice = cond_expectation(cond[i][b], a, rho).entries
                    worst_tower = max(
                        worst_tower, np.abs(twice - cond[i][ab]).max()
                    )
        assert worst_tower < 1e-10, (
            "iterated conditioning does not collapse to the intersection: "
            "worst entry gap %.3e at d=%d" % (worst_tower, d)
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "criterion 1 runtime %.1f s exceeds 60 s" % elapsed


def test_criterion_02():
    """Variance identity: dense computation equals the component formula."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    raw = _random_hermitian(rng, 8)
    sym3 = np.zeros((8, 8), dtype=complex)
    for perm in itertools.permutations(range(3)):
        sym3 += site_permute(raw, 3, 2, perm)
    kernels = {
        "pair-xy": symmetrize_kernel([SX, SY]),
        "pair-xx+yy": Kernel(2, 2, hermitize(np.kron(SX, SX) + np.kron(SY, SY))),
        "pair-zz": Kernel(2, 2, hermitize(np.kron(SZ, SZ))),
        "random-r3": Kernel(2, 3, hermitize(sym3 / 6.0)),
    }
    for name, kernel in kernels.items():
        report = kernel_components(kernel, RHO_75)
        for n in range(kernel.r, 9):
            exact = variance_exact(assemble_direct(kernel, n), RHO_75)
            formula = variance_formula(report, n)
            rel = abs(exact - formula) / max(abs(exact), abs(formula), 1e-300)
            assert rel < 1e-9, (
                "variance routes disagree for %s at n=%d: %.17g vs %.17g"
                % (name, n, exact, formula)
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "criterion 2 runtime %.1f s exceeds 60 s" % elapsed


def test_criterion_03():
    """Direct subset sum equals the fluctuation-form assembly."""
    rng = np.random.default_rng(303)
    cases = [(2, RHO_75, 8), (3, DensityMatrix.from_eigenvalues([0.5, 0.3, 0.2]), 5)]
    for d, rho, n_max in cases:
        lam = np.real(np.diag(rho.entries))
        for l in (1, 2, 3):
            factors = []
            for _ in range(l):
                h = _random_hermitian(rng, d)
                h = h - np.dot(lam, np.diag(h).real) * np.eye(d)
                factors.append(h)
            kernel = symmetrize_kernel(factors)
            for n in range(l, n_max + 1):
                _, stat = assemble_fluctuation(factors, rho, n)
                direct = assemble_direct(kernel, n)
                gap = np.linalg.norm(stat.op.entries - direct.op.entries)
                scale = max(np.linalg.norm(direct.op.entries), 1e-300)
                assert gap / scale < 1e-9, (
                    "assembly routes disagree at d=%d l=%d n=%d: rel gap %.3e"
                    % (d, l, n, gap / scale)
                )


def test_criterion_04():
    """Doubly degenerate pair kernel: exact moments approach the limit law."""
    t0 = time.monotonic()
    kernel = symmetrize_kernel([SX, SY])
    report = kernel_components(kernel, RHO_75)
    basis = build_ccr_basis(RHO_75)
    limit = kernel_to_limit(kernel, report, basis)

    lim2_wick = limit_moment(limit, basis, 2, method="wick")
    lim2_fock = limit_moment(limit, basis, 2, method="fock")
    assert abs(lim2_wick - 1.25) < 1e-9
    assert abs(lim2_fock - 1.25) < 1e-6

    gaps2 = []
    ns = range(4, 13)
    for n, (m2,) in zip(ns, centered_moments(kernel, RHO_75, ns, [2])):
        m2 *= float(n - 1) ** 2
        expected = 2.0 * (n - 1) / n * 0.625
        assert abs(m2 - expected) < 1e-10, (
            "second moment at n=%d is %.17g, expected %.17g" % (n, m2, expected)
        )
        gaps2.append(abs(m2 - 1.25))
    assert all(b < a for a, b in zip(gaps2, gaps2[1:])), (
        "second-moment gaps are not strictly decreasing: %r" % (gaps2,)
    )

    lim4 = limit_moment(limit, basis, 4, method="fock")
    gaps4 = []
    for n, (m4,) in zip((6, 8, 10), centered_moments(kernel, RHO_75, (6, 8, 10), [4])):
        m4 *= float(n) ** 4
        gaps4.append(abs(m4 - lim4))
    assert all(b < a for a, b in zip(gaps4, gaps4[1:])), (
        "fourth-moment gaps are not strictly decreasing: %r" % (gaps4,)
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, "criterion 4 runtime %.1f s exceeds 300 s" % elapsed


def test_criterion_05():
    """Exchange kernel limit is the centered number operator form."""
    kernel = Kernel(2, 2, hermitize(np.kron(SX, SX) + np.kron(SY, SY)))
    report = kernel_components(kernel, RHO_75)
    basis = build_ccr_basis(RHO_75)
    limit = kernel_to_limit(kernel, report, basis)
    assert limit.c == 2
    assert limit.binom_factor == 1
    terms = dict(limit.terms)
    assert set(terms) == {(0, 2, 0), (0, 0, 2)}
    np.testing.assert_allclose(terms[(0, 2, 0)], 1.0, atol=1e-10)
    np.testing.assert_allclose(terms[(0, 0, 2)], 1.0, atol=1e-10)

    # On Fock space the polynomial He2(q) + He2(p) at unit variance is
    # exactly 4 (2 lambda - 1) (N - E(N)) with lambda = 0.75 and E(N) = 1/2,
    # on every kept level.
    levels = 32
    sigma_sq = basis.oscillator_pairs[0].sigma_sq
    np.testing.assert_allclose(sigma_sq, 1.0, atol=1e-12)
    built = _oscillator_form(1.0, 1.0, 0.0, sigma_sq, levels) - 2.0 * np.eye(levels)
    lam = 0.75
    mean_n = 0.5
    target = 4.0 * (2.0 * lam - 1.0) * np.diag(np.arange(levels) - mean_n)
    np.testing.assert_allclose(built, target, atol=1e-12)

    wick = limit_moment(limit, basis, 2, method="wick")
    fock = limit_moment(limit, basis, 2, method="fock")
    assert abs(wick - 3.0) < 1e-6 * 3.0
    assert abs(wick - fock) < 1e-6 * 3.0


def test_criterion_06():
    """Hermite forms are orthogonal to all lower symmetric monomials."""
    t0 = time.monotonic()
    worst = 0.0
    worst_at = None
    for sigma_sq in (0.75, 1.0, 2.0):
        for total in range(7):
            for n in range(total + 1):
                m = total - n
                res = hermite_orthogonality_check(n, m, sigma_sq)
                if res > worst:
                    worst, worst_at = res, (n, m, sigma_sq)
    assert worst < 1e-8, (
        "worst hermite orthogonality residual %.3e at (n, m, sigma_sq)=%r"
        % (worst, worst_at)
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, "criterion 6 runtime %.1f s exceeds 120 s" % elapsed


def test_criterion_07():
    """Wick pairing agrees with the normal-ordered Fock evaluation on random monomials."""
    rng = np.random.default_rng(707)
    rho = DensityMatrix.from_eigenvalues([0.5, 0.3, 0.2])
    basis = build_ccr_basis(rho)
    assert basis.n_symbols == 8
    checked = 0
    worst = 0.0
    while checked < 200:
        pool = rng.permutation(basis.n_symbols)[:4]
        degree = int(rng.integers(0, 7))
        mon = tuple(int(s) for s in rng.choice(pool, size=degree))
        wick = quasifree_moment_wick(mon, basis)
        fock = fock_moments({mon: 1.0}, basis, 1)[1]
        gap = abs(wick - fock)
        bound = max(1e-6 * max(abs(wick), abs(fock)), 1e-9)
        worst = max(worst, gap / bound)
        assert gap <= bound, (
            "routes disagree on monomial %r: wick %r fock %r" % (mon, wick, fock)
        )
        checked += 1
    assert worst <= 1.0


def test_criterion_08():
    """Simply degenerate kernel: Gaussian limit moments and the classical oracle."""
    kernel = Kernel(2, 2, hermitize(np.kron(SZ, SZ)))
    report = kernel_components(kernel, RHO_75)
    assert report.c == 1
    basis = build_ccr_basis(RHO_75)
    limit = kernel_to_limit(kernel, report, basis)
    assert abs(limit_moment(limit, basis, 2) - 0.75) < 1e-10
    assert abs(limit_moment(limit, basis, 4) - 1.6875) < 1e-10

    gaps2 = []
    gaps4 = []
    ns = range(4, 13)
    for n, (m2, m4) in zip(ns, centered_moments(kernel, RHO_75, ns, [2, 4])):
        m2, m4 = (n ** 0.5) ** 2 * m2, (n ** 0.5) ** 4 * m4
        gaps2.append(abs(m2 - 0.75))
        gaps4.append(abs(m4 - 1.6875))
    assert all(b < a for a, b in zip(gaps2, gaps2[1:])), (
        "second-moment gaps are not strictly decreasing: %r" % (gaps2,)
    )
    # The fourth-moment gap has a skewness-driven transient (the centered
    # one-site variable has third moment -0.75), with a single interior
    # maximum at n=8; past the transient it decreases strictly.
    peak = int(np.argmax(gaps4))
    assert peak == 4, "fourth-moment gap peak moved: %r" % (gaps4,)
    tail4 = gaps4[peak:]
    assert all(b < a for a, b in zip(tail4, tail4[1:])), (
        "fourth-moment gaps past the transient are not strictly "
        "decreasing: %r" % (gaps4,)
    )

    n = 8
    ((exact,),) = centered_moments(kernel, RHO_75, [n], [2])
    exact *= (float(n) ** 0.5) ** 2
    h = np.array([[1.0, -1.0], [-1.0, 1.0]])
    estimate, se = classical_mc_oracle(
        h, np.array([0.75, 0.25]), n, 2, replicates=10 ** 5, seed=88,
        scale_exponent=1,
    )
    assert abs(estimate - exact) <= 3.0 * se, (
        "oracle %.6g is more than 3 standard errors (%.2g) from exact %.6g"
        % (estimate, se, exact)
    )


def test_criterion_09():
    """Goodness-of-fit application: unbiasedness, degeneracy, level and power."""
    t0 = time.monotonic()
    failures = []
    kernel = goodness_kernel(RHO_75)

    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = g @ g.conj().T
        sigma = h / np.trace(h)
        mean = float(np.real(np.trace(np.kron(sigma, sigma) @ kernel.op.entries)))
        dist = float(np.sum(np.abs(sigma - RHO_75.entries) ** 2))
        worst = max(worst, abs(mean - dist))
    if worst >= 1e-10:
        failures.append(
            "unbiasedness identity violated: worst gap %.3e over 100 states"
            % worst
        )

    report = kernel_components(kernel, RHO_75)
    first_norm = float(np.sqrt(report.components[1].norm_sq))
    if first_norm >= 1e-10:
        failures.append(
            "first component does not vanish at the null: norm %.3e" % first_norm
        )
    if report.c != 2:
        failures.append("degeneracy order is %r, expected 2" % (report.c,))

    alternative = DensityMatrix.from_eigenvalues([0.6, 0.4])
    alpha_hat = None
    exact_betas = []
    ns = (4, 6, 8, 10)
    for n, result in zip(ns, run_test(RHO_75, 0.05, ns, alternative=alternative)):
        if n == 10:
            alpha_hat = result["alpha_hat"]
        # Exact acceptance probability under the alternative: Born weights
        # of sigma^{otimes n} on the eigenvalues of n U_n up to the upper end
        # of the interval, the default region.
        hi = result["interval"][1]
        vals, vecs = np.linalg.eigh(n * assemble_direct(kernel, n).op.entries)
        probs = np.einsum(
            "i,ik->k", tensor_weights(np.array([0.6, 0.4]), n), np.abs(vecs) ** 2
        )
        exact = float(probs[vals <= hi].sum())
        exact_betas.append(exact)
        se = max(result["beta_se"], 1e-4)
        if not abs(result["beta_hat"] - exact) < 4.0 * se:
            failures.append(
                "acceptance rate %.4f under diag(0.6, 0.4) at n=%d is more "
                "than 4 SE (%.1e) from the exact %.4f"
                % (result["beta_hat"], n, se, exact)
            )
        if not result["beta_hat"] < 1.0 - result["alpha_hat"]:
            failures.append(
                "test is biased at n=%d: acceptance %.4f under diag(0.6, 0.4) "
                "is not below the null acceptance %.4f"
                % (n, result["beta_hat"], 1.0 - result["alpha_hat"])
            )
    if not 0.02 <= alpha_hat <= 0.12:
        failures.append(
            "null rejection rate %.4f at n=10 is outside [0.02, 0.12]"
            % alpha_hat
        )
    if not exact_betas[-1] < exact_betas[0]:
        failures.append(
            "no power gain across n: exact acceptance under diag(0.6, 0.4) "
            "is %s for n = %s"
            % (", ".join("%.4f" % b for b in exact_betas),
               ", ".join(str(n) for n in ns))
        )

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, "criterion 9 runtime %.1f s exceeds 600 s" % elapsed
    if failures:
        pytest.fail(
            "criterion 9 checks failed [%d]: " % len(failures)
            + "; ".join(failures)
        )


def test_criterion_10():
    """Metrology overlap approaches its Gaussian limit monotonically."""
    t0 = time.monotonic()
    kernel = symmetrize_kernel([SZ, SX])
    plus = DensityMatrix.from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    gaps = []
    for res in metrology_overlap(kernel, plus, 1.0, 0.5, 0.0, (4, 6, 8, 10)):
        np.testing.assert_allclose(res["limit"], np.exp(-0.03125), rtol=1e-12)
        gaps.append(abs(complex(res["overlap_re"], res["overlap_im"]) - res["limit"]))
    assert len(gaps) == 4
    assert all(b < a for a, b in zip(gaps, gaps[1:])), (
        "overlap gaps are not strictly decreasing: %r" % (gaps,)
    )
    (same,) = metrology_overlap(kernel, plus, 1.0, 0.3, 0.3, (6,))
    assert same == {"n": 6, "overlap_re": 1.0, "overlap_im": 0.0, "limit": 1.0}
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, "criterion 10 runtime %.1f s exceeds 300 s" % elapsed


def test_criterion_11(tmp_path):
    """Re-running any experiment with the same config and seed is byte-identical."""
    configs = {
        "convergence": {
            "command": "convergence",
            "state": {"eigenvalues": [0.75, 0.25]},
            "kernel": {"preset": "pauli-xy"},
            "n_list": [4, 6],
            "p_list": [2],
        },
        "test-sim": {
            "command": "test-sim",
            "state": {"eigenvalues": [0.75, 0.25]},
            "alpha": 0.05,
            "n_list": [4],
            "mc_replicates": 2000,
            "limit_draws": 200000,
        },
    }
    for name, config in configs.items():
        cfg = tmp_path / ("%s.json" % name)
        cfg.write_text(json.dumps(config), encoding="utf-8")
        snapshots = []
        for rep in range(2):
            out = tmp_path / ("%s-%d" % (name, rep))
            cli_run(str(cfg), str(out))
            files = {}
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    files[str(path.relative_to(out))] = path.read_bytes()
            snapshots.append(files)
        assert set(snapshots[0]) == set(snapshots[1])
        for fname in snapshots[0]:
            assert snapshots[0][fname] == snapshots[1][fname], (
                "%s differs between identical runs of %s" % (fname, name)
            )
        assert "result.json" in snapshots[0]
        assert "manifest.json" in snapshots[0]
        assert any(f.startswith("tables") for f in snapshots[0])
