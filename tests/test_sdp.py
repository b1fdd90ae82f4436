"""Unit tests for the interior-point SDP solver."""

import numpy as np
import pytest
import scipy.optimize

from entcert import sdp

import oracles


def _sym(a):
    return 0.5 * (a + a.T)


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _random_hermitian(rng, n):
    return _herm(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def _embed(h):
    """Real symmetric embedding [[Re H, -Im H], [Im H, Re H]]: it has the
    eigenvalues of H, each twice, so it is PSD exactly when H is."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def _random_program(rng, m=5, nblocks=2, n=4, box=10.0, hermitian=False):
    c = rng.normal(size=m)
    y0 = rng.normal(size=m) * 0.3
    blocks = []
    for _ in range(nblocks):
        if hermitian:
            fs = np.array([_random_hermitian(rng, n) for _ in range(m)])
        else:
            fs = np.array([_sym(rng.normal(size=(n, n))) for _ in range(m)])
        f0 = np.tensordot(y0, fs, axes=(0, 0)) + np.eye(n) * (0.5 + rng.uniform())
        blocks.append((f0, fs))
    matrix_blocks = list(blocks)
    for j in range(m):
        e = np.zeros((m, 1, 1))
        e[j, 0, 0] = 1.0
        blocks.append((np.array([[box]]), e))
        blocks.append((np.array([[box]]), -e))
    return c, blocks, matrix_blocks, y0


# ---------------------------------------------------------------------------
# toy programs


def test_scalar_bound_toy():
    prog = sdp.ConicProgram(
        [1.0], [(np.eye(2), np.array([[[1.0, 0.0], [0.0, -1.0]]]))]
    )
    # gap_tol is relative to 1 + |objectives|; tighten it so the absolute
    # objective error stays below the 1e-7 asserted here
    sol = sdp.solve(prog, gap_tol=1e-9)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-7
    assert sol.duality_gap < 1e-7


def test_separable_toy_scalar_blocks():
    blocks = [
        (np.array([[1.0]]), np.array([[[1.0]], [[0.0]]])),
        (np.array([[1.0]]), np.array([[[0.0]], [[1.0]]])),
        (np.array([[1.0]]), np.array([[[-1.0]], [[0.0]]])),
        (np.array([[1.0]]), np.array([[[0.0]], [[-1.0]]])),
    ]
    sol = sdp.solve(sdp.ConicProgram([1.0, 1.0], blocks), gap_tol=1e-9)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 2.0) < 1e-7


def test_separable_toy_single_diagonal_block():
    fs = np.zeros((2, 4, 4))
    fs[0] = np.diag([1.0, 0.0, -1.0, 0.0])
    fs[1] = np.diag([0.0, 1.0, 0.0, -1.0])
    sol = sdp.solve(sdp.ConicProgram([1.0, 1.0], [(np.eye(4), fs)]), gap_tol=1e-9)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 2.0) < 1e-7


def test_equality_constrained_toy():
    prog = sdp.ConicProgram(
        [1.0, 0.0],
        [
            (np.array([[1.0]]), np.array([[[0.0]], [[1.0]]])),
            (np.array([[5.0]]), np.array([[[-1.0]], [[0.0]]])),
        ],
        equalities=(np.array([[1.0, -1.0]]), np.array([0.0])),
    )
    sol = sdp.solve(prog)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-6
    assert np.allclose(sol.y_star, [1.0, 1.0], atol=1e-5)


def test_infeasible_program_detected():
    prog = sdp.ConicProgram(
        [1.0],
        [
            (np.array([[-1.0]]), np.array([[[1.0]]])),
            (np.array([[0.0]]), np.array([[[-1.0]]])),
        ],
    )
    assert sdp.solve(prog).status == "infeasible"


def test_unbounded_program_reported_infeasible():
    # dual side has no feasible certificate, objective diverges
    prog = sdp.ConicProgram([1.0], [(np.array([[1.0]]), np.array([[[-1.0]]]))])
    assert sdp.solve(prog).status == "infeasible"


# ---------------------------------------------------------------------------
# cross-checks against independent solvers


def test_diagonal_program_matches_linprog():
    rng = np.random.default_rng(19)
    m, k = 6, 12
    amat = rng.normal(size=(k, m))
    y0 = rng.normal(size=m) * 0.2
    f0 = amat @ y0 + rng.uniform(0.1, 1.0, size=k)
    c = rng.normal(size=m)
    fs = np.zeros((m, k, k))
    for j in range(m):
        fs[j] = np.diag(amat[:, j])
    blocks = [(np.diag(f0), fs)]
    for j in range(m):
        e = np.zeros((m, 1, 1))
        e[j, 0, 0] = 1.0
        blocks.append((np.array([[2.0]]), e))
        blocks.append((np.array([[2.0]]), -e))
    sol = sdp.solve(sdp.ConicProgram(c, blocks))
    ref = scipy.optimize.linprog(
        -c, A_ub=amat, b_ub=f0, bounds=[(-2.0, 2.0)] * m, method="highs"
    )
    assert sol.status == "optimal" and ref.success
    assert abs(sol.objective_value - (-ref.fun)) < 1e-6


def test_random_programs_match_cutting_plane_oracle():
    rng = np.random.default_rng(101)
    for _ in range(5):
        c, blocks, matrix_blocks, y0 = _random_program(rng)
        sol = sdp.solve(sdp.ConicProgram(c, blocks))
        assert sol.status == "optimal"
        lo, hi, _ = oracles.cutting_plane_maximize(
            c, matrix_blocks, box=10.0, interior=y0
        )
        assert lo - 1e-4 <= sol.objective_value <= hi + 1e-4


def test_solution_invariant_under_reordering():
    rng = np.random.default_rng(23)
    c, blocks, _, _ = _random_program(rng)
    base = sdp.solve(sdp.ConicProgram(c, blocks))
    perm = rng.permutation(len(c))
    blocks_p = [(f0, fs[perm]) for f0, fs in blocks]
    order = rng.permutation(len(blocks_p))
    blocks_p = [blocks_p[i] for i in order]
    moved = sdp.solve(sdp.ConicProgram(np.asarray(c)[perm], blocks_p))
    assert moved.status == "optimal"
    assert abs(moved.objective_value - base.objective_value) < 1e-6
    assert np.allclose(moved.y_star[np.argsort(perm)], base.y_star, atol=1e-5)


# ---------------------------------------------------------------------------
# certificates and iterate invariants


def test_certificate_reverifies_by_eigendecomposition():
    rng = np.random.default_rng(29)
    c, blocks, _, _ = _random_program(rng)
    prog = sdp.ConicProgram(c, blocks)
    sol = sdp.solve(prog)
    report = sdp.verify_solution(prog, sol)
    assert report["psd_ok"]
    assert report["slack_min_eig"] > -1e-9
    assert report["certificate_min_eig"] > -1e-9
    assert report["moment_residual"] < 1e-6
    assert report["weak_duality_ok"]
    assert report["dual_objective"] >= report["primal_objective"] - 1e-9


def test_iterates_keep_positive_gap():
    rng = np.random.default_rng(31)
    c, blocks, _, _ = _random_program(rng, m=4, n=3)
    sol = sdp.solve(sdp.ConicProgram(c, blocks))
    assert sol.status == "optimal"
    assert len(sol.info["history"]) == sol.iterations
    for rec in sol.info["history"]:
        assert rec["mu"] > 0.0
        assert rec["gap_abs"] > 0.0


def test_gap_tolerance_is_configurable():
    prog = sdp.ConicProgram(
        [1.0], [(np.eye(2), np.array([[[1.0, 0.0], [0.0, -1.0]]]))]
    )
    loose = sdp.solve(prog, gap_tol=1e-3, feas_tol=1e-3)
    tight = sdp.solve(prog, gap_tol=1e-9, feas_tol=1e-9)
    assert loose.iterations <= tight.iterations
    assert abs(tight.objective_value - 1.0) < 1e-8


def test_max_iterations_status():
    rng = np.random.default_rng(37)
    c, blocks, _, _ = _random_program(rng)
    sol = sdp.solve(sdp.ConicProgram(c, blocks), max_iter=3)
    assert sol.status == "max_iterations"
    assert np.all(np.isfinite(sol.y_star))


# ---------------------------------------------------------------------------
# validation


def test_program_validation():
    with pytest.raises(ValueError):
        sdp.ConicProgram([1.0], [(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((1, 2, 2)))])
    with pytest.raises(ValueError):
        sdp.ConicProgram([1.0], [(np.eye(2), np.zeros((2, 2, 2)))])
    with pytest.raises(ValueError):
        sdp.ConicProgram([], [])


def test_program_rejects_non_hermitian_complex():
    # complex symmetric is not Hermitian
    f = np.array([[[0.0, 1j], [1j, 0.0]]])
    with pytest.raises(ValueError, match="Hermitian"):
        sdp.ConicProgram([1.0], [(np.eye(2), f)])
    with pytest.raises(ValueError, match="Hermitian"):
        sdp.ConicProgram([1.0], [(np.array([[1.0, 1j], [1j, 1.0]]), np.zeros((1, 2, 2)))])


# ---------------------------------------------------------------------------
# complex Hermitian blocks


def test_hermitian_shift_reaches_min_eigenvalue():
    # max y s.t. A - y I >= 0 is the smallest eigenvalue of A
    rng = np.random.default_rng(43)
    for n in (2, 5):
        a = _random_hermitian(rng, n)
        prog = sdp.ConicProgram([1.0], [(a, np.eye(n)[None])])
        assert prog.blocks[0][0].dtype == complex
        sol = sdp.solve(prog, gap_tol=1e-9)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - np.linalg.eigvalsh(a)[0]) < 1e-7
        assert sol.dual_certificate[0].dtype == complex
        report = sdp.verify_solution(prog, sol)
        assert report["psd_ok"] and report["weak_duality_ok"]


def test_complex_program_matches_its_real_embedding():
    rng = np.random.default_rng(47)
    c, blocks, _, _ = _random_program(rng, hermitian=True)
    embedded = [(_embed(f0), np.array([_embed(f) for f in fs])) for f0, fs in blocks]
    prog = sdp.ConicProgram(c, blocks)
    native = sdp.solve(prog)
    real = sdp.solve(sdp.ConicProgram(c, embedded))
    assert native.status == real.status == "optimal"
    assert max(prog.block_sizes) == 4
    assert abs(native.objective_value - real.objective_value) < 1e-6
    report = sdp.verify_solution(prog, native)
    assert report["psd_ok"] and report["weak_duality_ok"]
    assert report["moment_residual"] < 1e-6
