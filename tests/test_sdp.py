"""Unit tests for the interior-point SDP solver."""

import ctypes
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from entcert import bound, cli, pairs, sdp

import oracles
from test_bound import _x86_with_avx2


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


def test_infeasible_program_stalls():
    # y <= -1 and y >= 0: no y is feasible.  The solver seeks no Farkas
    # certificate; the gap converges while the scaled slack residual stays
    # parked near 1/3, so the solve stalls and is never reported optimal
    prog = sdp.ConicProgram(
        [1.0],
        [
            (np.array([[-1.0]]), np.array([[[1.0]]])),
            (np.array([[0.0]]), np.array([[[-1.0]]])),
        ],
    )
    sol = sdp.solve(prog)
    assert sol.status == "stalled"
    assert sol.iterations == 13
    assert sol.info["history"][-1]["res_slack"] > 0.3


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


@pytest.mark.parametrize("scalars", [0, 2], ids=["matrix", "matrix+scalars"])
def test_weak_duality_violation_first_iterate(scalars):
    # with F0 = -I the first iterate y = 0, X = I has primal 0 and dual
    # tr(F0 X) = -(block dimensions), with no roundoff in either; max_iter=1
    # returns it, so the violation is that dimension exactly
    n = 3
    blocks = [(-np.eye(n), np.eye(n)[None])]
    blocks += [(-np.eye(1), np.ones((1, 1, 1)))] * scalars
    sol = sdp.solve(sdp.ConicProgram([1.0], blocks), max_iter=1)
    assert sol.status == "max_iterations" and sol.iterations == 1
    assert np.all(sol.y_star == 0.0) and sol.objective_value == 0.0
    assert sol.info["dual_objective"] == -(n + scalars)
    assert sol.info["weak_duality_violation"] == n + scalars
    assert sol.info["ridge_retries"] == 0


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


@pytest.mark.parametrize("hermitian", [False, True])
def test_interior_start_reaches_the_default_optimum(hermitian):
    # y0 leaves (0.5 + u) I on every matrix block and box -+ y0_j on the
    # scalar ones, so it is strictly feasible.  The program translated by
    # y0 (z = y - y0, F0 -> F0 - sum_j y0_j Fj) starts its iteration there,
    # at z = 0, and must reach the same optimum and certificate
    rng = np.random.default_rng(31)
    c, blocks, _, y0 = _random_program(rng, hermitian=hermitian)
    moved = [(f0 - np.tensordot(y0, fs, axes=(0, 0)), fs) for f0, fs in blocks]
    assert all(np.linalg.eigvalsh(f0)[0] > 0.0 for f0, _ in moved)
    default = sdp.solve(sdp.ConicProgram(c, blocks))
    inside = sdp.solve(sdp.ConicProgram(c, moved))
    assert default.status == inside.status == "optimal"
    assert inside.info["history"][0]["primal_objective"] == 0.0
    scale = 1.0 + abs(default.objective_value)
    shift = float(c @ y0)
    assert abs(inside.objective_value + shift - default.objective_value) <= 1e-7 * scale
    back = sdp.SdpSolution(
        inside.y_star + y0,
        inside.objective_value + shift,
        inside.dual_certificate,
        inside.duality_gap,
        inside.status,
        inside.iterations,
        inside.info,
    )
    check = sdp.verify_solution(sdp.ConicProgram(c, blocks), back)
    assert check["psd_ok"] and check["weak_duality_ok"]


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


def test_unit_trace_fit_reaches_max_eigenvalue():
    # max tr(rho A) over density matrices rho = I/n + sum_k y_k B_k is the
    # largest eigenvalue of A; the unit trace needs no equality row
    rng = np.random.default_rng(53)
    for n in (2, 4):
        a = _random_hermitian(rng, n)
        rho0, basis = oracles.unit_trace_basis(n)
        c = np.real(np.einsum("kab,ba->k", basis, a))
        prog = sdp.ConicProgram(c, [(rho0, -basis)])
        sol = sdp.solve(prog, gap_tol=1e-9)
        assert sol.status == "optimal"
        value = sol.objective_value + np.trace(a).real / n
        assert abs(value - np.linalg.eigvalsh(a)[-1]) < 1e-6
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


# ---------------------------------------------------------------------------
# structured Schur assembly


def _rv(a):
    return np.ascontiguousarray(a).view(float).reshape(len(a), -1)


def _column_zoo(rng, n, hermitian):
    """(class, Fj) for every column class: zero, single diagonal entry, real
    and imaginary pairs, general pairs, two diagonal entries and dense
    matrices."""
    dtype = complex if hermitian else float

    def pair(p, q, v):
        f = np.zeros((n, n), dtype)
        f[p, q] = v
        f[q, p] = np.conj(v)
        return f

    diag = np.zeros((n, n), dtype)
    diag[1, 1] = rng.normal()
    two = np.zeros((n, n), dtype)
    two[0, 0], two[2, 2] = rng.normal(size=2)
    dense = _random_hermitian(rng, n) if hermitian else _sym(rng.normal(size=(n, n)))
    zoo = [
        ("zero", np.zeros((n, n), dtype)),
        ("pair", diag),
        ("pair", pair(0, 2, rng.normal())),
        ("dense", two),
        ("dense", dense),
        ("dense", pair(0, 1, 1.0) + pair(2, 3, -2.0)),
    ]
    if hermitian:
        zoo += [
            ("pair", pair(1, 3, 1j * rng.normal())),
            # a general v is dense: its pair entries would not be signed
            # real or imaginary parts of single W (x) W entries
            ("dense", pair(3, 0, rng.normal() + 1j * rng.normal())),
        ]
    return zoo


@pytest.mark.parametrize("ordering", ["runs", "mixed", "shuffled"])
@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_structured_schur_matches_dense(hermitian, ordering, monkeypatch):
    # the class-wise Schur complement, the pair-pair block gathered from
    # W (x) W and the dense columns through G^H Fj G for a factor G G^H = W
    # that is not Hermitian, equals R R^T, R the real view of T Fj T with
    # T = W^(1/2), and the real-view apply equals the tensordot it replaces;
    # columns of one class come in contiguous runs, as in the witness
    # program, pairs in one run between scattered dense and zero columns,
    # or shuffled
    rng = np.random.default_rng(61)
    n = 5
    zoo = [col for _ in range(4) for col in _column_zoo(rng, n, hermitian)]
    kinds = np.array([k for k, _ in zoo])
    if ordering == "runs":
        order = np.argsort(kinds, kind="stable")
    elif ordering == "mixed":
        rest = rng.permutation(np.flatnonzero(kinds != "pair"))
        order = np.insert(rest, 3, np.flatnonzero(kinds == "pair"))
    else:
        order = rng.permutation(len(zoo))
    kinds = kinds[order]
    fs = np.array([zoo[i][1] for i in order])
    m = len(fs)
    cone = sdp._MatrixCone(0, np.eye(n, dtype=fs.dtype), fs)
    assert np.array_equal(cone.pairs, np.flatnonzero(kinds == "pair"))
    assert np.array_equal(cone.dense, np.flatnonzero(kinds == "dense"))
    assert np.array_equal(cone.cols, np.concatenate([cone.pairs, cone.dense]))
    if ordering == "mixed":
        assert sdp._run(cone.pairs) is not None and sdp._run(cone.dense) is None

    a = _random_hermitian(rng, n) if hermitian else _sym(rng.normal(size=(n, n)))
    lam, u = np.linalg.eigh(a @ a.conj().T + 0.1 * np.eye(n))
    w = _herm((u * lam) @ u.conj().T)
    t = (u * np.sqrt(lam)) @ u.conj().T
    g = np.linalg.cholesky(w)

    def add(cone, schur):
        cone.add_pair_schur(schur, [w])
        cone.add_schur(schur, g, g.conj().T)

    schur = np.zeros((m, m))
    add(cone, schur)
    rows = _rv(t @ fs @ t)
    ref = rows @ rows.T
    assert np.max(np.abs(schur - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(schur, schur.T)

    # slices and np.ix_ add the same blocks, bit for bit, onto a nonzero
    # starting matrix
    start = _sym(rng.normal(size=(m, m)))
    sliced = start.copy()
    add(cone, sliced)
    monkeypatch.setattr(sdp, "_slot", lambda rows, cols: np.ix_(rows, cols))
    fancy = start.copy()
    add(sdp._MatrixCone(0, np.eye(n, dtype=fs.dtype), fs), fancy)
    assert np.array_equal(sliced, fancy)

    y = rng.normal(size=m)
    applied = np.tensordot(y, fs, axes=(0, 0))
    assert np.max(np.abs(cone.apply(y) - applied)) <= 1e-14 * np.max(np.abs(applied))


@pytest.mark.parametrize("program", ["witness", "witness-robust", "reconcile"])
def test_pipeline_schur_slots_are_slices(program, monkeypatch):
    # every class of every cone of the programs the bound pipeline builds is
    # one contiguous run of columns, so add_schur adds each block in place
    # through basic slices; a reordering of the program's variables that
    # scattered a class would fall back to np.ix_, ~9x slower on a 256 x 256
    # block, and no correctness test would notice
    cfg = replace(cli.ExperimentConfig(), n_max=2)
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = bound.MeasurementSet(ops, bound.simulate_expectations(state, ops))
    slots = []
    slot = sdp._slot

    def record(rows, cols):
        out = slot(rows, cols)
        if rows.size and cols.size:
            slots.append(out)
        return out

    monkeypatch.setattr(sdp, "_slot", record)
    cones = []

    class Recorded(sdp._MatrixCone):
        def __init__(self, *args):
            super().__init__(*args)
            cones.append(self)

    monkeypatch.setattr(sdp, "_MatrixCone", Recorded)
    if program == "reconcile":
        bound.reconcile_expectations(ms)
    else:
        # the robust program in the data's own coordinates, as the pipeline
        # builds it at this budget
        epsilon, cut = (1e-2, None) if program == "witness-robust" else (0.0, bound.GRAM_NULL_CUT)
        sdp.solve(bound._witness_program(ms, epsilon, cut)[0], max_iter=1)
    # the four class blocks of the witness program's block A, the pair-pair
    # blocks of I -+ H and the diagonal cone's block, which the robust
    # program has; the fit's state block is one dense run (I and the
    # windows' operators) beside the diagonal cone
    assert len(slots) == {"witness": 6, "witness-robust": 7, "reconcile": 2}[program]
    for out in slots:
        assert all(isinstance(s, slice) for s in out), out
    # every n x n witness cone takes each of the n^2 Hermitian basis
    # directions of H as a pair column, so the pair-pair tables, 4 npairs^2
    # entries, are never much smaller than W (x) W, n^4 entries, and the
    # pairs never pay to go dense
    n = ms.space.dim
    if program == "reconcile":
        (cone,) = cones
        assert cone.pairs.size == 0 and list(cone.dense) == list(range(len(cone.dense)))
        assert len(cone.dense) == 1 + bound._fit_windows(ms.matrices)[0].shape[1]
    else:
        assert len(cones) == 3
        for cone in cones:
            assert np.isin(np.arange(n * n), cone.pairs).all()


@pytest.mark.parametrize("m", [50, 300])
def test_cho_solve_matches_scipy(m):
    # the factor's upper triangle, in Fortran order, is scipy's dpotrf
    # factor of the transpose bit for bit, and numpy's own upper Cholesky
    # factor, the same dpotrf in the same runtime; its strict lower
    # triangle is not read.  It goes to two dtrsv calls, U^T z = b and then
    # U x = z, that give scipy's two dtrsv calls bit for bit and scipy's
    # dpotrs-based cho_solve to roundoff; factoring leaves the matrix as it
    # was and returns None for one that is not positive definite; a
    # non-finite right-hand side ends the solve as a numerical problem,
    # where cho_solve raises ValueError
    rng = np.random.default_rng(89)
    a = rng.normal(size=(m, m))
    spd = a @ a.T + m * np.eye(m)
    kept = spd.copy()
    factor = sdp._cho_factor(spd)
    assert np.array_equal(spd, kept)
    upper = np.triu(factor)
    ref, info = scipy.linalg.lapack.dpotrf(spd.T, lower=0)
    assert info == 0 and upper.tobytes(order="F") == ref.tobytes(order="F")
    assert upper.tobytes() == np.linalg.cholesky(spd, upper=True).tobytes()
    assert factor.flags.f_contiguous
    assert np.max(np.abs(upper.T @ upper - spd)) <= 1e-12 * np.max(np.abs(spd))
    b = rng.normal(size=m)
    x = sdp._cho_solve(factor, b)
    z = scipy.linalg.blas.dtrsv(factor, b, lower=0, trans=1)
    assert x.tobytes() == scipy.linalg.blas.dtrsv(factor, z, lower=0, trans=0).tobytes()
    ref = scipy.linalg.cho_solve((factor, False), b)
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
    b[m // 2] = np.nan
    with pytest.raises(sdp._NumericalProblem):
        sdp._cho_solve(factor, b)
    assert sdp._cho_factor(spd - 2 * m * np.eye(m)) is None


def test_cython_lapack_fallback_gives_the_same_bits(monkeypatch):
    # where numpy bundles no OpenBLAS, the lookup takes dpotrf from
    # scipy.linalg.cython_lapack and dtrsv from scipy.linalg.cython_blas,
    # with 32-bit Fortran integers; here they give the bits of numpy's
    # ILP64 routines
    rng = np.random.default_rng(90)
    a = rng.normal(size=(120, 120))
    spd = a @ a.T + 120 * np.eye(120)
    b = rng.normal(size=120)
    factor = sdp._cho_factor(spd)
    x = sdp._cho_solve(factor, b)
    dpotrf, dtrsv, fint = sdp._lapack(None)
    assert fint is ctypes.c_int
    monkeypatch.setattr(sdp, "_DPOTRF", dpotrf)
    monkeypatch.setattr(sdp, "_DTRSV", dtrsv)
    monkeypatch.setattr(sdp, "_FORTRAN_INT", fint)
    fallback = sdp._cho_factor(spd)
    assert fallback.tobytes(order="F") == factor.tobytes(order="F")
    assert sdp._cho_solve(fallback, b).tobytes() == x.tobytes()
    assert sdp._cho_factor(-spd) is None


def test_ridge_retry_factors_the_assembled_matrix(monkeypatch):
    # two identical F columns make every Schur complement singular; each
    # failed factorization is retried on the assembled matrix plus a ridge
    # on its diagonal, which a factor written into the matrix would spoil
    fs = np.array([np.diag([1.0, -1.0])] * 2)
    prog = sdp.ConicProgram([1.0, 1.0], [(np.eye(2), fs)])
    calls = []
    dpotrf = sdp._DPOTRF

    def record(uplo, n, a, lda, info):
        # a is the address of the Fortran-order matrix dpotrf factors
        data = ctypes.cast(a, ctypes.POINTER(ctypes.c_double))
        calls.append(np.ctypeslib.as_array(data, (n.value, n.value)).T.copy())
        dpotrf(uplo, n, a, lda, info)
        calls.append(info.value)

    monkeypatch.setattr(sdp, "_DPOTRF", record)
    sol = sdp.solve(prog, gap_tol=1e-9)
    assert sol.info["ridge_retries"] >= 1
    assert np.all(np.isfinite(sol.y_star))
    assert abs(sol.objective_value - 1.0) < 1e-7
    mats, infos = calls[::2], calls[1::2]
    assert sum(info > 0 for info in infos) == sol.info["ridge_retries"]
    first = next(i for i, info in enumerate(infos) if info > 0)
    expected = mats[first].copy()
    expected[np.diag_indices_from(expected)] += 1e-14 * (1.0 + np.max(np.diag(expected)))
    assert np.array_equal(mats[first + 1], expected)


def _table_witness_program():
    cfg = cli.ExperimentConfig()
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = bound.MeasurementSet(ops, bound.simulate_expectations(state, ops))
    return bound._witness_program(ms, 0.0, bound.GRAM_NULL_CUT)[0]


def test_solve_ignores_and_restores_caller_blas_threads(monkeypatch):
    # multithreaded OpenBLAS kernels round the Schur products differently
    # from one thread, so a solve left at the caller's thread count returns
    # another iterate on another machine; solve pins numpy's OpenBLAS, the
    # process's one runtime, to one thread and hands the caller's count
    # back, also after a failure
    if sdp._OPENBLAS is None:
        pytest.skip("numpy bundles no OpenBLAS")
    assert len(sdp._THREAD_CONTROLS) == 1
    ((get, put),) = sdp._THREAD_CONTROLS

    program = _table_witness_program()
    assert program.n_vars >= 300
    saved = get()
    try:
        sols = []
        for threads in (1, 2):
            put(threads)
            sols.append(sdp.solve(program, gap_tol=bound._WITNESS_GAP_TOL))
            assert get() == threads
        one, two = sols
        assert one.status == two.status == "optimal"
        assert one.iterations == two.iterations
        assert np.array_equal(one.y_star, two.y_star)

        inside = []

        def fail(error):
            def cho_solve(factor, rhs):
                inside.append(get())
                raise error

            return cho_solve

        # a numerical problem ends the solve with a status; any other error
        # propagates, and the count comes back either way
        monkeypatch.setattr(sdp, "_cho_solve", fail(sdp._NumericalProblem("injected")))
        assert sdp.solve(program).status == "numerical_failure"
        monkeypatch.setattr(sdp, "_cho_solve", fail(RuntimeError("injected")))
        with pytest.raises(RuntimeError):
            sdp.solve(program)
        assert inside == [1, 1]
        assert get() == 2
    finally:
        put(saved)


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("program", ["witness", "witness-scaled", "reconcile"])
def test_pair_tables_match_oracle(program, hermitian):
    # the pair-pair block gathered from W (x) W equals the complex per-entry
    # formula bit for bit on the columns of the witness program's blocks
    # H^T1 - sum nu_i M_i, I + H and I - H (unscaled, and Jacobi-scaled as
    # the solver scales them) and of the state-coordinate fit's state block
    # (oracles.state_coordinate_fit); the one gather of I + H and I - H
    # from W_1 (x) W_1 + W_2 (x) W_2 equals the sum of their per-cone
    # entries to roundoff, and so does the one gather of all three, block A
    # joining through the partial transpose
    rng = np.random.default_rng(79)
    d1, d2 = 2, 3
    n = d1 * d2
    basis = bound._hermitian_basis(n)
    if program == "reconcile":
        blocks = [-oracles.unit_trace_basis(n)[1]]
    else:
        herm = _random_hermitian if hermitian else lambda rng, n: _sym(rng.normal(size=(n, n)))
        dense = np.array([herm(rng, n) for _ in range(3)], dtype=complex)
        zeros = np.zeros_like(dense)
        blocks = [
            np.concatenate([-oracles._partial_transpose_first(basis, d1, d2), dense]),
            np.concatenate([basis, zeros]),
            np.concatenate([-basis, zeros]),
        ]
    if not hermitian:
        real = np.all([np.all(fs.imag == 0.0, axis=(1, 2)) for fs in blocks], axis=0)
        blocks = [fs[real].real for fs in blocks]
    m = len(blocks[0])
    if program == "witness-scaled":
        dvec = rng.uniform(0.1, 10.0, size=m)
        blocks = [fs * dvec[:, None, None] for fs in blocks]

    cones = [sdp._MatrixCone(k, np.eye(n, dtype=fs.dtype), fs) for k, fs in enumerate(blocks)]
    ws = []
    for _ in cones:
        a = _random_hermitian(rng, n) if hermitian else rng.normal(size=(n, n))
        lam, u = np.linalg.eigh(a @ a.conj().T + 0.1 * np.eye(n))
        ws.append(_herm((u * lam) @ u.conj().T))
    off_diagonal = n * n - n if hermitian else (n * n - n) // 2
    for cone, w in zip(cones, ws):
        p = cone.pairs
        assert p.size == (off_diagonal if program == "reconcile" else off_diagonal + n)
        schur = np.zeros((m, m))
        cone.add_pair_schur(schur, [w])
        ref = oracles.pair_schur_block(w, cone.r, cone.c, cone.v)
        assert np.array_equal(schur[np.ix_(p, p)], ref)
    if program != "reconcile":
        # I + H and I - H carry the same pairs with opposite signs, so I - H's
        # tables serve both; block A's pairs are theirs moved by the partial
        # transpose, so it shares no tables and joins their gather as its
        # image
        ((ref_cone, members, (image, sigma)),) = pairs.groups(cones)
        assert (ref_cone, members, image) == (1, [1, 2], 0)
        p = cones[1].pairs
        assert np.array_equal(cones[2].pairs, p)
        schur = np.zeros((m, m))
        cones[1].add_pair_schur(schur, ws[1:])
        ref = sum(oracles.pair_schur_block(w, c.r, c.c, c.v) for c, w in zip(cones[1:], ws[1:]))
        assert np.max(np.abs(schur[np.ix_(p, p)] - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(schur, schur.T)
        assert np.count_nonzero(schur) == np.count_nonzero(schur[np.ix_(p, p)])
        schur = np.zeros((m, m))
        cones[1].add_pair_schur(schur, ws[1:], image=(sigma, ws[0]))
        ref = sum(oracles.pair_schur_block(w, c.r, c.c, c.v) for c, w in zip(cones, ws))
        assert np.max(np.abs(schur[np.ix_(p, p)] - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(schur, schur.T)


def test_witness_program_gathers_i_minus_and_plus_h_once(monkeypatch):
    # the witness program's cones I - H and I + H share pair tables and
    # Schur columns, and block A's pairs are theirs moved by the partial
    # transpose, so each iteration gathers the pair-pair block of all three
    # once, from the sum of their W (x) W with block A's permuted
    calls = []
    add = sdp._MatrixCone.add_pair_schur

    def record(self, schur, wmats, ws=None, image=None):
        calls.append((self.index, len(wmats), image is not None))
        add(self, schur, wmats, ws, image)

    monkeypatch.setattr(sdp._MatrixCone, "add_pair_schur", record)
    for epsilon, cut in ((0.0, bound.GRAM_NULL_CUT), (1e-2, None)):
        calls.clear()
        sol = sdp.solve(_small_witness_program(2, epsilon, cut), max_iter=3)
        assert sol.iterations == 3
        assert calls == [(1, 2, True)] * 3


@pytest.mark.parametrize("epsilon", [0.0, 1e-2])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_merged_gather_gives_block_a_pair_block(n_max, epsilon):
    # block A's pair-pair block, gathered through I - H's tables from
    # sigma(W_A (x) W_A), equals the per-entry formula on A's own pairs
    # (r, c, v), as given and Jacobi-scaled; with zero W for I -+ H the
    # merged K is sigma(W_A (x) W_A) alone
    cut = bound.GRAM_NULL_CUT if epsilon == 0.0 else None
    program = _small_witness_program(n_max, epsilon, cut)
    rng = np.random.default_rng(109)
    n, m = program.block_sizes[0], program.n_vars
    dvec = rng.uniform(0.1, 10.0, size=m)
    for scale in (np.ones(m), dvec):
        cones = [
            sdp._MatrixCone(k, f0, fs * scale[:, None, None])
            for k, (f0, fs) in enumerate(program.blocks[:3])
        ]
        ((ref_cone, members, (image, sigma)),) = pairs.groups(cones)
        assert (ref_cone, members, image) == (1, [1, 2], 0)
        a = _random_hermitian(rng, n)
        w = _herm(a @ a.conj().T + 0.1 * np.eye(n))
        schur = np.zeros((m, m))
        zero = np.zeros_like(w)
        cones[1].add_pair_schur(schur, [zero, zero], image=(sigma, w))
        p, cone = cones[0].pairs, cones[0]
        ref = oracles.pair_schur_block(w, cone.r, cone.c, cone.v)
        assert np.max(np.abs(schur[np.ix_(p, p)] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("variant", ["sign", "diagonal"])
def test_cone_with_no_entry_map_gathers_alone(variant):
    # a cone on the Schur columns of I -+ H whose pairs are not theirs moved
    # by one entry map that commutes with transposition gathers alone, with
    # the bits of the per-entry formula: block A with one pair's sign
    # flipped (values beyond one common sign), or with a diagonal pair of
    # I - H sent to an off-diagonal entry of the same value
    program = _small_witness_program(1, 0.0, bound.GRAM_NULL_CUT)
    (f0, fs_a), (_, fs_b), (_, fs_c) = program.blocks[:3]
    n = f0.shape[0]
    fs_a = fs_a.copy()
    if variant == "sign":
        j = n  # the first off-diagonal real direction of H
        fs_a[j] = -fs_a[j]
    else:
        j = 0  # E_00 of H: A's column is -E_00, v = -1/2
        fs_a[j] = 0.0
        fs_a[j, 0, 1] = fs_a[j, 1, 0] = -0.5
    blocks = [fs_a, fs_b, fs_c]
    cones = [sdp._MatrixCone(k, f0, fs) for k, fs in enumerate(blocks)]
    assert np.array_equal(cones[0].pairs, cones[1].pairs)
    assert pairs.image_index(cones[1], cones[0]) is None
    assert pairs.groups(cones) == [[1, [1, 2], None], [0, [0], None]]
    rng = np.random.default_rng(113)
    a = _random_hermitian(rng, n)
    w = _herm(a @ a.conj().T + 0.1 * np.eye(n))
    schur = np.zeros((len(fs_a), len(fs_a)))
    cones[0].add_pair_schur(schur, [w])
    p, cone = cones[0].pairs, cones[0]
    assert np.array_equal(schur[np.ix_(p, p)], oracles.pair_schur_block(w, cone.r, cone.c, cone.v))


def _pd_matrix(rng, n, cond, hermitian):
    a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if hermitian else 0.0)
    q, _ = np.linalg.qr(a)
    m = (q * np.logspace(0.0, -np.log10(cond), n)) @ q.conj().T
    return _herm(m)


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_nt_scaling_identities(hermitian, cond):
    # from the Cholesky factors of X and S and one SVD: W = G G^H scales S
    # onto X, W S W = X, and G^H S G = G^-1 X G^-H = diag(d), on random
    # pairs whose condition numbers reach 1e12.  The step to the boundary
    # taken on the scaled point, from D^(-1/2) G^-1 dX G^-H D^(-1/2), is
    # the one from Lx^-1 dX Lx^-H, X = Lx Lx^H, the two being unitarily
    # similar, to far less than the 2 % the iteration keeps from it
    rng = np.random.default_rng(97)
    for _ in range(3):
        x, s = (_pd_matrix(rng, 8, cond, hermitian) for _ in range(2))
        sc = sdp._nt_scaling(x, s)
        g, w, d = sc["g"], sc["w"], sc["d"]
        assert np.array_equal(sc["gh"], g.conj().T) and np.array_equal(w, w.conj().T)
        assert np.all(d > 0.0)
        assert np.max(np.abs(w @ s @ w - x)) <= 1e-11 * np.max(np.abs(x))
        g_inv = np.linalg.inv(g)
        for scaled in (g.conj().T @ s @ g, g_inv @ x @ g_inv.conj().T):
            assert np.max(np.abs(scaled - np.diag(d))) <= 1e-11 * np.max(d)
        dx = _random_hermitian(rng, 8) if hermitian else _sym(rng.normal(size=(8, 8)))
        lx = np.linalg.cholesky(x)
        half = scipy.linalg.solve_triangular(lx, dx, lower=True)
        lmin = np.linalg.eigvalsh(_herm(scipy.linalg.solve_triangular(lx, half.conj().T, lower=True)))[0]
        step = sdp._max_step_psd(d, _herm(g_inv @ dx @ g_inv.conj().T))
        assert abs(step + 1.0 / lmin) <= (1e-12 + 1e-15 * cond) * step


def _trial_point(rng, n, hermitian, spread):
    # a scaled point D and scaled directions whose trial product at a = 0.7
    # has eigenvalues spread about 1 by the size of the directions
    d = rng.uniform(0.5, 2.0, n)
    dxh, dsh = (
        spread * (_random_hermitian(rng, n) if hermitian else _sym(rng.normal(size=(n, n))))
        for _ in range(2)
    )
    return d, dxh, dsh, 0.7


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_centring_is_zero_inside_the_band(hermitian):
    # a trial product whose eigenvalues all lie in [lo, hi] gets no
    # correction, to the last bit
    rng = np.random.default_rng(41)
    for _ in range(5):
        d, dxh, dsh, a = _trial_point(rng, 6, hermitian, 0.01)
        lam = np.linalg.eigvalsh(_herm((np.diag(d) + a * dxh) @ (np.diag(d) + a * dsh)))
        assert lam[0] > 0.0
        assert not np.any(sdp._centring(d, dxh, dsh, a, 0.5 * lam[0], 2.0 * lam[-1]))
    # the diagonal cone's elementwise part, the same way
    trial = rng.uniform(0.2, 5.0, 9)
    assert not np.any(sdp._clipped(trial, 0.1, 10.0))


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_centring_solves_the_lyapunov_equation(hermitian):
    # otherwise E solves (DE + ED)/2 = B entrywise, B the clipped part of
    # the trial product P, formed from the eigendecomposition the solver
    # takes; and P + B has each eigenvalue of P moved into [lo, hi],
    # lowered by at most hi
    rng = np.random.default_rng(43)
    lo, hi = 0.75, 1.25
    for _ in range(5):
        d, dxh, dsh, a = _trial_point(rng, 8, hermitian, 1.0)
        p = _herm((np.diag(d) + a * dxh) @ (np.diag(d) + a * dsh))
        lam, v = np.linalg.eigh(p)
        assert lam[0] < lo and lam[-1] > 2.0 * hi
        moved = np.maximum(np.clip(lam, lo, hi), lam - hi)
        b = (v * (moved - lam)) @ v.conj().T
        e = sdp._centring(d, dxh, dsh, a, lo, hi)
        assert np.max(np.abs(0.5 * (d[:, None] * e + e * d[None, :]) - b)) <= 1e-14
        assert np.allclose(np.linalg.eigvalsh(p + b), np.sort(moved), rtol=0.0, atol=1e-13)
    trial = np.array([-1.0, 0.5, 0.9, 1.1, 2.0, 5.0])
    assert np.array_equal(sdp._clipped(trial, lo, hi), [1.75, 0.25, 0.0, 0.0, -0.75, -1.25])


def test_history_records_steps_and_kept_correctors():
    # every iterate records the step taken from it, none from the last, and
    # whether the centrality corrector gave it; info["correctors"] counts
    # the kept ones, and the table's witness keeps some
    sol = sdp.solve(_table_witness_program())
    assert sol.status == sdp.STATUS_OPTIMAL
    history = sol.info["history"]
    assert len(history) == sol.iterations
    assert history[-1]["step"] == 0.0 and history[-1]["corrector"] is False
    assert all(0.0 < h["step"] <= 1.0 for h in history[:-1])
    assert sol.info["correctors"] == sum(h["corrector"] for h in history) > 0


def test_non_positive_definite_iterate_ends_with_the_best_iterate(monkeypatch):
    # an iterate whose Cholesky factorization fails ends the solve as a
    # numerical failure, with no fallback, and the solve returns the best
    # iterate so far: the one a solve capped at that iteration returns
    rng = np.random.default_rng(101)
    c, blocks, _, _ = _random_program(rng, nblocks=1, hermitian=True)
    program = sdp.ConicProgram(c, blocks)
    capped = sdp.solve(program, max_iter=4)
    scaling = sdp._nt_scaling
    calls = []

    def indefinite_fourth(x, s):
        calls.append(1)
        return scaling(-x if len(calls) == 4 else x, s)

    monkeypatch.setattr(sdp, "_nt_scaling", indefinite_fourth)
    sol = sdp.solve(program)
    assert sol.status == "numerical_failure" and sol.iterations == 4
    assert sol.info["detail"] == "iterate not positive definite"
    assert capped.status == "max_iterations"
    assert np.array_equal(sol.y_star, capped.y_star)
    for x, x_capped in zip(sol.dual_certificate, capped.dual_certificate):
        assert np.array_equal(x, x_capped)


def test_structured_schur_lp_rows_use_touched_columns():
    rng = np.random.default_rng(67)
    m, k = 9, 6
    w2 = rng.uniform(0.1, 10.0, size=k)
    # scattered untouched columns, then touched columns in one run
    for zero, touched in (([1, 4, 8], [0, 2, 3, 5, 6, 7]), ([0, 1, 8], [2, 3, 4, 5, 6, 7])):
        f = rng.normal(size=(k, m))
        f[:, zero] = 0.0
        lp = sdp._LpCone(rng.normal(size=k), f, np.zeros(m, dtype=bool))
        assert np.array_equal(lp.cols, touched)
        schur = np.zeros((m, m))
        lp.add_schur(schur, w2)
        ref = (f * w2[:, None]).T @ f
        assert np.max(np.abs(schur - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(schur, schur.T)
        y = rng.normal(size=m)
        assert np.max(np.abs(lp.apply(y) - f @ y)) <= 1e-14 * np.max(np.abs(f @ y))



@pytest.mark.parametrize("size", [3, 1], ids=["matrix", "scalar"])
def test_constant_block_leaves_solution_unchanged(size):
    # a block on which every Fj vanishes only asks F0 >= 0; with F0 = I the
    # program's optimum is that of the program without the block
    rng = np.random.default_rng(73)
    c, blocks, _, _ = _random_program(rng, hermitian=True)
    const = (np.eye(size), np.zeros((len(c), size, size)))
    prog = sdp.ConicProgram(c, blocks + [const])
    sol = sdp.solve(prog)
    ref = sdp.solve(sdp.ConicProgram(c, blocks))
    assert sol.status == ref.status == "optimal"
    assert abs(sol.objective_value - ref.objective_value) < 1e-6
    report = sdp.verify_solution(prog, sol)
    assert report["psd_ok"] and report["weak_duality_ok"]


def _random_pair_columns(rng, n, hermitian):
    """A zero column, then one pair column with a random value per entry
    (r, c), r <= c, in random order; complex data adds an imaginary pair on
    each off-diagonal entry, so a real and an imaginary pair share it."""
    entries = [(r, c, 1.0) for r in range(n) for c in range(r, n)]
    if hermitian:
        entries += [(r, c, 1j) for r in range(n) for c in range(r + 1, n)]
    fs = np.zeros((len(entries) + 1, n, n), dtype=complex if hermitian else float)
    for j, k in enumerate(rng.permutation(len(entries)), start=1):
        r, c, unit = entries[k]
        v = rng.normal() * unit
        fs[j, r, c] = v
        fs[j, c, r] = np.conj(v)
    return fs


def _dense_view(cone, fs):
    """The real view of the cone's nonzero columns fs[cone.cols], one row
    each: the product that the slot tables and the dense rows stand for."""
    return _rv(fs[cone.cols])


def _witness_and_reconcile_blocks(n_max):
    """The F arrays of the witness programs' blocks (A, I - H, I + H) at
    epsilon 0 and 1e-2 and of the state-coordinate fit's state block
    (oracles.state_coordinate_fit), at the table point's configuration
    with n_max photons."""
    cfg = replace(cli.ExperimentConfig(), n_max=n_max)
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = bound.MeasurementSet(ops, bound.simulate_expectations(state, ops))
    blocks = []
    for epsilon, cut in ((0.0, bound.GRAM_NULL_CUT), (1e-2, None)):
        blocks += [fs for _, fs in bound._witness_program(ms, epsilon, cut)[0].blocks[:3]]
    basis = oracles.unit_trace_basis(ms.space.dim)[1]
    return blocks + [np.concatenate([-basis, np.zeros_like(basis[:1])])]


@pytest.mark.parametrize("hermitian", [False, True], ids=["real", "complex"])
def test_pair_scatter_gives_the_product_bits(hermitian):
    # sum_j y_j Fj scatters y_j times each pair's values over its slots; in
    # a cone of pairs whose nonzeros fill distinct slots (I -+ H, as given
    # and Jacobi-scaled, and random pair cones) each off-diagonal slot gets
    # one term and a diagonal one two halves, y d/2 + y d/2 = round(y d), so
    # the sum has the bits of the product with the dense real view.  Block
    # A and the state-coordinate fit's state block mix pairs and dense rows:
    # apply and moments there equal the product to 1e-14
    rng = np.random.default_rng(83)
    scatter, mixed = [], []
    if hermitian:
        blocks = _witness_and_reconcile_blocks(2)
        for fs in blocks:
            dvec = rng.uniform(0.1, 10.0, size=len(fs))
            for scaled in (fs, fs * dvec[:, None, None]):
                cone = sdp._MatrixCone(0, np.eye(fs.shape[1], dtype=fs.dtype), scaled)
                (mixed if cone.dense.size else scatter).append((cone, scaled))
        assert len(scatter) == 8 and len(mixed) == 6
        # block A of the table point's robust rows: its 256 H columns go
        # through the slot tables, and only the 65 columns of nu keep a
        # real view
        fs_a = _witness_and_reconcile_blocks(3)[3]
        cone = sdp._MatrixCone(0, np.eye(16, dtype=complex), fs_a)
        assert cone.pairs.size == 256 and cone.slots.shape == (2, 256)
        assert cone.flat.shape == (65, 512) and cone.cols.size == 321
    for n in (3, 6):
        fs = _random_pair_columns(rng, n, hermitian)
        scatter.append((sdp._MatrixCone(0, np.eye(n, dtype=fs.dtype), fs), fs))
    for cone, fs in scatter + mixed:
        n, m = fs.shape[1], len(fs)
        view = _dense_view(cone, fs)
        for y in (np.zeros(m), rng.normal(size=m), -rng.exponential(size=m) * 1e8):
            ref = (y[cone.cols] @ view).view(fs.dtype).reshape(n, n)
            if cone.dense.size:
                assert np.max(np.abs(cone.apply(y) - ref)) <= 1e-14 * np.max(np.abs(ref))
            else:
                assert len(set(cone.slots.ravel().tolist())) == cone.slots.size - n
                assert np.array_equal(cone.apply(y), ref)
        x = _random_hermitian(rng, n) if hermitian else _sym(rng.normal(size=(n, n)))
        ref = view @ _rv(x).reshape(-1)
        assert np.max(np.abs(cone.moments(x) - ref)) <= 1e-14 * np.max(np.abs(ref))


# for exactly Hermitian X the two terms of a pair's moment are one product,
# a x + a x, which rounds to 2 round(a x) with or without FMA, so the pair
# moments have the bits of the dense product on any kernel
_PAIR_MOMENTS = """
import numpy as np
import test_sdp
from entcert import sdp
rng = np.random.default_rng(103)
checked = 0
for fs in test_sdp._witness_and_reconcile_blocks(3):
    dvec = rng.uniform(0.1, 10.0, size=len(fs))
    for scaled in (fs, fs * dvec[:, None, None]):
        cone = sdp._MatrixCone(0, np.eye(fs.shape[1], dtype=fs.dtype), scaled)
        view = test_sdp._dense_view(cone, scaled)[: cone.pairs.size]
        for _ in range(20):
            x = test_sdp._random_hermitian(rng, fs.shape[1])
            ref = view @ sdp._rv(x).reshape(-1)
            assert np.array_equal(cone.moments(x)[: cone.pairs.size], ref)
            checked += 1
print(checked)
"""


@pytest.mark.parametrize("kernel", ["native", "Haswell", "Sandybridge"])
def test_pair_moments_give_the_product_bits_on_every_kernel(kernel):
    # on the table point's witness cones and state-coordinate fit's state
    # block, as given and Jacobi-scaled, in a child process whose OpenBLAS
    # kernel is set
    if kernel != "native" and not _x86_with_avx2():
        pytest.skip("needs an x86-64 host with AVX2")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "native":
        env["OPENBLAS_CORETYPE"] = kernel
    run = subprocess.run(
        [sys.executable, "-c", _PAIR_MOMENTS], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    assert run.stdout.strip() == str(7 * 2 * 20)


def test_colliding_pair_slots_sum_every_term():
    # the P - rho^T1 block of the in-box state program: the partial
    # transpose of the state's off-diagonal directions lands on the slots
    # of P's basis, so pair columns share slots, and the scatter must add
    # every term, which a fancy-index += would not
    d1, d2 = 2, 3
    n = d1 * d2
    dirs = oracles.unit_trace_basis(n)[1]
    fs = np.concatenate([oracles._partial_transpose_first(dirs, d1, d2), -bound._hermitian_basis(n)])
    cone = sdp._MatrixCone(0, np.eye(n, dtype=complex), fs)
    slots = cone.slots.ravel().tolist()
    assert cone.dense.size and len(set(slots)) < len(slots) - n
    rng = np.random.default_rng(107)
    view = _dense_view(cone, fs)
    for _ in range(5):
        y = rng.normal(size=len(fs))
        ref = (y[cone.cols] @ view).view(complex).reshape(n, n)
        assert np.max(np.abs(cone.apply(y) - ref)) <= 1e-14 * np.max(np.abs(ref))
        x = _random_hermitian(rng, n) + rng.normal(size=(n, n))
        ref = view @ _rv(x).reshape(-1)
        assert np.max(np.abs(cone.moments(x) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_solve_leaves_program_data_unchanged():
    # exactly Hermitian data is kept as given, not copied, and the solver
    # writes to none of it
    rng = np.random.default_rng(89)
    c, blocks, _, _ = _random_program(rng, hermitian=True)
    prog = sdp.ConicProgram(c, blocks)
    assert all(f0 is b[0] and fs is b[1] for (f0, fs), b in zip(prog.blocks, blocks))
    cfg = replace(cli.ExperimentConfig(), n_max=2)
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = bound.MeasurementSet(ops, bound.simulate_expectations(state, ops))
    for program in (prog, bound._witness_program(ms, 1e-2, None)[0]):
        saved = [(f0.copy(), fs.copy()) for f0, fs in program.blocks]
        objective = program.objective.copy()
        sdp.solve(program)
        assert np.array_equal(program.objective, objective)
        for (f0, fs), (f0_saved, fs_saved) in zip(program.blocks, saved):
            assert np.array_equal(f0, f0_saved) and np.array_equal(fs, fs_saved)


def _small_witness_program(n_max, epsilon, cut):
    cfg = replace(cli.ExperimentConfig(), n_max=n_max)
    _, state, _ = cli.make_states(cfg)
    det = cli.make_detector(cfg)
    ops = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
    ms = bound.MeasurementSet(ops, bound.simulate_expectations(state, ops))
    return bound._witness_program(ms, epsilon, cut)[0]


def _lp_rows(program):
    """(f0, F, touched) of the program's 1x1 blocks as the solver groups
    them, unscaled, and the mask of the columns its matrix cones touch."""
    m = program.n_vars
    scalar = [(f0, fs) for f0, fs in program.blocks if f0.shape[0] == 1]
    f0 = np.array([f0[0, 0] for f0, _ in scalar])
    f = np.array([fs[:, 0, 0] for _, fs in scalar]).reshape(-1, m)
    touched = np.zeros(m, dtype=bool)
    for k, (b0, fs) in enumerate(program.blocks):
        if b0.shape[0] > 1:
            touched[sdp._MatrixCone(k, b0, fs).cols] = True
    return f0, f, touched


def test_box_elimination_matches_the_dense_newton_solve():
    # the robust witness in data coordinates: its box auxiliaries t~_i are
    # eliminated, so the Newton system is factored over the kept columns;
    # the eliminated solve equals a dense solve of the full m x m system,
    # the cones' part a random positive definite kept block, and each box
    # pair t~ -+ a nu leaves 4 a^2 w_a w_b / (w_a + w_b) on nu's diagonal
    program = _small_witness_program(2, 1e-2, None)
    f0, f, touched = _lp_rows(program)
    m, nt = program.n_vars, len(f) // 2
    lp = sdp._LpCone(f0, f, touched)
    kept = m - nt
    assert lp.kept == kept
    rng = np.random.default_rng(127)
    w2 = 10.0 ** rng.uniform(-4.0, 4.0, size=len(f))

    schur = np.zeros((kept, kept))
    lp.add_schur(schur, w2)
    # rows 2i and 2i + 1 are t~_i -+ a_i nu_i, a_i the datum
    a = np.abs(f[0::2, :kept]).sum(axis=1)
    nu = np.argmax(f[0::2, :kept] != 0.0, axis=1)
    wa, wb = w2[0::2], w2[1::2]
    expected = np.zeros(kept)
    expected[nu] = 4.0 * a**2 * wa * wb / (wa + wb)
    assert np.max(np.abs(np.diag(schur) - expected)) <= 1e-15 * np.max(expected)
    assert np.count_nonzero(schur - np.diag(np.diag(schur))) == 0

    r = rng.normal(size=(kept, kept))
    cones = r @ r.T + kept * np.eye(kept)
    full = (f * w2[:, None]).T @ f
    full[:kept, :kept] += cones
    schur = cones.copy()
    eliminated = lp.add_schur(schur, w2)
    factor = sdp._cho_factor(schur)
    for _ in range(3):
        rhs = rng.normal(size=m)
        ref = np.linalg.solve(full, rhs)
        dy = lp.solve(factor, rhs, eliminated)
        assert np.max(np.abs(dy - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("program", ["data", "exact", "gram", "reconcile"])
def test_only_box_auxiliaries_leave_the_cholesky(program, monkeypatch):
    # the robust witness in data coordinates factors m - nt columns; the
    # exact witness (no 1x1 rows), the robust witness in Gram coordinates
    # (each box row touches every rotated direction) and the reconcile fit
    # (each v_k is touched by three rows) factor their full m
    sizes = []
    factor = sdp._cho_factor

    def record(schur, ws=None):
        sizes.append(schur.shape)
        return factor(schur, ws)

    monkeypatch.setattr(sdp, "_cho_factor", record)
    solved = []
    solve = sdp.solve

    def recorded(prog, *args, **kwargs):
        solved.append(prog)
        return solve(prog, *args, **kwargs)

    monkeypatch.setattr(sdp, "solve", recorded)
    if program == "reconcile":
        cfg = replace(cli.ExperimentConfig(), n_max=2)
        _, state, _ = cli.make_states(cfg)
        det = cli.make_detector(cfg)
        ops = bound.build_measurements(det, det, phases=cfg.phases, signal_cutoff=cfg.n_max)
        bound.reconcile_expectations(bound.MeasurementSet(ops, bound.simulate_expectations(state, ops)))
        (prog,) = solved
        nt = 0
    else:
        epsilon, cut = {"data": (1e-2, None), "exact": (0.0, bound.GRAM_NULL_CUT),
                        "gram": (1e-6, bound.GRAM_NULL_CUT)}[program]
        prog = _small_witness_program(2, epsilon, cut)
        nt = sum(f0.shape[0] == 1 for f0, _ in prog.blocks) // 2
        assert (nt > 0) == (epsilon > 0.0)
        sdp.solve(prog, max_iter=2)
    m = prog.n_vars
    kept = m - nt if program == "data" else m
    assert sizes and set(sizes) == {(kept, kept)}


def test_workspace_reuse_gives_fresh_solve_bits(monkeypatch):
    # each solve reuses one workspace for its Schur complement, factor and
    # assembly intermediates; a program solved twice, with a program of
    # another size between, gives the bits of solves whose every scratch
    # array is fresh and filled with NaN, so no stale entry is ever read
    big = _small_witness_program(2, 1e-2, None)
    small = _small_witness_program(1, 0.0, bound.GRAM_NULL_CUT)
    assert big.n_vars != small.n_vars and big.block_sizes != small.block_sizes
    reused = [sdp.solve(program) for program in (big, small, big)]
    monkeypatch.setattr(
        sdp, "_scratch",
        lambda ws, name, shape, dtype=np.float64: np.full(shape, np.nan, dtype),
    )
    fresh = {id(program): sdp.solve(program) for program in (big, small)}
    for program, sol in zip((big, small, big), reused):
        ref = fresh[id(program)]
        assert sol.status == ref.status == "optimal"
        assert sol.iterations == ref.iterations
        assert np.array_equal(sol.y_star, ref.y_star)
        for x, x_ref in zip(sol.dual_certificate, ref.dual_certificate):
            assert np.array_equal(x, x_ref)


def test_prepared_cones_give_fresh_solve_bits(monkeypatch):
    # the witness program's F arrays are read-only, so their cones are
    # prepared once and placed in every later solve.  Solved again, with a
    # writable copy of I + H beside the prepared I - H (whose pair tables
    # it then shares), and with writable copies of every block, which are
    # never prepared, it gives the bits of the first solve
    program = _small_witness_program(2, 0.0, bound.GRAM_NULL_CUT)
    assert not any(fs.flags.writeable for _, fs in program.blocks)
    builds = []
    cone = sdp._MatrixCone

    class Counted(cone):
        def __init__(self, *args):
            super().__init__(*args)
            builds.append(args[0])

    monkeypatch.setattr(sdp, "_MatrixCone", Counted)
    groups = []
    add = cone.add_pair_schur

    def record(self, schur, wmats, ws=None, image=None):
        groups.append((self.index, len(wmats), image is not None))
        add(self, schur, wmats, ws, image)

    monkeypatch.setattr(cone, "add_pair_schur", record)

    def variant(copied):
        blocks = [
            (f0, fs.copy() if k in copied else fs) for k, (f0, fs) in enumerate(program.blocks)
        ]
        return sdp.ConicProgram(program.objective, blocks)

    first = sdp.solve(program)
    assert builds == [0, 1, 2]
    for copied, built in (((), []), ((2,), [2]), ((0, 1, 2), [0, 1, 2])):
        builds.clear()
        groups.clear()
        sol = sdp.solve(variant(copied))
        assert builds == built
        # every iteration but the last, which stops before the assembly
        assert groups == [(1, 2, True)] * (sol.iterations - 1)
        assert sol.status == first.status == "optimal"
        assert sol.iterations == first.iterations
        assert np.array_equal(sol.y_star, first.y_star)
        for x, x_first in zip(sol.dual_certificate, first.dual_certificate):
            assert np.array_equal(x, x_first)


def test_one_read_only_array_in_two_blocks_gives_two_cones():
    # two blocks on one read-only F array share its prepared cone, and each
    # takes its own copy of it, with its own index and F0: the solve, first
    # and again on the prepared cone, gives the bits of one on two writable
    # copies
    fs = np.zeros((2, 3, 3))
    fs[0] = np.diag([1.0, -1.0, 0.0])
    fs[1, 0, 1] = fs[1, 1, 0] = 1.0
    fs[1, 2, 2] = 0.5
    fs.setflags(write=False)

    def solved(first, second):
        return sdp.solve(sdp.ConicProgram([1.0, 0.5], [(np.eye(3), first), (2.0 * np.eye(3), second)]))

    fresh = solved(fs.copy(), fs.copy())
    assert fresh.status == "optimal"
    for sol in (solved(fs, fs), solved(fs, fs)):
        assert sol.status == fresh.status and sol.iterations == fresh.iterations
        assert np.array_equal(sol.y_star, fresh.y_star)
        for x, x_fresh in zip(sol.dual_certificate, fresh.dual_certificate):
            assert np.array_equal(x, x_fresh)


_NO_MASKED_ARRAYS = """
import sys
import numpy as np
from entcert import fock, negativity, sdp
negativity.exact_log_negativity(fock.two_mode_squeezed(fock.SqueezedParams(0.3, 6)))
rng = np.random.default_rng(5)
fs = rng.normal(size=(3, 4, 4))
fs = fs + fs.transpose(0, 2, 1)
diag = np.zeros((3, 4, 4))
diag[:, [0, 1, 2], [0, 1, 2]] = np.eye(3)
blocks = [(np.eye(4), 0.1 * fs), (np.eye(4), diag), (np.ones((1, 1)), np.ones((3, 1, 1)))]
assert sdp.solve(sdp.ConicProgram(rng.normal(size=3), blocks)).status == "optimal"
print("numpy.ma" in sys.modules)
"""


def test_exact_ln_and_solve_leave_numpy_ma_unimported():
    # np.unique's hash path imports numpy.ma (5.5 ms and 1.3 MB); neither
    # exact LN nor the solver's set-up takes it
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert run.stdout.strip() == "False"
