"""Primal-dual interior-point solver for block-diagonal semidefinite programs.

Programs are stated in the bounded maximization form

    maximize    c . y
    subject to  S_b(y) = F0_b - sum_j y_j Fj_b  PSD   for every block b,

over real y (the dual form of SDPA: Fujisawa, Kojima & Nakata, Math.
Program. 79, 1997), with each block's F matrices real symmetric or complex
Hermitian.  A block's iterates take the dtype of its data, so a complex
block is solved on its own n x n Hermitian cone, with no real embedding;
every inner product is Re tr(AB), taken over real views of the arrays.

The solver runs a path-following iteration with Nesterov-Todd scaling and
Mehrotra predictor-corrector steps, from y = 0 with S = I and X = I, in
general infeasible; the slack residual S + sum_j y_j Fj - F0 is driven to
zero on the way.  1x1 blocks are grouped into a single diagonal
(linear-programming) cone so scalar constraints cost vector arithmetic
only.  The dual certificate X returned with the solution verifies the
objective bound independently: weak duality gives
c . y  <=  sum_b tr(F0_b X_b)  for any dual-feasible X.

The NT scaling comes from Cholesky factors and one SVD (Todd, Toh &
Tutuncu, SIAM J. Optim. 8, 1998): X = Lx Lx^H, S = Ls Ls^H and
Ls^H Lx = U D V^H give G = Lx V D^(-1/2), W = G G^H, and the scaled point
G^H S G = G^-1 X G^-H = D is diagonal, so the predictor takes E = -D and
the corrector's Lyapunov equation is solved entrywise.  Step lengths come
from D^(-1/2) (G^-1 dX G^-H) D^(-1/2), unitarily similar to Lx^-1 dX Lx^-H,
and the same for S, with no triangular inverse formed.  An iterate whose
Cholesky factorization fails ends the solve as a numerical failure.

A Mehrotra step shorter than 0.8 is followed by one centrality corrector
(Gondzio, Comput. Optim. Appl. 6, 137, 1996; Colombo & Gondzio, Comput.
Optim. Appl. 41, 277, 2008).  At the trial step a = min(1, 1.5 alpha +
0.1), each matrix cone's scaled product herm((D + a dX^)(D + a dS^)), dX^
and dS^ the scaled directions, has its eigenvalues clipped into
[0.1, 10] sigma mu, none lowered by more than 10 sigma mu; the clipped part
B adds 2B/(d_i + d_j) to E, and the diagonal cone does the same
elementwise.  The direction is solved once more with the same Schur factor
and kept when its step is at least 1.01 times the Mehrotra step.

The Schur complement Re tr(W Fi W Fj) is assembled from the sparsity of
the data, following the same paper.  At set-up each block's F columns are
sorted once into three classes: *zero* (Fj vanishes on the block), *pair*
(one Hermitian pair of entries v at (r, c) and conj(v) at (c, r) with v
real or imaginary, or a single real diagonal entry) and *dense* (everything
else).  Each term of a pair-pair entry is then exactly +-|v_i v_j| times
the real or imaginary part of one entry of K = W (x) W, so set-up turns the
pairs into gather tables, intp indices into the real view of K and real
coefficients.  The entries are linear in K, so cones whose pairs share
Schur columns are gathered once, through the tables of the first
(pairs.groups): cones whose pairs match up to sign (I - H and I + H of the
witness program) from K = sum_b W_b (x) W_b, one product of the stacked
vec(W_b), and one cone whose pairs are theirs moved by an entry map tau
(block A, through the partial transpose) from sigma(W_A (x) W_A) added to
it, sigma permuting K's four indices through tau, one np.take; a cone
alone forms K as an outer product.  Dense columns take G^H Fj G, and
pair-dense entries W Fj W = G (G^H Fj G) G^H.  The diagonal cone uses
only the columns its rows touch, and its box auxiliaries, trailing
columns that only two of its rows each touch, both with one other column
(the robust witness's t~_i), leave the Cholesky: their block is diagonal,
so is their correction to the kept columns' block, and only the kept
block is assembled and factored (_LpCone).  Each class
block is added in place, through basic slices when its rows and columns
are contiguous runs, as in every program the bound pipeline builds, and
through np.ix_ otherwise.  Every sum_j y_j Fj and every Re tr(Fj X)
streams a real view of the dense columns alone.  The pairs go through a
slot table, each pair's slots in that view and scaled values a1, a2:
apply scatters y_j a through np.bincount, which sums pairs that share a
slot, and moments gathers a1 x[s1] + a2 x[s2].  For exactly Hermitian X,
a x + a x rounds to 2 round(a x) with or without FMA, so the pair moments
have the bits of the dense product on any BLAS kernel.  Each Newton
direction takes one refinement pass against
dy -> Re tr(Fi W (sum_j dy_j Fj) W).

Set-up that depends on a block's F array alone runs once per array that
neither it nor the array it views can write (_prepared, the one cache of
what is derived from a read-only array, which bound._per_stack shares),
and is kept until the array it views is collected (weakref.finalize):
ConicProgram's Hermitian check and, for the latest Jacobi scaling vector,
the prepared cone, whole: its column classes, slot tables, Schur slots and
scaled dense columns, and its pair tables once it has led a gather.  A
later solve places a shallow copy of it.  A writable array is set up
afresh each solve, and both ways give the same bits.

Each solve runs on one BLAS thread, in the OpenBLAS that numpy's wheel
bundles, the one runtime every matmul, SVD and Cholesky of the solve
calls: at the default thread count a worker thread spins through the whole
solve, and multithreaded kernels split sums differently, so the iterate,
and with it the status, would depend on the machine's core count.  solve
sets the runtime to one thread through its ctypes handle and restores the
caller's count when it returns; where no handle is found it runs at the
caller's count.  The Schur complement is factored by LAPACK's dpotrf and
solved by two BLAS dtrsv calls from the same library, through ctypes with
its 64-bit Fortran integers, or, where numpy bundles no OpenBLAS, from
scipy.linalg.cython_lapack and cython_blas; the handles are looked up once,
when this module is imported.
"""

import contextlib
import copy
import ctypes
import weakref
from pathlib import Path

import numpy as np

from . import pairs

TOL_SYM = 1e-10
TOL_PSD = 1e-9

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_NUMERICAL_FAILURE = "numerical_failure"
STATUS_STALLED = "stalled"

# primal objective past which the dual side is declared infeasible
_DIV_OBJ = 1e10

# lack-of-progress stop in the manner of SDPT3 (Toh, Todd & Tutuncu, Optim.
# Methods Softw. 11, 1999): once the gap has met gap_tol, the solve has
# stalled when the worst residual has not dropped by a relative _STALL_GAIN
# below its best since then for _STALL_WINDOW iterations.  The gap is left
# out of that test: past gap_tol it keeps shrinking by ~10% per iteration
# while a residual parked by roundoff stays put, and counting it as progress
# only prolongs the crawl.
_STALL_WINDOW = 5
_STALL_GAIN = 1e-3

# fraction of the step to the cone boundary taken each iteration
_FRACTION_TO_BOUNDARY = 0.98

# centrality corrector (Gondzio, Comput. Optim. Appl. 6, 137, 1996): tried
# when the Mehrotra step is below _CORRECTOR_BELOW, aimed at the trial step
# a*alpha + b for (a, b) = _CORRECTOR_TRIAL, capped at 1, with the trial
# products' eigenvalues clipped into _CORRECTOR_BAND times sigma*mu (none
# lowered by more than the band's top), and kept when its step is at least
# _CORRECTOR_GAIN times the Mehrotra step
_CORRECTOR_BELOW = 0.8
_CORRECTOR_TRIAL = (1.5, 0.1)
_CORRECTOR_BAND = (0.1, 10.0)
_CORRECTOR_GAIN = 1.01


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of a stack of matrices."""
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def _hermitian_deviation(fs: np.ndarray) -> float:
    """max |F - F^H| over a stack of n x n matrices, taken a few matrices
    at a time, so that no temporary is as large as the stack."""
    dev, step = 0.0, max(1, 4096 // max(1, fs[0].size))
    for i in range(0, len(fs), step):
        part = fs[i : i + step]
        dev = np.maximum(dev, np.max(np.abs(part - np.swapaxes(part, 1, 2).conj())))
    return dev


# what is derived from one read-only array alone, one dict per view, keyed
# on the array it views and the view's place there, dropped with that array
_PREPARED = {}


def _prepared(a):
    """The dict in _PREPARED of what is derived from the view a alone, kept
    until the array it views (or a) is collected; a fresh dict, kept nowhere,
    when either can be written.  Nothing kept may reference that array."""
    base = a.base if isinstance(a.base, np.ndarray) else a
    if a.flags.writeable or base.flags.writeable:
        return {}
    key = (id(base), a.ctypes.data, a.shape, a.strides)
    if key not in _PREPARED:
        weakref.finalize(base, _PREPARED.pop, key, None)
    return _PREPARED.setdefault(key, {})


def _rv(a: np.ndarray) -> np.ndarray:
    """Real view of an array: for Hermitian A and B, Re tr(AB) is the dot
    product of their flattened real views."""
    return np.ascontiguousarray(a).view(np.float64)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(AB) of two Hermitian matrices."""
    return float(_rv(a).ravel() @ _rv(b).ravel())


class ConicProgram:
    """Block-diagonal SDP data in the maximization form documented above.

    blocks is a sequence of (F0, Fs) pairs with F0 shaped (n, n) and Fs
    shaped (m, n, n), real symmetric or complex Hermitian.  Data within
    TOL_SYM of Hermitian is stored as its Hermitian part; exactly Hermitian
    arrays of the block's dtype are stored as given, without a copy, so
    the caller should not modify them afterwards.  The solver never writes
    to program data.  The Hermitian check of a read-only Fs array runs once
    per array (_prepared), as does solve's set-up of its cone.
    """

    def __init__(self, objective, blocks):
        self.objective = np.asarray(objective, dtype=float).reshape(-1)
        m = self.objective.size
        if m == 0:
            raise ValueError("program needs at least one variable")
        self.blocks = []
        for k, (f0, fs) in enumerate(blocks):
            dtype = np.result_type(np.asarray(f0), np.asarray(fs), float)
            f0 = np.asarray(f0, dtype=dtype)
            fs = np.asarray(fs, dtype=dtype)
            if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
                raise ValueError(f"block {k}: F0 must be square")
            n = f0.shape[0]
            if fs.shape != (m, n, n):
                raise ValueError(f"block {k}: Fs must have shape (m, n, n)")
            if n == 1 and dtype == float:
                # real 1x1 data is symmetric
                self.blocks.append((f0, fs))
                continue
            entry = _prepared(fs)
            if "deviation" not in entry:
                entry["deviation"] = _hermitian_deviation(fs)
            dev0, devs = _hermitian_deviation(f0[None]), entry["deviation"]
            if dev0 > TOL_SYM:
                raise ValueError(f"block {k}: F0 not Hermitian")
            if devs > TOL_SYM:
                raise ValueError(f"block {k}: some Fj not Hermitian")
            # _herm is the identity on exactly Hermitian data, kept as given
            self.blocks.append(
                (f0 if dev0 == 0.0 else _herm(f0), fs if devs == 0.0 else _herm(fs))
            )
        if not self.blocks:
            raise ValueError("program needs at least one block")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def block_sizes(self):
        return tuple(f0.shape[0] for f0, _ in self.blocks)


class SdpSolution:
    """What solve returns.  A plain class: a dataclass takes ~0.5 ms to
    create at import, and nothing reads its generated methods."""

    def __init__(
        self, y_star, objective_value, dual_certificate, duality_gap, status, iterations, info
    ):
        self.y_star = y_star
        self.objective_value = objective_value
        self.dual_certificate = dual_certificate
        self.duality_gap = duality_gap
        self.status = status
        self.iterations = iterations
        self.info = info


# ---------------------------------------------------------------------------
# internal linear algebra helpers


class _NumericalProblem(Exception):
    pass


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> dict:
    """NT scaling of (X, S) as the module docstring sets out: G, G^H,
    W = G G^H and the diagonal d of the scaled point.  A pair that is not
    positive definite is a numerical problem."""
    try:
        rx = np.linalg.cholesky(x, upper=True)
        rs = np.linalg.cholesky(s, upper=True)
        _, d, vh = np.linalg.svd(rs @ rx.conj().T)
    except np.linalg.LinAlgError:
        raise _NumericalProblem("iterate not positive definite") from None
    g = (rx.conj().T @ vh.conj().T) / np.sqrt(d)
    gh = g.conj().T
    return {"g": g, "gh": gh, "w": _herm(g @ gh), "d": d}


def _max_step_psd(d: np.ndarray, dmat: np.ndarray) -> float:
    """Largest a with diag(d) + a*dmat PSD, for d > 0 and Hermitian dmat."""
    r = 1.0 / np.sqrt(d)
    lmin = np.linalg.eigvalsh(np.outer(r, r) * dmat)[0]
    if lmin >= 0.0:
        return np.inf
    return -1.0 / lmin


def _clipped(p: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """clip(p, lo, hi) - p, bounded below by -hi as in Gondzio (1996), so
    that one large trial product cannot swamp the correction."""
    return np.maximum(np.clip(p, lo, hi) - p, -hi)


def _centring(d: np.ndarray, dxh: np.ndarray, dsh: np.ndarray, a: float, lo: float, hi: float):
    """The centrality correction of E for one matrix cone at the scaled
    point diag(d) > 0, scaled directions dxh and dsh: the trial product
    P = herm((D + a dxh)(D + a dsh)) = V diag(lam) V^H, its clipped part
    B = V diag(_clipped(lam, lo, hi)) V^H, and E = 2B/(d_i + d_j), which
    solves (DE + ED)/2 = B entrywise; zero when every lam is in [lo, hi]."""
    lam, v = np.linalg.eigh(_herm((np.diag(d) + a * dxh) @ (np.diag(d) + a * dsh)))
    b = (v * _clipped(lam, lo, hi)) @ v.conj().T
    return 2.0 * b / (d[:, None] + d[None, :])


def _max_step_pos(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0.0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


def _bundled_openblas():
    """The OpenBLAS that numpy's wheel bundles in numpy.libs, as its Linux
    wheels lay it out; None where there is none."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*.so*"))
    return ctypes.CDLL(str(libs[0])) if libs else None


def _thread_controls(lib) -> tuple:
    """The (get, set) thread-count functions of the OpenBLAS lib, as a
    tuple of one pair, or of none when lib is None or lacks them."""
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return ()
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return ((get, put),)


def _lapack(lib) -> tuple:
    """(dpotrf, dtrsv, Fortran integer type) of the OpenBLAS lib, whose
    ILP64 build exports them as scipy_dpotrf_64_ and scipy_dtrsv_64_.
    Where numpy bundles no such library (its macOS and Windows wheels, or a
    build against a system LAPACK), the routines come from the function
    pointers that scipy.linalg.cython_lapack and cython_blas export, with
    32-bit integers, at the cost of importing them."""
    found = [getattr(lib, f"scipy_{routine}_64_", None) for routine in ("dpotrf", "dtrsv")]
    if None not in found:
        addresses = [ctypes.cast(fn, ctypes.c_void_p).value for fn in found]
        fint = ctypes.c_int64
    else:
        from scipy.linalg import cython_blas, cython_lapack

        api = ctypes.pythonapi
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
        pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", api)
        )
        capsules = [cython_lapack.__pyx_capi__["dpotrf"], cython_blas.__pyx_capi__["dtrsv"]]
        addresses = [pointer(capsule, name(capsule)) for capsule in capsules]
        fint = ctypes.c_int
    # dpotrf(uplo, n, a, lda, info) and dtrsv(uplo, trans, diag, n, a, lda, x, incx)
    i, char = ctypes.POINTER(fint), ctypes.c_char_p
    potrf = ctypes.CFUNCTYPE(None, char, i, ctypes.c_void_p, i, i)
    trsv = ctypes.CFUNCTYPE(None, char, char, char, i, ctypes.c_void_p, i, ctypes.c_void_p, i)
    return potrf(addresses[0]), trsv(addresses[1]), fint


# looked up once, at import, so that no solve pays for the search
_OPENBLAS = _bundled_openblas()
_THREAD_CONTROLS = _thread_controls(_OPENBLAS)
_DPOTRF, _DTRSV, _FORTRAN_INT = _lapack(_OPENBLAS)


@contextlib.contextmanager
def one_blas_thread():
    """Run the enclosed code with numpy's OpenBLAS, where found, at one
    thread, and restore the caller's count on the way out."""
    saved = [get() for get, _ in _THREAD_CONTROLS]
    try:
        for _, put in _THREAD_CONTROLS:
            put(1)
        yield
    finally:
        for (_, put), count in zip(_THREAD_CONTROLS, saved):
            put(count)


def _scratch(ws, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """The array `name` of this shape and dtype in the workspace dict ws,
    allocated on first use and then handed out as the last user left it;
    a new array when ws is None."""
    if ws is None:
        return np.empty(shape, dtype)
    key = (name, shape, dtype)
    if key not in ws:
        ws[key] = np.empty(shape, dtype)
    return ws[key]


def _cho_factor(schur: np.ndarray, ws=None):
    """Upper Cholesky factor U, U^T U = schur, in the upper triangle of a
    Fortran-order copy (in the workspace ws if given) that dtrsv reads as
    it is, the strict lower triangle unread; None when schur is not
    positive definite.  schur itself is left as it was."""
    # a copy of schur, transposed, is schur.T laid out in Fortran order;
    # dpotrf factors it
    factor = _scratch(ws, "factor", schur.shape)
    np.copyto(factor, schur)
    factor = factor.T
    n, info = _FORTRAN_INT(factor.shape[0]), _FORTRAN_INT()
    _DPOTRF(b"U", n, factor.ctypes.data, n, info)
    if info.value < 0:
        raise _NumericalProblem(f"dpotrf failed with info {info.value}")
    if info.value > 0:
        return None
    return factor


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve U^T U x = rhs for the upper Cholesky factor U, given in
    Fortran order so BLAS's dtrsv reads it without a copy: U^T z = rhs,
    then U x = z, one triangular solve each."""
    if not np.all(np.isfinite(rhs)):
        raise _NumericalProblem("non-finite Newton right-hand side")
    x = np.array(rhs, dtype=np.float64)
    n, one = _FORTRAN_INT(factor.shape[0]), _FORTRAN_INT(1)
    for trans in (b"T", b"N"):
        _DTRSV(b"U", trans, b"N", n, factor.ctypes.data, n, x.ctypes.data, one)
    return x


def _run(idx: np.ndarray):
    """idx, sorted and unique, as a basic slice when it is one contiguous
    run; None otherwise."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return None


def _slot(rows: np.ndarray, cols: np.ndarray):
    """Index of the Schur sub-block rows x cols: basic slices when both
    are contiguous runs, so that += adds in place on a view, and np.ix_
    otherwise."""
    r, c = _run(rows), _run(cols)
    if r is None or c is None:
        return np.ix_(rows, cols)
    return r, c


class _MatrixCone:
    """One matrix block of the scaled program, its F columns sorted by the
    nonzero pattern of the data.

    A column is *zero* when Fj vanishes on the block, a *pair* when
    Fj = v E_rc + conj(v) E_cr with v real or imaginary (a single real
    diagonal entry d is the case r = c, v = d/2), and *dense* otherwise.
    Zero columns drop out of every product; cols lists the others, pairs
    first.  apply and moments read the pairs through their slot table
    (slots, a), and the dense columns through their real view flat.  The
    Schur entries of pairs are gathered from the real view of W (x) W
    through the tables of pairs.tables, built only for a cone that leads a
    gather (pairs.groups).
    """

    def __init__(self, index: int, f0: np.ndarray, fs: np.ndarray):
        m, n, _ = fs.shape
        self.index = index
        self.f0 = f0
        nonzero = fs.reshape(m, -1) != 0.0
        count = np.count_nonzero(nonzero, axis=1)
        # first nonzero in row-major order: the upper entry of a pair
        r, c = np.divmod(np.argmax(nonzero, axis=1), n)
        v = fs[np.arange(m), r, c]
        is_pair = ((count == 1) & (r == c)) | ((count == 2) & (r != c))
        is_pair &= (v.real == 0.0) | (v.imag == 0.0)
        self.pairs = np.flatnonzero(is_pair)
        self.r = r[self.pairs]
        self.c = c[self.pairs]
        self.v = np.where(self.r == self.c, 0.5 * v[self.pairs], v[self.pairs])
        self.dense = np.flatnonzero((count > 0) & ~is_pair)
        self.cols = np.concatenate([self.pairs, self.dense])
        # the real-view slots of v at (r, c) and conj(v) at (c, r), real or
        # imaginary parts as v is, and the values there, exact since one
        # part is zero; a diagonal d puts d/2 twice on its one slot
        self.a = np.array([self.v.real + self.v.imag, self.v.real - self.v.imag])
        self.slots = np.array([self.r * n + self.c, self.c * n + self.r])
        if np.iscomplexobj(fs):
            self.slots = 2 * self.slots + (self.v.imag != 0.0)
        self.fs_dense = fs[self.dense]
        self.flat = _rv(self.fs_dense).reshape(self.dense.size, _rv(f0).size)
        self.tables = {}
        # Schur sub-blocks of the pair-pair, dense-dense, pair-dense and
        # dense-pair entries
        self.pp_slot = _slot(self.pairs, self.pairs)
        self.dd_slot = _slot(self.dense, self.dense)
        self.pd_slot = _slot(self.pairs, self.dense)
        self.dp_slot = _slot(self.dense, self.pairs)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """sum_j y_j Fj on the real view: the product with the dense rows,
        zeros when there are none, plus y_j a scattered over the pair
        slots, summed by np.bincount where two pairs share a slot."""
        n = self.f0.shape[0]
        flat = y[self.dense] @ self.flat
        flat += np.bincount(self.slots.ravel(), (y[self.pairs] * self.a).ravel(), flat.size)
        return flat.view(self.f0.dtype).reshape(n, n)

    def moments(self, x: np.ndarray) -> np.ndarray:
        """Re tr(Fj X) for the columns cols: a1 x[s1] + a2 x[s2] for each
        pair, then one product with the dense rows."""
        x = _rv(x).reshape(-1)
        terms = self.a * x[self.slots]
        return np.concatenate([terms[0] + terms[1], self.flat @ x])

    def add_pair_schur(self, schur: np.ndarray, wmats: list, ws=None, image=None) -> None:
        """Add sum_b Re tr(W_b Fi W_b Fj) over the pair columns, for the
        scaling points wmats of this cone and of the cones whose pairs match
        its own, and for image = (sigma, W) that of a cone whose pairs are
        this cone's moved by an entry map (pairs.image_index).  The entries,
        2 Re[v_i v_j W[c_j,r_i] W[c_i,r_j] + v_i conj(v_j) W[r_j,r_i]
        W[c_i,c_j]] (Fujisawa, Kojima & Nakata 1997), are gathered once by
        np.take through this cone's intp tables from K = sum_b W_b (x) W_b
        + sigma(W (x) W), written into the workspace ws if given; the sum
        over wmats is a product of two C-order operands, which numpy hands
        to gemm, where vecs @ vecs.T would go to syrk, ~2.7x slower here."""
        n2 = self.f0.size
        k = out = _scratch(ws, "k", (n2, n2), self.f0.dtype)
        if image is not None:
            # sigma(W (x) W) into K, then the members' sum through a second
            # buffer; np.take with out= buffers its output unless mode is
            # clip, and every index is in range, so clipping changes none
            out = _scratch(ws, "k_image", (n2, n2), self.f0.dtype)
            np.multiply.outer(image[1].reshape(-1), image[1].reshape(-1), out=out)
            np.take(out.reshape(-1), image[0], out=k.reshape(-1), mode="clip")
        if len(wmats) == 1:
            np.multiply.outer(wmats[0].reshape(-1), wmats[0].reshape(-1), out=out)
        else:
            vecs = np.stack(wmats, axis=-1).reshape(n2, -1)
            np.matmul(vecs, np.ascontiguousarray(vecs.T), out=out)
        if out is not k:
            k += out
        pp_index, pp_coef = pairs.tables(self)
        terms = _scratch(ws, "terms", pp_index.shape)
        np.take(_rv(k).reshape(-1), pp_index, out=terms, mode="clip")
        np.multiply(pp_coef, terms, out=terms)
        spp = np.add(terms[0], terms[1], out=terms[0])
        # spp is half of each entry and symmetric in exact arithmetic;
        # spp + spp.T doubles it and stays symmetric bit for bit
        schur[self.pp_slot] += np.add(spp, spp.T, out=terms[1])

    def add_schur(self, schur: np.ndarray, g: np.ndarray, gh: np.ndarray) -> None:
        """Add the dense columns' Re tr(W Fi W Fj), W = G G^H, gh = G^H:
        R R^T (syrk, symmetric bit for bit), R the real view of G^H Fj G,
        and pair-dense 2 Re(v_i (W Fj W)[c_i,r_i]), W Fj W = G (G^H Fj G)
        G^H, each added in place through the slots set up in __init__."""
        p, d, v = self.pairs, self.dense, self.v
        if d.size:
            gfg = gh @ self.fs_dense @ g
            rows = _rv(gfg).reshape(d.size, -1)
            schur[self.dd_slot] += rows @ rows.T
            if p.size:
                wfw = g @ gfg @ gh
                spd = 2.0 * (wfw[:, self.c, self.r] * v).real
                schur[self.pd_slot] += spd.T
                schur[self.dp_slot] += spd


class _LpCone:
    """The 1x1 blocks grouped into one diagonal cone, s = f0 - F y >= 0,
    stored over the columns that some row touches.

    When its rows come in box pairs (_box_pairs), their auxiliaries leave
    the Cholesky: their Schur block D_J is diagonal, and so is the
    correction S_kJ D_J^-1 S_Jk it leaves on the kept block, the columns
    before them.  add_schur then adds the corrected diagonal to the kept
    block alone, and solve backs out dy_J."""

    def __init__(self, f0, f, touched):
        self.f0 = f0
        self.cols = np.flatnonzero(np.any(f != 0.0, axis=0))
        self.f = f[:, self.cols]
        self.slot = _slot(self.cols, self.cols)
        self.aux = _box_pairs(f, touched)
        self.kept = f.shape[1] if self.aux is None else self.aux[0]

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self.f @ y[self.cols]

    def add_schur(self, schur, w2):
        """Add sum_k w2_k F[k, i] F[k, j] over the kept columns.  A box pair
        of rows a and b, F entries f at its auxiliary and g at its other
        column, leaves w_a w_b (g_a f_b - g_b f_a)^2 / (w_a f_a^2 + w_b f_b^2)
        there, 4 a^2 w_a w_b / (w_a + w_b) for t~ -+ a nu, free of the
        cancellation that subtracting S_kJ D_J^-1 S_Jk would suffer when one
        row is active and w_a >> w_b.  Returns what solve needs, D_J and
        S_kJ's entries, or None without box pairs."""
        if self.aux is None:
            if self.f.size:
                g = self.f * np.sqrt(w2)[:, None]
                schur[self.slot] += g.T @ g
            return None
        _, rows, other, (fa, fb), (ga, gb) = self.aux
        wa, wb = w2[rows]
        d = wa * fa * fa + wb * fb * fb
        diagonal = schur.reshape(-1)[:: self.kept + 1]
        diagonal += np.bincount(other, wa * wb * (ga * fb - gb * fa) ** 2 / d, self.kept)
        return d, wa * ga * fa + wb * gb * fb

    def solve(self, factor, rhs, eliminated):
        """dy of the Newton system whose kept block is factored in factor,
        eliminated = add_schur's return: the kept rows solve for
        rhs_k - S_kJ D_J^-1 rhs_J, then dy_J = D_J^-1 (rhs_J - S_Jk dy_k)."""
        if eliminated is None:
            return _cho_solve(factor, rhs)
        (d, e), other, k = eliminated, self.aux[2], self.kept
        dy = _cho_solve(factor, rhs[:k] - np.bincount(other, e * rhs[k:] / d, k))
        return np.concatenate([dy, (rhs[k:] - e * dy[other]) / d])


def _box_pairs(f, touched):
    """(start, rows, other, f_aux, f_other) when the LP rows f come in box
    pairs, None otherwise.  The auxiliaries are the columns start.., which
    no matrix cone touches (touched, a mask over the columns); each is
    touched by two rows, rows (2, count), and each row by its auxiliary and
    one other column, the same for both, other (count,), before start.  So
    the cones' Schur slots, all before start, stay valid, and the
    auxiliaries' Schur block and their correction to the kept block are
    diagonal; f_aux and f_other, (2, count), are the rows' F entries there.
    The robust witness in data coordinates has them, its t~_i; in Gram
    coordinates each box row touches every rotated direction, and the exact
    witness has no 1x1 rows."""
    nz = f != 0.0
    free = np.flatnonzero((np.count_nonzero(nz, axis=0) != 2) | touched)
    start = free[-1] + 1 if free.size else 0
    if not 0 < start < f.shape[1]:
        return None
    rows = np.nonzero(nz[:, start:].T)[1].reshape(-1, 2).T
    other = np.argmax(nz[rows, :start], axis=-1)
    hits = np.count_nonzero(nz[rows], axis=-1)
    if rows.size == len(f) and np.all(hits == 2) and np.all(nz[rows, other]) and np.array_equal(*other):
        return start, rows, other[0], f[rows, np.arange(start, f.shape[1])], f[rows, other]
    return None


def _cone(index, f0, fs, dvec):
    """The _MatrixCone of block `index`, its F columns fs scaled by dvec.
    It is prepared once per read-only fs, for the latest dvec (_prepared),
    and kept whole, scaled dense columns included, since dvec fixes every
    value it holds.  Each solve takes a shallow copy, which shares the
    prepared cone's arrays and pair tables and carries this block's index
    and F0, so one F array in two blocks still gives two cones."""
    entry = _prepared(fs)
    if not np.array_equal(entry.get("dvec"), dvec):
        entry["dvec"], entry["cone"] = dvec, _MatrixCone(index, f0, fs * dvec[:, None, None])
    cone = copy.copy(entry["cone"])
    cone.index, cone.f0 = index, f0
    return cone


# ---------------------------------------------------------------------------
# solver


def solve(
    program: ConicProgram,
    gap_tol: float = 1e-7,
    max_iter: int = 200,
    feas_tol: float = 1e-8,
) -> SdpSolution:
    """Run the interior-point iteration on `program`, from y = 0, S = I
    and X = I.

    Returns status ``optimal`` when the relative duality gap drops below
    gap_tol with both residuals below feas_tol; ``infeasible`` when c . y
    passes 1e10, the objective diverging; ``stalled`` when the gap is
    below gap_tol but the worst residual has not improved by 0.1% for 5
    iterations, typically a residual parked just above feas_tol by
    roundoff, or a program with no feasible y; ``max_iterations`` or
    ``numerical_failure`` otherwise.
    Every status but ``infeasible`` carries the best iterate seen, the one
    with the smallest worst of gap and residuals.  ``info`` holds the
    iteration history, the returned iterate's dual objective and its
    ``weak_duality_violation``, max(0, primal - dual),
    ``ridge_retries``, the number of Cholesky factorizations of the Schur
    complement that failed over the solve, each retried with a larger
    diagonal ridge, and ``correctors``, the number of steps the centrality
    corrector gave.  Each history entry holds the iterate's mu, gaps,
    residuals and objectives, ``step``, the step length taken from it (0
    from the last), and ``corrector``, whether the corrector gave that
    step.  The solve runs with numpy's OpenBLAS at one thread, so its
    result does not depend on the caller's thread count, which is restored
    on return.
    """
    with one_blas_thread():
        return _interior_point(program, gap_tol, max_iter, feas_tol)


def _interior_point(
    program: ConicProgram, gap_tol: float, max_iter: int, feas_tol: float
) -> SdpSolution:
    m = program.objective.size

    # matrix cones, and the 1x1 blocks grouped into one diagonal cone
    matrix_blocks = [
        (k, f0, fs) for k, (f0, fs) in enumerate(program.blocks) if f0.shape[0] > 1
    ]
    lp_index = [k for k, (f0, _) in enumerate(program.blocks) if f0.shape[0] == 1]
    lp_f0 = np.array([program.blocks[k][0][0, 0].real for k in lp_index])
    lp_f = np.array([program.blocks[k][1][:, 0, 0].real for k in lp_index]).reshape(-1, m)

    # Jacobi column scaling equilibrates the Schur complement; variables
    # coupling only to low-norm constraint matrices otherwise force huge
    # multipliers and wreck its conditioning
    nrm2 = np.einsum("kj,kj->j", lp_f, lp_f)
    for _, _, fs in matrix_blocks:
        flat = _rv(fs).reshape(m, -1)
        nrm2 += np.einsum("jk,jk->j", flat, flat)
    dvec = 1.0 / np.sqrt(np.maximum(nrm2, 1e-16))
    dvec = np.minimum(dvec, 1e8)
    c = program.objective * dvec
    cones = [_cone(k, f0, fs, dvec) for k, f0, fs in matrix_blocks]
    touched = np.zeros(m, dtype=bool)
    for cone in cones:
        touched[cone.cols] = True
    lp = _LpCone(lp_f0, lp_f * dvec[None, :], touched)
    groups = pairs.groups(cones)
    nlp = len(lp_index)
    ntot = sum(cone.f0.shape[0] for cone in cones) + nlp
    # the Schur complement, its factor and the large intermediates of its
    # assembly, allocated in the first iteration and reused by the rest, so
    # an iteration maps no fresh pages for them
    ws = {}

    xs = [np.eye(cone.f0.shape[0], dtype=cone.f0.dtype) for cone in cones]
    ss = [np.eye(cone.f0.shape[0], dtype=cone.f0.dtype) for cone in cones]
    xlp = np.ones(nlp)
    slp = np.ones(nlp)
    y = np.zeros(m)

    scale_c = 1.0 + np.max(np.abs(c))
    scale_f = 1.0 + max(
        [np.max(np.abs(cone.f0)) for cone in cones] + [np.max(np.abs(lp.f0), initial=0.0)]
    )

    history = []
    best = None
    best_score = np.inf
    best_res = np.inf
    status = STATUS_MAX_ITERATIONS
    detail = ""
    stalls = 0
    ridge_retries = 0
    it = 0
    progress_it = 0

    def _moments(xs_, xlp_):
        # Re tr(Fj X) summed over every cone
        out = np.zeros(m)
        out[lp.cols] += lp.f.T @ xlp_
        for cone, xb in zip(cones, xs_):
            out[cone.cols] += cone.moments(xb)
        return out

    try:
        for it in range(1, max_iter + 1):
            # residuals of both constraint systems
            rd = [_herm(sb + cone.apply(y) - cone.f0) for cone, sb in zip(cones, ss)]
            rd_lp = slp + lp.apply(y) - lp.f0
            r_p = c - _moments(xs, xlp)

            gap_abs = sum(_inner(xb, sb) for xb, sb in zip(xs, ss)) + float(xlp @ slp)
            # roundoff can push the gap below zero once it is spent
            mu = max(gap_abs, 0.0) / ntot
            pobj = float(c @ y)
            dobj = sum(_inner(cone.f0, xb) for cone, xb in zip(cones, xs))
            dobj += float(lp.f0 @ xlp)

            rel_gap = gap_abs / (1.0 + abs(pobj) + abs(dobj))
            res_x = float(np.max(np.abs(r_p))) / scale_c
            res_y = max(
                [float(np.max(np.abs(r))) for r in rd]
                + [float(np.max(np.abs(rd_lp), initial=0.0))]
            ) / scale_f

            history.append(
                {
                    "mu": mu,
                    "gap_abs": gap_abs,
                    "rel_gap": rel_gap,
                    "res_moment": res_x,
                    "res_slack": res_y,
                    "primal_objective": pobj,
                    "dual_objective": dobj,
                    # the step taken from this iterate, and whether the
                    # centrality corrector gave it
                    "step": 0.0,
                    "corrector": False,
                }
            )

            res = max(res_x, res_y)
            score = max(rel_gap, res)
            # progress is gauged on the full score until the gap has
            # converged, and after that on the residuals against their best
            # since convergence
            if rel_gap < gap_tol:
                if res < (1.0 - _STALL_GAIN) * best_res:
                    progress_it = it
                best_res = min(best_res, res)
            elif score < (1.0 - _STALL_GAIN) * best_score:
                progress_it = it
            if score < best_score:
                best_score = score
                # every update below rebinds these arrays, so references
                # keep the iterate
                best = (y, list(xs), xlp, rel_gap, dobj)

            if rel_gap < gap_tol and res < feas_tol:
                status = STATUS_OPTIMAL
                break

            if pobj > _DIV_OBJ:
                status = STATUS_INFEASIBLE
                detail = "objective diverges (dual side infeasible)"
                break
            if not np.isfinite(score):
                status = STATUS_NUMERICAL_FAILURE
                detail = "non-finite iterate"
                break
            if rel_gap < gap_tol and it - progress_it >= _STALL_WINDOW:
                status = STATUS_STALLED
                detail = f"no progress in {_STALL_WINDOW} iterations"
                break

            # NT scalings, Schur complement, factorization (shared by both
            # predictor and corrector)
            scals = [_nt_scaling(xb, sb) for xb, sb in zip(xs, ss)]
            wlp = np.sqrt(xlp / slp)
            vlp = np.sqrt(xlp * slp)

            # entry (i, j) is Re tr(W Fi W Fj) summed over the cones, over
            # the kept columns
            schur = _scratch(ws, "schur", (lp.kept, lp.kept))
            schur.fill(0.0)
            eliminated = lp.add_schur(schur, wlp**2)
            for ref, members, image in groups:
                wmats = [scals[i]["w"] for i in members]
                image = image and (image[1], scals[image[0]]["w"])
                cones[ref].add_pair_schur(schur, wmats, ws, image)
            for cone, sc in zip(cones, scals):
                cone.add_schur(schur, sc["g"], sc["gh"])

            # regularize only when the factorization actually fails; a
            # preemptive ridge scaled to the diagonal grows like the inverse
            # squared gap and poisons the late iterations
            factor = None
            ridge = 1e-14 * (1.0 + np.max(np.diag(schur)))
            for attempt in range(4):
                factor = _cho_factor(schur, ws)
                if factor is not None:
                    break
                ridge_retries += 1
                schur[np.diag_indices_from(schur)] += ridge * 10.0**attempt
            if factor is None:
                raise _NumericalProblem("Schur complement not positive definite")

            def _schur_apply(v):
                # Re tr(Fi W (sum_j v_j Fj) W) summed over the cones
                wvw = [sc["w"] @ cone.apply(v) @ sc["w"] for cone, sc in zip(cones, scals)]
                return _moments(wvw, wlp**2 * lp.apply(v))

            def _direction(es, elp):
                # assemble rhs, solve for dy, back out dS and dX blockwise
                rhs = r_p.copy()
                rhs[lp.cols] -= lp.f.T @ (wlp * elp + wlp**2 * rd_lp)
                gegs = [sc["g"] @ eb @ sc["gh"] for sc, eb in zip(scals, es)]
                for cone, sc, rb, geg in zip(cones, scals, rd, gegs):
                    rhs[cone.cols] -= cone.moments(geg + sc["w"] @ rb @ sc["w"])
                dy = lp.solve(factor, rhs, eliminated)
                # one refinement pass against the operator the Schur
                # complement stands for, so roundoff in both the entry-wise
                # assembly, the elimination and the factorization is corrected
                dy += lp.solve(factor, rhs - _schur_apply(dy), eliminated)
                # dX = G E G^H - W dS W, so G^-1 dX G^-H = E - G^H dS G
                dss, dxs, scaled = [], [], []
                for cone, sc, rb, eb, geg in zip(cones, scals, rd, es, gegs):
                    dsb = _herm(-rb - cone.apply(dy))
                    dsh = _herm(sc["gh"] @ dsb @ sc["g"])
                    dss.append(dsb)
                    dxs.append(_herm(geg - sc["w"] @ dsb @ sc["w"]))
                    scaled.append((eb - dsh, dsh))
                dslp = -rd_lp - lp.apply(dy)
                dxlp = wlp * elp - wlp**2 * dslp
                return dy, dxs, dss, dxlp, dslp, scaled

            def _steps(dxlp, dslp, scaled):
                # on the scaled point D, the steps to the boundary of X and
                # S are those of G^-1 X G^-H = D and G^H S G = D
                ap = _max_step_pos(xlp, dxlp)
                ad = _max_step_pos(slp, dslp)
                for sc, (dxh, dsh) in zip(scals, scaled):
                    ap = min(ap, _max_step_psd(sc["d"], dxh))
                    ad = min(ad, _max_step_psd(sc["d"], dsh))
                return ap, ad

            def _alpha(direction):
                # equal primal/dual step: both residuals then contract at
                # least as fast as mu, so the gap cannot outrun the
                # infeasibility
                ap, ad = _steps(*direction[3:])
                return min(1.0, _FRACTION_TO_BOUNDARY * ap, _FRACTION_TO_BOUNDARY * ad)

            # predictor: aim straight at the boundary (sigma = 0), E = -D
            d_aff = _direction([-np.diag(sc["d"]) for sc in scals], -vlp)
            ap_aff, ad_aff = _steps(*d_aff[3:])
            a_aff = min(1.0, ap_aff, ad_aff)

            gap_aff = sum(
                _inner(xb + a_aff * dxb, sb + a_aff * dsb)
                for xb, sb, dxb, dsb in zip(xs, ss, d_aff[1], d_aff[2])
            )
            gap_aff += float((xlp + a_aff * d_aff[3]) @ (slp + a_aff * d_aff[4]))
            mu_aff = max(gap_aff, 0.0) / ntot
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 1e-8
            # keep mu tethered to the infeasibility: driving the gap far
            # below the residuals jams the iterate on the boundary before
            # the moment equations are satisfied
            res_abs = max(float(np.max(np.abs(r), initial=0.0)) for r in (r_p, rd_lp, *rd))
            if mu > 0 and res_abs > 0:
                sigma = max(sigma, min(0.9, 0.1 * res_abs / mu))

            # corrector: recenter to sigma*mu and cancel the second-order
            # term; at the diagonal scaled point D the Lyapunov equation
            # (D E + E D) / 2 = B is solved entrywise
            es_cor = []
            for sc, (dxh, dsh) in zip(scals, d_aff[5]):
                d = sc["d"]
                b = -_herm(dxh @ dsh)
                b[np.diag_indices_from(b)] += sigma * mu - d * d
                es_cor.append(2.0 * b / (d[:, None] + d[None, :]))
            elp_cor = (sigma * mu - xlp * slp - d_aff[3] * d_aff[4]) / vlp
            step = _direction(es_cor, elp_cor)
            alpha = _alpha(step)

            # after a short step, one centrality corrector: the part of the
            # trial products outside the band around sigma*mu, clipped in
            # each cone, corrects E, solved with the same factor; kept only
            # if it lengthens the step
            if alpha < _CORRECTOR_BELOW:
                a = min(1.0, _CORRECTOR_TRIAL[0] * alpha + _CORRECTOR_TRIAL[1])
                band = [f * sigma * mu for f in _CORRECTOR_BAND]
                trial = (xlp + a * step[3]) * (slp + a * step[4])
                es_gc = [
                    eb + _centring(sc["d"], dxh, dsh, a, *band)
                    for eb, sc, (dxh, dsh) in zip(es_cor, scals, step[5])
                ]
                retry = _direction(es_gc, elp_cor + _clipped(trial, *band) / vlp)
                alpha_gc = _alpha(retry)
                if alpha_gc >= _CORRECTOR_GAIN * alpha:
                    step, alpha = retry, alpha_gc
                    history[-1]["corrector"] = True
            history[-1]["step"] = alpha
            dy, dxs, dss, dxlp, dslp, _ = step
            if alpha < 1e-10:
                stalls += 1
                if stalls >= 5:
                    raise _NumericalProblem("step sizes collapsed")
            else:
                stalls = 0

            for i in range(len(xs)):
                xs[i] = _herm(xs[i] + alpha * dxs[i])
                ss[i] = _herm(ss[i] + alpha * dss[i])
            xlp = xlp + alpha * dxlp
            slp = slp + alpha * dslp
            y = y + alpha * dy

    except _NumericalProblem as err:
        status = STATUS_NUMERICAL_FAILURE
        detail = str(err)

    if best is None or status == STATUS_INFEASIBLE:
        best = (y, xs, xlp, np.inf, np.nan)
    y_best, xs_best, xlp_best, gap_best, dobj_best = best
    cert = [None] * len(program.blocks)
    for cone, xb in zip(cones, xs_best):
        cert[cone.index] = _herm(xb)
    for j, k in enumerate(lp_index):
        cert[k] = np.full((1, 1), xlp_best[j], dtype=program.blocks[k][0].dtype)

    y_out = dvec * y_best
    pobj = float(program.objective @ y_out)
    return SdpSolution(
        y_star=y_out,
        objective_value=pobj,
        dual_certificate=cert,
        duality_gap=float(gap_best),
        status=status,
        iterations=it,
        info={
            "history": history,
            "dual_objective": dobj_best,
            # weak duality holds for exact iterates; roundoff in a residual
            # parked above feas_tol can push the primal above the dual
            "weak_duality_violation": float(np.maximum(0.0, pobj - dobj_best)),
            "detail": detail,
            "ridge_retries": ridge_retries,
            "correctors": sum(h["corrector"] for h in history),
        },
    )


def verify_solution(program: ConicProgram, solution: SdpSolution):
    """Independent certificate check by eigendecomposition.

    Returns minimum eigenvalues of the slack and certificate blocks, the
    certificate's moment residual, and both objective values; weak duality
    requires dual >= primal up to arithmetic slack whenever the certificate
    is feasible.
    """
    y = solution.y_star
    slack_min = np.inf
    cert_min = np.inf
    dual_obj = 0.0
    moments = np.zeros(program.n_vars)
    for (f0, fs), xb in zip(program.blocks, solution.dual_certificate):
        slack = f0 - np.tensordot(y, fs, axes=(0, 0))
        slack_min = min(slack_min, float(np.linalg.eigvalsh(_herm(slack))[0]))
        cert_min = min(cert_min, float(np.linalg.eigvalsh(_herm(xb))[0]))
        dual_obj += _inner(f0, xb)
        moments += _rv(fs).reshape(program.n_vars, -1) @ _rv(xb).reshape(-1)
    primal_obj = float(program.objective @ y)
    moment_residual = float(np.max(np.abs(program.objective - moments)))
    return {
        "primal_objective": primal_obj,
        "dual_objective": dual_obj,
        "slack_min_eig": slack_min,
        "certificate_min_eig": cert_min,
        "moment_residual": moment_residual,
        "psd_ok": slack_min > -TOL_PSD and cert_min > -TOL_PSD,
        "weak_duality_ok": dual_obj >= primal_obj - 1e-9 * (1.0 + abs(primal_obj)),
    }
