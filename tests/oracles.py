"""Independent oracles used by the test suite.

Everything here is deliberately implemented by a different route than the
package code it validates: dense matrix exponentials instead of sector
constructions, exhaustive enumeration instead of closed-form combinatorics,
displaced-parity traces instead of Laguerre kernels, and a cutting-plane
method (LP relaxations via scipy HiGHS) instead of an interior-point SDP
solver.  Tests compare package output against these oracles or against
values frozen from them.  The one exception is the candidate search of the
error-box oracle at the end, which runs the package's SDP solver; the
checks that accept its states use plain numpy only.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.optimize


# ---------------------------------------------------------------------------
# Fock-space oracles


def poisson_tail(mu: float, cutoff: int) -> float:
    """P(N > cutoff) for N ~ Poisson(mu), by direct summation."""
    s = sum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(cutoff + 1))
    return 1.0 - s


def ladder(cutoff: int) -> np.ndarray:
    """Annihilation operator on a truncated single-mode space."""
    a = np.zeros((cutoff + 1, cutoff + 1))
    for n in range(1, cutoff + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


def bs_unitary_dense(reflectivity: float, c1: int, c2: int) -> np.ndarray:
    """exp(i chi (b†a + a†b)) by scipy.linalg.expm on the dense truncated generator."""
    chi = math.acos(math.sqrt(reflectivity))
    a = ladder(c1)
    b = ladder(c2)
    gen = np.kron(a.T, b) + np.kron(a, b.T)
    return scipy.linalg.expm(1j * chi * gen)


def bs_unitary_projected(reflectivity: float, c1: int, c2: int) -> np.ndarray:
    """Exact untruncated beam splitter projected to (c1, c2): dense expm on a
    padded space (cutoffs c1 + c2 per mode), then the retained sub-block."""
    pad = c1 + c2
    u_pad = bs_unitary_dense(reflectivity, pad, pad)
    keep = [n1 * (pad + 1) + n2 for n1 in range(c1 + 1) for n2 in range(c2 + 1)]
    return u_pad[np.ix_(keep, keep)]


def pure_state_log_negativity(coeffs) -> float:
    """LN of sum_i c_i |a_i>|b_i> with orthonormal {a_i}, {b_i}: 2 log2(sum |c|/||c||)."""
    c = np.abs(np.asarray(coeffs, dtype=float))
    return 2.0 * math.log2(c.sum() / math.sqrt((c**2).sum()))


# ---------------------------------------------------------------------------
# detector oracles


def click_distribution_bruteforce(n_photons: int, bin_probs) -> np.ndarray:
    """P(exactly k bins occupied | n photons thrown independently), by
    exhaustive enumeration of all bins**n assignments."""
    q = np.asarray(bin_probs, dtype=float)
    bins = len(q)
    out = np.zeros(bins + 1)
    if n_photons == 0:
        out[0] = 1.0
        return out
    for assign in itertools.product(range(bins), repeat=n_photons):
        p = np.prod(q[list(assign)])
        out[len(set(assign))] += p
    return out


def convolution_matrix_inclusion_exclusion(bin_probs, n_max_photons: int) -> np.ndarray:
    """C[k][n] = P(n photons occupy exactly k bins), by inclusion-exclusion
    over bin subsets: sum over k-subsets S and their subsets T of
    (-1)^(k-|T|) (sum_{b in T} q_b)^n.  O(3^bins) numpy calls; the
    alternating sum cancels to ~1e-13 at 10 bins."""
    q = np.asarray(bin_probs, dtype=float)
    bins = len(q)
    c = np.zeros((bins + 1, n_max_photons + 1))
    c[0, 0] = 1.0
    for k in range(1, bins + 1):
        acc = np.zeros(n_max_photons + 1)
        for subset in itertools.combinations(range(bins), k):
            for r in range(k + 1):
                sign = (-1.0) ** (k - r)
                for sub2 in itertools.combinations(subset, r):
                    acc += sign * float(np.sum(q[list(sub2)])) ** np.arange(n_max_photons + 1)
        c[k] = acc
    return np.clip(c, 0.0, None)


def click_distribution_stirling(n_photons: int, bins: int) -> np.ndarray:
    """Uniform bins in closed form: P(k | n) = S(n, k) bins! / ((bins - k)! bins^n),
    with Stirling numbers of the second kind S(n, k) in exact integers."""
    stirling = [1] + [0] * bins  # S(0, k)
    for n in range(1, n_photons + 1):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, bins + 1)]
    return np.array([
        float(Fraction(stirling[k] * math.perm(bins, k), bins**n_photons))
        for k in range(bins + 1)
    ])


def loss_matrix_bruteforce(n_in: int, eta: float) -> np.ndarray:
    """Binomial loss by explicit Bernoulli enumeration over photon fates."""
    out = np.zeros((n_in + 1, n_in + 1))
    for n in range(n_in + 1):
        for fates in itertools.product((0, 1), repeat=n):
            m = sum(fates)
            out[m, n] += eta**m * (1 - eta) ** (n - m)
        if n == 0:
            out[0, 0] = 1.0
    return out


def displacement_operator(alpha: complex, cutoff: int) -> np.ndarray:
    """D(alpha) = expm(alpha a† - alpha* a) on a truncated space."""
    a = ladder(cutoff)
    return scipy.linalg.expm(alpha * a.T.conj() - np.conj(alpha) * a)


def wigner_displaced_parity(op: np.ndarray, x: float, p: float, pad: int = 30) -> float:
    """W(x, p) = (1/pi) Tr[op D(alpha) (-1)^n D(-alpha)], alpha = (x + i p)/sqrt(2).

    The operator is embedded in a larger space (cutoff `pad`) so the
    displacement is accurate; independent of any Laguerre-kernel code path.
    """
    d = op.shape[0]
    big = np.zeros((pad + 1, pad + 1), dtype=complex)
    big[:d, :d] = op
    alpha = (x + 1j * p) / math.sqrt(2.0)
    disp = displacement_operator(alpha, pad)
    parity = np.diag((-1.0) ** np.arange(pad + 1))
    val = np.trace(big @ disp @ parity @ disp.conj().T)
    return float(np.real(val)) / math.pi


# ---------------------------------------------------------------------------
# SDP oracle: Kelley cutting-plane method on the dual (maximization) form
#
# maximize c.y subject to F0_b - sum_j y_j Fj_b >= 0 for each block b,
# with y restricted to a box |y_j| <= box (the caller must pick programs
# whose solutions lie inside).  LP relaxations are solved with scipy HiGHS.


def _min_eig_affine(y, blocks):
    worst = np.inf
    for f0, fs in blocks:
        s = f0 - sum(yj * fj for yj, fj in zip(y, fs))
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (s + s.T))[0]))
    return worst


def cutting_plane_maximize(c, blocks, box=10.0, tol=1e-8, max_cuts=4000,
                           interior=None, obj_tol=1e-6):
    """Independent SDP oracle.  blocks = [(F0, [F1, .., Fm]), ...].

    Returns (lo, hi, y).  The LP relaxation over the accumulated eigenvector
    cuts upper-bounds the SDP optimum; shrinking the LP argmax toward a
    strictly feasible `interior` point yields a feasible lower bound.  The
    loop stops when hi - lo < obj_tol, or when the LP argmax itself is PSD
    feasible to tol (then lo = hi).
    """
    c = np.asarray(c, dtype=float)
    m = len(c)
    a_ub = []
    b_ub = []
    bounds = [(-box, box)] * m
    lo = -np.inf
    for _ in range(max_cuts):
        res = scipy.optimize.linprog(
            -c, A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            bounds=bounds, method="highs",
        )
        if not res.success:
            raise RuntimeError(f"oracle LP failed: {res.message}")
        y = res.x
        hi = float(c @ y)
        worst = 0.0
        for f0, fs in blocks:
            s = f0 - sum(yj * fj for yj, fj in zip(y, fs))
            w, v = np.linalg.eigh(s)
            if w[0] < worst:
                worst = w[0]
            # one cut per violated eigenvector: vec^T F0 vec - sum_j y_j vec^T Fj vec >= 0
            for k in range(len(w)):
                if w[k] >= -tol:
                    break
                vec = v[:, k]
                row = np.array([vec @ fj @ vec for fj in fs])
                a_ub.append(row)
                b_ub.append(float(vec @ f0 @ vec))
        if worst >= -tol:
            return hi, hi, y
        if interior is not None:
            # bisect along y -> interior for the largest feasible point
            t_lo, t_hi = 0.0, 1.0  # t = 1 keeps y, t = 0 is interior
            y_int = np.asarray(interior, dtype=float)
            if _min_eig_affine(y_int, blocks) <= 0:
                raise RuntimeError("interior point is not strictly feasible")
            for _ in range(60):
                t = 0.5 * (t_lo + t_hi)
                if _min_eig_affine(y_int + t * (y - y_int), blocks) >= 0.0:
                    t_lo = t
                else:
                    t_hi = t
            lo = max(lo, float(c @ (y_int + t_lo * (y - y_int))))
            if hi - lo < obj_tol:
                return lo, hi, y
    raise RuntimeError("oracle did not converge within max_cuts")


# ---------------------------------------------------------------------------
# error-box oracle: physical states whose moments lie inside the relative
# error box of a data vector
#
# A robust bound at budget eps must hold for every state rho with
# |tr(rho M_i) - n_i| <= eps n_i on each non-identity datum, so the log
# negativity of any such state caps it from above.

# LN of the in-box states found for the error-budget table (lambda=0.2,
# T=0.95, APD efficiency 0.2, n_max=3; LO amplitude 1, 50:50 tap, 8-bin TMD
# at efficiency 0.1, phases 0 and pi/2); regenerate with in_box_states()
ERROR_BOX_LN = {0.001: 0.6769649, 0.01: 0.4721149, 0.1: 0.0}


def _partial_transpose_first(mats, d1: int, d2: int) -> np.ndarray:
    lead = mats.shape[:-2]
    t = mats.reshape(*lead, d1, d2, d1, d2)
    return np.swapaxes(t, -4, -2).reshape(*lead, d1 * d2, d1 * d2)


def partial_transpose_spectrum(rho, d1: int, d2: int) -> np.ndarray:
    """Eigenvalues of the first-mode partial transpose, from one eigvalsh
    of the full matrix."""
    return np.linalg.eigvalsh(_partial_transpose_first(np.asarray(rho), d1, d2))


def dense_log_negativity(rho, d1: int, d2: int) -> float:
    """log2 of the summed |eigenvalues| of the first-mode partial transpose,
    clamped at 0."""
    w = partial_transpose_spectrum(rho, d1, d2)
    return max(0.0, math.log2(float(np.sum(np.abs(w)))))


def check_in_box_state(rho, mats, true_rho, eps, d1, d2) -> dict:
    """Accept rho as a state inside the eps error box of true_rho's moments.

    mats lists the measurement operators with the identity first.  Checks:
    exactly Hermitian to 1e-14, unit trace to 1e-12, smallest eigenvalue
    >= 0, and |tr(rho M_i) - n_i| <= eps n_i for every other operator, with
    n_i = tr(true_rho M_i).  Reports the worst relative moment deviation in
    units of eps and the log negativity.
    """
    rho = np.asarray(rho)
    mats = np.asarray(mats)
    data = np.real(np.einsum("iab,ba->i", mats[1:], true_rho))
    moments = np.real(np.einsum("iab,ba->i", mats[1:], rho))
    dev = np.abs(moments - data) / (eps * data)
    report = {
        "hermitian_dev": float(np.max(np.abs(rho - rho.conj().T))),
        "trace_dev": abs(complex(np.trace(rho)) - 1.0),
        "min_eig": float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]),
        "box_use": float(np.max(dev)),
        "log_negativity": dense_log_negativity(rho, d1, d2),
    }
    report["ok"] = (
        report["hermitian_dev"] <= 1e-14
        and report["trace_dev"] <= 1e-12
        and report["min_eig"] >= 0.0
        and report["box_use"] <= 1.0
    )
    return report


def in_box_state_candidate(mats, true_rho, eps, d1, d2):
    """Least-entangled state inside the error box shrunk by 0.1%.

    The candidate comes from the package solver (entcert.sdp on n x n
    complex Hermitian blocks, in the Hermitian basis of entcert.bound): over
    rho >= 0 with unit trace and P >= 0, P >= rho^T1, minimize 2 tr P - 1,
    which is ||rho^T1||_1 at the optimum, subject to
    |tr(rho M_i)/n_i - 1| <= 0.999 eps for every operator after the leading
    identity.  The rows are divided by n_i, so the box is met to the
    solver's residual in relative terms even for data near 1e-10.  The
    solution is projected onto the PSD cone and mixed with 1e-12 of the
    maximally mixed state so its smallest eigenvalue is strictly positive;
    the shrunk box leaves room for both moves.  Nothing here is trusted:
    check_in_box_state decides.
    """
    from entcert import bound, sdp

    mats = np.asarray(mats)
    n = d1 * d2
    nh = n * n
    basis = bound._hermitian_basis(n)
    traces = np.real(np.einsum("kaa->k", basis))
    basis_pt = _partial_transpose_first(basis, d1, d2)
    zero = np.zeros_like(basis)
    # variables y = (rho coordinates, P coordinates) in the Hermitian basis;
    # blocks rho >= 0, P >= 0, P - rho^T1 >= 0
    c = np.concatenate([np.zeros(nh), -2.0 * traces])
    square = np.zeros((n, n))
    blocks = [
        (square, np.concatenate([-basis, zero])),
        (square, np.concatenate([zero, -basis])),
        (square, np.concatenate([basis_pt, -basis])),
    ]
    data = np.real(np.einsum("iab,ba->i", mats[1:], true_rho))
    rows = np.real(np.einsum("iab,kba->ik", mats[1:], basis)) / data[:, None]
    for row in rows:
        for sign in (1.0, -1.0):
            f = np.zeros((2 * nh, 1, 1))
            f[:nh, 0, 0] = sign * row
            blocks.append((np.array([[0.999 * eps + sign]]), f))
    trace_row = np.concatenate([traces, np.zeros(nh)])[None, :]
    program = sdp.ConicProgram(c, blocks, equalities=(trace_row, np.array([1.0])))
    sol = sdp.solve(program)

    rho = np.tensordot(sol.y_star[:nh], basis, axes=(0, 0))
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    rho = (v * np.clip(w, 0.0, None)) @ v.conj().T
    rho = (1.0 - 1e-12) * rho / np.trace(rho).real + 1e-12 * np.eye(n) / n
    return 0.5 * (rho + rho.conj().T)


def in_box_states(mats, true_rho, d1, d2):
    """Candidate and check report per budget of ERROR_BOX_LN; regenerates
    its values when given the error-budget table's operators and state."""
    out = {}
    for eps in ERROR_BOX_LN:
        rho = in_box_state_candidate(mats, true_rho, eps, d1, d2)
        out[eps] = (rho, check_in_box_state(rho, mats, true_rho, eps, d1, d2))
    return out
