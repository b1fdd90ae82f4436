"""Set-up of the pair-pair gathers of the solver's Schur complement.

A pair column of a matrix cone (sdp._MatrixCone) is Fj = v E_rc + conj(v)
E_cr with v real or imaginary, a single real diagonal entry d carried as
r = c and v = d/2.  Each term of a pair-pair Schur entry Re tr(W Fi W Fj)
is then +-|v_i v_j| times the real or imaginary part of one entry of
K = W (x) W (Fujisawa, Kojima & Nakata, Math. Program. 79, 1997), so the
block is gathered from K through integer tables (tables).  The entries are
linear in K, so the cones of one program whose pairs share Schur columns
are gathered once (groups): cones whose pairs match up to sign through
the tables of the first, and one cone whose pairs are theirs moved by an
entry map through a permutation sigma of K's indices (image_index), as
the witness program's block A is the partial transpose of I - H.  The
tables and sigma are kept in the reference cone's dict `tables`, so a
prepared cone, shared by every program of one operator stack, finds them
once.
"""

import numpy as np


def tables(cone):
    """Gather indices and coefficients of the pair-pair Schur entries of
    the pairs (r, c, v) of a cone (sdp._MatrixCone) on n x n matrices.

    With every v real or imaginary, each term of the pair-pair entry is
    exactly +-|v_i| |v_j| times the real or the imaginary part of one entry
    of K = W (x) W:  v_i v_j W[c_i,r_j] W[c_j,r_i] is K[c_i,r_j,c_j,r_i] and
    v_i conj(v_j) W[c_i,c_j] W[r_j,r_i] is K[c_i,c_j,r_j,r_i].  Returns
    (index, coef), both shaped (2, npairs, npairs): index into the flat
    real view of K (intp, which np.take reads without a cast) and the
    signed coefficient of each term, so the real parts of the two terms are
    coef * rv(K)[index], rounded as the complex products are.  The entries
    are even in v, so the tables serve every cone whose pairs match up to
    one sign of v.  Only the first cone of each gather group builds them
    (groups), once per prepared cone: they are kept in the dict
    cone.tables, which a prepared cone shares with its copies.
    """
    if "pp" in cone.tables:
        return cone.tables["pp"]
    n, r, c, v = cone.f0.shape[0], cone.r, cone.c, cone.v
    im = v.imag != 0.0
    a = np.where(im, v.imag, v.real)
    # both tables are written in place, with no temporary of their size.
    # v_i v_j is -|v_i v_j| when both are imaginary and picks Im K with a
    # sign flip, Re(i x K) = -x Im K, when one is; v_i conj(v_j) is positive
    # for two imaginaries and gives -Im K or +Im K as v_i or v_j is the
    # imaginary one
    coef = np.empty((2, v.size, v.size))
    np.multiply.outer(a, a, out=coef[0])
    coef[1] = coef[0]
    np.negative(coef[0], out=coef[0], where=im[:, None] | im[None, :])
    np.negative(coef[1], out=coef[1], where=im[:, None] & ~im[None, :])
    index = np.empty((2, v.size, v.size), dtype=np.intp)
    row = (c * n**3 + r)[:, None]
    np.add(row, r * n**2 + c * n, out=index[0])
    np.add(row, c * n**2 + r * n, out=index[1])
    if np.iscomplexobj(v):
        index *= 2
        index += im[:, None] ^ im[None, :]
    cone.tables["pp"] = (index, coef)
    return cone.tables["pp"]


def same_columns(a, b):
    """Whether the cones a and b, of one shape and dtype, have pairs in the
    same Schur columns."""
    return a.f0.shape == b.f0.shape and a.f0.dtype == b.f0.dtype and np.array_equal(a.pairs, b.pairs)


def image_index(ref, cone):
    """The flat index sigma with sigma(W (x) W) on ref's gather tables
    giving cone's pair-pair block, when cone's pairs are ref's moved by one
    entry map tau; None when they are not.

    Pair i of cone is matched with pair i of ref, in the same Schur column.
    Its values must be s v_i, at tau(r_i, c_i) = (r, c), or s conj(v_i), at
    tau(r_i, c_i) = (c, r), for one sign s common to every pair: the real
    pairs fix s, and an imaginary pair's value then fixes its orientation.
    tau must be one map of entries that commutes with transposition, so a
    real pair takes the orientation that another pair already gave its
    entry.  The entries are even in s, and each term of a pair-pair entry
    of cone is the term of ref at the moved entries, so the cone's block
    is ref's tables applied to sigma(K), sigma(K)[a,b,e,f] =
    K[tau_c(f,a), tau_r(b,e), tau_c(b,e), tau_r(f,a)]: every entry the
    tables read has (f, a) and (b, e) on a pair's entries or their
    transposes, where tau is defined.  The witness program's block A,
    H^T1 - sum_i nu_i M_i, is so the first-mode partial transpose of I - H,
    with s = -1.
    """
    if not same_columns(ref, cone):
        return None
    n = ref.f0.shape[0]
    # flip[e] is the flat index of the transpose of the flat entry e
    flip = np.arange(n * n).reshape(n, n).T.reshape(-1)
    v, w = ref.v, cone.v
    real = v.imag == 0.0
    s = 1.0 if not real.any() or w[real][0] == v[real][0] else -1.0
    # the entries pair i may move to, as v and as its conjugate, and which
    # of them its value allows
    target = cone.r * n + cone.c
    target = np.array([target, flip[target]])
    fits = np.array([w == s * v, w == s * v.conj()])
    pick = np.where(fits[0], target[0], target[1])
    pos = ref.r * n + ref.c
    tau = np.zeros(n * n, dtype=np.intp)
    # real pairs first, so that an imaginary pair's orientation wins on a
    # shared entry; the check below refuses any conflict that remains
    for part in (real, ~real):
        tau[pos[part]] = pick[part]
        tau[flip[pos[part]]] = flip[pick[part]]
    held = tau[pos]
    if not (
        np.all(fits[0] & (held == target[0]) | fits[1] & (held == target[1]))
        and np.array_equal(tau[flip[pos]], flip[held])
    ):
        return None
    tr, tc = np.divmod(tau, n)
    # sigma = x[(f,a)] + y[(b,e)], laid out over (a, b, e, f)
    x = (tc * n**3 + tr).reshape(n, n).T
    y = (tr * n**2 + tc * n).reshape(n, n)
    return (x[:, None, None, :] + y[None, :, :, None]).reshape(-1)


def _kept_image(ref, cone):
    """image_index(ref, cone), kept in ref's tables for the latest pairs
    of the image cone, so that every program whose cones are those of one
    prepared ref and an image with the same pairs (the witness programs of
    one operator stack) finds sigma once."""
    key = (cone.f0.shape, cone.v.dtype.str)
    key += tuple(a.tobytes() for a in (cone.pairs, cone.r, cone.c, cone.v))
    held = ref.tables.get("image")
    if held is None or held[0] != key:
        held = ref.tables["image"] = (key, image_index(ref, cone))
    return held[1]


def groups(cones):
    """The pair-pair gathers of one iteration, [reference, members, image]
    per gather: the reference's tables serve the members, cones whose
    pairs match its own up to sign (I - H and I + H of the witness
    program), and at most one image, (cone index, sigma) of a cone whose
    pairs are the reference's moved by an entry map (image_index), block
    A of the witness program.  A cone that is neither gathers alone.
    Groups of more members come first, so a lone cone joins one as its
    image."""
    found = []
    for i, cone in enumerate(cones):
        if cone.pairs.size:
            for group in found:
                ref = cones[group[0]]
                # the same slots, so the same (r, c), and values a or -a
                if same_columns(ref, cone) and np.array_equal(ref.slots, cone.slots) and (
                    np.array_equal(ref.a, cone.a) or np.array_equal(ref.a, -cone.a)
                ):
                    group[1].append(i)
                    break
            else:
                found.append([i, [i], None])
    merged = []
    for group in sorted(found, key=lambda group: -len(group[1])):
        for other in merged if len(group[1]) == 1 else ():
            sigma = None if other[2] else _kept_image(cones[other[0]], cones[group[0]])
            if sigma is not None:
                other[2] = (group[0], sigma)
                break
        else:
            merged.append(group)
    return merged
