"""Set-up of the pair-pair gathers of the solver's Schur complement.

A pair column of a matrix cone (sdp._MatrixCone) is Fj = v E_rc + conj(v)
E_cr with v real or imaginary, a single real diagonal entry d carried as
r = c and v = d/2.  Each term of a pair-pair Schur entry Re tr(W Fi W Fj)
is then +-|v_i v_j| times the real or imaginary part of one entry of
K = W (x) W (Fujisawa, Kojima & Nakata, Math. Program. 79, 1997), so the
block is gathered from K through integer tables (tables).  The entries are
linear in K, so the cones of one program whose pairs share Schur columns
are gathered once (groups): cones whose pairs match up to sign through
the tables of the first, and one cone whose pairs are theirs partially
transposed (image_split), as the witness program's block A is I - H's.
The tables are kept in the reference cone's dict `tables`, so a prepared
cone, shared by every program of one operator stack, builds them once.
"""

import numpy as np

from . import fock


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


def image_split(ref, cone):
    """The split (d1, d2) of n = d1 d2 whose first-mode partial transpose
    (fock.partial_transpose_index) moves ref's pairs to cone's with one
    common sign, or None when no split does.

    Pair i of cone is matched with pair i of ref, in the same Schur column,
    and each is held at its upper entry: the moved (r_i, c_i) with value
    s v_i, or its transpose with s conj(v_i) when the move takes (r_i, c_i)
    below the diagonal.  The entries are even in s, so ref's tables read
    cone's pair-pair block from W (x) W with the first-mode halves of its
    first and last, and of its middle two, indices swapped.  The witness
    program's block A, H^T1 - sum_i nu_i M_i, is so I - H moved at the
    system's split, with s = -1.
    """
    if not same_columns(ref, cone):
        return None
    n = ref.f0.shape[0]
    for d2 in (d for d in range(1, n + 1) if n % d == 0):
        r, c = fock.partial_transpose_index(ref.r, ref.c, d2)
        flip = r > c
        v = np.where(flip, ref.v.conj(), ref.v)
        if (
            np.array_equal(np.where(flip, c, r), cone.r)
            and np.array_equal(np.where(flip, r, c), cone.c)
            and (np.array_equal(cone.v, v) or np.array_equal(cone.v, -v))
        ):
            return n // d2, d2
    return None


def groups(cones):
    """The pair-pair gathers of one iteration, [reference, members, image]
    per gather: the reference's tables serve the members, cones whose
    pairs match its own up to sign (I - H and I + H of the witness
    program), and at most one image, (cone index, split) of a cone whose
    pairs are the reference's partially transposed at that split
    (image_split), block A of the witness program.  A cone that is neither
    gathers alone.  Groups of more members come first, so a lone cone
    joins one as its image."""
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
            split = None if other[2] else image_split(cones[other[0]], cones[group[0]])
            if split is not None:
                other[2] = (group[0], split)
                break
        else:
            merged.append(group)
    return merged
