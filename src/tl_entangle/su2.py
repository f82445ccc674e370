"""Highest-weight decompositions of SU(2) tensor products.

Basis convention per spin-j factor: index a = 0..2j labels m = j - a, so
index 0 is the top magnetic state.  For spin 1 this is the qutrit labeling
m=+1 -> 0, m=0 -> 1, m=-1 -> 2 used in all printed tables.

Only highest_weight_vectors uses numpy; rep hw's tables are counted off the
number of product states per weight, or computed exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .entanglement import three_tangle_of, tripartite_class

# The largest product dimension prod(2j+1) that su2 decomposes.  At the bound
# a cold rep hw takes 91 ms for spins 63/2,63/2 and 87 ms for 15/2,15/2,15/2,
# 15 MB peak RSS each, as for 1,2 (89 ms; medians of 21 byte-compiled runs
# on two cores).
MAX_PRODUCT_DIM = 4096


def product_dims(spins):
    """(spins as Fractions, factor dimensions 2j+1).

    A spin that is not a nonnegative half-integer, or factors whose product
    dimension exceeds MAX_PRODUCT_DIM, is a ValueError.
    """
    out = []
    for j in spins:
        twice = Fraction(j) * 2
        if twice.denominator != 1 or twice < 0:
            raise ValueError(f"not a half-integer spin: {j!r}")
        out.append(Fraction(j))
    dims = tuple(int(2 * j) + 1 for j in out)
    dim = math.prod(dims)
    if dim > MAX_PRODUCT_DIM:
        raise ValueError(f"spins {', '.join(str(j) for j in out)} span a product "
                         f"space of dimension {dim}, above the limit {MAX_PRODUCT_DIM}")
    return out, dims


def _raising_coefficients(j):
    """[c_a] with J+ |j, m = j - a> = c_a |j, m + 1>, for a = 0..2j (c_0 = 0)."""
    return [0.0] + [math.sqrt(j * (j + 1) - m * (m + 1))
                    for m in (j - a for a in range(1, int(2 * j) + 1))]


def _null_basis(block, dim):
    """Orthonormal kernel basis built from projected standard basis vectors.

    Projecting lexicographically ordered product states onto the kernel and
    orthonormalizing gives a basis independent of LAPACK's internal choices,
    which keeps multiplicity ordering and signs reproducible.
    """
    import numpy as np

    if block.shape[0] == 0:
        proj = np.eye(dim)
        k = dim
    else:
        u, sv, vh = np.linalg.svd(block)
        rank = int(np.sum(sv > 1e-12 * max(sv[0], 1.0)))
        null = vh[rank:]
        k = null.shape[0]
        proj = null.T @ null
    basis = []
    for t in range(dim):
        v = proj[:, t].copy()
        for b in basis:
            v -= (b @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-9:
            v = v / nrm
            lead = v[np.argmax(np.abs(v) > 1e-9)]
            if lead < 0:
                v = -v
            basis.append(v)
        if len(basis) == k:
            break
    return basis


def highest_weight_vectors(spins):
    """All (J, vector, multiplicity index) triples, J descending.

    Vectors are unit-norm numpy arrays shaped by the factor dimensions and
    are annihilated by the total raising operator; each sits at magnetic
    weight M = J.  Only the operator's blocks between neighbouring weights
    are built.  A spin that is not a half-integer, or a product dimension
    above MAX_PRODUCT_DIM, is a ValueError (product_dims).
    """
    spins, dims = product_dims(spins)
    import numpy as np  # after the check: a rejected input loads none

    dim = math.prod(dims)
    coeffs = [_raising_coefficients(j) for j in spins]
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    weights = {}
    for flat, idx in enumerate(np.ndindex(dims)):
        w = sum(j - a for j, a in zip(spins, idx))
        weights.setdefault(w, []).append((flat, idx))
    out = []
    for M in sorted(weights, reverse=True):
        if M < 0:
            break
        cols = weights[M]
        rows = {flat: r for r, (flat, _) in enumerate(weights.get(M + 1, []))}
        # the block of the total raising operator from weight M to M + 1: a
        # product state steps up by one factor at a time
        block = np.zeros((len(rows), len(cols)))
        for c, (flat, idx) in enumerate(cols):
            for k, a in enumerate(idx):
                if a:
                    block[rows[flat - strides[k]], c] = coeffs[k][a]
        for k, vec in enumerate(_null_basis(block, len(cols))):
            full = np.zeros(dim)
            full[[flat for flat, _ in cols]] = vec
            out.append((M, full.reshape(dims), k))
    return out


def _weight_counts(dims):
    """{2M: number of product states of weight M} of factors of these dims."""
    counts = Counter({0: 1})
    for d in dims:
        step = Counter()
        for w, n in counts.items():
            for m2 in range(1 - d, d, 2):
                step[w + m2] += n
        counts = step
    return counts


def hw_multiplicities(spins):
    """(J, multiplicity) for every irrep in the spins' product, J descending:
    the total raising operator maps the product states of weight J >= 0 onto
    those of weight J + 1, so its kernel there has the dimension of the first
    minus that of the second."""
    counts = _weight_counts(product_dims(spins)[1])
    return [(Fraction(w, 2), counts[w] - counts[w + 2]) for w in sorted(counts, reverse=True)
            if w >= 0 and counts[w] > counts[w + 2]]


def hw_rank_table(j1, j2):
    """(J, Schmidt rank) for every irrep of j1 x j2, J ascending: |J, J> has
    a nonzero Clebsch-Gordan coefficient on each of the j1 + j2 - J + 1
    product states of weight J."""
    sectors = hw_multiplicities([j1, j2])
    top = sectors[0][0]  # j1 + j2
    return [(J, int(top - J) + 1) for J, _ in reversed(sectors)]


def _cut_rank(amps, k):
    """Exact rank of party k's cut of three qubits' nonzero amplitudes: 2 if
    a 2 x 2 minor of the cut is nonzero, else 1."""
    rows = [[z for idx, z in zip(itertools.product((0, 1), repeat=3), amps) if idx[k] == a]
            for a in (0, 1)]
    return 1 + any(x * w != y * v for (x, v), (y, w) in itertools.combinations(zip(*rows), 2))


def classify_hw_tripartite():
    """SLOCC class of every highest-weight vector of three spin-1/2 factors.

    Every spin-1/2 raising coefficient is 1, so the vectors are exact in
    Fractions: up to norm, those of highest_weight_vectors in its order,
    |000> at J = 3/2 and then, at J = 1/2, Gram-Schmidt on the projections
    of |001>, |010>, |100> onto the kernel of the raising block (1, 1, 1).
    Their local ranks and tau3 are exact, so the class takes tol 0.
    """
    half = Fraction(1, 2)
    sector = []
    for t in range(3):
        v = [int(s == t) - Fraction(1, 3) for s in range(3)]
        for b in sector:
            f = sum(x * y for x, y in zip(b, v)) / sum(x * x for x in b)
            v = [x - f * y for x, y in zip(v, b)]
        if any(v):
            sector.append(v)
    vectors = [(3 * half, 0, [1, 0, 0, 0, 0, 0, 0, 0])]
    vectors += [(half, k, [0, a, b, 0, c, 0, 0, 0]) for k, (a, b, c) in enumerate(sector)]
    return [(J, k, tripartite_class([_cut_rank(amps, p) for p in range(3)],
                                    three_tangle_of(amps), 0))
            for J, k, amps in vectors]
