"""Highest-weight decompositions of SU(2) tensor products.

Basis convention per spin-j factor: index a = 0..2j labels m = j - a, so
index 0 is the top magnetic state.  For spin 1 this is the qutrit labeling
m=+1 -> 0, m=0 -> 1, m=-1 -> 2 used in all printed tables.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .entanglement import schmidt_rank, slocc_tripartite_class

# largest product dimension prod(2j+1) whose dense raising matrix is built
MAX_PRODUCT_DIM = 4096


def _spin(j):
    twice = Fraction(j) * 2
    if twice.denominator != 1 or twice < 0:
        raise ValueError(f"not a half-integer spin: {j!r}")
    return Fraction(j)


def _raising_matrix(j):
    n = int(2 * j) + 1
    op = np.zeros((n, n))
    for a in range(1, n):
        m = j - a
        op[a - 1, a] = np.sqrt(float(j * (j + 1) - m * (m + 1)))
    return op


def total_raising(spins):
    spins = [_spin(j) for j in spins]
    dims = [int(2 * j) + 1 for j in spins]
    dim = math.prod(dims)
    if dim > MAX_PRODUCT_DIM:
        raise ValueError(f"spins {', '.join(str(j) for j in spins)} span a product "
                         f"space of dimension {dim}, above the limit {MAX_PRODUCT_DIM}")
    total = np.zeros((dim, dim))
    for k, j in enumerate(spins):
        factors = [np.eye(d) for d in dims]
        factors[k] = _raising_matrix(j)
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += term
    return total


def _null_basis(block, dim):
    """Orthonormal kernel basis built from projected standard basis vectors.

    Projecting lexicographically ordered product states onto the kernel and
    orthonormalizing gives a basis independent of LAPACK's internal choices,
    which keeps multiplicity ordering and signs reproducible.
    """
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
    weight M = J.
    """
    spins = [_spin(j) for j in spins]
    dims = tuple(int(2 * j) + 1 for j in spins)
    raising = total_raising(spins)
    weights = {}
    for flat, idx in enumerate(np.ndindex(dims)):
        w = sum(j - a for j, a in zip(spins, idx))
        weights.setdefault(w, []).append(flat)
    out = []
    for M in sorted(weights, reverse=True):
        if M < 0:
            break
        cols = weights[M]
        rows = weights.get(M + 1, [])
        block = raising[np.ix_(rows, cols)] if rows else np.zeros((0, len(cols)))
        for k, vec in enumerate(_null_basis(block, len(cols))):
            full = np.zeros(int(np.prod(dims)))
            full[cols] = vec
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
