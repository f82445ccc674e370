import itertools
from fractions import Fraction

import numpy as np
import pytest

from tl_entangle import su2
from tl_entangle.entanglement import schmidt_rank
from tl_entangle.su2 import (
    MAX_PRODUCT_DIM,
    classify_hw_tripartite,
    highest_weight_vectors,
    hw_multiplicities,
    hw_rank_table,
)

from test_entanglement import numpy_rank, numpy_tripartite_class

HALF = Fraction(1, 2)


def dense_total_raising(spins):
    """The total raising operator as one dense matrix: the sum over factors
    of J+ on that factor, Kronecker-multiplied with identities elsewhere."""
    dims = [int(2 * Fraction(j)) + 1 for j in spins]
    total = np.zeros((int(np.prod(dims)),) * 2)
    for k, j in enumerate(spins):
        j = Fraction(j)
        factors = [np.eye(d) for d in dims]
        factors[k] = np.zeros((dims[k], dims[k]))
        for a in range(1, dims[k]):
            m = j - a
            factors[k][a - 1, a] = np.sqrt(float(j * (j + 1) - m * (m + 1)))
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += term
    return total


def test_two_halves_table():
    hw = {(J, k): vec for J, vec, k in highest_weight_vectors([HALF, HALF])}
    singlet = hw[(0, 0)]
    expect = np.zeros((2, 2))
    expect[0, 1] = 1 / np.sqrt(2)
    expect[1, 0] = -1 / np.sqrt(2)
    assert np.max(np.abs(singlet - expect)) < 1e-10
    triplet = hw[(1, 0)]
    assert abs(triplet[0, 0] - 1) < 1e-10


def test_two_ones_table():
    hw = {(J, k): vec for J, vec, k in highest_weight_vectors([1, 1])}
    j0 = hw[(0, 0)]
    expect = np.zeros((3, 3))
    expect[0, 2] = expect[2, 0] = 1 / np.sqrt(3)
    expect[1, 1] = -1 / np.sqrt(3)
    assert np.max(np.abs(j0 - expect)) < 1e-10
    j1 = hw[(1, 0)]
    expect = np.zeros((3, 3))
    expect[0, 1] = 1 / np.sqrt(2)
    expect[1, 0] = -1 / np.sqrt(2)
    assert np.max(np.abs(j1 - expect)) < 1e-10
    assert abs(hw[(2, 0)][0, 0] - 1) < 1e-10


def test_rank_tables():
    assert hw_rank_table(HALF, HALF) == [(0, 2), (1, 1)]
    assert hw_rank_table(1, 1) == [(0, 3), (1, 2), (2, 1)]
    assert hw_rank_table(1, HALF) == [(HALF, 2), (Fraction(3, 2), 1)]


def test_rank_staircase():
    for j1, j2 in ((1, 2), (Fraction(3, 2), Fraction(3, 2)), (2, HALF)):
        table = hw_rank_table(j1, j2)
        lo = min(j1, j2)
        assert [r for _, r in table] == list(range(int(2 * lo) + 1, 0, -1))


def test_dimension_count():
    for spins in ([HALF, HALF], [1, 1], [HALF, HALF, HALF],
                  [1, HALF], [Fraction(3, 2), 1], [HALF] * 4):
        dims = [int(2 * Fraction(j)) + 1 for j in spins]
        total = sum(int(2 * J) + 1 for J, _, _ in highest_weight_vectors(spins))
        assert total == np.prod(dims)


def test_vectors_are_annihilated_and_normalized():
    for spins in ([HALF, HALF, HALF], [1, 1], [Fraction(3, 2), HALF], [1, 2, 2],
                  [Fraction(3, 2), 1, HALF]):
        raising = dense_total_raising(spins)
        for J, vec, _ in highest_weight_vectors(spins):
            flat = vec.reshape(-1)
            assert abs(np.linalg.norm(flat) - 1) < 1e-10
            assert np.max(np.abs(raising @ flat)) < 1e-10


def reference_highest_weight_vectors(spins):
    """highest_weight_vectors as it was, cutting each weight block out of the
    dense total raising operator."""
    dims = tuple(int(2 * Fraction(j)) + 1 for j in spins)
    raising = dense_total_raising(spins)
    weights = {}
    for flat, idx in enumerate(np.ndindex(dims)):
        weights.setdefault(sum(Fraction(j) - a for j, a in zip(spins, idx)), []).append(flat)
    out = []
    for M in sorted(weights, reverse=True):
        if M < 0:
            break
        cols, rows = weights[M], weights.get(M + 1, [])
        block = raising[np.ix_(rows, cols)] if rows else np.zeros((0, len(cols)))
        for k, vec in enumerate(su2._null_basis(block, len(cols))):
            full = np.zeros(int(np.prod(dims)))
            full[cols] = vec
            out.append((M, full.reshape(dims), k))
    return out


@pytest.mark.parametrize("spins", ["1/2,1/2", "1,1", "1,2", "1/2,1/2,1/2", "1,2,2",
                                   "3/2,1,1/2", "5/2,2,3/2"])
def test_weight_blocks_match_dense_reference(spins):
    spins = [Fraction(j) for j in spins.split(",")]
    got, want = highest_weight_vectors(spins), reference_highest_weight_vectors(spins)
    assert len(got) == len(want)
    for (J, vec, k), (J_ref, vec_ref, k_ref) in zip(got, want):
        assert (J, k) == (J_ref, k_ref)
        assert np.array_equal(vec, vec_ref)


def test_tripartite_hw_classes():
    classes = classify_hw_tripartite()
    labels = [label for _, _, label in classes]
    assert "GHZ" not in labels
    assert "W" in labels
    by_key = {(J, k): label for J, k, label in classes}
    assert by_key[(Fraction(3, 2), 0)] == "separable"


def test_w_like_vector_in_half_cubed():
    # the multiplicity-2 sector at J=1/2 contains a vector with all three
    # single-excitation amplitudes nonzero
    hw = highest_weight_vectors([HALF, HALF, HALF])
    sector = [vec for J, vec, _ in hw if J == HALF]
    assert len(sector) == 2
    found = any(np.min(np.abs([v[0, 0, 1], v[0, 1, 0], v[1, 0, 0]])) > 1e-3
                for v in sector)
    assert found


def test_bad_spin_rejected():
    with pytest.raises(ValueError):
        highest_weight_vectors([0.3])


def test_product_dimension_bound():
    # 16^3 = 4096 is the largest product space that is decomposed; check only
    # the rejections, which fail before any array is allocated
    assert MAX_PRODUCT_DIM == 16 ** 3
    for spins in ([Fraction(15, 2), Fraction(15, 2), 8], [Fraction(4095, 2), 1], [10, 10, 10]):
        with pytest.raises(ValueError, match="above the limit 4096"):
            highest_weight_vectors(spins)


def reference_hw_rank_table(j1, j2):
    """hw_rank_table as it was: numpy's SVD rank of every highest-weight
    vector of j1 x j2, J ascending."""
    table = [(J, numpy_rank(vec, (0,), 1e-9)) for J, vec, _ in highest_weight_vectors([j1, j2])]
    return sorted(table, key=lambda t: t[0])


def reference_hw_multiplicities(spins):
    """(J, multiplicity), J descending, counted off highest_weight_vectors,
    as rep hw did for three spins."""
    sectors = {}
    for J, _, _ in highest_weight_vectors(spins):
        sectors[J] = sectors.get(J, 0) + 1
    return [(J, sectors[J]) for J in sorted(sectors, reverse=True)]


def reference_classify_hw_tripartite():
    """classify_hw_tripartite as it was: the SLOCC class of each
    highest-weight vector of three spin-1/2 factors from numpy's SVD ranks."""
    return [(J, k, numpy_tripartite_class(vec))
            for J, vec, k in highest_weight_vectors([HALF, HALF, HALF])]


def test_counted_pair_tables_match_numeric_reference():
    for a in range(13):
        for b in range(13):
            j1, j2 = Fraction(a, 2), Fraction(b, 2)
            assert hw_rank_table(j1, j2) == reference_hw_rank_table(j1, j2), (j1, j2)
            assert hw_multiplicities([j1, j2]) == reference_hw_multiplicities([j1, j2])


def test_kernel_ranks_of_highest_weight_vectors_match_numpy():
    # the pure-Python cut kernel (schmidt_rank) on every two-spin vector
    # with 2j <= 12, against numpy's SVD
    for a in range(13):
        for b in range(13):
            for J, vec, _ in highest_weight_vectors([Fraction(a, 2), Fraction(b, 2)]):
                assert schmidt_rank(vec) == numpy_rank(vec, (0,), 1e-9), (a, b, J)


def test_counted_triple_multiplicities_match_numeric_reference():
    # the 120 spin multisets with 2j <= 7: a count does not depend on the
    # order of the factors
    for twice in itertools.combinations_with_replacement(range(8), 3):
        spins = [Fraction(t, 2) for t in twice]
        assert hw_multiplicities(spins) == reference_hw_multiplicities(spins), spins


def test_exact_tripartite_classes_match_numeric_reference():
    assert classify_hw_tripartite() == reference_classify_hw_tripartite()
    assert [label for _, _, label in classify_hw_tripartite()] == [
        "separable", "W", "biseparable(C|AB)"]
