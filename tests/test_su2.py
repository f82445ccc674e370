from fractions import Fraction

import numpy as np
import pytest

from tl_entangle.su2 import (
    MAX_PRODUCT_DIM,
    classify_hw_tripartite,
    highest_weight_vectors,
    hw_rank_table,
    total_raising,
)

HALF = Fraction(1, 2)


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
    for spins in ([HALF, HALF, HALF], [1, 1], [Fraction(3, 2), HALF]):
        raising = total_raising(spins)
        for J, vec, _ in highest_weight_vectors(spins):
            flat = vec.reshape(-1)
            assert abs(np.linalg.norm(flat) - 1) < 1e-10
            assert np.max(np.abs(raising @ flat)) < 1e-10


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
    # 16^3 = 4096 is the largest product space that is built; check only the
    # rejections, which fail before any array is allocated
    assert MAX_PRODUCT_DIM == 16 ** 3
    for spins in ([Fraction(15, 2), Fraction(15, 2), 8], [Fraction(4095, 2), 1], [10, 10, 10]):
        with pytest.raises(ValueError, match="above the limit 4096"):
            total_raising(spins)
        with pytest.raises(ValueError, match="above the limit 4096"):
            highest_weight_vectors(spins)
