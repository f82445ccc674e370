import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tl_entangle.connectomes import (
    Connectome,
    _party_slots,
    classify,
    class_signature,
    enumerate_connectomes,
    is_biseparable,
    reduce_connectome,
    representative_state,
)
from tl_entangle.entanglement import slocc_tripartite_class, schmidt_rank
from tl_entangle.diagrams import PlanarDiagram, TLElement
from tl_entangle.scalars import EvalPoint, LaurentPoly, d_param
from tl_entangle.skein import word_from_pairing

THETA = EvalPoint(-0.23)


def test_validation():
    with pytest.raises(ValueError):
        Connectome([[4, 1], [0, 4]])  # not symmetric
    with pytest.raises(ValueError):
        Connectome([[3, 1], [1, 3]])  # odd diagonal
    with pytest.raises(ValueError):
        Connectome([[4, 0], [0, 2]])  # unequal row sums
    with pytest.raises(ValueError):
        Connectome([[2, -2], [-2, 2]])
    with pytest.raises(ValueError):
        Connectome([[0, 1], [1, 0]])  # one puncture per party
    with pytest.raises(ValueError):
        Connectome([[2, 1], [1, 2]], punctures=3)
    with pytest.raises(ValueError, match="need at least one party"):
        Connectome([])


def test_json_round_trip():
    c = Connectome([[0, 4], [4, 0]])
    assert Connectome.from_json(c.to_json()) == c


def test_enumerate_two_qubit():
    cs = enumerate_connectomes(2, 4)
    assert [c.adj for c in cs] == [
        ((0, 4), (4, 0)),
        ((2, 2), (2, 2)),
        ((4, 0), (0, 4)),
    ]


def test_enumerate_counts():
    assert len(enumerate_connectomes(1, 4)) == 1
    assert len(enumerate_connectomes(3, 4)) == 7
    with pytest.raises(ValueError):
        enumerate_connectomes(2, 3)
    with pytest.raises(ValueError, match="cannot be negative"):
        enumerate_connectomes(2, -2)
    assert [c.adj for c in enumerate_connectomes(2, 0)] == [((0, 0), (0, 0))]


def test_reduce_examples():
    assert reduce_connectome(Connectome([[2, 2], [2, 2]])).adj == (
        (4, 0), (0, 4))
    assert reduce_connectome(Connectome([[0, 4], [4, 0]])).adj == (
        (0, 4), (4, 0))
    six = Connectome([[0, 3, 1], [3, 0, 1], [1, 1, 2]])
    assert reduce_connectome(six).adj == ((0, 4, 0), (4, 0, 0), (0, 0, 4))


def test_classify_two_parties():
    labels = [classify(c) for c in enumerate_connectomes(2, 4)]
    assert labels.count([((0, 1), "Bell")]) == 1
    assert labels.count([((0,), "unentangled"), ((1,), "unentangled")]) == 2
    assert len({tuple(l) for l in labels}) == 2


def test_classify_tripartite_table():
    kinds = []
    for c in enumerate_connectomes(3, 4):
        blocks = classify(c)
        sizes = sorted(len(b) for b, _ in blocks)
        kinds.append(tuple(sizes))
    assert kinds.count((1, 1, 1)) == 4
    assert kinds.count((1, 2)) == 2
    assert kinds.count((3,)) == 1


def test_classify_matches_reduction():
    for m in (2, 3, 4):
        for c in enumerate_connectomes(m, 4):
            assert classify(c) == classify(reduce_connectome(c))


def test_four_party_classes():
    cs = enumerate_connectomes(4, 4)
    signatures = {class_signature(c) for c in cs}
    assert len(signatures) == 6
    nonbisep = {class_signature(c) for c in cs if not is_biseparable(c)}
    assert len(nonbisep) == 2


def test_representative_identity_connectome():
    st = representative_state(Connectome([[0, 4], [4, 0]]))
    amp = st.amplitudes(THETA)
    assert np.max(np.abs(amp - np.eye(2))) < 1e-10


def test_representative_fully_internal():
    st = representative_state(Connectome([[4, 0], [0, 4]]))
    amp = st.amplitudes(THETA)
    d = complex(THETA.d)
    expect = np.zeros((2, 2), complex)
    expect[0, 0] = d * d
    assert np.max(np.abs(amp - expect)) < 1e-10


def test_representative_ghz_connectome():
    st = representative_state(Connectome([[0, 2, 2], [2, 0, 2], [2, 2, 0]]))
    amp = st.amplitudes(THETA)
    d = complex(THETA.d)
    expect = np.zeros((2, 2, 2), complex)
    expect[0, 0, 0] = 1
    expect[1, 1, 1] = 1 / np.sqrt(d * d - 1)
    assert np.max(np.abs(amp - expect)) < 1e-10
    assert slocc_tripartite_class(amp) == "GHZ"


def test_tripartite_cross_validation():
    for c in enumerate_connectomes(3, 4):
        blocks = classify(c)
        sizes = sorted(len(b) for b, _ in blocks)
        amp = representative_state(c).amplitudes(THETA)
        label = slocc_tripartite_class(amp)
        if sizes == [1, 1, 1]:
            assert label == "separable", c
        elif sizes == [1, 2]:
            assert label.startswith("biseparable"), c
        else:
            assert label == "GHZ", c


def test_crossed_representative_reduces_cleanly():
    # complete pairing of four parties plus a doubled matching: one pair of
    # bundles must cross, so the state is a two-term bracket expansion
    k4pm = Connectome([[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 2], [1, 1, 2, 0]])
    assert not is_biseparable(k4pm)
    st = representative_state(k4pm)
    amp = st.amplitudes(THETA)
    assert amp.shape == (2, 2, 2, 2)
    for ax in range(4):
        assert schmidt_rank(amp, keep=(ax,)) == 2


def test_double_ring_is_planar_and_connected():
    ring = Connectome([[0, 2, 0, 2], [2, 0, 2, 0], [0, 2, 0, 2], [2, 0, 2, 0]])
    assert not is_biseparable(ring)
    amp = representative_state(ring).amplitudes(THETA)
    for ax in range(4):
        assert schmidt_rank(amp, keep=(ax,)) == 2


def _chords_cross(p, q):
    a, b = p
    c_, d = q
    return (a < c_ < b < d) or (c_ < a < d < b)


def reference_resolve_crossings(pairs, n_points):
    """Kauffman state sum of a chord drawing, the resolver representative_state
    used before it built its wiring as a slice word.

    Straight chords join circle points (nudged off symmetric positions); every
    interleaved pair meets once.  Each crossing is smoothed both ways: joining
    each strand's incoming side to the other's outgoing side weighs A, the
    parallel reconnection 1/A.  Each smoothing's loops and boundary pairs are
    read off a union-find over its ports."""
    crossings = [(p, q) for p, q in itertools.combinations(pairs, 2)
                 if _chords_cross(*sorted((p, q)))]
    if not crossings:
        return TLElement({PlanarDiagram(0, n_points, pairs): LaurentPoly({0: 1})})

    def pos(label):
        ang = 2 * math.pi * (label + 0.13 * math.sin(2.7 * label)) / n_points
        return math.cos(ang), math.sin(ang)

    def cross_param(p, q):
        (x1, y1), (x2, y2) = pos(p[0]), pos(p[1])
        (x3, y3), (x4, y4) = pos(q[0]), pos(q[1])
        den = (x2 - x1) * (y4 - y3) - (y2 - y1) * (x4 - x3)
        return ((x3 - x1) * (y4 - y3) - (y3 - y1) * (x4 - x3)) / den

    base_joins = []
    chord_crossings = {p: [] for p in pairs}
    for idx, (p, q) in enumerate(crossings):
        chord_crossings[p].append((cross_param(p, q), idx))
        chord_crossings[q].append((cross_param(q, p), idx))
    for p in pairs:
        prev = ("end", p[0])
        for _, idx in sorted(chord_crossings[p]):
            base_joins.append((prev, (idx, p, "in")))
            prev = (idx, p, "out")
        base_joins.append((prev, ("end", p[1])))

    A = LaurentPoly({1: 1})
    Ainv = LaurentPoly({-1: 1})
    d = d_param()
    total = {}
    for choice in itertools.product((0, 1), repeat=len(crossings)):
        joins = list(base_joins)
        for idx, (p, q) in enumerate(crossings):
            if choice[idx]:
                joins.append(((idx, p, "in"), (idx, q, "out")))
                joins.append(((idx, p, "out"), (idx, q, "in")))
            else:
                joins.append(((idx, p, "in"), (idx, q, "in")))
                joins.append(((idx, p, "out"), (idx, q, "out")))
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in joins:
            parent[find(u)] = find(v)
        comps = {}
        for u, v in joins:
            comps.setdefault(find(u), set()).update((u, v))
        new_pairs, loops = [], 0
        for members in comps.values():
            ends = sorted(x[1] for x in members if x[0] == "end")
            if not ends:
                loops += 1
            else:
                new_pairs.append(tuple(ends))
        na = sum(choice)
        coeff = (A ** na) * (Ainv ** (len(crossings) - na)) * d ** loops
        dg = PlanarDiagram(0, n_points, new_pairs)
        total[dg] = total.get(dg, LaurentPoly({})) + coeff
    return TLElement(total)


@pytest.mark.parametrize("m,punctures",
                         [(2, 4), (3, 4), (4, 4), (5, 4), (2, 8), (3, 8)])
def test_resolve_crossings_matches_reference(m, punctures):
    crossed = 0
    for c in enumerate_connectomes(m, punctures):
        got = representative_state(c).element
        ref = reference_resolve_crossings(_party_slots(c), m * punctures)
        # exact coefficients; the term order follows the expansion and differs
        assert got.terms == ref.terms, c
        crossed += len(ref.terms) > 1
    # only four or more parties force crossed bundles
    assert crossed == {(4, 4): 8, (5, 4): 33}.get((m, punctures), 0)


@st.composite
def _pairings(draw):
    labels = draw(st.permutations(range(1, 2 * draw(st.integers(1, 5)) + 1)))
    return [tuple(sorted(labels[i:i + 2])) for i in range(0, len(labels), 2)]


@settings(max_examples=150, deadline=None)
@given(_pairings())
def test_word_from_pairing_matches_reference(pairs):
    n = 2 * len(pairs)
    word = word_from_pairing(pairs, n)
    assert word.to_element().terms == reference_resolve_crossings(pairs, n).terms
    interleaved = sum(_chords_cross(*sorted((p, q)))
                      for p, q in itertools.combinations(pairs, 2))
    assert sum(op[0] == "under" for op in word.ops) == interleaved
    assert {op[0] for op in word.ops} <= {"cup", "under"}
