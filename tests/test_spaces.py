import random

import numpy as np
import pytest

from tl_entangle import cli, diagrams, spaces
from tl_entangle.cli import _tau3_of
from tl_entangle.connectomes import Connectome, enumerate_connectomes, representative_state
from tl_entangle.diagrams import PlanarDiagram, TLElement
from tl_entangle.entanglement import replica_check, three_tangle
from tl_entangle.jones_wenzl import jones_wenzl
from tl_entangle.scalars import (DegeneratePointError, EvalPoint, RationalFn,
                                 d_param, delta, evaluate)
from tl_entangle.skein import SliceWord
from tl_entangle.spaces import (DiagramState, PartyLayout, QuditSpace,
                                crossed_triple_residual, local_basis_matchings,
                                qudit_space, reduced_diagram, tuple_basis_diagram)
from tl_entangle.tangle_dsl import corpus_names, load_corpus

from reference_rationalfn import yun_sqrt
from test_diagrams import reference_inner

D = d_param()
K4 = EvalPoint.from_level(4)

# generic sample angles; the frame of dimension n stays nondegenerate only
# while d^2 exceeds the largest root of its norm polynomials, so higher
# dimensions sample closer to theta = 0
THETAS = [-0.22, -0.31, -0.4, -0.17, -0.35]          # qubit: |theta| < pi/6
THETAS_DIM3 = [-0.22, -0.28, -0.17, -0.30, -0.12]    # qutrit: |theta| < pi/10
THETAS_DIM4 = [-0.15, -0.12, -0.09, -0.13, -0.07]
K6 = EvalPoint.from_level(6)


def test_local_basis_matchings_explicit():
    assert local_basis_matchings(1) == [()]
    assert local_basis_matchings(2) == [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    assert local_basis_matchings(3) == [
        ((1, 4), (2, 3), (5, 8), (6, 7)),
        ((1, 8), (2, 3), (4, 5), (6, 7)),
        ((1, 8), (2, 7), (3, 6), (4, 5)),
    ]
    assert local_basis_matchings(4)[3] == ((1, 12), (2, 11), (3, 10), (4, 9), (5, 8), (6, 7))


def test_local_basis_structure():
    for n in range(2, 6):
        w = n - 1
        ms = local_basis_matchings(n)
        assert len(ms) == n
        for m in ms:
            dg = PlanarDiagram(0, 4 * w, m)
            assert dg.is_noncrossing()
            # no arc stays inside a single puncture (would be killed by jw)
            for a, b in m:
                assert (a - 1) // w != (b - 1) // w
            # symmetric under label reversal
            rev = tuple(sorted(tuple(sorted((4 * w + 1 - a, 4 * w + 1 - b))) for a, b in m))
            assert rev == m


def test_qubit_gram_and_transform():
    q = qudit_space(2)
    assert q.gram[0][0] == RationalFn(D * D)
    assert q.gram[0][1] == RationalFn(D)
    assert q.gram[1][1] == RationalFn(D * D)
    assert q.gs_norms_sq[0] == RationalFn(D * D)
    assert q.gs_norms_sq[1] == RationalFn(D * D - 1)
    T = q.ortho_transform(K4)
    # |0> = e1/d and |1> = (e2 - e1/d)/sqrt(d^2-1) at d = -sqrt(3)
    assert abs(T[0, 0] - (-1 / np.sqrt(3))) < 1e-12
    assert abs(T[0, 1]) == 0
    assert abs(T[1, 0] - 1 / np.sqrt(6)) < 1e-12
    assert abs(T[1, 1] - 1 / np.sqrt(2)) < 1e-12


def test_qutrit_gram_matches_projector_algebra():
    q = qudit_space(3)
    d2 = delta(2)
    assert q.gram[0][0] == RationalFn(d2 * d2)
    assert q.gram[0][1] == RationalFn(d2 * d2, D)
    assert q.gram[1][1] == RationalFn(d2 * (d2 * d2 - d2 + 1), D * D)
    assert q.gram[0][2] == RationalFn(d2)
    assert q.gram[1][2] == RationalFn(d2 * d2, D)
    assert q.gram[2][2] == RationalFn(d2 * d2)
    # unnormalized Gram-Schmidt norms behind the printed basis coefficients
    assert q.gs_norms_sq[0] == RationalFn(d2 * d2)
    assert q.gs_norms_sq[1] == RationalFn((d2 - 1) * (d2 - 1) * d2, D * D)
    assert q.gs_norms_sq[2] == RationalFn(d2 * d2 - d2 - 1)


@pytest.mark.parametrize("n", range(1, 5))
def test_gram_is_hermitian_and_rotation_invariant(n):
    # only gram[i][j] with i <= j is paired; every entry must equal its own
    # pairing, and rotating the punctures by one reverses the basis order
    q = qudit_space(n)
    G = q.gram
    for i in range(n):
        for j in range(n):
            assert G[i][j] == RationalFn.from_scalar(q.basis[i].inner(q.dressed[j], D))
            assert G[j][i] == G[i][j].bar()
            assert G[n - 1 - i][n - 1 - j] == G[i][j]


def test_qutrit_transform_signs_at_k4():
    # normalizers carry the sign of their polynomial square part: 1/Delta_2,
    # d/((Delta_2-1) sqrt(Delta_2)), 1/sqrt(Delta_2^2 - Delta_2 - 1)
    T = qudit_space(3).ortho_transform(K4)
    assert abs(T[0, 0] - 0.5) < 1e-12
    assert abs(T[1, 1] - (-np.sqrt(3) / np.sqrt(2))) < 1e-12
    assert abs(T[2, 2] - 1.0) < 1e-12


def test_orthonormality_all_dims():
    for n, thetas in ((2, THETAS), (3, THETAS_DIM3), (4, THETAS_DIM4)):
        for theta in thetas:
            pt = EvalPoint(theta)
            q = qudit_space(n)
            T = q.ortho_transform(pt)
            G = q.gram_numeric(pt)
            assert np.max(np.abs(T @ G @ T.conj().T - np.eye(n))) < 1e-10
            assert np.max(np.abs(np.triu(T, 1))) == 0


def test_four_level_frame_degenerates_at_k4():
    # at level 4 four width-3 punctures only span three dimensions: the third
    # Gram-Schmidt norm carries a factor d(d^2-3) that vanishes at d = -sqrt(3)
    with pytest.raises(DegeneratePointError):
        qudit_space(4).ortho_transform(K4)


def test_four_level_projector_degenerates_at_k5():
    # the Gram matrix is singular at k = 5 (its smallest eigenvalue is
    # rounding noise), so the tile, built from the frame, raises with it
    space = qudit_space(4)
    with pytest.raises(DegeneratePointError) as info:
        space.projector_element(EvalPoint.from_level(5))
    assert (info.value.factor, info.value.vector) == ("squarefree", 3)


def test_dressed_basis_kills_null_pairings():
    q = qudit_space(3)
    null = TLElement.from_diagram(PlanarDiagram(0, 8, [(1, 2), (3, 4), (5, 6), (7, 8)]))
    for v in q.dressed:
        assert RationalFn.from_scalar(null.inner(v, D)).is_zero()


def test_party_layout():
    lay = PartyLayout((("A", 2), ("B", 3)))
    assert lay.n_points == 4 + 8
    assert list(lay.block("A")) == [1, 2, 3, 4]
    assert list(lay.block("B")) == [5, 6, 7, 8, 9, 10, 11, 12]
    assert lay.index("B") == 1
    with pytest.raises(KeyError):
        lay.index("C")
    with pytest.raises(ValueError):
        PartyLayout((("A", 2), ("A", 2)))
    with pytest.raises(ValueError):
        PartyLayout((("A", 0),))
    dg = tuple_basis_diagram(lay, (1, 2))
    assert dg.pairs == tuple(sorted([(1, 4), (2, 3), (5, 12), (6, 11), (7, 10), (8, 9)]))


def test_maximally_entangled_pair():
    lay = PartyLayout.qubits("A", "B")
    st = DiagramState(PlanarDiagram(0, 8, [(1, 8), (2, 7), (3, 6), (4, 5)]), lay)
    for theta in THETAS:
        amp = st.amplitudes(EvalPoint(theta))
        assert np.max(np.abs(amp - np.eye(2))) < 1e-10
    assert abs(st.projected_norm_sq(K4) - 2.0) < 1e-12
    # raw self-pairing keeps the four loops, d^4 = 9 at k = 4
    assert abs(st.norm_sq(K4) - 9.0) < 1e-12


def test_reduced_diagrams_qubit():
    pt = K4
    d = complex(pt.d)
    amp0 = reduced_diagram(2, 0).amplitudes(pt)
    assert np.max(np.abs(amp0 - np.diag([d, 0]))) < 1e-12
    amp1 = reduced_diagram(2, 1).amplitudes(pt)
    assert np.max(np.abs(amp1 - np.eye(2))) < 1e-12


def test_reduced_diagrams_schmidt_ranks():
    for n in (2, 3, 4):
        for j in range(n):
            amp = reduced_diagram(n, j).amplitudes(K6)
            sv = np.linalg.svd(amp, compute_uv=False)
            assert np.sum(sv > 1e-9 * sv[0]) == j + 1


def test_reduced_qutrit_rank3_is_maximally_entangled():
    amp = reduced_diagram(3, 2).amplitudes(K4)
    sv = np.linalg.svd(amp, compute_uv=False)
    assert np.max(np.abs(sv - 1.0)) < 1e-10


SEVEN_TRIPARTITE = {
    1: [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)],
    2: [(3, 4), (1, 12), (2, 11), (9, 10), (5, 6), (7, 8)],
    3: [(1, 2), (3, 6), (4, 5), (7, 10), (8, 9), (11, 12)],
    4: [(2, 3), (1, 12), (4, 5), (6, 7), (8, 9), (10, 11)],
    5: [(1, 12), (2, 11), (3, 10), (4, 9), (5, 6), (7, 8)],
    6: [(1, 12), (2, 11), (3, 10), (4, 5), (6, 7), (8, 9)],
    7: [(1, 12), (2, 11), (3, 6), (4, 5), (7, 10), (8, 9)],
}


def expected_tripartite(key, d):
    """Closed forms in axis order (left column, top row, right column)."""
    s = np.sqrt(d * d - 1)
    t = np.zeros((2, 2, 2), complex)
    if key == 1:
        t[0, 0, 0] = d ** 3
    elif key == 2:
        t[0, 0, 0] = d ** 2
    elif key == 3:
        t[0, 0, 0] = d
    elif key == 4:
        v = np.array([1.0, s])
        t = np.einsum("i,j,k->ijk", v, v, v) / d ** 2
    elif key == 5:
        t[0, 0, 0] = d
        t[1, 0, 1] = d
    elif key == 6:
        t[0, 0, 0] = 1 / d
        t[0, 1, 0] = s / d
        t[1, 0, 1] = 1 / d
        t[1, 1, 1] = s / d
    elif key == 7:
        t[0, 0, 0] = 1
        t[1, 1, 1] = 1 / s
    return t


def test_seven_tripartite_expansions():
    lay = PartyLayout.qubits("A", "C", "B")
    for theta in THETAS:
        pt = EvalPoint(theta)
        d = complex(pt.d)
        for key, pairs in SEVEN_TRIPARTITE.items():
            amp = DiagramState(PlanarDiagram(0, 12, pairs), lay).amplitudes(pt)
            assert np.max(np.abs(amp - expected_tripartite(key, d))) < 1e-10, key


def test_chained_state_amplitudes():
    ops = [("cup", 1), ("cup", 1), ("over", 2), ("over", 2),
           ("cup", 3), ("cup", 5), ("over", 4), ("over", 4)]
    el = SliceWord(0, ops).to_element("kauffman")
    st = DiagramState(el, PartyLayout.qubits("A", "B"))
    for theta in THETAS:
        pt = EvalPoint(theta)
        A = complex(pt.A)
        amp = st.amplitudes(pt)
        exp = np.diag([(A ** 4 + A ** -4) ** 2, (1 - A ** -4) ** 2])
        assert np.max(np.abs(amp - exp)) < 1e-10


def test_projected_norm_matches_amplitudes():
    st = reduced_diagram(3, 1)
    pt = EvalPoint(-0.3)
    amp = st.amplitudes(pt)
    assert abs(st.projected_norm_sq(pt) - np.sum(np.abs(amp) ** 2)) < 1e-12


def test_crossed_triple_residual():
    assert abs(crossed_triple_residual(-2.0)) < 1e-12
    for d in (-1.5, -2.5, -1.2):
        expected = d * (d + 2) * (d - 1) / (d + 1)
        assert abs(crossed_triple_residual(d) - expected) < 1e-10


def test_degenerate_point_raises():
    # theta = pi/4 gives d = 0: the first qubit norm d^2 loses its square
    # part, and the second qutrit norm its denominator
    pt = EvalPoint(np.pi / 4)
    for n, vector, factor in ((2, 0, "square"), (3, 1, "denominator")):
        with pytest.raises(DegeneratePointError) as info:
            qudit_space(n).ortho_transform(pt)
        assert (info.value.party, info.value.vector, info.value.factor) == (None, vector, factor)
    # the same error, with the party attached, from the amplitudes; its
    # message is the one the command line prints
    st = DiagramState(reduced_diagram(2, 1).element, PartyLayout.qubits("L", "R"))
    with pytest.raises(DegeneratePointError) as info:
        st.amplitudes(pt)
    assert (info.value.party, info.value.vector, info.value.factor) == ("L", 0, "square")
    assert str(info.value).startswith(f"squared norm degenerate at theta={pt.theta} (")


@pytest.mark.parametrize("name, party", [
    ("two_qutrit_rank1", "L"),
    ("two_qutrit_rank3", "L"),
    # rank2's own diagram coefficients hold the width-2 projector's
    # denominator, so it fails before any party is dressed
    ("two_qutrit_rank2", None),
])
def test_dressing_failure_names_its_party(name, party):
    # theta = pi/4 gives d = 0, where the width-2 projector's denominator
    # vanishes; the qutrit frame fails there too, and amplitudes builds it
    # first, so the dressing is called directly
    st = load_corpus(name).state()
    with pytest.raises(DegeneratePointError) as info:
        st.dressed_numeric(EvalPoint(np.pi / 4))
    assert (info.value.party, info.value.vector, info.value.factor) == \
        (party, None, "denominator")


def reference_dress(element, n_points, starts, proj, d):
    """dress as it was before proj was glued where it acts: a gate
    id(a) (x) proj (x) id(n_points - a - w), composed at full width."""
    w = proj.shape()[0]
    for a in starts:
        gate = (TLElement.from_diagram(PlanarDiagram.identity(a)).tensor(proj)
                .tensor(TLElement.from_diagram(PlanarDiagram.identity(n_points - a - w))))
        element = element.compose(gate, d)
    return element


def reference_dressed_numeric(state, point):
    """dressed_numeric over reference_dress."""
    el = state.element.evaluate(point)
    N = state.layout.n_points
    for k, nk in enumerate(state.layout.dims):
        w, o = nk - 1, state.layout.offsets[k]
        if w >= 2:
            starts = [N - o - (t + 1) * w for t in range(4)]
            el = reference_dress(el, N, starts, jones_wenzl(w).evaluate(point), complex(point.d))
    return el


def assert_same_terms(new, ref):
    """The same diagrams with equal coefficients, in the same order."""
    assert list(new.terms.items()) == list(ref.terms.items())


def _dressing_points(seed, count=20):
    rng = random.Random(seed)
    return [K4, K6] + [EvalPoint(rng.uniform(-np.pi / 10, np.pi / 10)) for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dressed_basis_matches_gate_dressing(n):
    space = qudit_space(n)
    w = n - 1
    # the state rule's positions: the party's first puncture first
    starts = [space.n_points - (t + 1) * w for t in range(4)]
    for b, dressed in zip(space.basis, space.dressed):
        assert_same_terms(dressed, reference_dress(b, space.n_points, starts, jones_wenzl(w), D))


@pytest.mark.parametrize("name", [name for name in corpus_names() if load_corpus(name).parties])
def test_dressed_numeric_matches_gate_dressing_on_corpus(name):
    state = load_corpus(name).state()
    for pt in _dressing_points(name):
        assert_same_terms(state.dressed_numeric(pt), reference_dressed_numeric(state, pt))


@pytest.mark.parametrize("n, j", [(n, j) for n in range(1, 5) for j in range(n)])
def test_dressed_numeric_matches_gate_dressing_on_reduced_diagrams(n, j):
    # a dimension-4 pair costs about 2.5 s a point on each side: two angles
    state = reduced_diagram(n, j)
    for pt in _dressing_points(10 * n + j, 20 if n < 4 else 2):
        assert_same_terms(state.dressed_numeric(pt), reference_dressed_numeric(state, pt))


@pytest.mark.parametrize("make", [
    lambda: reduced_diagram(4, 1),
    # three dimension-4 parties, whose dressing alone took 22 s
    lambda: representative_state(Connectome([[0, 6, 6], [6, 0, 6], [6, 6, 0]])),
], ids=["reduced_4_1", "three_dim4_ring"])
def test_degenerate_frame_raises_before_dressing(monkeypatch, make):
    # every dimension-4 frame degenerates at k = 4
    dressings = _counting(monkeypatch, DiagramState, "dressed_numeric")
    state = make()
    with pytest.raises(DegeneratePointError) as info:
        state.amplitudes(K4)
    assert info.value.party == state.layout.names[0] and info.value.vector is not None
    assert dressings == []


def reference_ortho_transform(space, point):
    """ortho_transform as it was before the norms were split once: every
    point splits each exact norm again, by Yun's square-free split."""
    n = space.n
    T = np.zeros((n, n), dtype=complex)
    for i in range(n):
        nrm = yun_sqrt(space.gs_norms_sq[i], point)
        for j in range(i + 1):
            T[i, j] = complex(evaluate(space._gs_coeffs[i][j], point)) / nrm
    return T


@pytest.mark.parametrize("n, limit", [(2, np.pi / 6), (3, np.pi / 10)])
def test_ortho_transform_matches_reference(n, limit):
    q = qudit_space(n)
    for theta in np.linspace(-0.95 * limit, 0.95 * limit, 50):
        pt = EvalPoint(theta)
        assert np.array_equal(q.ortho_transform(pt), reference_ortho_transform(q, pt))
    with pytest.raises(DegeneratePointError):
        q.ortho_transform(EvalPoint(np.pi / 4))


def test_ortho_transform_keeps_no_per_point_state():
    q = qudit_space(2)
    q.ortho_transform(K4)

    def sizes():
        return {name: len(v) if hasattr(v, "__len__") else v
                for name, v in vars(q).items()}

    before = sizes()
    for theta in np.linspace(-0.5, 0.5, 500):
        q.ortho_transform(EvalPoint(theta))
    assert sizes() == before


def test_state_shape_validation():
    lay = PartyLayout.qubits("A", "B")
    with pytest.raises(ValueError):
        DiagramState(PlanarDiagram(0, 4, [(1, 2), (3, 4)]), lay)
    with pytest.raises(ValueError):
        reduced_diagram(3, 3)


def test_basis_pairings_match_reference_inner():
    """Every dressed corpus state pairs with every tuple basis diagram exactly
    as the composed-adjoint pairing did, at k = 4, k = 6 and 20 random angles
    inside the frame window."""
    rng = random.Random(8)
    for name in corpus_names():
        doc = load_corpus(name)
        if not doc.parties:
            continue
        state = doc.state()
        window = np.pi / 10 if 3 in state.layout.dims else np.pi / 6
        points = [K4, K6] + [EvalPoint(rng.uniform(-window, window)) for _ in range(20)]
        for pt in points:
            dval = complex(pt.d)
            dressed = state.dressed_numeric(pt)
            for idx in np.ndindex(*state.layout.dims):
                b = TLElement.from_diagram(tuple_basis_diagram(state.layout, idx))
                assert b.inner(dressed, dval) == reference_inner(b, dressed, dval), (name, pt)


def reference_raw_overlaps(state, point):
    """raw_overlaps as it was before loop counts were kept on the state: one
    TLElement.inner per tuple basis diagram, walking every loop at every point."""
    dval = complex(point.d)
    dressed = state.dressed_numeric(point)
    dims = state.layout.dims
    M = np.zeros(dims, dtype=complex)
    for idx in np.ndindex(*dims):
        b = TLElement.from_diagram(tuple_basis_diagram(state.layout, idx))
        M[idx] = b.inner(dressed, dval)
    return M


def reference_amplitudes(state, point):
    """reference_raw_overlaps taken into one frame built per party, party by
    party in party order, in plain Python: entry i of a party's axis sums
    conj(T[i][j]) times entry j of the input over j <= i, starting from 0."""
    dims = state.layout.dims
    amp = {idx: complex(v) for idx, v in np.ndenumerate(reference_raw_overlaps(state, point))}
    for k, nk in enumerate(dims):
        T = qudit_space(nk).ortho_transform(point).tolist()
        out = {}
        for idx in np.ndindex(*dims):
            i, total = idx[k], 0
            for j in range(i + 1):
                total += T[i][j].conjugate() * amp[idx[:k] + (j,) + idx[k + 1:]]
            out[idx] = total
        amp = out
    return np.array([amp[idx] for idx in np.ndindex(*dims)], dtype=complex).reshape(dims)


def tensordot_amplitudes(state, point):
    """The raw overlaps taken into each party's frame by numpy's tensordot,
    which may round the sums differently from amplitude_list."""
    amp = state.raw_overlaps(point)
    for k, nk in enumerate(state.layout.dims):
        T = qudit_space(nk).ortho_transform(point)
        amp = np.moveaxis(np.tensordot(np.conj(T), amp, axes=(1, k)), 0, k)
    return amp


def assert_matches_reference(state, points):
    for pt in points:
        assert np.array_equal(state.raw_overlaps(pt), reference_raw_overlaps(state, pt)), pt
        assert np.array_equal(state.amplitudes(pt), reference_amplitudes(state, pt)), pt


PARTY_STATES = [name for name in corpus_names() if load_corpus(name).parties]
QUBIT_STATES = [name for name in PARTY_STATES
                if set(load_corpus(name).state().layout.dims) == {2}]


@pytest.mark.parametrize("name", PARTY_STATES)
def test_raw_overlaps_match_reference_on_corpus(name):
    """Each corpus state at k = 4, k = 6 and 50 seeded angles inside its
    frame window."""
    state = load_corpus(name).state()
    window = np.pi / 10 if 3 in state.layout.dims else np.pi / 6
    rng = random.Random(name)
    thetas = [rng.uniform(-0.95 * window, 0.95 * window) for _ in range(50)]
    assert_matches_reference(state, [K4, K6] + [EvalPoint(t) for t in thetas])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_raw_overlaps_match_reference_on_reduced_diagrams(n):
    points = [K4, K6, EvalPoint(-0.05), EvalPoint(0.11)]
    for j in range(n):
        assert_matches_reference(reduced_diagram(n, j), points)


def test_raw_overlaps_match_reference_on_connectomes():
    # the canonical 3- and 4-party connectomes, the benchmark's 17 among them
    found = enumerate_connectomes(3) + enumerate_connectomes(4)
    assert len(found) == 27
    for c in found:
        assert_matches_reference(representative_state(c), [K4, K6])


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the count list."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("name", QUBIT_STATES)
def test_fresh_point_walks_no_loops(name, monkeypatch):
    joins = _counting(monkeypatch, spaces, "_join")
    diag_joins = _counting(monkeypatch, diagrams, "_join")
    state = load_corpus(name).state()
    state.raw_overlaps(K4)
    assert len(joins) == len(state.basis_loops) * 2 ** len(state.layout.dims)
    joins.clear()
    diag_joins.clear()
    state.raw_overlaps(EvalPoint(0.123))
    assert joins == [] and diag_joins == []


def test_three_qubit_amplitudes_build_one_frame(monkeypatch):
    frames = _counting(monkeypatch, QuditSpace, "frame_rows")
    load_corpus("quasiw").state().amplitudes(EvalPoint(0.123))
    assert len(frames) == 1


@pytest.mark.parametrize("name", ["quasiw", "two_qutrit_rank1"])
def test_basis_loops_keep_no_per_point_state(name):
    state = load_corpus(name).state()
    window = np.pi / 10 if 3 in state.layout.dims else np.pi / 6
    state.raw_overlaps(K4)

    def sizes():
        return {key: len(v) if hasattr(v, "__len__") else v
                for key, v in vars(state).items()}

    before = sizes()
    assert before["basis_loops"] > 0
    for theta in np.linspace(-0.95 * window, 0.95 * window, 500):
        state.raw_overlaps(EvalPoint(theta))
    assert sizes() == before


def assert_list_form_matches_arrays(state, points):
    """Cross-checks of the list form against numpy: amplitude_list against
    tensordot_amplitudes within 1e-14 of the largest |amplitude|, and for
    three qubits the command line's tau3, taken from the list, against
    three_tangle of the tensordot array within 1e-14."""
    for pt in points:
        flat = state.amplitude_list(pt)
        amp = tensordot_amplitudes(state, pt)
        top = float(np.max(np.abs(amp)))
        assert len(flat) == amp.size
        assert max(abs(z - w) for z, w in zip(flat, amp.ravel().tolist())) <= 1e-14 * top, pt
        if state.layout.dims == (2, 2, 2):
            assert abs(_tau3_of(state, pt) - three_tangle(amp)) <= 1e-14, pt


@pytest.mark.parametrize("name", PARTY_STATES)
def test_amplitude_list_matches_amplitudes_on_corpus(name):
    """Each corpus state at k = 4, k = 6 and 50 seeded angles inside its
    frame window."""
    state = load_corpus(name).state()
    window = np.pi / 10 if 3 in state.layout.dims else np.pi / 6
    rng = random.Random("list form " + name)
    thetas = [rng.uniform(-0.95 * window, 0.95 * window) for _ in range(50)]
    assert_list_form_matches_arrays(state, [K4, K6] + [EvalPoint(t) for t in thetas])


def test_amplitude_list_matches_amplitudes_on_connectomes():
    found = enumerate_connectomes(3) + enumerate_connectomes(4)
    assert len(found) == 27
    for c in found:
        assert_list_form_matches_arrays(representative_state(c), [K4, K6])


def test_frame_rows_are_the_transform():
    for n in (1, 2, 3, 4):
        for pt in (K6, EvalPoint(-0.07)):
            rows = qudit_space(n).frame_rows(pt)
            assert [len(r) for r in rows] == list(range(1, n + 1))
            T = qudit_space(n).ortho_transform(pt)
            assert np.array_equal(T, np.tril(T))
            assert [r[:i + 1] for i, r in enumerate(T.tolist())] == rows


def test_arrays_own_their_data():
    # a reshaped view would keep a second array header alive per tensor
    for name in ("maxent", "quasiw", "two_qutrit_rank2"):
        state = load_corpus(name).state()
        for array, flat in ((state.amplitudes(K6), state.amplitude_list(K6)),
                            (state.raw_overlaps(K6), state.raw_overlap_list(K6))):
            assert array.base is None and array.dtype == complex
            assert array.shape == state.layout.dims
            assert array.ravel().tolist() == flat
    for n in (2, 3):
        T = qudit_space(n).ortho_transform(K6)
        assert T.base is None
        assert [r[:i + 1] for i, r in enumerate(T.tolist())] == qudit_space(n).frame_rows(K6)


@pytest.mark.parametrize("make, point", [
    (lambda: DiagramState(reduced_diagram(2, 1).element, PartyLayout.qubits("L", "R")),
     EvalPoint(np.pi / 4)),
    (lambda: representative_state(Connectome([[0, 6, 6], [6, 0, 6], [6, 6, 0]])), K4),
], ids=["qubits_d0", "three_dim4_ring"])
def test_amplitude_list_raises_as_amplitudes(monkeypatch, make, point):
    dressings = _counting(monkeypatch, DiagramState, "dressed_numeric")
    state = make()
    errors = []
    for method in (state.amplitudes, state.amplitude_list):
        with pytest.raises(DegeneratePointError) as info:
            method(point)
        errors.append((str(info.value), info.value.party, info.value.vector,
                       info.value.factor))
    assert errors[0] == errors[1]
    assert dressings == []


def test_frames_never_dress_the_local_basis(capsys, monkeypatch):
    # a command that reads only frames leaves the dressed basis and its Gram
    # matrix unbuilt; the first projector tile dresses the basis, once
    qudit_space.cache_clear()
    try:
        assert cli.main(["state", "two_qutrit_rank2", "--k", "4"]) == 0
        capsys.readouterr()
        space = qudit_space(3)
        assert "dressed" not in vars(space) and "gram" not in vars(space)
        dressings = []
        real = spaces.dress

        def counting(element, layout, projector, d):
            if layout.names == ("of dimension 3",):
                dressings.append(1)
            return real(element, layout, projector, d)

        monkeypatch.setattr(spaces, "dress", counting)
        state = load_corpus("two_qutrit_rank2").state()
        for point in (K4, K6):
            replica_check(state.amplitudes(point), state, point, 2)
        assert len(dressings) == len(space.basis) == 3
        assert "dressed" in vars(space) and "gram" not in vars(space)
    finally:
        qudit_space.cache_clear()


def test_three_qubit_amplitude_list_builds_one_frame(monkeypatch):
    frames = _counting(monkeypatch, QuditSpace, "frame_rows")
    load_corpus("quasiw").state().amplitude_list(EvalPoint(0.123))
    assert len(frames) == 1
