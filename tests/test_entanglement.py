import gc
import math
import random
import tracemalloc

import numpy as np
import pytest

from tl_entangle import diagrams, entanglement, spaces
from tl_entangle.diagrams import PlanarDiagram, TLElement, conj_scalar
from tl_entangle.scalars import EvalPoint, InvariantError, LaurentPoly
from tl_entangle.skein import SliceWord
from tl_entangle.connectomes import enumerate_connectomes, representative_state
from tl_entangle.spaces import (POINT_CACHE_SIZE, DiagramState, PartyLayout, qudit_space,
                                reduced_diagram)
from tl_entangle.tangle_dsl import corpus_names, load_corpus
from tl_entangle.entanglement import (
    conversion_probability,
    cut_singular_values,
    entanglement_entropy,
    ladder_indicator,
    ladder_operator,
    local_ranks,
    min_ladder_indicator,
    rank_above,
    replica_check,
    schmidt_rank,
    slocc_tripartite_class,
    spectrum_entropy,
    three_tangle,
    three_tangle_of,
    trace_power,
    tripartite_class,
)

from test_diagrams import walk_glue_network
from test_spaces import SEVEN_TRIPARTITE, expected_tripartite, reference_ortho_transform

K4 = EvalPoint.from_level(4)
K6 = EvalPoint.from_level(6)

GHZ = np.zeros((2, 2, 2), complex)
GHZ[0, 0, 0] = GHZ[1, 1, 1] = 1 / np.sqrt(2)

W = np.zeros((2, 2, 2), complex)
W[0, 0, 1] = W[0, 1, 0] = W[1, 0, 0] = 1 / np.sqrt(3)


def random_state(rng, *dims):
    t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return t / np.linalg.norm(t)


def random_unitary(rng, n=2):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local(t, us):
    for ax, u in enumerate(us):
        t = np.moveaxis(np.tensordot(u, t, axes=(1, ax)), 0, ax)
    return t


# numpy references for the measures, which all read the pure-Python
# cut_singular_values: SVDs and eigenvalues of the same cut matrix, by LAPACK.

def matricized(t, keep):
    """t as a matrix whose rows run over the kept axes."""
    keep = tuple(keep)
    rest = [a for a in range(t.ndim) if a not in keep]
    return t.transpose(list(keep) + rest).reshape(math.prod(t.shape[a] for a in keep), -1)


def reduced_density(t, keep=(0,)):
    """Density matrix of the kept parties of t over its norm, traced over
    the rest."""
    t = np.asarray(t, dtype=complex)
    tt = matricized(t / np.linalg.norm(t), keep)
    return tt @ tt.conj().T


def von_neumann_entropy(rho):
    """Entropy in nats of a density matrix (normalized to unit trace first),
    over its eigenvalues above 1e-14."""
    ev = np.linalg.eigvalsh(rho / np.trace(rho).real)
    return float(-sum(w * math.log(w) for w in ev.tolist() if w > 1e-14))


def numpy_cut(t, keep):
    """numpy's singular values, largest first, of t's matrix over keep."""
    return np.linalg.svd(matricized(np.asarray(t, dtype=complex), keep), compute_uv=False)


def numpy_rank(t, keep, tol):
    """Number of numpy's singular values across keep above tol times the largest."""
    sv = numpy_cut(t, keep)
    return int(np.sum(sv > tol * sv[0])) if sv[0] > 0 else 0


def numpy_tripartite_class(t, tol=1e-8):
    """The three-qubit class from numpy's local ranks and tau3 of t over its norm."""
    t = np.asarray(t, dtype=complex)
    ranks = [numpy_rank(t, (k,), tol) for k in range(3)]
    return tripartite_class(ranks, three_tangle_of((t / np.linalg.norm(t)).ravel().tolist()), tol)


def test_reduced_density_maxent():
    t = np.eye(2) / np.sqrt(2)
    rho = reduced_density(t, keep=(0,))
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert abs(von_neumann_entropy(rho) - np.log(2)) < 1e-12
    assert abs(entanglement_entropy(t) - np.log(2)) < 1e-12


def test_measures_reject_zero_tensor():
    # the same ValueError from every measure, before any rotation
    zero2, zero3 = np.zeros((2, 2)), np.zeros((2, 2, 2), complex)
    for call in (lambda: cut_singular_values([0.0] * 4, (2, 2), (0,)),
                 lambda: cut_singular_values([], (0, 2), (0,)),
                 lambda: cut_singular_values([], (2, 0), (0,)),
                 lambda: schmidt_rank(zero2), lambda: schmidt_rank(zero3, (1, 2)),
                 lambda: entanglement_entropy(zero3), lambda: trace_power(zero3, 2),
                 lambda: local_ranks(zero3), lambda: conversion_probability(zero2),
                 lambda: three_tangle(zero3), lambda: slocc_tripartite_class(zero3),
                 lambda: ladder_indicator(zero3)):
        with pytest.raises(ValueError, match="zero tensor"):
            call()


@pytest.mark.parametrize("amps", [[1, 0, 0, 0, 5], [1, 0, 0]])
def test_cut_singular_values_rejects_wrong_length(amps):
    # every entry counts: no trailing entry is dropped, none is read past the end
    with pytest.raises(ValueError, match=r"\d amplitudes do not fill dims \(2, 2\)"):
        cut_singular_values(amps, (2, 2), (0,))


@pytest.mark.parametrize("keep", [(0, 0), (3,), (-1,), (0.0,), ("0",), (True,)])
def test_measures_reject_bad_keep(keep):
    amps = GHZ.ravel().tolist()
    for call in (lambda: cut_singular_values(amps, (2, 2, 2), keep),
                 lambda: schmidt_rank(GHZ, keep), lambda: entanglement_entropy(GHZ, keep),
                 lambda: trace_power(GHZ, 2, keep)):
        with pytest.raises(ValueError, match=r"keep .* 3 parties"):
            call()


def test_measures_take_numpy_integer_keep():
    amps = GHZ.ravel().tolist()
    keep = (np.int64(2), np.int32(0))
    assert cut_singular_values(amps, (2, 2, 2), keep) == cut_singular_values(amps, (2, 2, 2), (2, 0))
    assert trace_power(GHZ, 3, keep) == trace_power(GHZ, 3, (2, 0))
    assert schmidt_rank(W, (np.uint8(1),)) == 2


def test_schmidt_rank_of_tensor_without_bipartition_is_internal_error():
    # an internal caller's mistake, not bad input: the CLI maps it to exit 4
    with pytest.raises(InvariantError, match="needs a bipartition"):
        schmidt_rank(GHZ)


def test_traceless_ladder_operator_is_internal_error(monkeypatch):
    # the trace is Tr rho^3 of a one-party reduced density matrix, above 0
    # for every nonzero tensor, so only a broken contraction reaches this branch
    monkeypatch.setattr(np, "trace", lambda m: 0.0)
    with pytest.raises(InvariantError, match="traceless"):
        ladder_operator(GHZ)


def test_schmidt_rank_matrix_and_tensor():
    assert schmidt_rank(np.eye(2)) == 2
    assert schmidt_rank(np.array([[1.0, 0.0], [0.0, 0.0]])) == 1
    assert schmidt_rank(GHZ, keep=(0,)) == 2
    assert schmidt_rank(GHZ, keep=(0, 1)) == 2
    prod = np.einsum("i,j,k->ijk", *([np.array([1.0, 2.0])] * 3))
    assert schmidt_rank(prod, keep=(1,)) == 1


def test_entropy_of_pure_reduction():
    t = np.zeros((2, 2))
    t[0, 0] = 1.0
    assert entanglement_entropy(t) < 1e-12
    assert abs(entanglement_entropy(GHZ, keep=(0,)) - np.log(2)) < 1e-12


def test_trace_power_ghz():
    for n in (2, 3, 4):
        assert abs(trace_power(GHZ, n) - 2 ** (1 - n)) < 1e-12


def eigvalsh_trace_power(t, n, keep=(0,)):
    """Tr rho^n from numpy's eigenvalues of the reduced density matrix, each
    to the n-th power."""
    ev = np.linalg.eigvalsh(reduced_density(t, keep))
    return float(np.sum(ev ** n).real)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 2, 2), (3, 3, 2)])
def test_trace_power_matches_eigenvalues(shape):
    rng = np.random.default_rng(sum(shape) * 10 + len(shape))
    keeps = [keep for keep in ((0,), (1,), (0, 1), (0, 2)) if max(keep) < len(shape)]
    for _ in range(5):
        t = random_state(rng, *shape) * rng.uniform(0.1, 10)
        for keep in keeps:
            for n in (2, 3, 4):
                ref = eigvalsh_trace_power(t, n, keep)
                assert abs(trace_power(t, n, keep) - ref) <= 1e-12, (keep, n)
    with pytest.raises(ValueError, match="zero tensor"):
        trace_power(np.zeros(shape, complex), 2)


MAXENT = PlanarDiagram(0, 8, [(1, 8), (2, 7), (3, 6), (4, 5)])
QUBIT_PAIR = PartyLayout.qubits("A", "B")
TRI_LAYOUT = PartyLayout.qubits("A", "C", "B")


def test_replica_maxent_frozen():
    st = DiagramState(MAXENT, QUBIT_PAIR)
    t = st.amplitudes(K4)
    for n, expect in ((2, 0.5), (3, 0.25), (4, 0.125)):
        numeric, glued = replica_check(t, st, K4, n)
        assert abs(numeric - expect) < 1e-8
        assert abs(glued - expect) < 1e-8


def test_replica_separable_is_one():
    st = DiagramState(PlanarDiagram(0, 8, [(1, 2), (3, 4), (5, 6), (7, 8)]),
                      QUBIT_PAIR)
    t = st.amplitudes(K4)
    numeric, glued = replica_check(t, st, K4, 2)
    assert abs(numeric - 1.0) < 1e-8
    assert abs(glued - 1.0) < 1e-8


def test_replica_tripartite_agreement():
    for theta in (-0.22, -0.31):
        pt = EvalPoint(theta)
        for key in (5, 6, 7):
            st = DiagramState(PlanarDiagram(0, 12, SEVEN_TRIPARTITE[key]),
                              TRI_LAYOUT)
            t = st.amplitudes(pt)
            for keep in ((0,), (0, 1)):
                for n in (2, 3):
                    numeric, glued = replica_check(t, st, pt, n, keep=keep)
                    assert abs(numeric - glued) < 1e-8, (key, keep, n)


def test_replica_corpus_agreement_k6():
    # the acceptance suite checks k = 4; qutrit projector tiles are attached
    # in two halves, so a second level point guards that contraction too
    for name in corpus_names():
        doc = load_corpus(name)
        if not doc.parties:
            continue
        st = doc.state()
        t = st.amplitudes(K6)
        for n in (2, 3):
            numeric, glued = replica_check(t, st, K6, n)
            assert abs(numeric - glued) < 1e-8, (name, n)


def as_state(op):
    """A 4w -> 4w map read as a state on the same labels."""
    return TLElement({PlanarDiagram(0, dg.n_points, dg.pairs): c for dg, c in op.terms.items()})


def reference_projector_tile(space, point):
    """The projector tile as replica_check glued it before tiles were kept per
    point, built afresh: the sum over i of u_i^dagger (x) u_i, with
    u_i = sum_j T[i][j] b_j from reference_ortho_transform."""
    T = reference_ortho_transform(space, point)
    dressed_num = [v.evaluate(point) for v in space.dressed]
    out = TLElement.zero()
    for i in range(space.n):
        u = TLElement.zero()
        for j in range(i + 1):
            u = u + complex(T[i, j]) * dressed_num[j]
        out = out + u.adjoint().tensor(u)
    return as_state(out)


def gram_inverse_tile(space, point):
    """The projector tile from the inverse of the numeric Gram matrix:
    the sum over a, b of Ginv[a][b] b_b^dagger (x) b_a."""
    ginv = np.linalg.inv(space.gram_numeric(point))
    dressed_num = [v.evaluate(point) for v in space.dressed]
    out = TLElement.zero()
    for a in range(space.n):
        for b in range(space.n):
            out = out + complex(ginv[a, b]) * dressed_num[b].adjoint().tensor(dressed_num[a])
    return as_state(out)


@pytest.mark.parametrize("n, points", [
    (2, [K4, K6, EvalPoint(-0.3)]),
    (3, [K4, K6, EvalPoint(-0.2)]),
    # every dimension-4 frame degenerates at k = 4 and k = 5; a dimension-4
    # tile has 17,424 terms, and its Gram-inverse side takes seconds
    (4, [K6]),
])
def test_projector_tile_matches_gram_inverse(n, points):
    space = qudit_space(n)
    for pt in points:
        tile, ref = space.projector_element(pt), gram_inverse_tile(space, pt)
        assert tile.terms.keys() == ref.terms.keys()
        top = max(abs(c) for c in ref.terms.values())
        assert max(abs(c - ref.terms[dg]) for dg, c in tile.terms.items()) <= 1e-12 * top, pt


def reference_glued_power(state, n, keep, point):
    """_glued_power as it was before its theta-fixed parts were reused: every
    projector tile is rebuilt, and the ring is contracted by the
    frontier walk (walk_glue_network), which splits every tile afresh."""
    layout = state.layout
    ket = state.element.evaluate(point)
    bra = ket.map_coefficients(conj_scalar)
    nontrivial = [k for k, (_, nk) in enumerate(layout.parties) if nk > 1]
    keep = set(keep)
    traced = [k for k in nontrivial if k not in keep]
    kept = [k for k in nontrivial if k in keep]
    order = []
    for r in range(n):
        order.append(("ket", r))
        order += [("pi", r, p, "T") for p in traced]
        order.append(("bra", r))
        order += [("pi", r, p, "K") for p in kept]
    index = {tag: i for i, tag in enumerate(order)}
    tiles = [ket if tag[0] == "ket" else bra if tag[0] == "bra" else
             reference_projector_tile(qudit_space(layout.dims[tag[2]]), point)
             for tag in order]
    bonds = []

    def wire(ket_tile, pi_tile, bra_tile, party):
        o = layout.offsets[party]
        w4 = 4 * (layout.dims[party] - 1)
        for l in range(1, w4 + 1):
            bonds.append(((ket_tile, o + l), (pi_tile, w4 + 1 - l)))
            bonds.append(((pi_tile, w4 + l), (bra_tile, o + l)))

    for r in range(n):
        for p in traced:
            wire(index[("ket", r)], index[("pi", r, p, "T")], index[("bra", r)], p)
        for p in kept:
            wire(index[("ket", (r + 1) % n)], index[("pi", r, p, "K")],
                 index[("bra", r)], p)
    return walk_glue_network(tiles, bonds, complex(point.d))


def reference_replica_check(t, state, point, n, keep=(0,)):
    norm = entanglement._norm_sq(t.reshape(-1).tolist())
    glued = reference_glued_power(state, n, keep, point) / norm ** n
    return trace_power(t, n, keep), complex(glued)


@pytest.mark.parametrize("point", [K4, K6], ids=["k4", "k6"])
def test_replica_check_matches_reference(point):
    for name in corpus_names():
        doc = load_corpus(name)
        if not doc.parties:
            continue
        st = doc.state()
        t = st.amplitudes(point)
        for keep in ((0,), (1,))[:len(st.layout.parties)]:
            for n in (2, 3, 4):
                assert (replica_check(t, st, point, n, keep=keep)
                        == reference_replica_check(t, st, point, n, keep=keep)), \
                    (name, keep, n)


def counting_kernel(monkeypatch):
    """Count entanglement's compiles (network_plan) and passes (glue_network)."""
    calls = {"plan": [], "pass": []}
    plan, replay = entanglement.network_plan, entanglement.glue_network

    def counting_plan(tiles, bonds):
        calls["plan"].append(len(tiles))
        return plan(tiles, bonds)

    def counting_pass(compiled, tiles, d):
        calls["pass"].append(len(tiles))
        return replay(compiled, tiles, d)

    monkeypatch.setattr(entanglement, "network_plan", counting_plan)
    monkeypatch.setattr(entanglement, "glue_network", counting_pass)
    return calls


def test_replica_check_contracts_power_each_call(monkeypatch):
    # one compile per (n, kept parties), and a numeric pass on every call
    calls = counting_kernel(monkeypatch)
    st = load_corpus("two_qutrit_rank1").state()
    t = st.amplitudes(K6)
    first = replica_check(t, st, K6, 3)
    assert calls == {"plan": [12], "pass": [12]}
    second = replica_check(t, st, K6, 3)
    assert calls == {"plan": [12], "pass": [12, 12]}
    assert second == first
    replica_check(t, st, K6, 3, keep=(1,))
    assert calls == {"plan": [12, 12], "pass": [12, 12, 12]}
    # a new point needs no compile: the power is the only pass
    pt = EvalPoint(-0.2345678)
    replica_check(st.amplitudes(pt), st, pt, 3)
    assert calls == {"plan": [12, 12], "pass": [12, 12, 12, 12]}
    assert sorted(st.replica_plans) == [(3, frozenset({0})), (3, frozenset({1}))]


def test_projector_tile_split_once_per_plan(monkeypatch):
    splits = []
    original = diagrams._split

    def counting(terms, first):
        splits.append(len(terms))
        return original(terms, first)

    monkeypatch.setattr(diagrams, "_split", counting)
    pt = EvalPoint(-0.2345678)
    st = load_corpus("two_qutrit_rank1").state()
    t = st.amplitudes(pt)
    first = replica_check(t, st, pt, 3)
    # the plan splits the projector tile once per first half it attaches
    # first: the n = 3 ring two (its six projector steps); a call that
    # compiles nothing splits nothing
    assert splits == [196, 196]
    assert replica_check(t, st, pt, 3) == first
    pt2 = EvalPoint(-0.1234567)
    replica_check(st.amplitudes(pt2), st, pt2, 3)
    assert splits == [196, 196]


def test_replica_sweep_keeps_one_plan_per_order_and_keep():
    st = DiagramState(PlanarDiagram(0, 12, SEVEN_TRIPARTITE[7]), TRI_LAYOUT)
    plans = None
    for i, theta in enumerate(np.linspace(-0.45, -0.05, 200)):
        pt = EvalPoint(theta)
        t = st.amplitudes(pt)
        for keep in ((0,), (1, 2)):
            numeric, glued = replica_check(t, st, pt, 2 + i % 2, keep=keep)
            assert abs(numeric - glued) < 1e-8
        if i == 1:
            plans = dict(st.replica_plans)
    # compiled at the first points and never again: no plan is keyed by point
    assert st.replica_plans == plans
    assert sorted((n, tuple(sorted(keep))) for n, keep in st.replica_plans) == [
        (2, (0,)), (2, (1, 2)), (3, (0,)), (3, (1, 2))]


def test_plan_compiled_once_over_the_exact_element(monkeypatch):
    # the second diagram's coefficient A^4 - A^-4 is exactly 0 at theta = 0,
    # where the plans are compiled, over the exact element's two diagrams
    coeff = LaurentPoly({4: 1, -4: -1})
    element = TLElement({MAXENT: 1, PlanarDiagram(0, 8, [(1, 2), (3, 4), (5, 6), (7, 8)]): coeff})
    st = DiagramState(element, QUBIT_PAIR)
    calls = counting_kernel(monkeypatch)
    zero, other = EvalPoint(0.0), EvalPoint(-0.3)
    assert len(st.element.evaluate(zero).terms) == 1
    for pt in (zero, other, zero, other):
        t = st.amplitudes(pt)
        got = replica_check(t, st, pt, 2)
        assert got == reference_replica_check(t, st, pt, 2)
        assert abs(got[0] - got[1]) < 1e-8
    # compiled at theta = 0 and never again; a pass per call
    assert calls == {"plan": [8], "pass": [8] * 4}
    for _, plan in st.replica_plans.values():
        assert len(plan.terms[0]) == 2


def test_replica_check_rejects_bad_keep(monkeypatch):
    calls = counting_kernel(monkeypatch)
    st = DiagramState(MAXENT, QUBIT_PAIR)
    t = st.amplitudes(K4)
    for keep in ((2,), (0, 0), (-1,), (0.0,), ("0",), (True,)):
        with pytest.raises(ValueError, match=r"keep .* 2 parties"):
            replica_check(t, st, K4, 2, keep=keep)
    assert calls == {"plan": [], "pass": []}


def test_replica_check_rejects_a_tensor_of_another_shape(monkeypatch):
    # the glued side is normalized by the tensor's sum |t|^2, so a tensor
    # that is not the state's amplitudes must not reach it
    calls = counting_kernel(monkeypatch)
    st = load_corpus("tripartite_7").state()
    for t in (np.ones((2, 2)), np.ones((2, 2, 3)), np.ones((2, 2, 2, 1))):
        with pytest.raises(ValueError, match=r"shape .* dims \(2, 2, 2\)"):
            replica_check(t, st, K4, 2)
    assert calls == {"plan": [], "pass": []}


def test_replica_check_reads_an_integer_order(monkeypatch):
    calls = counting_kernel(monkeypatch)
    st = DiagramState(MAXENT, QUBIT_PAIR)
    t = st.amplitudes(K4)
    for n in (2.5, 3.0, "2", True):
        with pytest.raises(ValueError, match="replica order must be an integer"):
            replica_check(t, st, K4, n)
    assert calls == {"plan": [], "pass": []}
    assert replica_check(t, st, K4, np.int64(3)) == replica_check(t, st, K4, 3)


def test_replica_check_calls_no_lapack(monkeypatch):
    # every amplitude measure reads the pure-Python cut kernel; maxent is
    # the qubit pair that conversion_probability takes
    for routine in ("svd", "eigvalsh", "norm"):
        def refuse(*args, routine=routine, **kwargs):
            raise AssertionError(f"a measure reached numpy.linalg.{routine}")
        monkeypatch.setattr(np.linalg, routine, refuse)
    for name in ("maxent", "two_qutrit_rank1", "tripartite_7"):
        st = load_corpus(name).state()
        t = st.amplitudes(K4)
        assert schmidt_rank(t, (1,)) == local_ranks(t)[1] >= 1
        assert 0 <= entanglement_entropy(t, (1,)) <= math.log(3) + 1e-12
        assert 0 < trace_power(t, 3, (1,)) <= 1 + 1e-12
        if t.shape == (2, 2):
            assert abs(conversion_probability(t) - 1) < 1e-12
        if t.shape == (2, 2, 2):
            assert three_tangle(t) > 0.5
            assert slocc_tripartite_class(t) == "GHZ"
        for n in (2, 3):
            numeric, glued = replica_check(t, st, K4, n, keep=(1,))
            assert abs(numeric - glued) < 1e-8, (name, n)


def frame_thetas(name, count=20):
    """count seeded angles inside the name's nondegenerate frame window."""
    window = math.pi / 10 if name.startswith("two_qutrit") else math.pi / 6
    rng = random.Random(name)
    return [rng.uniform(-0.85 * window, 0.85 * window) for _ in range(count)]


def walk_glued_power(state, n, keep, points):
    """_glued_power's ring at each of points, contracted by the frontier
    walk instead of the kept plan: the same tiles and bonds, a different
    kernel.  One walk takes every point's coefficients, stacked in arrays;
    only the topology is shared, each value comes from its own arithmetic."""
    slots, bonds = entanglement._ring(state.layout, n, keep)
    rings = []
    for point in points:
        ket = state.element.evaluate(point)
        tiles = {"ket": ket, "bra": ket.map_coefficients(conj_scalar)}
        rings.append([tiles[s] if s in tiles else
                      qudit_space(state.layout.dims[s]).projector_element(point) for s in slots])
    stacked = [_stacked_tile(column) for column in zip(*rings)]
    d = np.array([complex(point.d) for point in points])
    return np.broadcast_to(walk_glue_network(stacked, bonds, d), (len(points),))


def _stacked_tile(tiles):
    """A tile whose coefficients are arrays over tiles, 0 where one lacks a
    diagram; built without TLElement's zero test, which an array fails."""
    out = TLElement.__new__(TLElement)
    out.terms = {dg: np.array([tile.terms.get(dg, 0) for tile in tiles], complex)
                 for dg in dict.fromkeys(dg for tile in tiles for dg in tile.terms)}
    return out


MULTI_PARTY = [name for name in corpus_names() if len(load_corpus(name).parties) > 1]


@pytest.mark.parametrize("n, points", [
    (2, [K4, K6] + [EvalPoint(theta) for theta in frame_thetas("maxent", 5)]),
    (3, [K4, K6] + [EvalPoint(theta) for theta in frame_thetas("two_qutrit_rank1", 5)]),
    (4, [K6]),
])
def test_projector_tile_matches_reference(n, points):
    # built afresh on the grid of tile_cells: every coefficient equal to the
    # sum of element tensor products, and the terms in the same order
    space = qudit_space(n)
    for pt in points:
        tile, ref = space._projector_state(pt), reference_projector_tile(space, pt)
        assert list(tile.terms.items()) == list(ref.terms.items()), pt.theta


@pytest.mark.parametrize("name", MULTI_PARTY)
def test_plan_and_pass_match_the_frontier_walk(name):
    st = load_corpus(name).state()
    points = [K4, K6] + [EvalPoint(theta) for theta in frame_thetas(name)]
    for keep in ((0,), (1,)):
        for n in (1, 2, 3, 4):
            refs = walk_glued_power(st, n, keep, points)
            for pt, ref in zip(points, refs):
                got = entanglement._glued_power(st, n, keep, pt)
                assert abs(got - ref) <= 1e-12 * abs(ref), (pt.theta, keep, n)
    # one plan per (n, keep), compiled at the first point
    assert len(st.replica_plans) == 8


NORM_POINTS = [K4, K6, EvalPoint(-0.05), EvalPoint(0.0731)]


def norm_states():
    """The party-bearing corpus, every 3- and 4-party connectome
    representative and reduced_diagram(n, j) for n = 2, 3: 49 states."""
    return ([load_corpus(name).state() for name in corpus_names() if load_corpus(name).parties]
            + [representative_state(c) for m in (3, 4) for c in enumerate_connectomes(m)]
            + [reduced_diagram(n, j) for n in (2, 3) for j in range(n)])


def test_n1_ring_is_the_tensor_norm():
    # replica_check divides the glued power by (sum |t|^2)^n in place of the
    # n = 1 ring's value: the two are Tr rho, from the tensor and glued
    states = norm_states()
    assert len(states) == 49
    for st in states:
        for keep in {(0,), (len(st.layout.parties) - 1,)}:
            for pt in NORM_POINTS:
                ref = entanglement._norm_sq(st.amplitude_list(pt))
                got = entanglement._glued_power(st, 1, keep, pt)
                assert abs(got - ref) <= 1e-12 * ref, (st, keep, pt.theta)


@pytest.mark.parametrize("name", ["maxent", "tripartite_7", "two_qutrit_rank1"])
def test_replica_check_sees_a_scaled_projector_tile(name, monkeypatch):
    # every tile 1 + 1e-6 too large puts 2n(parties) of them in the glued
    # power; a normalization glued from the same tiles would cancel them
    build = spaces.QuditSpace._projector_state
    monkeypatch.setattr(spaces.QuditSpace, "_projector_state", lambda space, point: (
        build(space, point).map_coefficients(lambda c: c * (1 + 1e-6))))
    spaces._projector_tile.cache_clear()
    try:
        st = load_corpus(name).state()
        pt = EvalPoint(-0.2222)
        numeric, glued = replica_check(st.amplitudes(pt), st, pt, 2)
    finally:
        spaces._projector_tile.cache_clear()
    assert abs(numeric - glued) > 1e-8


def test_replica_plans_stay_compact():
    # the plans of every multi-party corpus state at n = 1..3, keep (0,)
    states = [load_corpus(name).state() for name in MULTI_PARTY]
    for st in states:
        for n in (1, 2, 3):
            entanglement._glued_power(st, n, (0,), K4)
        st.replica_plans.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for st in states:
            for n in (1, 2, 3):
                entanglement._glued_power(st, n, (0,), K4)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert size < 1_000_000, size


def test_projector_tile_built_once_per_point(monkeypatch):
    built = []
    original = spaces.QuditSpace._projector_state

    def counting(space, point):
        built.append((space.n, point))
        return original(space, point)

    monkeypatch.setattr(spaces.QuditSpace, "_projector_state", counting)
    # from an empty tile cache, so that no earlier test's tile at this point
    # is found
    spaces._projector_tile.cache_clear()
    pt = EvalPoint(-0.1234567)
    for name in ("two_qutrit_rank1", "two_qutrit_rank3", "tripartite_2", "maxent"):
        st = load_corpus(name).state()
        t = st.amplitudes(pt)
        for keep in ((0,), (1,)):
            for n in (2, 3):
                replica_check(t, st, pt, n, keep=keep)
    assert sorted(built, key=lambda b: b[0]) == [(2, pt), (3, pt)]
    assert qudit_space(3).projector_element(pt) is qudit_space(3).projector_element(pt)


def test_point_caches_stay_bounded():
    st = DiagramState(MAXENT, QUBIT_PAIR)
    space = qudit_space(2)
    points = [EvalPoint(theta) for theta in np.linspace(-0.45, -0.05, 200)]
    for pt in points:
        numeric, glued = replica_check(st.amplitudes(pt), st, pt, 2)
        assert abs(numeric - glued) < 1e-8, pt.theta
        assert spaces._projector_tile.cache_info().currsize <= POINT_CACHE_SIZE
    assert space.projector_element(points[-1]) is space.projector_element(points[-1])
    assert spaces._projector_tile.cache_info().currsize == POINT_CACHE_SIZE


def test_replica_order_validation():
    st = DiagramState(MAXENT, QUBIT_PAIR)
    with pytest.raises(ValueError):
        replica_check(st.amplitudes(K4), st, K4, 5)


def test_conversion_probability_chained():
    ops = [("cup", 1), ("cup", 1), ("over", 2), ("over", 2),
           ("cup", 3), ("cup", 5), ("over", 4), ("over", 4)]
    el = SliceWord(0, ops).to_element("kauffman")
    st = DiagramState(el, QUBIT_PAIR)
    for theta in (-0.22, -0.31, -np.pi / 12):
        pt = EvalPoint(theta)
        p0 = np.cos(4 * theta) ** 4
        p1 = np.sin(2 * theta) ** 4
        expect = 2 * min(p0, p1) / (p0 + p1)
        assert abs(conversion_probability(st.amplitudes(pt)) - expect) < 1e-10


def test_conversion_probability_extremes():
    assert abs(conversion_probability(np.eye(2)) - 1.0) < 1e-12
    sep = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert conversion_probability(sep) < 1e-12


def test_three_tangle_reference_states():
    assert abs(three_tangle(GHZ) - 1.0) < 1e-12
    assert three_tangle(W) < 1e-12
    prod = np.einsum("i,j,k->ijk", *([np.array([1.0, 1.0])] * 3))
    assert three_tangle(prod) < 1e-12
    bisep = np.einsum("ij,k->ijk", np.eye(2), np.array([1.0, 0.0]))
    assert three_tangle(bisep) < 1e-12


def test_three_tangle_local_unitary_invariance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        t = random_state(rng, 2, 2, 2)
        tau = three_tangle(t)
        us = [random_unitary(rng) for _ in range(3)]
        assert abs(three_tangle(apply_local(t, us)) - tau) < 1e-10


def test_three_tangle_party_permutation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = random_state(rng, 2, 2, 2)
        tau = three_tangle(t)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert abs(three_tangle(np.transpose(t, perm)) - tau) < 1e-10


def test_slocc_classes_of_tripartite_diagrams():
    d = complex(K4.d)
    expected = {1: "separable", 2: "separable", 3: "separable",
                4: "separable", 5: "biseparable(B|AC)",
                6: "biseparable(B|AC)", 7: "GHZ"}
    for key, label in expected.items():
        assert slocc_tripartite_class(expected_tripartite(key, d)) == label
    assert slocc_tripartite_class(W) == "W"
    assert slocc_tripartite_class(GHZ) == "GHZ"
    bisep = np.einsum("i,jk->ijk", np.array([1.0, 0.0]), np.eye(2))
    assert slocc_tripartite_class(bisep) == "biseparable(A|BC)"


def test_local_ranks():
    assert local_ranks(GHZ) == (2, 2, 2)
    d = complex(K4.d)
    assert local_ranks(expected_tripartite(5, d)) == (2, 1, 2)


def test_ladder_ghz_positive():
    val = ladder_indicator(GHZ)
    assert abs(val - np.log(2)) < 1e-10
    assert min_ladder_indicator(GHZ) > 1e-4


def test_ladder_w_positive():
    assert min_ladder_indicator(W) > 1e-4


def test_ladder_vanishes_on_product_and_biseparable():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (random_state(rng, 2) for _ in range(3))
        prod = np.einsum("i,j,k->ijk", a, b, c)
        assert min_ladder_indicator(prod) < 1e-8
        pair = random_state(rng, 2, 2)
        for build in ("i,jk->ijk", "j,ik->ijk", "k,ij->ijk"):
            single = random_state(rng, 2)
            assert min_ladder_indicator(np.einsum(build, single, pair)) < 1e-8


def test_ladder_first_party_sees_only_its_own_cut():
    # entangling the other two parties keeps the first-party ladder at zero,
    # while a cut that separates the first party from an entangled rest does
    # not; only the minimum over parties detects biseparability in general
    rng = np.random.default_rng(5)
    pair = random_state(rng, 2, 2)
    u = random_state(rng, 2)
    first_split = np.einsum("i,jk->ijk", u, pair)
    assert ladder_indicator(first_split, party=0) < 1e-10
    last_split = np.einsum("ij,k->ijk", pair, u)
    assert ladder_indicator(last_split, party=2) < 1e-10
    assert ladder_indicator(last_split, party=0) > 1e-4
    assert min_ladder_indicator(last_split) < 1e-8


def test_ladder_unitary_invariance_on_contracted_parties():
    rng = np.random.default_rng(13)
    for _ in range(10):
        t = random_state(rng, 2, 2, 2)
        base = ladder_indicator(t, party=0)
        ub = random_unitary(rng)
        uc = random_unitary(rng)
        rotated = apply_local(t, [np.eye(2), ub, uc])
        assert abs(ladder_indicator(rotated, party=0) - base) < 1e-8


def test_ladder_asymmetry_is_small_for_symmetric_states():
    _, asym = ladder_operator(GHZ)
    assert asym < 1e-12


def test_ladder_rejects_zero():
    with pytest.raises(ValueError):
        ladder_indicator(np.zeros((2, 2, 2)))


# The cut kernel (pure-Python one-sided Jacobi on the flat amplitude list),
# and every measure read off it, against numpy's SVD and eigenvalues.

def assert_list_measures_match(amps, dims):
    """Singular values, entropies, Tr rho^n, ranks and the three-qubit class
    of the normalized flat list amps over dims, from the kernel and from
    numpy: every one-party cut, every keep of two parties and, for two
    parties, the plain matrix (keep None)."""
    t = np.array(amps, dtype=complex).reshape(dims)
    keeps = [(k,) for k in range(len(dims))]
    keeps += [keep for keep in ((0, 1), (0, 2), (1, 2)) if max(keep) < len(dims)]
    for keep in keeps:
        sv = cut_singular_values(amps, dims, keep)
        assert np.abs(np.array(sv) - numpy_cut(t, keep)).max() < 1e-14, keep
        entropy = von_neumann_entropy(reduced_density(t, keep))
        assert abs(spectrum_entropy(sv) - entropy) < 1e-13, keep
        assert abs(entanglement_entropy(t, keep) - entropy) < 1e-13, keep
        for n in (2, 3):
            assert abs(trace_power(t, n, keep) - eigvalsh_trace_power(t, n, keep)) <= 1e-12
        for tol in (1e-8, 0.9):
            assert schmidt_rank(t, keep, tol) == numpy_rank(t, keep, tol), (keep, tol)
    for tol in (1e-8, 0.9):
        assert local_ranks(t, tol) == tuple(numpy_rank(t, (k,), tol) for k in range(len(dims)))
        if len(dims) == 2:
            assert schmidt_rank(t, tol=tol) == numpy_rank(t, (0,), tol)
        if list(dims) == [2, 2, 2]:
            assert slocc_tripartite_class(t, tol) == numpy_tripartite_class(t, tol)


@pytest.mark.parametrize("point", [K4, K6], ids=["k4", "k6"])
def test_list_measures_match_numpy_on_corpus(point):
    for name in corpus_names():
        doc = load_corpus(name)
        if not doc.parties:
            continue
        state = doc.state()
        amps = state.amplitude_list(point)
        norm = np.linalg.norm(amps)
        assert_list_measures_match([z / norm for z in amps], state.layout.dims)


def random_tensor(rng, dims, kind):
    """A random complex tensor over dims: generic, a product of one vector
    per party, a noisy product whose vectors, scaled by 1e-3 to 1e3, carry
    entries that are small multiples of eps, or of Schmidt rank below
    dims[k] across a random party k."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind in ("product", "noisy"):
        t = np.ones((), complex)
        for n in dims:
            v = gauss(n)
            if kind == "noisy":
                v *= 10 ** rng.uniform(-3, 3)
                small = rng.random(n) < 0.5
                small[rng.integers(n)] = False
                v[small] = rng.integers(-3, 4, size=int(small.sum())) * np.finfo(float).eps
            t = np.multiply.outer(t, v)
        return t
    if kind == "deficient" and max(dims) > 1:
        k = int(rng.choice([j for j, n in enumerate(dims) if n > 1]))
        rest = [n for j, n in enumerate(dims) if j != k]
        r = int(rng.integers(1, dims[k]))
        m = gauss(dims[k], r) @ gauss(r, int(np.prod(rest)))
        return np.moveaxis(m.reshape([dims[k]] + rest), 0, k)
    return gauss(*dims)


def test_list_measures_match_numpy_on_random_tensors():
    rng = np.random.default_rng(19)
    for i in range(800):
        dims = [int(n) for n in rng.integers(1, 5, size=int(rng.integers(2, 4)))]
        t = random_tensor(rng, dims, ("generic", "product", "deficient", "noisy")[i % 4])
        amps = (t / np.linalg.norm(t)).ravel().tolist()
        assert_list_measures_match(amps, dims)
    for base in (GHZ, W):
        for _ in range(20):
            t = apply_local(base, [random_unitary(rng) for _ in range(3)])
            assert_list_measures_match(t.ravel().tolist(), [2, 2, 2])


def test_jacobi_stops_at_rounding_noise_rows():
    # two_qubit_two_lines' raw amplitudes at theta = 0.20547472878184958: the
    # column cut's second row is noise parallel to the first, which every
    # rotation shrank by about eps without making the pair orthogonal
    amps = [-1.833483893707564, -2.220446049250313e-16, 0, 0]
    sv = cut_singular_values(amps, (2, 2), (1,))
    expect = np.linalg.svd(np.array(amps).reshape(2, 2).T, compute_uv=False)
    assert np.abs(np.array(sv) - expect).max() < 1e-15


def test_jacobi_sweep_cap_raises(monkeypatch):
    amps = (W + GHZ).ravel() / np.linalg.norm(W + GHZ)
    assert cut_singular_values(amps.tolist(), [2, 2, 2], (0,))
    monkeypatch.setattr(entanglement, "MAX_JACOBI_SWEEPS", 1)
    with pytest.raises(InvariantError, match="did not converge in 1 sweeps"):
        cut_singular_values(amps.tolist(), [2, 2, 2], (0,))



# The array measures share one tensor's cuts and tau3 (entanglement._computed):
# every value equals a cold computation's and the list kernel's.

CACHE_SHAPES = [(2, 2), (2, 2, 2), (3, 3), (2, 3, 2), (2, 2, 2, 2)]


def clear_cuts():
    entanglement._last_tensor[:] = None, {}


def measure_keeps(ndim):
    return [(k,) for k in range(ndim)] + [(0, 1), (1, 0)] + [(0, 2)] * (ndim > 2)


def array_measures(t, clear=False):
    """Every array measure of t, by name; with clear, each call starts from
    an empty cut cache."""
    calls = {("local_ranks", tol): lambda tol=tol: local_ranks(t, tol) for tol in (1e-9, 0.9)}
    for keep in measure_keeps(t.ndim):
        calls[("schmidt_rank", keep)] = lambda keep=keep: schmidt_rank(t, keep)
        calls[("entropy", keep)] = lambda keep=keep: entanglement_entropy(t, keep)
        for n in (2, 3):
            calls[("trace_power", n, keep)] = lambda n=n, keep=keep: trace_power(t, n, keep)
    if t.shape == (2, 2):
        calls["conversion"] = lambda: conversion_probability(t)
    if t.shape == (2, 2, 2):
        calls["tau3"] = lambda: three_tangle(t)
        calls["class"] = lambda: slocc_tripartite_class(t)
    out = {}
    for name, call in calls.items():
        if clear:
            clear_cuts()
        out[name] = call()
    return out


def kernel_measures(t):
    """array_measures(t) from the list kernel and three_tangle_of."""
    amps, dims = t.ravel().tolist(), t.shape
    cut = {keep: cut_singular_values(amps, dims, keep) for keep in measure_keeps(t.ndim)}

    def weights(sv):
        total = sum(s * s for s in sv)
        return [s * s / total for s in reversed(sv)]

    out = {("local_ranks", tol): tuple(rank_above(cut[(k,)], tol) for k in range(t.ndim))
           for tol in (1e-9, 0.9)}
    for keep, sv in cut.items():
        out[("schmidt_rank", keep)] = rank_above(sv, 1e-9)
        out[("entropy", keep)] = spectrum_entropy(sv)
        for n in (2, 3):
            out[("trace_power", n, keep)] = float(sum(w ** n for w in weights(sv)))
    if t.shape == (2, 2):
        out["conversion"] = float(2 * min(weights(cut[(0,)])))
    if t.shape == (2, 2, 2):
        norm = math.sqrt(sum([z.real * z.real + z.imag * z.imag for z in amps]))
        out["tau3"] = three_tangle_of([z / norm for z in amps])
        ranks = tuple(rank_above(cut[(k,)], 1e-8) for k in range(3))
        out["class"] = tripartite_class(ranks, out["tau3"], 1e-8)
    return out


def seeded_tensors():
    """Generic, product, rank-deficient and noisy complex tensors of each of
    CACHE_SHAPES, and the real part of the generic one."""
    rng = np.random.default_rng(25)
    for shape in CACHE_SHAPES:
        for kind in ("generic", "product", "deficient", "noisy"):
            t = random_tensor(rng, list(shape), kind)
            yield t
            if kind == "generic":
                yield np.ascontiguousarray(t.real)


def counting_cuts(monkeypatch):
    """From an empty cut cache, the keeps the array measures run the kernel
    on and their three_tangle_of calls.  The list kernel, cut_singular_values,
    runs the same kernel after its checks, so its calls count too."""
    clear_cuts()
    runs = {"cuts": [], "tau3": 0}
    kernel = entanglement._singular_values

    def cut(amps, dims, keep):
        runs["cuts"].append(tuple(keep))
        return kernel(amps, dims, keep)

    def tangle(amps):
        runs["tau3"] += 1
        return three_tangle_of(amps)

    monkeypatch.setattr(entanglement, "_singular_values", cut)
    monkeypatch.setattr(entanglement, "three_tangle_of", tangle)
    return runs


def test_shared_cuts_equal_cold_and_list_kernel_values():
    shapes = []
    for t in seeded_tensors():
        cold = array_measures(t, clear=True)
        clear_cuts()
        warm = array_measures(t)
        assert array_measures(t) == warm == cold == kernel_measures(t), t.shape
        shapes.append(t.shape)
    assert sorted(set(shapes)) == sorted(CACHE_SHAPES) and len(shapes) == 25


def test_theta_measure_set_runs_each_cut_once(monkeypatch):
    runs = counting_cuts(monkeypatch)
    rng = np.random.default_rng(7)
    for shape, cuts in (((2, 2, 2), [(0,), (1,), (2,)]), ((2, 2), [(0,), (1,)])):
        t = random_state(rng, *shape)
        runs["cuts"].clear()
        # theta_sweep's op: local ranks and entropy, and for three qubits
        # tau3 and the class, which read the same cuts and tau3 again
        local_ranks(t)
        entanglement_entropy(t)
        if shape == (2, 2, 2):
            three_tangle(t)
            slocc_tripartite_class(t)
        assert runs["cuts"] == cuts
    assert runs["tau3"] == 1


def test_shared_cuts_follow_in_place_mutation(monkeypatch):
    runs = counting_cuts(monkeypatch)
    t = GHZ.copy()
    before = array_measures(t)
    t[0, 0, 0], t[1, 1, 1] = 1, 0
    after = array_measures(t)
    assert runs["cuts"] == 2 * measure_keeps(3) and runs["tau3"] == 2
    assert after == kernel_measures(t) != before
    assert after[("local_ranks", 1e-9)] == (1, 1, 1) and after["class"] == "separable"


def test_equal_values_of_other_dtypes_are_computed_again(monkeypatch):
    real = random_state(np.random.default_rng(3), 2, 2, 2).real.copy()
    # equal values in other dtypes, and the same bytes read as other values
    tensors = [real, real.view(np.int64), real.astype(complex), real, real.astype(np.float32)]
    refs = [kernel_measures(t) for t in tensors]
    runs = counting_cuts(monkeypatch)
    values = []
    for k, (t, ref) in enumerate(zip(tensors, refs)):
        values.append((entanglement_entropy(t), three_tangle(t)))
        assert values[-1] == (ref[("entropy", (0,))], ref["tau3"])
        assert len(runs["cuts"]) == runs["tau3"] == k + 1
    assert values[0] == values[3] != values[1]


def test_object_arrays_bypass_the_cut_cache(monkeypatch, capsys):
    from fractions import Fraction

    from tl_entangle import cli

    third = Fraction(1, 3)
    w = np.array([0, third, third, 0, third, 0, 0, 0], dtype=object).reshape(2, 2, 2)
    runs = counting_cuts(monkeypatch)
    local_ranks(random_state(np.random.default_rng(5), 2, 2, 2))
    key = entanglement._last_tensor[0]
    for _ in range(2):
        assert local_ranks(w) == (2, 2, 2)
        assert slocc_tripartite_class(w) == "W"
    assert runs["cuts"] == [(0,), (1,), (2,)] * 5 and runs["tau3"] == 2
    assert entanglement._last_tensor[0] == key
    outputs = []
    for prepare in (lambda: None, clear_cuts):
        prepare()
        assert cli.main(["rep", "hw", "--spins", "1/2,1/2,1/2"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_errors_raise_after_a_cached_success():
    t = random_state(np.random.default_rng(11), 2, 2, 2)
    array_measures(t)
    # (1,) and (True,), or (0,) and (0.0,), are equal keys of every cache
    for keep in ((0, 0), (3,), (-1,), (0.0,), ("0",), (True,)):
        for call in (lambda: schmidt_rank(t, keep), lambda: entanglement_entropy(t, keep),
                     lambda: trace_power(t, 2, keep)):
            with pytest.raises(ValueError, match=r"keep .* 3 parties"):
                call()
    assert array_measures(t) == kernel_measures(t)
    t[...] = 0
    for _ in range(2):
        for call in (lambda: local_ranks(t), lambda: entanglement_entropy(t),
                     lambda: trace_power(t, 2), lambda: three_tangle(t),
                     lambda: slocc_tripartite_class(t), lambda: schmidt_rank(t, (0, 1))):
            with pytest.raises(ValueError, match="zero tensor"):
                call()
