"""The per-point numeric path against a copy of the one it replaced.

Each exact coefficient is evaluated from a form built once (RationalFn._form),
over a table of powers of A built once per point, the amplitudes are
contracted along a plan built once per dims, and TLElement.evaluate wraps
its terms without re-checking them.  The copies below are that path as it
was before: every coefficient's canonical pair through
LaurentPoly.evaluate(A) at A = exp(i theta), a TLElement built through
__init__, and the amplitudes contracted by slicing.  The arithmetic is the
same, in the same order, so every value must be equal.
"""

import cmath
import gc
import math
import random
import sys

import numpy as np
import pytest

from tl_entangle import entanglement, spaces
from tl_entangle.connectomes import enumerate_connectomes, representative_state
from tl_entangle.diagrams import TLElement, _join
from tl_entangle.entanglement import (entanglement_entropy, local_ranks, min_ladder_indicator,
                                      slocc_tripartite_class, spectrum_entropy, three_tangle)
from tl_entangle.jones_wenzl import jones_wenzl
from tl_entangle.scalars import DegeneratePointError, EvalPoint, LaurentPoly, RationalFn, evaluate
from tl_entangle.spaces import basis_blocks, dress, qudit_space, reduced_diagram, tuple_basis_pairs
from tl_entangle.tangle_dsl import corpus_names, load_corpus

QUBIT_WINDOW, QUTRIT_WINDOW = math.pi / 6, math.pi / 10


# ---------------------------------------------------------------------------
# the path before forms and plans


def old_A(point):
    return cmath.exp(1j * point.theta)


def old_d(point):
    return -2.0 * math.cos(2.0 * point.theta)


def old_evaluate(x, point):
    a = old_A(point)
    if isinstance(x, RationalFn):
        dv = x.den.evaluate(a)
        if abs(dv) < 1e-12:
            raise DegeneratePointError(f"denominator vanishes at A={a!r}", "denominator")
        return x.num.evaluate(a) / dv
    if isinstance(x, LaurentPoly):
        return x.evaluate(a)
    return complex(x)


def old_element_evaluate(element, point):
    out = {}
    for dg, c in element.terms.items():
        val = old_evaluate(c, point) if not isinstance(c, complex) else c
        if val != 0:
            out[dg] = out.get(dg, 0j) + val
    return TLElement(out)


def old_sqrt_at(root, point):
    def horner(p, d):
        out = 0.0
        for c in reversed(p):
            out = out * d + c
        return out

    d = old_d(point)
    rn, sn, rd, sd = (horner(poly, d) for poly in root.parts)
    if abs(rd) < 1e-10 or abs(sd) < 1e-10:
        raise DegeneratePointError(f"squared norm singular at theta={point.theta}", "denominator")
    r_val, s_val = rn / rd, sn / sd
    if abs(r_val) < 1e-10 or s_val < 1e-10:
        raise DegeneratePointError(
            f"squared norm degenerate at theta={point.theta} "
            f"(square part {r_val}, squarefree part {s_val})",
            "square" if abs(r_val) < 1e-10 else "squarefree")
    return complex(r_val * math.sqrt(s_val))


def old_frame_rows(space, point):
    rows = []
    for i in range(space.n):
        try:
            nrm = old_sqrt_at(space._gs_roots[i], point)
            rows.append([complex(old_evaluate(space._gs_coeffs[i][j], point)) / nrm
                         for j in range(i + 1)])
        except DegeneratePointError as exc:
            exc.vector = i
            raise
    return rows


def old_dressed_numeric(state, point):
    return dress(old_element_evaluate(state.element, point), state.layout,
                 lambda w: old_element_evaluate(jones_wenzl(w), point), complex(old_d(point)))


def old_raw_overlap_list(state, point, table):
    """table plays basis_loops: loop counts by dressed diagram."""
    dval = complex(old_d(point))
    dims = state.layout.dims
    sums = [0] * math.prod(dims)
    blocks = basis_blocks(state.layout)
    for dg, c in old_dressed_numeric(state, point).terms.items():
        if dg not in table:
            table[dg] = tuple(_join({}, dg.pairs + tuple_basis_pairs(blocks, idx))
                              for idx in np.ndindex(*dims))
        loops = table[dg]
        powers = [c]
        for _ in range(max(loops)):
            powers.append(powers[-1] * dval)
        for i, n in enumerate(loops):
            s = sums[i] + powers[n]
            sums[i] = s if s != 0 else 0
    return [complex(s) for s in sums]


def old_amplitude_list(state, point, table):
    frames = {}
    for name, nk in state.layout.parties:
        if nk not in frames:
            try:
                frames[nk] = [[z.conjugate() for z in row]
                              for row in old_frame_rows(qudit_space(nk), point)]
            except DegeneratePointError as exc:
                exc.party = name
                raise
    amp = old_raw_overlap_list(state, point, table)
    block = len(amp)
    for nk in state.layout.dims:
        rows = frames[nk]
        stride = block // nk
        out = [0j] * len(amp)
        for start in range(0, len(amp), block):
            for r in range(start, start + stride):
                column = amp[r:start + block:stride]
                for i, row in enumerate(rows):
                    out[r + i * stride] = sum(f * v for f, v in zip(row, column))
        amp, block = out, stride
    return amp


# ---------------------------------------------------------------------------
# inputs and points


def multi_party_states():
    """(label, state): every corpus state of two or more parties,
    reduced_diagram(3, j) and the 3- and 4-party connectome representatives
    at 4 punctures."""
    out = [(name, load_corpus(name).state()) for name in corpus_names()
           if len(load_corpus(name).parties) >= 2]
    out += [(f"reduced_diagram(3, {j})", reduced_diagram(3, j)) for j in range(3)]
    found = enumerate_connectomes(3) + enumerate_connectomes(4)
    out += [(f"connectome {k}", representative_state(c)) for k, c in enumerate(found)]
    return out


STATES = multi_party_states()


def points_for(label, state):
    """K4 to K12, then 50 seeded angles inside 0.95 of the state's frame window."""
    window = QUTRIT_WINDOW if 3 in state.layout.dims else QUBIT_WINDOW
    rng = random.Random(label)
    return ([EvalPoint.from_level(k) for k in range(4, 13)]
            + [EvalPoint(rng.uniform(-0.95 * window, 0.95 * window)) for _ in range(50)])


def bits(values):
    """Values by repr, which tells -0.0 from 0.0."""
    return [repr(complex(v)) for v in values]


def test_inputs_cover_the_corpus_reductions_and_connectomes():
    labels = [label for label, _ in STATES]
    assert len(labels) == 15 + 3 + 27
    assert {st.layout.dims for _, st in STATES} >= {(2, 2), (2, 2, 2), (3, 3), (2, 2, 2, 2)}


@pytest.mark.parametrize("label, state", STATES, ids=[label for label, _ in STATES])
def test_point_path_equals_the_old_path(label, state):
    table = {}
    for pt in points_for(label, state):
        for nk in set(state.layout.dims):
            assert bits(sum(qudit_space(nk).frame_rows(pt), [])) == \
                bits(sum(old_frame_rows(qudit_space(nk), pt), [])), (label, pt)
        element = state.element.evaluate(pt)
        old = old_element_evaluate(state.element, pt)
        assert list(element.terms) == list(old.terms)
        assert bits(element.terms.values()) == bits(old.terms.values()), (label, pt)
        assert bits(state.raw_overlap_list(pt)) == bits(old_raw_overlap_list(state, pt, table))
        assert bits(state.amplitude_list(pt)) == bits(old_amplitude_list(state, pt, table)), \
            (label, pt)


def test_exact_coefficients_evaluate_to_the_same_bits():
    """Every coefficient of every projector up to width 4 and of every
    frame up to dimension 4, at 200 seeded angles, through the point's form
    and through evaluate(A), against the canonical pair's sums."""
    coeffs = [c for w in range(2, 5) for c in jones_wenzl(w).terms.values()]
    coeffs += [c for n in range(2, 5) for row in qudit_space(n)._gs_coeffs for c in row]
    coeffs += [LaurentPoly({-3: 2, 0: -1, 5: 7}), RationalFn(0), RationalFn(3)]
    rng = random.Random(35)
    for _ in range(200):
        pt = EvalPoint(rng.uniform(-1.5, 1.5))
        for c in coeffs:
            try:
                want = old_evaluate(c, pt)
            except DegeneratePointError as exc:
                with pytest.raises(DegeneratePointError) as info:
                    evaluate(c, pt)
                assert (str(info.value), info.value.factor) == (str(exc), exc.factor)
                continue
            assert repr(evaluate(c, pt)) == repr(want)
            assert repr(c.evaluate(pt.A)) == repr(want)


def raised(call):
    with pytest.raises(DegeneratePointError) as info:
        call()
    exc = info.value
    return str(exc), exc.party, exc.vector, exc.factor


DEGENERATE = ([("tripartite_7", EvalPoint.from_level(k)) for k in (0, 1)]
              + [(name, EvalPoint(math.pi / 4))
                 for name in ("two_qutrit_rank1", "two_qutrit_rank2", "two_qutrit_rank3")]
              + [(f"reduced_diagram(3, {j})", EvalPoint(math.pi / 4)) for j in range(3)])


@pytest.mark.parametrize("label, point", DEGENERATE, ids=[f"{l}@{p.theta:.4f}" for l, p in DEGENERATE])
def test_degenerate_points_raise_the_same_error(label, point):
    state = dict(STATES)[label]
    want = raised(lambda: old_amplitude_list(state, point, {}))
    assert raised(lambda: state.amplitude_list(point)) == want
    assert want[3] in ("square", "squarefree", "denominator") and want[2] is not None
    if 3 in state.layout.dims:
        # the dressing fails there too, on a projector's denominator
        want = raised(lambda: old_dressed_numeric(state, point))
        assert raised(lambda: state.dressed_numeric(point)) == want
        assert want[0].startswith("denominator vanishes at A=")


# ---------------------------------------------------------------------------
# what a point builds


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 1e308, -9e307, 10 ** 400])
def test_eval_point_rejects_a_theta_without_a_finite_double(theta):
    with pytest.raises(ValueError, match="theta must be finite with a finite double") as info:
        EvalPoint(theta)
    assert repr(theta) in str(info.value)


def test_eval_point_builds_a_and_d_once():
    for theta in (sys.float_info.max / 2, -0.2222, 0.0, -0.0, 1e-300):
        pt = EvalPoint(theta)
        assert repr(pt.A) == repr(old_A(pt)) and repr(pt.d) == repr(old_d(pt))
        assert repr(pt.powers[0]) == repr(pt.A ** 0)
        assert [repr(pt.powers[e]) for e in range(-6, 7)] == [repr(pt.A ** e) for e in range(-6, 7)]
    assert EvalPoint(0.3) == EvalPoint(0.3) and hash(EvalPoint(0.3)) == hash(0.3)


# coefficients that every fresh point evaluates: the frames' and a projector's
FORMED = ([c for n in (2, 3) for row in qudit_space(n)._gs_coeffs for c in row]
          + list(jones_wenzl(2).terms.values()))


def cache_sizes(states):
    return {
        "basis_loops": [len(st.basis_loops) for st in states],
        "_cut_plan": entanglement._cut_plan.cache_info().currsize,
        "_contraction_plan": spaces._contraction_plan.cache_info().currsize,
        "qudit_space": spaces.qudit_space.cache_info().currsize,
        "jones_wenzl": jones_wenzl.cache_info().currsize,
        "cuts": len(entanglement._last_tensor[1]),
        "forms": [len(c._canon or ()) for c in FORMED],
    }


def test_fresh_points_leave_nothing_behind():
    """2,000 fresh angles through amplitudes and the theta sweep's measure
    set keep every cache and table at its size; the projector tiles stay
    within their LRU bound."""
    states = [load_corpus(name).state() for name in ("quasiw", "two_qutrit_rank1")]
    rng = random.Random(2000)

    def sweep(count):
        for _ in range(count):
            for st, window in zip(states, (QUBIT_WINDOW, QUTRIT_WINDOW)):
                amp = st.amplitudes(EvalPoint(rng.uniform(-0.85 * window, 0.85 * window)))
                local_ranks(amp)
                entanglement_entropy(amp)
                if amp.shape == (2, 2, 2):
                    three_tangle(amp)
                    slocc_tripartite_class(amp)

    sweep(20)
    before = cache_sizes(states)
    gc.collect()
    objects = len(gc.get_objects())
    sweep(2000)
    gc.collect()
    assert cache_sizes(states) == before
    assert spaces._projector_tile.cache_info().currsize <= spaces.POINT_CACHE_SIZE
    assert len(gc.get_objects()) < objects + 100


# ---------------------------------------------------------------------------
# the sign of a vanishing entropy


def test_product_states_have_entropy_plus_zero():
    for value in (spectrum_entropy([1.0]), spectrum_entropy([2.0, 0.0]),
                  entanglement_entropy(np.array([[1, 0], [0, 0]], dtype=complex)),
                  entanglement_entropy(np.array([[0, 0], [0, 3]], dtype=complex), (1,))):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    product = np.zeros((2, 2, 2), dtype=complex)
    product[0, 0, 0] = 1
    value = min_ladder_indicator(product)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    # an entangled state keeps its positive entropy
    assert entanglement_entropy(np.eye(2, dtype=complex)) == pytest.approx(math.log(2))
