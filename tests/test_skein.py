import math
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reference_rationalfn import wenzl_coefficient
from tl_entangle import diagrams
from tl_entangle.diagrams import PlanarDiagram, TLElement, WorkBoundError, _accumulate
from tl_entangle.scalars import LaurentPoly, RationalFn, d_param, work_size
from tl_entangle.jones_wenzl import jones_wenzl
from tl_entangle.skein import (_LAYERS, SliceWord, _at_one, bracket, crossing_element,
                               slice_width)
from tl_entangle.tangle_dsl import corpus_names, load_corpus

D = d_param()
A = LaurentPoly.A_power


def test_crossing_resolution():
    x = crossing_element(2, 1, "over")
    assert x.terms[PlanarDiagram.identity(2)] == A(1)
    assert x.terms[PlanarDiagram.generator(2, 1)] == A(-1)
    y = crossing_element(2, 1, "under")
    # over on top of under cancels to the identity
    assert x.compose(y, D) == TLElement.from_diagram(PlanarDiagram.identity(2))
    p = SliceWord(2, [("over", 1)]).to_element("permutation")
    assert p.terms[PlanarDiagram.identity(2)] == 1
    assert p.compose(p, Fraction(-2)) == TLElement.from_diagram(PlanarDiagram.identity(2))


def test_word_validation():
    with pytest.raises(ValueError):
        SliceWord(0, [("cap", 1)])
    with pytest.raises(ValueError):
        SliceWord(2, [("over", 2)])
    with pytest.raises(ValueError):
        SliceWord(1, [("jw", 1, 2)])
    w = SliceWord(0, [("cup", 1), ("cup", 3), ("cap", 3), ("cap", 1)])
    assert w.is_closed() and w.final_width == 0


@pytest.mark.parametrize("n_top, ops", [
    (2.9, []), ("2", []), (True, []),              # no truncation of the top count
    (2, [("cap", 1.0)]), (2, [("e", "1")]), (2, [("over", True)]),
    (2, [("jw", 1, 2.0)]), (2, [("jw", 1.0, 2)]),
])
def test_word_rejects_non_integers(n_top, ops):
    with pytest.raises(ValueError, match="must be an integer"):
        SliceWord(n_top, ops)


def test_word_accepts_numpy_integers():
    w = SliceWord(np.int64(2), [("jw", np.int32(1), np.int64(2)), ("cap", np.int64(1))])
    assert w.n_top == 2 and w.ops == (("jw", 1, 2), ("cap", 1))
    assert all(type(x) is int for op in w.ops for x in op[1:])


def test_unknot_and_split_rings():
    unknot = SliceWord(0, [("cup", 1), ("cap", 1)])
    assert bracket(unknot) == D
    two_rings = SliceWord(0, [("cup", 1), ("cup", 3), ("cap", 3), ("cap", 1)])
    assert bracket(two_rings) == D * D
    nested = SliceWord(0, [("cup", 1), ("cup", 2), ("cap", 2), ("cap", 1)])
    assert bracket(nested) == D * D


def test_kink_values():
    # positive curl: the loop sits on the A-smoothing side
    pos = SliceWord(1, [("cup", 2), ("over", 1), ("cap", 2)])
    assert pos.to_element() == (-1 * A(3)) * TLElement.from_diagram(PlanarDiagram.identity(1))
    neg = SliceWord(1, [("cup", 2), ("over", 1), ("cap", 1)])
    assert neg.to_element() == (-1 * A(-3)) * TLElement.from_diagram(PlanarDiagram.identity(1))
    # under-crossing curls mirror the over values
    pos_u = SliceWord(1, [("cup", 2), ("under", 1), ("cap", 2)])
    assert pos_u.to_element() == (-1 * A(-3)) * TLElement.from_diagram(PlanarDiagram.identity(1))


def test_hopf_link_bracket():
    word = SliceWord(0, [("cup", 1), ("cup", 3),
                         ("over", 2), ("over", 2),
                         ("cap", 3), ("cap", 1)])
    want = (-1 * D) * (A(4) + A(-4))
    assert bracket(word) == want


def test_trefoil_bracket():
    word = SliceWord(0, [("cup", 1), ("cup", 3),
                         ("over", 2), ("over", 2), ("over", 2),
                         ("cap", 3), ("cap", 1)])
    want = D * (-1 * A(5) - A(-3) + A(-7))
    assert bracket(word) == want


def test_permutation_mode_ignores_over_under():
    word_o = SliceWord(0, [("cup", 1), ("cup", 3), ("over", 2), ("over", 2),
                           ("cap", 3), ("cap", 1)])
    word_u = SliceWord(0, [("cup", 1), ("cup", 3), ("under", 2), ("under", 2),
                           ("cap", 3), ("cap", 1)])
    vo = bracket(word_o, mode="permutation")
    vu = bracket(word_u, mode="permutation")
    assert vo == vu
    # (id + e)^2 = id at d = -2, and the plat closure of id has two loops
    assert vo == 4


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("k", range(1, 6))
def test_jw_terms_counts_projector_terms(k):
    assert len(jones_wenzl(k).terms) == catalan(k)


def test_jw_slice_matches_projector():
    w = SliceWord(2, [("jw", 1, 2)])
    assert w.to_element() == jones_wenzl(2)
    w3 = SliceWord(4, [("jw", 2, 2)])
    el = w3.to_element()
    assert el.shape() == (4, 4)
    # projector slice in the middle is killed by a hook under it
    hook = TLElement.from_diagram(PlanarDiagram.generator(4, 2))
    assert el.compose(hook, D).is_zero()


def cup_slice(width, i):
    """Full-width cup slice: width strands to width+2, an arc at positions i, i+1."""
    nb = width + 2
    pairs = [(j, width + nb + 1 - (j if j < i else j + 2)) for j in range(1, width + 1)]
    pairs.append((width + nb - i, width + nb + 1 - i))
    return PlanarDiagram(width, nb, pairs)


def cap_slice(width, i):
    """Full-width cap slice: width strands to width-2, joining strands i and i+1."""
    nb = width - 2
    pairs = [(i, i + 1)]
    pairs += [(j, width + nb + 1 - (j if j < i else j - 2))
              for j in range(1, width + 1) if j not in (i, i + 1)]
    return PlanarDiagram(width, nb, pairs)


def reference_to_element(word, mode="kauffman"):
    """to_element as it was before each slice was glued where it acts: every
    layer padded with identity strands to the full width of its cut."""
    element = TLElement.from_diagram(PlanarDiagram.identity(word.n_top))
    width = word.n_top
    for op in word.ops:
        kind = op[0]
        if kind == "cup":
            layer = TLElement.from_diagram(cup_slice(width, op[1]))
        elif kind == "cap":
            layer = TLElement.from_diagram(cap_slice(width, op[1]))
        elif kind in ("over", "under"):
            layer = crossing_element(width, op[1], kind)
        elif kind == "e":
            layer = TLElement.from_diagram(PlanarDiagram.generator(width, op[1]))
        else:
            _, i, k = op
            layer = jones_wenzl(k)
            if i > 1:
                layer = TLElement.from_diagram(PlanarDiagram.identity(i - 1)).tensor(layer)
            if i + k - 1 < width:
                layer = layer.tensor(
                    TLElement.from_diagram(PlanarDiagram.identity(width - i - k + 1)))
        width = slice_width(op, width)
        element = element.compose(layer, D)
    if mode == "permutation":
        return element.map_coefficients(_at_one)
    return element


def assert_same_terms(new, ref):
    """The same diagrams with equal coefficients, in the same order."""
    assert list(new.terms.items()) == list(ref.terms.items())


@pytest.mark.parametrize("mode", ["kauffman", "permutation"])
def test_to_element_matches_full_width_reference_on_corpus(mode):
    for name in corpus_names():
        word = load_corpus(name).word
        assert_same_terms(word.to_element(mode), reference_to_element(word, mode))


def reference_permutation_element(word):
    """to_element("permutation") as it was for words without jw slices: every
    crossing resolved as id + e, and every loop worth -2."""
    element = TLElement.from_diagram(PlanarDiagram.identity(word.n_top))
    width = word.n_top
    for kind, i in word.ops:
        if kind == "cup":
            layer = TLElement.from_diagram(cup_slice(width, i))
        elif kind == "cap":
            layer = TLElement.from_diagram(cap_slice(width, i))
        elif kind == "e":
            layer = TLElement.from_diagram(PlanarDiagram.generator(width, i))
        else:
            layer = (TLElement.from_diagram(PlanarDiagram.identity(width))
                     + TLElement.from_diagram(PlanarDiagram.generator(width, i)))
        width = slice_width((kind, i), width)
        element = element.compose(layer, Fraction(-2))
    return element


@st.composite
def slice_words(draw, min_top=0, jw=True):
    """A random valid word of up to 8 slices, at most 6 strands wide."""
    width = n_top = draw(st.integers(min_top, 3))
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        choices = [("cup", i) for i in range(1, width + 2) if width < 6]
        choices += [(kind, i) for kind in ("cap", "e", "over", "under")
                    for i in range(1, width)]
        if jw:
            choices += [("jw", i, 2) for i in range(1, width)]
        op = draw(st.sampled_from(choices))
        width = slice_width(op, width)
        ops.append(op)
    return SliceWord(n_top, ops)


def _widths(word):
    """Strand count at each cut of the word, from above the first slice down."""
    widths = [word.n_top]
    for op in word.ops:
        widths.append(slice_width(op, widths[-1]))
    return widths


def test_permutation_mode_matches_reference_on_corpus():
    checked = 0
    for name in corpus_names():
        word = load_corpus(name).word
        if any(op[0] == "jw" for op in word.ops):
            continue
        assert word.to_element("permutation") == reference_permutation_element(word), name
        checked += 1
    assert checked == 22


@given(slice_words(jw=False))
@settings(max_examples=300, deadline=None)
def test_permutation_mode_matches_reference_on_random_words(word):
    assert word.to_element("permutation") == reference_permutation_element(word)


@given(slice_words(), st.sampled_from(["kauffman", "permutation"]))
@settings(max_examples=200, deadline=None)
def test_to_element_matches_full_width_reference_on_random_words(word, mode):
    assert_same_terms(word.to_element(mode), reference_to_element(word, mode))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_permutation_mode_closed_projector(k):
    """A closed jw(k) loop is the quantum integer Delta_k at d = -2."""
    word = SliceWord(0, [("cup", j) for j in range(1, k + 1)] + [("jw", 1, k)]
                     + [("cap", j) for j in range(k, 0, -1)])
    assert bracket(word, "permutation") == (-1) ** k * (k + 1)


@given(slice_words(), st.data())
@settings(max_examples=100, deadline=None)
def test_reidemeister_two(word, data):
    cuts = [c for c, w in enumerate(_widths(word)) if w >= 2]
    assume(cuts)
    cut = data.draw(st.sampled_from(cuts))
    i = data.draw(st.integers(1, _widths(word)[cut] - 1))
    ops = list(word.ops)
    moved = SliceWord(word.n_top, ops[:cut] + [("over", i), ("under", i)] + ops[cut:])
    assert moved.to_element() == word.to_element()


@given(slice_words(min_top=3), st.sampled_from(("over", "under")), st.data())
@settings(max_examples=100, deadline=None)
def test_reidemeister_three(word, kind, data):
    cuts = [c for c, w in enumerate(_widths(word)) if w >= 3]
    cut = data.draw(st.sampled_from(cuts))
    i = data.draw(st.integers(1, _widths(word)[cut] - 2))
    ops = list(word.ops)
    left = SliceWord(word.n_top, ops[:cut] + [(kind, i), (kind, i + 1), (kind, i)] + ops[cut:])
    right = SliceWord(word.n_top, ops[:cut] + [(kind, i + 1), (kind, i), (kind, i + 1)] + ops[cut:])
    assert left.to_element() == right.to_element()


def plain_steps(word, mode="kauffman"):
    """The elements of word's prefixes and the compose_work of each slice,
    from a compose loop with no meter."""
    element = TLElement.from_diagram(PlanarDiagram.identity(word.n_top))
    elements, works = [element], []
    for op in word.ops:
        layer = jones_wenzl(op[2]) if op[0] == "jw" else _LAYERS[op[0]]
        works.append(element.compose_work(layer))
        element = element.compose(layer, D, op[1] - 1)
        elements.append(element)
    if mode == "permutation":
        elements[-1] = elements[-1].map_coefficients(_at_one)
    return elements, works


@given(slice_words())
@settings(max_examples=100, deadline=None)
def test_expansion_terms_caps_at_planar_diagrams(word):
    """No prefix of a word has more terms than there are planar diagrams on
    its points, the Catalan number C_(n_top+width)/2."""
    elements, _ = plain_steps(word)
    for element, width in zip(elements, _widths(word)):
        assert len(element.terms) <= catalan((word.n_top + width) // 2)


@pytest.mark.parametrize("mode", ["kauffman", "permutation"])
def test_metered_expansion_matches_plain_compose_loop_on_corpus(mode):
    for name in corpus_names():
        word = load_corpus(name).word
        metered, plain = word.to_element(mode), plain_steps(word, mode)[0][-1]
        assert metered.terms.keys() == plain.terms.keys(), name
        for dg, c in plain.terms.items():
            assert metered.terms[dg] == c and repr(metered.terms[dg]) == repr(c), name


@given(slice_words(), st.data())
@settings(max_examples=200, deadline=None)
def test_work_bound_stops_at_first_slice_past_budget(word, data):
    """With the budget lowered below a word's total work, to_element stops at
    the first slice whose running total passes it, before that slice runs."""
    _, works = plain_steps(word)
    totals = [sum(works[:k + 1]) for k in range(len(works))]
    budget = data.draw(st.integers(0, totals[-1] if totals else 0))
    first = next((k for k, total in enumerate(totals) if total > budget), None)
    composed = []
    compose = TLElement.compose

    def counting(self, lower, d, offset=0):
        composed.append(offset)
        return compose(self, lower, d, offset)

    with mock.patch.object(diagrams, "WORK_BUDGET", budget), \
            mock.patch.object(TLElement, "compose", counting):
        if first is None:
            word.to_element()
            assert len(composed) == len(word.ops)
            return
        with pytest.raises(WorkBoundError) as err:
            word.to_element()
    assert err.value.step == first and len(composed) == first
    assert str(err.value) == (f"slice {first + 1} would take the work to {totals[first]:,} "
                              f"units, above the budget of {budget:,}")


def uncancelled_compose(upper, lower, offset=0):
    """TLElement.compose over plain {diagram: coefficient} dicts: the same
    products and sums in the same order, never brought to lowest terms."""
    out = {}
    for d1, c1 in upper.items():
        for d2, c2 in lower.items():
            dg, loops = d1.compose_with(d2, offset)
            _accumulate(out, dg, c1 * c2, loops, D)
    return out


@lru_cache(maxsize=None)
def uncancelled_jones_wenzl(n):
    """jones_wenzl's recursion over plain dicts, whose coefficients keep
    every Phi_m factor that their sums bring in."""
    if n <= 1:
        return dict(jones_wenzl(n).terms)
    wide = {dg.tensor(PlanarDiagram.identity(1)): c
            for dg, c in uncancelled_jones_wenzl(n - 1).items()}
    coeff = wenzl_coefficient(n)
    hook = {PlanarDiagram.generator(2, 1): 1}
    out = dict(wide)
    for dg, c in uncancelled_compose(uncancelled_compose(wide, hook, n - 2), wide).items():
        _accumulate(out, dg, (-1) * coeff * c)
    return out


def uncancelled_to_element(word):
    """to_element("kauffman") over plain dicts, with no meter."""
    terms = {PlanarDiagram.identity(word.n_top): 1}
    for op in word.ops:
        layer = uncancelled_jones_wenzl(op[2]) if op[0] == "jw" else _LAYERS[op[0]].terms
        terms = uncancelled_compose(terms, layer, op[1] - 1)
    return terms


def assert_same_values(element, terms):
    """The same diagrams in the same order, each coefficient == and of the
    same repr as its uncancelled counterpart, and held in lowest terms."""
    assert list(element.terms) == list(terms)
    for dg, c in element.terms.items():
        assert c == terms[dg] and repr(c) == repr(terms[dg])
        assert work_size(c) == work_size(RationalFn(c).lowest())


@pytest.mark.parametrize("n", range(7))
def test_jones_wenzl_matches_uncancelled_recursion(n):
    assert_same_values(jones_wenzl(n), uncancelled_jones_wenzl(n))


@given(slice_words())
@settings(max_examples=100, deadline=None)
def test_to_element_matches_uncancelled_expansion_on_random_words(word):
    assert_same_values(word.to_element(), uncancelled_to_element(word))


def test_repeated_projector_keeps_coefficients_small():
    # uncancelled, the e coefficient (exactly -1/d) held 120 numerator terms
    # over Phi_8^120
    element = SliceWord(2, [("jw", 1, 2)] * 120).to_element()
    assert element == jones_wenzl(2)
    for c in element.terms.values():
        terms, exponent = work_size(c)
        assert terms <= 1 and exponent <= 1
