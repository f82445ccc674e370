"""Parser and shipped-corpus checks for the tangle text format."""

import time

import numpy as np
import pytest

from tl_entangle import diagrams
from tl_entangle.diagrams import PlanarDiagram, TLElement, noncrossing_matchings
from tl_entangle.entanglement import local_ranks, slocc_tripartite_class, three_tangle
from tl_entangle.scalars import EvalPoint
from tl_entangle.skein import SliceWord, word_from_matching
from tl_entangle.tangle_dsl import (TangleParseError, corpus_names, load_corpus,
                                    parse_tangle)

K4 = EvalPoint(-np.pi / 12)

MAXENT_TEXT = """\
# four nested lines between two qubit parties
name maxent
mode kauffman
top 0
cup 1
cup 2
cup 3
cup 4
bottom 8
party A 1..4
party B 5..8
"""


def test_parse_maxent():
    doc = parse_tangle(MAXENT_TEXT)
    assert doc.name == "maxent"
    assert doc.mode == "kauffman"
    assert doc.word.ops == (("cup", 1), ("cup", 2), ("cup", 3), ("cup", 4))
    assert doc.bottom == 8
    assert doc.parties == (("A", 1, 4), ("B", 5, 8))
    assert doc.layout().dims == (2, 2)
    amp = doc.state().amplitudes(K4)
    assert np.allclose(amp, np.eye(2), atol=1e-12)


def test_defaults_and_comments():
    doc = parse_tangle("top 0  # nothing below\n\n# just a comment line\n")
    assert doc.mode == "kauffman"
    assert doc.name is None
    assert doc.bottom == 0
    assert doc.parties == ()
    with pytest.raises(ValueError):
        doc.state()


def test_pretty_roundtrip_corpus():
    for name in corpus_names():
        doc = load_corpus(name)
        again = parse_tangle(doc.pretty())
        assert again == doc, name


def test_corpus_inventory():
    expected = {
        "maxent", "qubit_basis0", "qubit_basis1",
        "two_qubit_product", "two_qubit_two_lines", "chained",
        "tripartite_1", "tripartite_2", "tripartite_3", "tripartite_4",
        "tripartite_5", "tripartite_6", "tripartite_7",
        "two_qutrit_rank1", "two_qutrit_rank2", "two_qutrit_rank3",
        "quasiw", "sixpoints_1", "sixpoints_2", "sixpoints_3", "sixpoints_4",
        "hopf", "trefoil",
    }
    assert set(corpus_names()) == expected
    with pytest.raises(KeyError):
        load_corpus("does_not_exist")


BAD_INPUTS = [
    ("cup 1\ntop 0\n", 1),                    # slice before top
    ("top 0\nover 1\n", 2),                   # crossing needs two strands
    ("top 0\ncup 1\ncup 4\n", 3),             # cup slot beyond width+1
    ("top 0\ncup 1\njw 2 3\n", 3),            # projector wider than the word
    ("top 2\ncap 2\n", 2),                    # cap needs strands i, i+1
    ("top 0\nfrobnicate 3\n", 2),
    ("mode sideways\n", 1),
    ("top 0\ncup x\n", 2),                    # non-integer argument
    ("top 0\nparty A 1-4\n", 2),              # malformed range
    ("top 0\nparty A 1..4\nparty A 5..8\n", 3),
    ("top 0\nparty A 1..4\nparty B 3..6\n", 3),
    ("top -1\n", 1),
]


def test_parse_errors_carry_line_numbers():
    for text, line in BAD_INPUTS:
        with pytest.raises(TangleParseError) as err:
            parse_tangle(text)
        assert err.value.line == line, text


def test_projector_term_bound():
    # jw slices are parsed whatever their term counts multiply to; the work
    # their expansion would take is charged slice by slice
    doc = parse_tangle("top 8\njw 1 6\njw 3 5\njw 1 6\nbottom 8\n")
    assert doc.word.ops == (("jw", 1, 6), ("jw", 3, 5), ("jw", 1, 6))
    assert doc.lines == (2, 3, 4)
    with pytest.raises(TangleParseError, match="^line 4: slice 3 would take the work to "
                                               "7,149,120 units, above the budget of "
                                               "5,000,000$") as err:
        doc.element()
    assert err.value.line == 4
    # its first two slices expand within the budget
    assert len(parse_tangle("top 8\njw 1 6\njw 3 5\nbottom 8\n").element().terms) == 422
    # fourteen jw 2 slices side by side, 16,384 terms, expand within the budget
    doc = parse_tangle("top 28\n" + "".join(f"jw {i} 2\n" for i in range(1, 28, 2)))
    assert len(doc.element().terms) == 2 ** 14


def _crossings(top, n):
    """top, then n over slices at positions 1 + 3i mod (top - 1)."""
    return f"top {top}\n" + "".join(f"over {1 + 3 * i % (top - 1)}\n" for i in range(n))


def test_expansion_work_bound(monkeypatch):
    # top 12 with 40 crossings parses, and its expansion is stopped at the
    # slice that would pass the budget
    doc = parse_tangle("# forty crossings\n\n" + _crossings(12, 40))
    assert doc.lines == tuple(range(4, 44))
    monkeypatch.setattr(diagrams, "WORK_BUDGET", 100_000)
    with pytest.raises(TangleParseError, match="^line 14: slice 11 would take the work to "
                                               "102,350 units, above the budget of 100,000$"):
        doc.element()
    # crossings that repeat a few positions keep the terms few: 8 at the end
    assert len(parse_tangle("top 10\n" + "".join(f"over {1 + 3 * i % 9}\n"
                                                   for i in range(20))).element().terms) == 8


def test_state_document_work_bound_names_its_line(monkeypatch):
    monkeypatch.setattr(diagrams, "WORK_BUDGET", 3)
    doc = parse_tangle(MAXENT_TEXT)
    with pytest.raises(TangleParseError, match="^line 6: slice 2 would take") as err:
        doc.state()
    assert err.value.line == 6


@pytest.mark.parametrize("top,line", [
    (0, "cup 2"), (2, "cap 2"), (2, "e 0"), (2, "over 2"), (1, "under 1"),
    (2, "jw 2 2"), (2, "jw 1 0"),
])
def test_slice_range_errors_match_slice_word(top, line):
    kind, *nums = line.split()
    with pytest.raises(ValueError) as direct:
        SliceWord(top, [(kind, *map(int, nums))])
    with pytest.raises(TangleParseError) as parsed:
        parse_tangle(f"top {top}\n{line}\n")
    assert str(direct.value) == f"{line} out of range at width {top}"
    assert str(parsed.value) == f"line 2: {direct.value}"


def test_document_level_errors():
    # declared bottom disagrees with the slice widths
    with pytest.raises(TangleParseError) as err:
        parse_tangle("top 0\ncup 1\nbottom 4\n")
    assert err.value.line == 0
    # parties must tile the bottom row
    with pytest.raises(TangleParseError):
        parse_tangle("top 0\ncup 1\ncup 1\ncup 1\ncup 1\nparty A 1..4\n")
    # party sizes must be multiples of four
    with pytest.raises(TangleParseError):
        parse_tangle("top 0\ncup 1\ncup 1\ncup 1\nparty A 1..6\n")
    # missing top entirely
    with pytest.raises(TangleParseError):
        parse_tangle("cup 1\n")


def test_e_slice_matches_nested_basis():
    # e on the middle strands turns the adjacent-arcs pairing into the
    # nested one with no loop factor
    doc = parse_tangle("top 0\ncup 1\ncup 1\ne 2\nparty A 1..4\n")
    nested = parse_tangle("top 0\ncup 1\ncup 2\nparty A 1..4\n")
    a1 = doc.state().amplitudes(K4)
    a2 = nested.state().amplitudes(K4)
    assert np.allclose(a1, a2, atol=1e-12)
    assert np.allclose(a1, [1.0, np.sqrt(2.0)], atol=1e-12)


def test_word_from_matching():
    w = word_from_matching([(1, 8), (2, 7), (3, 6), (4, 5)])
    assert w.ops == (("cup", 1), ("cup", 2), ("cup", 3), ("cup", 4))
    w7 = word_from_matching(
        [(1, 12), (2, 11), (3, 6), (4, 5), (7, 10), (8, 9)])
    assert [i for _, i in w7.ops] == [1, 2, 3, 4, 3, 4]
    with pytest.raises(ValueError):
        word_from_matching([(1, 3), (2, 4)])


def test_corpus_golden_amplitudes():
    cases = {
        "qubit_basis0": [-np.sqrt(3.0), 0.0],
        "qubit_basis1": [1.0, np.sqrt(2.0)],
        "two_qubit_product": [[3.0, 0.0], [0.0, 0.0]],
        "two_qubit_two_lines": [[-np.sqrt(3.0), 0.0], [0.0, 0.0]],
    }
    for name, expected in cases.items():
        amp = load_corpus(name).state().amplitudes(K4)
        assert np.allclose(amp, expected, atol=1e-12), name
    A = np.exp(-1j * np.pi / 12)
    chained = load_corpus("chained").state().amplitudes(K4)
    expected = np.diag([(A ** 4 + A ** -4) ** 2, (1 - A ** -4) ** 2])
    assert np.allclose(chained, expected, atol=1e-12)
    t7 = load_corpus("tripartite_7").state().amplitudes(K4)
    ghz = np.zeros((2, 2, 2), dtype=complex)
    ghz[0, 0, 0] = 1.0
    ghz[1, 1, 1] = 1.0 / np.sqrt(2.0)
    assert np.allclose(t7, ghz, atol=1e-12)


def test_corpus_qutrit_ranks():
    pt = EvalPoint(-0.25)
    for j in (1, 2, 3):
        amp = load_corpus(f"two_qutrit_rank{j}").state().amplitudes(pt)
        svals = np.linalg.svd(amp, compute_uv=False)
        assert np.sum(svals > 1e-9 * svals[0]) == j
    # the explicit width-2 projectors in rank2 are idempotent under dressing
    plain = word_from_matching(
        [(1, 16), (2, 15), (3, 14), (4, 13), (5, 12), (6, 7), (8, 9), (10, 11)])
    doc = load_corpus("two_qutrit_rank2")
    assert [op for op in doc.word.ops if op[0] == "cup"] == list(plain.ops)


def test_sixpoints_cut_ranks():
    # overlap matrix against split product pairings at a generic angle;
    # the four shipped diagrams have cut ranks 1, 1, 2 and the maximal 5
    pt = EvalPoint(-0.2)
    d = complex(pt.d)
    left = [m for m in noncrossing_matchings(tuple(range(1, 7)))]
    right = [m for m in noncrossing_matchings(tuple(range(7, 13)))]
    expected = {1: 1, 2: 1, 3: 2, 4: 5}
    for key, want in expected.items():
        el = load_corpus(f"sixpoints_{key}").element().evaluate(pt)
        M = np.zeros((len(left), len(right)), dtype=complex)
        for i, mx in enumerate(left):
            for j, my in enumerate(right):
                b = TLElement.from_diagram(
                    PlanarDiagram(0, 12, list(mx) + list(my)))
                M[i, j] = b.inner(el, d)
        svals = np.linalg.svd(M, compute_uv=False)
        assert np.sum(svals > 1e-9 * svals[0]) == want, key


def quasiw_expected(theta):
    """Closed-form amplitude tensor of the Borromean three-qubit state."""
    A = np.exp(1j * theta)
    s = np.sqrt((-A ** 2 - A ** -2) ** 2 - 1 + 0j)
    psi = np.zeros((2, 2, 2), dtype=complex)
    psi[0, 0, 0] = (A ** 12 + A ** 4 - 1) / (A ** 12 * (A ** 4 + 1) ** 2)
    psi[1, 1, 1] = -(1 + A ** 4 * (A ** 8 + 1)
                     * (A ** 20 - 3 * A ** 16 + A ** 8 - 3 * A ** 4 - 1)) \
        / (A ** 12 * (A ** 4 + 1) ** 2 * s)
    c001 = s * (A ** 8 - A ** 4 + 1) / (A ** 4 + 1) ** 2
    c011 = (-A ** 16 + 2 * A ** 12 + A ** 4 + 1) / (A ** 4 + 1) ** 2
    psi[0, 0, 1] = psi[0, 1, 0] = psi[1, 0, 0] = c001
    psi[0, 1, 1] = psi[1, 0, 1] = psi[1, 1, 0] = c011
    return psi


def test_quasiw_matches_closed_form():
    state = load_corpus("quasiw").state()
    for theta in (-0.22, 0.11, 0.2617):
        amp = state.amplitudes(EvalPoint(theta))
        assert np.max(np.abs(amp - quasiw_expected(theta))) < 1e-12, theta


def test_quasiw_tangle_zero():
    state = load_corpus("quasiw").state()
    # the three-tangle vanishes near theta = 0.0945866462 pi while every
    # one-party cut keeps rank two, so the state is W class right there
    amp = state.amplitudes(EvalPoint(0.09458664619594526 * np.pi))
    amp = amp / np.linalg.norm(amp.ravel())
    assert three_tangle(amp) < 1e-10
    assert local_ranks(amp) == (2, 2, 2)
    assert slocc_tripartite_class(amp) == "W"
    # generically the state is GHZ class with a solid three-tangle
    amp = state.amplitudes(EvalPoint(0.05 * np.pi))
    amp = amp / np.linalg.norm(amp.ravel())
    assert three_tangle(amp) > 1e-3
    assert slocc_tripartite_class(amp) == "GHZ"
