import pytest

from reference_rationalfn import RationalFn as ReferenceFn, assert_same
from tl_entangle.diagrams import PlanarDiagram, TLElement, close_trace
from tl_entangle.jones_wenzl import jones_wenzl, projector_trace
from tl_entangle.scalars import RationalFn, d_param, delta

D = d_param()


def test_small_projectors_explicit():
    assert jones_wenzl(1) == TLElement.from_diagram(PlanarDiagram.identity(1), RationalFn(1))
    p2 = jones_wenzl(2)
    id2 = PlanarDiagram.identity(2)
    e1 = PlanarDiagram.generator(2, 1)
    assert p2.terms[id2] == RationalFn(1)
    assert_same(p2.terms[e1], ReferenceFn(-1, D))
    assert len(p2.terms) == 2


def test_projector_three_coefficients():
    p3 = jones_wenzl(3)
    id3 = PlanarDiagram.identity(3)
    e1 = PlanarDiagram.generator(3, 1)
    e2 = PlanarDiagram.generator(3, 2)
    e1e2 = e1.compose_with(e2)[0]
    e2e1 = e2.compose_with(e1)[0]
    assert p3.terms[id3] == RationalFn(1)
    assert_same(p3.terms[e1], ReferenceFn(-1 * D, delta(2)))
    assert_same(p3.terms[e2], ReferenceFn(-1 * D, delta(2)))
    assert_same(p3.terms[e1e2], ReferenceFn(1, delta(2)))
    assert_same(p3.terms[e2e1], ReferenceFn(1, delta(2)))
    assert len(p3.terms) == 5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_idempotent_and_killed_by_hooks(n):
    p = jones_wenzl(n)
    assert p.compose(p, D) == p
    for i in range(1, n):
        hook = TLElement.from_diagram(PlanarDiagram.generator(n, i))
        assert hook.compose(p, D).is_zero()
        assert p.compose(hook, D).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trace_closure_gives_loop_weight(n):
    assert projector_trace(n) == RationalFn(delta(n))


def test_plat_closure_vanishes():
    for n in (2, 3, 4):
        p = jones_wenzl(n)
        # cap any adjacent pair from above
        for i in range(1, n):
            upper = PlanarDiagram.cups(2)
            if i > 1:
                upper = PlanarDiagram.identity(i - 1).tensor(upper)
            if i + 1 < n:
                upper = upper.tensor(PlanarDiagram.identity(n - i - 1))
            cap_above = TLElement.from_diagram(upper)
            assert cap_above.compose(p, D).is_zero()


def test_widths_zero_and_negative():
    assert jones_wenzl(0) == TLElement.from_diagram(PlanarDiagram.empty(), RationalFn(1))
    with pytest.raises(ValueError):
        jones_wenzl(-1)
