"""Differential tests of scalars.RationalFn (a numerator over cyclotomic
factors, no gcd) against the gcd-reduced class it replaced, kept in
reference_rationalfn.  Equal means the same canonical pair, with the same
coefficients in the same order, the same repr and hash, and bit-identical
floats from evaluate."""

import cmath
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reference_rationalfn import RationalFn as ReferenceFn
from tl_entangle import scalars, spaces
from tl_entangle.diagrams import PlanarDiagram, TLElement, _join
from tl_entangle.jones_wenzl import jones_wenzl
from tl_entangle.scalars import DegeneratePointError, LaurentPoly, RationalFn, d_param, delta
from tl_entangle.spaces import qudit_space
from tl_entangle.tangle_dsl import corpus_names, load_corpus

D = d_param()
# generic points on the unit circle, and the level-4 point
POINTS = [cmath.exp(1j * t) for t in (0.1, 0.7, 1.3, -0.2617993877991494)]


def _value(x, a):
    try:
        return x.evaluate(a)
    except DegeneratePointError as exc:
        return str(exc), exc.factor


def assert_same(new, ref):
    for part, ref_part in ((new.num, ref.num), (new.den, ref.den)):
        assert list(part.coeffs.items()) == list(ref_part.coeffs.items())
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)
    for a in POINTS:
        assert _value(new, a) == _value(ref, a)


@lru_cache(maxsize=None)
def reference_jones_wenzl(n):
    """jones_wenzl's Wenzl recursion over reference coefficients."""
    if n <= 1:
        diagram = PlanarDiagram.empty() if n == 0 else PlanarDiagram.identity(1)
        return TLElement.from_diagram(diagram, ReferenceFn(1))
    wide = reference_jones_wenzl(n - 1).tensor(TLElement.from_diagram(PlanarDiagram.identity(1)))
    e_last = TLElement.from_diagram(PlanarDiagram.generator(n, n - 1))
    coeff = ReferenceFn(delta(n - 2), delta(n - 1))
    return wide + (-1) * coeff * wide.compose(e_last, D).compose(wide, D)


def reference_inner(diagram, element):
    """<diagram|element> over reference coefficients; the terms are counted
    by (coefficient, loops) first, so each distinct product is added once."""
    counts = Counter((c, _join({}, dg.pairs + diagram.pairs))
                     for dg, c in element.terms.items())
    total = ReferenceFn(0)
    for (c, loops), count in counts.items():
        total = total + count * c * D ** loops
    return total


@lru_cache(maxsize=None)
def reference_qudit_space(n):
    """(Gram matrix, Gram-Schmidt coefficients, squared norms) of
    QuditSpace(n), computed over reference coefficients."""
    w = n - 1
    diagrams = [PlanarDiagram(0, 4 * w, m) for m in spaces.local_basis_matchings(n)]
    dressed = [TLElement.from_diagram(dg, ReferenceFn(1)) for dg in diagrams]
    if w > 1:
        dressed = [spaces._dress(b, 4 * w, [t * w for t in range(4)],
                                 reference_jones_wenzl(w), D) for b in dressed]
    G = [[reference_inner(diagrams[i], dressed[j]) for j in range(n)] for i in range(n)]
    coeffs = [[ReferenceFn(1 if i == j else 0) for j in range(n)] for i in range(n)]
    norms_sq = []
    for i in range(n):
        for j in range(i):
            ov = ReferenceFn(0)
            for k in range(j + 1):
                ov = ov + coeffs[j][k].bar() * G[k][i]
            f = ov / norms_sq[j]
            for k in range(j + 1):
                coeffs[i][k] = coeffs[i][k] - f * coeffs[j][k]
        nu = ReferenceFn(0)
        for a in range(i + 1):
            for b in range(i + 1):
                nu = nu + coeffs[i][a].bar() * G[a][b] * coeffs[i][b]
        norms_sq.append(nu)
    return G, coeffs, norms_sq


@pytest.mark.parametrize("n", range(6))
def test_jones_wenzl_coefficients_match_reference(n):
    new, ref = jones_wenzl(n), reference_jones_wenzl(n)
    assert list(new.terms) == list(ref.terms)
    for dg, c in new.terms.items():
        assert_same(c, ref.terms[dg])


@pytest.mark.parametrize("n", range(2, 5))
def test_qudit_space_exact_data_matches_reference(n):
    space = qudit_space(n)
    G, coeffs, norms_sq = reference_qudit_space(n)
    for i in range(n):
        assert_same(space.gs_norms_sq[i], norms_sq[i])
        for j in range(n):
            assert_same(space.gram[i][j], G[i][j])
            assert_same(space._gs_coeffs[i][j], coeffs[i][j])


# --- random fractions over cyclotomic products -------------------------------

def _A(k):
    return LaurentPoly.A_power(k)


# A^m - 1 and A^m + 1 are products of cyclotomic polynomials (A - 1 = Phi_1
# has its own sign under bar), as are d and the quantum integers
CYCLOTOMIC_FACTORS = ([_A(m) - 1 for m in range(1, 7)] + [_A(m) + 1 for m in range(1, 5)]
                      + [D, delta(2), delta(3), delta(4), D + 1])
# factors that are no product of cyclotomic polynomials take the gcd path
OTHER_FACTORS = [D + 3, _A(2) + 2, 2 * _A(1) - 1]

coefficients = st.one_of(st.integers(-4, 4),
                         st.fractions(min_value=-3, max_value=3, max_denominator=6))
laurent = st.dictionaries(st.integers(-6, 6), coefficients, max_size=4).map(LaurentPoly)


@st.composite
def fractions_over_cyclotomics(draw, other=False):
    num = draw(laurent)
    den = draw(st.sampled_from([1, 2, -3, Fraction(1, 2)])) * _A(draw(st.integers(-3, 3)))
    pool = CYCLOTOMIC_FACTORS + (OTHER_FACTORS if other else [])
    for factor in draw(st.lists(st.sampled_from(pool), max_size=3)):
        den = den * factor
    return num, den


OPS = ("add", "sub", "mul", "div", "bar")


def _apply(op, x, y):
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    return x.bar()


@settings(max_examples=150, deadline=None)
@given(st.lists(fractions_over_cyclotomics(), min_size=1, max_size=5),
       st.lists(st.sampled_from(OPS), max_size=5))
def test_cyclotomic_fraction_arithmetic_matches_reference(operands, ops):
    new = [RationalFn(n, d) for n, d in operands]
    ref = [ReferenceFn(n, d) for n, d in operands]
    for x, y in zip(new, ref):
        assert_same(x, y)
    x, y = new[0], ref[0]
    for k, op in enumerate(ops):
        other = k % len(new)
        if op == "div" and new[other].is_zero():
            continue
        x, y = _apply(op, x, new[other]), _apply(op, y, ref[other])
        assert_same(x, y)
        assert x.is_zero() == y.is_zero()


@settings(max_examples=100, deadline=None)
@given(fractions_over_cyclotomics(other=True), fractions_over_cyclotomics(other=True),
       st.sampled_from(OPS))
def test_general_denominators_match_reference(a, b, op):
    x, y = RationalFn(*a), RationalFn(*b)
    assume(op != "div" or not y.is_zero())
    assert_same(_apply(op, x, y), _apply(op, ReferenceFn(*a), ReferenceFn(*b)))


@settings(max_examples=100, deadline=None)
@given(fractions_over_cyclotomics(other=True), fractions_over_cyclotomics())
def test_equal_values_hash_equal(a, b):
    x, z = RationalFn(*a), RationalFn(*b)
    for y in (x + z - z, (x * z) / z if not z.is_zero() else x, x.bar().bar()):
        assert y == x and x == y
        assert hash(y) == hash(x)
    assert (x == z) == (ReferenceFn(*a) == ReferenceFn(*b))
    assert (x == z) == (x - z).is_zero()


# --- Laurent polynomials with int coefficients --------------------------------

def reference_mul(a, b):
    """LaurentPoly.__mul__ over Fraction coefficients, as it was."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            s = out.get(e1 + e2, Fraction(0)) + Fraction(c1) * Fraction(c2)
            if s:
                out[e1 + e2] = s
            else:
                out.pop(e1 + e2, None)
    return out


def reference_add(a, b):
    out = {e: Fraction(c) for e, c in a.items()}
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


@settings(max_examples=200, deadline=None)
@given(laurent, laurent)
def test_laurent_int_coefficients_keep_order_and_values(a, b):
    for got, want in ((a * b, reference_mul(a.coeffs, b.coeffs)),
                      (a + b, reference_add(a.coeffs, b.coeffs))):
        assert list(got.coeffs.items()) == list(want.items())
        assert all(type(c) is int for c in got.coeffs.values()
                   if Fraction(c).denominator == 1)
        for z in POINTS:
            assert got.evaluate(z) == LaurentPoly._wrap(want).evaluate(z)


# --- the gcd path stays off the package's own inputs --------------------------

def test_shipped_inputs_never_take_the_gcd_path(monkeypatch):
    def refuse(num, den):
        raise AssertionError(f"gcd path taken for ({num!r})/({den!r})")

    monkeypatch.setattr(scalars, "_gcd_reduce", refuse)
    jones_wenzl.cache_clear()
    qudit_space.cache_clear()
    values = []
    for n in range(6):
        values += jones_wenzl(n).terms.values()
    for n in range(1, 5):
        space = qudit_space(n)
        values += [c for row in space.gram + space._gs_coeffs for c in row]
        values += space.gs_norms_sq
    for name in corpus_names():
        values += load_corpus(name).element().terms.values()
    # printing reads each value's canonical pair
    assert all(repr(c) for c in values)


# --- the Phi_m prefilter against the numpy prefilter it replaced ---------------

def numpy_candidate_orders(dense):
    """scalars._candidate_orders as it was, evaluating through numpy."""
    orders = scalars._orders_up_to(len(dense) - 1)
    if not orders:
        return orders
    try:
        coeffs = np.array([float(c) for c in reversed(dense)])
    except OverflowError:
        return orders
    tol = 1e-6 * np.abs(coeffs).sum()
    values = np.abs(np.polyval(coeffs, np.exp(2j * np.pi / np.array(orders))))
    return [m for m, v in zip(orders, values) if not v > tol]


def test_candidate_orders_match_numpy_on_shipped_numerators(monkeypatch):
    met = []
    original = scalars._candidate_orders

    def recording(dense):
        met.append(tuple(dense))
        return original(dense)

    monkeypatch.setattr(scalars, "_candidate_orders", recording)
    jones_wenzl.cache_clear()
    qudit_space.cache_clear()
    values = []
    for n in range(6):
        values += jones_wenzl(n).terms.values()
    for n in range(1, 5):
        space = qudit_space(n)
        values += [c for row in space.gram + space._gs_coeffs for c in row]
        values += space.gs_norms_sq
    assert all(repr(c) for c in values)
    assert len(set(met)) >= 10
    for dense in set(met):
        assert original(dense) == numpy_candidate_orders(dense)


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6).filter(any),
       st.lists(st.tuples(st.integers(1, 36), st.integers(1, 3)), max_size=4))
def test_candidate_orders_match_numpy_on_cyclotomic_products(cofactor, factors):
    dense = list(cofactor)
    for m, e in factors:
        for _ in range(e):
            dense = _dense_mul(dense, scalars._cyclotomic(m))
    while len(dense) > 1 and dense[-1] == 0:
        dense.pop()
    got = scalars._candidate_orders(dense)
    assert got == numpy_candidate_orders(dense)
    assert {m for m, _ in factors} <= set(got)
