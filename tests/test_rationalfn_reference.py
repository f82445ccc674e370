"""Differential tests of scalars.RationalFn (a numerator over cyclotomic
factors, no gcd) against the gcd-reduced class it replaced, and of
scalars.SplitNorm (read off Phi_m exponents) against Yun's square-free split,
both kept in reference_rationalfn.  Equal means the same canonical pair, with
the same coefficients in the same order, the same repr and hash, and
bit-identical floats from evaluate; for a split, the same float lists."""

import cmath
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from reference_rationalfn import RationalFn as ReferenceFn, split_norm_parts
from tl_entangle import scalars, spaces
from tl_entangle.diagrams import PlanarDiagram, TLElement, _join
from tl_entangle.jones_wenzl import jones_wenzl
from tl_entangle.scalars import (DegeneratePointError, EvalPoint, InvariantError, LaurentPoly,
                                 RationalFn, SplitNorm, d_param, delta)
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
def reference_jones_wenzl(n, fn=ReferenceFn):
    """jones_wenzl's Wenzl recursion over coefficients of class fn (the
    reference class by default), composing the full-width e_(n-1)."""
    if n <= 1:
        diagram = PlanarDiagram.empty() if n == 0 else PlanarDiagram.identity(1)
        return TLElement.from_diagram(diagram, fn(1))
    wide = reference_jones_wenzl(n - 1, fn).tensor(
        TLElement.from_diagram(PlanarDiagram.identity(1)))
    e_last = TLElement.from_diagram(PlanarDiagram.generator(n, n - 1))
    coeff = fn(delta(n - 2), delta(n - 1))
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


def _gram_schmidt(G, fn):
    """(coefficients, squared norms) of exact Gram-Schmidt over the Gram
    matrix G, with coefficients of class fn; each norm is the full double sum
    over its vector's coefficients."""
    n = len(G)
    coeffs = [[fn(1 if i == j else 0) for j in range(n)] for i in range(n)]
    norms_sq = []
    for i in range(n):
        for j in range(i):
            ov = fn(0)
            for k in range(j + 1):
                ov = ov + coeffs[j][k].bar() * G[k][i]
            f = ov / norms_sq[j]
            for k in range(j + 1):
                coeffs[i][k] = coeffs[i][k] - f * coeffs[j][k]
        nu = fn(0)
        for a in range(i + 1):
            for b in range(i + 1):
                nu = nu + coeffs[i][a].bar() * G[a][b] * coeffs[i][b]
        norms_sq.append(nu)
    return coeffs, norms_sq


@lru_cache(maxsize=None)
def reference_qudit_space(n):
    """(Gram matrix, Gram-Schmidt coefficients, squared norms) of
    QuditSpace(n), computed over reference coefficients."""
    w = n - 1
    diagrams = [PlanarDiagram(0, 4 * w, m) for m in spaces.local_basis_matchings(n)]
    layout = spaces.PartyLayout((("reference", n),))
    dressed = [spaces.dress(TLElement.from_diagram(dg, ReferenceFn(1)), layout,
                            reference_jones_wenzl, D) for dg in diagrams]
    G = [[reference_inner(diagrams[i], dressed[j]) for j in range(n)] for i in range(n)]
    coeffs, norms_sq = _gram_schmidt(G, ReferenceFn)
    return G, coeffs, norms_sq


@pytest.mark.parametrize("n", range(6))
def test_jones_wenzl_coefficients_match_reference(n):
    new, ref = jones_wenzl(n), reference_jones_wenzl(n)
    assert list(new.terms) == list(ref.terms)
    for dg, c in new.terms.items():
        assert_same(c, ref.terms[dg])


@pytest.mark.parametrize("n", range(7))
def test_jones_wenzl_matches_full_width_recursion(n):
    """The hook glued under the last two strands gives the recursion's
    terms, in order, with the same coefficients."""
    new, ref = jones_wenzl(n), reference_jones_wenzl(n, RationalFn)
    assert list(new.terms.items()) == list(ref.terms.items())
    assert [repr(c) for c in new.terms.values()] == [repr(c) for c in ref.terms.values()]


@pytest.mark.parametrize("n", range(2, 5))
def test_qudit_space_exact_data_matches_reference(n):
    space = qudit_space(n)
    G, coeffs, norms_sq = reference_qudit_space(n)
    for i in range(n):
        assert_same(space.gs_norms_sq[i], norms_sq[i])
        for j in range(n):
            assert_same(space.gram[i][j], G[i][j])
            assert_same(space._gs_coeffs[i][j], coeffs[i][j])


def test_qudit_space_closed_forms_match_gram_schmidt_in_dimension_5():
    # the frame's closed forms against exact Gram-Schmidt over the Gram
    # matrix of the dressed basis, which takes nearly all of the time
    space = qudit_space(5)
    coeffs, norms_sq = _gram_schmidt(space.gram, RationalFn)
    for i in range(5):
        assert_same(space.gs_norms_sq[i], norms_sq[i])
        for j in range(5):
            assert_same(space._gs_coeffs[i][j], coeffs[i][j])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-3, 3)), max_size=4))
def test_quantum_factorials_match_products_of_loop_weights(powers):
    want = RationalFn(1)
    for a, e in powers:
        # [a]! with the quantum integer [k] = (-1)^(k-1) delta(k-1)
        factorial = RationalFn(math.prod(((-1) ** (k - 1) * delta(k - 1)
                                          for k in range(1, a + 1)), start=LaurentPoly.one()))
        for _ in range(abs(e)):
            want = want * factorial if e > 0 else want / factorial
    got = scalars.quantum_factorials(*powers)
    assert got == want and repr(got) == repr(want)
    # already in lowest terms: no Phi_m below divides the numerator
    assert got._cancelled() == (got._top, got._phis)


# --- random fractions over cyclotomic products -------------------------------

def _A(k):
    return LaurentPoly.A_power(k)


# A^m - 1 and A^m + 1 are products of cyclotomic polynomials (A - 1 = Phi_1
# has its own sign under bar), as are d and the quantum integers
CYCLOTOMIC_FACTORS = ([_A(m) - 1 for m in range(1, 7)] + [_A(m) + 1 for m in range(1, 5)]
                      + [D, delta(2), delta(3), delta(4), D + 1])
# factors that are no product of cyclotomic polynomials, which no denominator
# may hold
OTHER_FACTORS = [D + 3, _A(2) + 2, 2 * _A(1) - 1]

coefficients = st.one_of(st.integers(-4, 4),
                         st.fractions(min_value=-3, max_value=3, max_denominator=6))
laurent = st.dictionaries(st.integers(-6, 6), coefficients, max_size=4).map(LaurentPoly)
# numerators that are products of the cyclotomic factors, which a value may be
# divided by
cyclotomic_laurent = st.lists(st.sampled_from(CYCLOTOMIC_FACTORS), min_size=1, max_size=3).map(
    lambda factors: math.prod(factors[1:], start=factors[0]))


@st.composite
def fractions_over_cyclotomics(draw):
    num = draw(st.one_of(laurent, cyclotomic_laurent))
    den = draw(st.sampled_from([1, 2, -3, Fraction(1, 2)])) * _A(draw(st.integers(-3, 3)))
    for factor in draw(st.lists(st.sampled_from(CYCLOTOMIC_FACTORS), max_size=3)):
        den = den * factor
    return num, den


OPS = ("add", "sub", "mul", "div", "bar")


def _divides(y):
    """Whether x / y is defined: y's numerator becomes the denominator, which
    must be a product of cyclotomic polynomials."""
    return not y.is_zero() and scalars._cyclotomic_split(y.num) is not None


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


# derandomize: a fixed example set, so one unlucky draw cannot stretch the
# test's time (one random run took 42 s against 2 to 4 s for others)
@settings(max_examples=150, deadline=None, derandomize=True)
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
        if op == "div" and not _divides(new[other]):
            if not new[other].is_zero():
                with pytest.raises(InvariantError):
                    x / new[other]
            continue
        x, y = _apply(op, x, new[other]), _apply(op, y, ref[other])
        assert_same(x, y)
        assert x.is_zero() == y.is_zero()


@settings(max_examples=100, deadline=None)
@given(fractions_over_cyclotomics(), st.sampled_from(OTHER_FACTORS))
def test_general_denominators_raise(a, other):
    num, den = a
    with pytest.raises(InvariantError, match="no product of cyclotomic polynomials"):
        RationalFn(num, den * other)
    # a division by a value whose numerator holds the factor builds that denominator
    divisor = RationalFn(other, den)
    with pytest.raises(InvariantError):
        RationalFn(num) / divisor


@settings(max_examples=100, deadline=None)
@given(fractions_over_cyclotomics(), fractions_over_cyclotomics())
def test_equal_values_hash_equal(a, b):
    x, z = RationalFn(*a), RationalFn(*b)
    for y in (x + z - z, (x * z) / z if _divides(z) else x, x.bar().bar()):
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


# --- the package's own inputs ------------------------------------------------

def test_shipped_inputs_build_with_cyclotomic_denominators():
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
    for c in map(RationalFn.from_scalar, values):
        # the canonical denominator is a monic product of Phi_m, constant term +-1
        unit, shift, _ = scalars._cyclotomic_split(c.den)
        assert (unit, shift) == (1, 0)
        assert repr(c)


# --- SplitNorm against Yun's square-free split --------------------------------

@pytest.mark.parametrize("n", range(1, 5))
def test_split_norm_matches_yun_on_qudit_norms(n):
    for nu in qudit_space(n).gs_norms_sq:
        parts = SplitNorm(nu).parts
        assert parts is not None
        assert repr(parts) == repr(split_norm_parts(nu))


# each group of Phi_m is +-A^k times one irreducible polynomial in d: d + 2 and
# d - 2 (the squared groups), Phi_m Phi_2m for odd m and Phi_m for 4 | m
PHI_GROUPS = [{1: 2, 2: 2}, {4: 2}, {3: 1, 6: 1}, {5: 1, 10: 1}, {9: 1, 18: 1}, {8: 1},
              {12: 1}, {16: 1}, {20: 1}]
# lone Phi_m, which no polynomial in d is made of
LONE_PHIS = [{1: 1}, {2: 1}, {4: 1}, {3: 1}, {6: 1}, {1: 1, 2: 1}]


def _phi_power(shape, n):
    return scalars._cyclotomic_product(tuple(sorted((m, e * n) for m, e in shape.items())))


@st.composite
def signed_group_products(draw):
    """A RationalFn c * A^k * prod group^n / prod group^n', mostly a function
    of d, sometimes shifted off centre or holding a lone Phi_m."""
    num = draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]))
    num = num * _A(draw(st.integers(-6, 6)))
    den = LaurentPoly.one()
    for shape, n, below in draw(st.lists(st.tuples(st.sampled_from(PHI_GROUPS),
                                                   st.integers(1, 5), st.booleans()),
                                         max_size=4)):
        if below:
            den = den * _phi_power(shape, n)
        else:
            num = num * _phi_power(shape, n)
    if draw(st.integers(0, 4)) == 0:
        num = num * _phi_power(draw(st.sampled_from(LONE_PHIS)), 1)
    return RationalFn(num, den)


@settings(max_examples=300, deadline=None)
@given(signed_group_products())
def test_split_norm_matches_yun_on_signed_group_products(norm):
    # centre it most of the time, so that it is a function of d
    lo, hi = norm.num.min_exp(), norm.num.max_exp()
    centred = norm * RationalFn(_A(-(lo + hi - norm.den.max_exp()) // 2))
    for x in (norm, centred):
        want = split_norm_parts(x)
        if want is None:
            # no function of d: no split
            with pytest.raises(InvariantError, match="is no function of d"):
                SplitNorm(x)
        else:
            assert repr(SplitNorm(x).parts) == repr(want)


def test_split_norm_of_a_d_function_is_found():
    # (d - 1)^3 (d + 2)^2 / (d^2 (d - 2)^3), a function of d with odd exponents
    x = RationalFn((D - 1) ** 3 * (D + 2) ** 2, D * D * (D - 2) ** 3)
    parts = SplitNorm(x).parts
    assert parts == split_norm_parts(x)
    # the canonical denominator is monic in A, -d^2 (d - 2)^3 in d, so both
    # square-free parts carry the sign -1
    assert parts == ([-2.0, 1.0, 1.0], [1.0, -1.0], [0.0, -2.0, 1.0], [2.0, -1.0])


def test_non_cyclotomic_norm_is_an_invariant_error():
    # d + 3 is no product of Phi_m; Yun's split would read (d + 3)^2 * d^2 as a
    # square, but no norm of a local frame has such a factor
    x = RationalFn((D + 3) ** 2 * D * D)
    assert split_norm_parts(x) is not None
    with pytest.raises(InvariantError, match="no product of cyclotomic polynomials"):
        SplitNorm(x)
    with pytest.raises(InvariantError):
        scalars.sqrt_normalizer(x, EvalPoint(0.1))


# --- the cyclotomic split, by exact division alone ----------------------------

def _split_product(split):
    """c * A^k * prod Phi_m^e for a split (c, k, {m: e})."""
    c, k, exps = split
    return LaurentPoly({k: c}) * scalars._cyclotomic_product(tuple(sorted(exps.items())))


def test_splits_met_while_building_multiply_back(monkeypatch):
    met = []
    original = scalars._cyclotomic_split

    def recording(poly):
        split = original(poly)
        met.append((poly, split))
        return split

    monkeypatch.setattr(scalars, "_cyclotomic_split", recording)
    jones_wenzl.cache_clear()
    qudit_space.cache_clear()
    for n in range(6):
        assert repr(jones_wenzl(n))
    for n in range(1, 5):
        assert [repr(nu) for nu in qudit_space(n).gs_norms_sq]
    assert sum(bool(split[2]) for _, split in met) >= 10
    for poly, split in met:
        assert list(split[2]) == sorted(split[2])
        assert _split_product(split) == poly


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6).filter(any),
       st.lists(st.tuples(st.integers(1, 36), st.integers(1, 3)), max_size=4))
def test_split_of_a_cyclotomic_product_adds_its_exponents(cofactor, factors):
    dense = list(cofactor)
    want = Counter()
    for m, e in factors:
        want[m] += e
        for _ in range(e):
            dense = _dense_mul(dense, scalars._cyclotomic(m))
    got = scalars._cyclotomic_split(LaurentPoly.from_dense(0, dense))
    base = scalars._cyclotomic_split(LaurentPoly.from_dense(0, cofactor))
    if base is None:
        assert got is None
        return
    c, k, exps = base
    want.update(exps)
    assert got == (c, k, dict(sorted(want.items())))
    assert list(got[2]) == sorted(want)
