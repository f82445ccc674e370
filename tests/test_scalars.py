import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from tl_entangle.scalars import (
    DegeneratePointError,
    EvalPoint,
    InvariantError,
    LaurentPoly,
    RationalFn,
    SplitNorm,
    as_poly_in_d,
    d_param,
    delta,
    evaluate,
    sqrt_normalizer,
)

np_rng = np.random.default_rng(233)


def test_laurent_ring_ops():
    a = LaurentPoly({3: 1, -1: Fraction(1, 2)})
    b = LaurentPoly({0: -2, 3: 1})
    assert a + b == LaurentPoly({3: 2, -1: Fraction(1, 2), 0: -2})
    assert a - a == LaurentPoly.zero()
    assert not (a - a)
    assert a * LaurentPoly.one() == a
    assert (a * b).coeffs[6] == 1
    assert LaurentPoly.A_power(5) * LaurentPoly.A_power(-5) == 1
    assert a ** 0 == LaurentPoly.one()
    with pytest.raises(ValueError):
        a ** -1


def test_laurent_evaluation_is_ring_hom():
    a = LaurentPoly({4: 1, 0: -3, -2: Fraction(2, 7)})
    b = LaurentPoly({1: 5, -3: -1})
    for theta in np_rng.uniform(0.01, 1.5, size=50):
        z = cmath.exp(1j * theta)
        assert abs((a * b).evaluate(z) - a.evaluate(z) * b.evaluate(z)) < 1e-10
        assert abs((a + b).evaluate(z) - (a.evaluate(z) + b.evaluate(z))) < 1e-10
        assert abs(a.bar().evaluate(z) - a.evaluate(1 / z)) < 1e-10


def test_loop_value_at_level_four():
    pt = EvalPoint.from_level(4)
    assert abs(pt.theta + math.pi / 12) < 1e-15
    assert abs(pt.d + math.sqrt(3)) < 1e-12
    assert abs(evaluate(d_param(), pt) + math.sqrt(3)) < 1e-12
    assert abs(pt.q - cmath.exp(2j * math.pi / 6)) < 1e-12


def test_delta_recursion_and_sine_form():
    d = d_param()
    assert delta(-1) == LaurentPoly.zero()
    assert delta(0) == LaurentPoly.one()
    assert delta(1) == d
    assert delta(2) == d * d - 1
    assert delta(3) == d * d * d - 2 * d
    with pytest.raises(ValueError):
        delta(-2)
    # closing a width-n strand bundle: delta(n) = sin((n+1)x)/sin(x) at x = pi - 2*theta
    for theta in np_rng.uniform(0.02, 0.6, size=20):
        x = math.pi - 2 * theta
        pt = EvalPoint(theta)
        for n in range(6):
            want = math.sin((n + 1) * x) / math.sin(x)
            assert abs(evaluate(delta(n), pt) - want) < 1e-10


def test_rationalfn_reduction_and_equality():
    d = d_param()
    # d + 1 = -A^-2 Phi_12(A) cancels
    x = RationalFn(delta(2) * (d + 1), d * (d + 1))
    assert x == RationalFn(delta(2), d)
    assert (x.num, x.den) == (RationalFn(delta(2), d).num, RationalFn(delta(2), d).den)
    # d + 3 is no product of cyclotomic polynomials
    with pytest.raises(InvariantError):
        RationalFn(delta(2) * (d + 3), d * (d + 3))
    assert x * d == RationalFn(delta(2))
    y = RationalFn(1, d)
    assert y + y == RationalFn(2, d)
    assert (y - y).is_zero()
    assert y.bar().bar() == y
    assert 1 / y == RationalFn(d)


def test_rationalfn_degenerate_point():
    y = RationalFn(1, d_param())
    # d = -2cos(2theta) vanishes at theta = pi/4
    with pytest.raises(DegeneratePointError):
        y.evaluate(cmath.exp(1j * math.pi / 4))
    val = y.evaluate(EvalPoint.from_level(4).A)
    assert abs(val + 1 / math.sqrt(3)) < 1e-12


def test_as_poly_in_d():
    assert as_poly_in_d(LaurentPoly.one()) == [Fraction(1)]
    assert as_poly_in_d(d_param()) == [0, 1]
    assert as_poly_in_d(delta(2)) == [-1, 0, 1]
    assert as_poly_in_d(delta(3)) == [0, -2, 0, 1]
    assert as_poly_in_d(LaurentPoly.A_power(2)) is None
    assert as_poly_in_d(LaurentPoly.A_power(1)) is None


def test_sqrt_normalizer_sign_convention():
    # norms given by their quantum-factorial powers, [2] = -d and [3] = d^2 - 1
    pt = EvalPoint.from_level(4)  # d = -sqrt(3)
    # 1/d^2 = [2]^-2 keeps the sign of 1/d
    val = sqrt_normalizer(((2, -2),), pt)
    assert abs(val - (-1 / math.sqrt(3))) < 1e-12
    # 1/(d^2-1) = [2]!/[3]! is not a perfect square: principal positive root
    val = sqrt_normalizer(((2, 1), (3, -1)), pt)
    assert abs(val - 1 / math.sqrt(2)) < 1e-12
    # d^2/(d^2-1)^2 = [2]!^4/[3]!^2 -> d/(d^2-1), negative at this point
    val = sqrt_normalizer(((2, 4), (3, -2)), pt)
    assert abs(val - (-math.sqrt(3) / 2)) < 1e-12
    assert SplitNorm((2, 4), (3, -2)).parts == ([0, 1], [1], [-1, 0, 1], [1])
    with pytest.raises(DegeneratePointError) as info:
        sqrt_normalizer(((2, -2),), EvalPoint(math.pi / 4))
    assert info.value.factor == "denominator"
    # 1/(d^2-1) is negative where |d| < 1 (d = -0.72 here): its square-free part
    with pytest.raises(DegeneratePointError) as info:
        sqrt_normalizer(((2, 1), (3, -1)), EvalPoint(0.6))
    assert info.value.factor == "squarefree"
