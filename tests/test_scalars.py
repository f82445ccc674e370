import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import tl_entangle
from reference_rationalfn import RationalFn as ReferenceFn, assert_same, package_fraction
from tl_entangle.scalars import (
    DegeneratePointError,
    EvalPoint,
    LaurentPoly,
    RationalFn,
    SplitNorm,
    d_param,
    delta,
    evaluate,
    quantum_factorials,
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
    with pytest.raises(ValueError, match="no negative powers"):
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
    # d = -A^-2 Phi_8(A) and d + 1 = -A^-2 Phi_12(A): delta(2)(d + 1) / (d(d + 1)),
    # whose Phi_12 cancels
    x = package_fraction(delta(2) * (d + 1), 1, -4, {8: 1, 12: 1})
    over_d = package_fraction(delta(2), -1, -2, {8: 1})
    assert x == over_d
    assert (x.num, x.den) == (over_d.num, over_d.den)
    assert_same(x, ReferenceFn(delta(2) * (d + 1), d * (d + 1)))
    assert x * d == RationalFn(delta(2))
    y = package_fraction(1, -1, -2, {8: 1})
    assert_same(y, ReferenceFn(1, d))
    assert y + y == package_fraction(2, -1, -2, {8: 1})
    assert (y - y).is_zero()
    assert y.bar().bar() == y
    assert y * d == RationalFn(1)
    # a RationalFn built from one is the same value
    assert_same(RationalFn(x), ReferenceFn(delta(2), d))
    with pytest.raises(TypeError):
        RationalFn(0.5)


def test_rationalfn_degenerate_point():
    # 1/d, as [2] = -d
    y = -quantum_factorials((2, -1))
    # d = -2cos(2theta) vanishes at theta = pi/4
    with pytest.raises(DegeneratePointError):
        y.evaluate(cmath.exp(1j * math.pi / 4))
    val = y.evaluate(EvalPoint.from_level(4).A)
    assert abs(val + 1 / math.sqrt(3)) < 1e-12


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


COERCE_CHECK = """
import sys
import numpy as np
from tl_entangle.scalars import LaurentPoly, _coerce

poly = LaurentPoly({1: 2})

def check():
    assert _coerce(poly) is poly
    for value in (3, 0, True, False):
        assert _coerce(value) == LaurentPoly({0: int(value)} if value else {})
    for value in (np.int64(3), 1.5, "3", None):
        assert _coerce(value) is NotImplemented

assert "fractions" not in sys.modules
check()
from fractions import Fraction

class Half(Fraction):
    pass

check()
for value in (Fraction(1, 2), Half(1, 2), Fraction(4, 2), Fraction(0)):
    assert _coerce(value) == LaurentPoly({0: Fraction(value)} if value else {})
    assert _coerce(value) == value
"""


def test_coerce_accepts_ints_and_fractions_with_or_without_fractions_loaded():
    # scalars loads fractions only where it builds a Fraction, so _coerce
    # reads the class from sys.modules; a fresh process checks it before
    # and after fractions is loaded
    src = os.path.dirname(os.path.dirname(tl_entangle.__file__))
    proc = subprocess.run([sys.executable, "-c", COERCE_CHECK], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
