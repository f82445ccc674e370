"""Exact scalar arithmetic for the diagram calculus.

Coefficients live in the ring of Laurent polynomials in the bracket variable A
over exact rationals, or in its fraction field.  Numeric evaluation sends A to
exp(i*theta) on the unit circle, where the loop value becomes
d = -A^2 - A^(-2) = -2*cos(2*theta).

Laurent polynomials hold integral coefficients as ints and the others as
Fractions.  Every denominator the package builds is a product of cyclotomic
polynomials Phi_m(A): up to a unit +-A^k, each quantum integer delta(n) is
one, and the Jones-Wenzl coefficients and frames are their ratios, which
quantum_factorials reads off their Phi_m multisets.  So a RationalFn holds a
Laurent numerator over a multiset {m: e} of Phi_m exponents, and a
denominator of any other form raises InvariantError.  A sum brings both
numerators to the larger multiset, a product adds the multisets, bar uses
Phi_m(1/A) = A^-phi(m) Phi_m(A) (m > 1), and equality cross-multiplies;
none of them computes a gcd.

Every Phi_m factor is found by one rule, exact division (_divide_out), and
no float decides a factor.  Only RationalFn(num, den) and / factor a
polynomial, by trying every Phi_m of degree up to its own
(_cyclotomic_split); no build path of the package calls either.  Lowest
terms (RationalFn.lowest) divide the numerator by the Phi_m of the value's
own multiset, each at most as often as the multiset holds it; that brings a
quotient, and each coefficient of a TLElement as it is built, to lowest
terms, and builds the canonical (numerator, denominator) pair, which
evaluation, printing and hashing read, once per value.

SplitNorm takes the powers quantum_factorials takes and splits that squared
norm as (r/r')^2 * s/s' for its square roots, from the same Phi_m multiset
(_factorial_phis): each irreducible polynomial in d is, up to a unit, one
group of Phi_m in A (_d_group), and each side's r and s are read off one
cyclotomic product each (_square_split).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

# |denominator| below which RationalFn.evaluate raises DegeneratePointError
DENOMINATOR_TOL = 1e-12
# magnitude below which SplitNorm.sqrt_at treats a part of a norm as vanished
NORM_TOL = 1e-10


class DegeneratePointError(ValueError):
    """Raised when a quantity is evaluated at a point where it is singular.

    factor names what vanished: "denominator" (a denominator, or the
    denominator of a split norm), "square" or "squarefree" (that part of a
    split squared norm, see SplitNorm).  QuditSpace.frame_rows sets vector,
    the index of the frame vector; DiagramState._frames sets party, the name
    of the party whose frame failed, and spaces.dress the party whose
    projector failed.  Unknown fields are None.
    """

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor
        self.vector = None
        self.party = None


class InvariantError(RuntimeError):
    """Raised when an internal invariant fails, such as a non-cyclotomic
    denominator, a squared norm that is no function of d, or a traceless
    ladder operator; the CLI maps it to exit 4."""


def _exact(c):
    """A rational coefficient as an int when it is integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _coerce(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly({0: value} if value else {})
    return NotImplemented


class LaurentPoly:
    """Laurent polynomial in A with rational coefficients, zero terms dropped.

    Integral coefficients are held as ints and the others as Fractions, so
    polynomials with integer coefficients never pay for Fraction arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for exp, c in (coeffs or {}).items():
            c = _exact(c)
            if c:
                clean[int(exp)] = c
        self.coeffs = clean

    @classmethod
    def _wrap(cls, coeffs):
        """A polynomial around a dict that is already clean (no zeros, exact)."""
        res = cls.__new__(cls)
        res.coeffs = coeffs
        return res

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def A_power(cls, k):
        return cls({k: 1})

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def max_exp(self):
        return max(self.coeffs) if self.coeffs else 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s if type(s) is int else _exact(s)
            else:
                out.pop(e, None)
        return LaurentPoly._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._wrap({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        for e, c in out.items():
            if type(c) is not int:
                out[e] = _exact(c)
        return LaurentPoly._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial; use RationalFn")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self):
        """The involution A -> A^(-1) (diagram adjoint on coefficients)."""
        return LaurentPoly._wrap({-e: c for e, c in self.coeffs.items()})

    def dense(self):
        """Return (shift, dense coefficients low->high), 0 in the gaps."""
        if not self.coeffs:
            return 0, [0]
        lo, hi = self.min_exp(), self.max_exp()
        dense = [0] * (hi - lo + 1)
        for e, c in self.coeffs.items():
            dense[e - lo] = c
        return lo, dense

    @classmethod
    def from_dense(cls, shift, dense):
        """Inverse of dense(): exponents ascending, zero terms dropped."""
        return cls({shift + i: c for i, c in enumerate(dense) if c})

    def evaluate(self, a):
        """Evaluate at a numeric value of A (complex)."""
        return sum(complex(c) * a ** e for e, c in self.coeffs.items()) if self.coeffs else 0j

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                mag = "A" if e == 1 else f"A^{e}"
                if c == 1:
                    term = mag
                elif c == -1:
                    term = f"-{mag}"
                else:
                    term = f"{c}*{mag}"
            parts.append(term)
        text = " + ".join(parts).replace("+ -", "- ")
        return text


# ---------------------------------------------------------------------------
# cyclotomic factors

def _exact_quotient(num, den):
    """num / den for dense coefficient lists (low->high) and a monic den, or
    None when den does not divide num."""
    k = len(den) - 1
    rem = list(num)
    q = [0] * (len(num) - k)
    if not q:
        return None
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + k]
        if c:
            q[i] = c
            for j in range(k):
                if den[j]:
                    rem[i + j] -= c * den[j]
    return None if any(rem[:k]) else q


@lru_cache(maxsize=None)
def _cyclotomic(m):
    """Dense integer coefficients (low->high) of the cyclotomic polynomial Phi_m."""
    out = [-1] + [0] * (m - 1) + [1]  # A^m - 1 = prod over k | m of Phi_k
    for k in range(1, m):
        if m % k == 0:
            out = _exact_quotient(out, _cyclotomic(k))
    return tuple(out)


def _totient(m):
    out, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            out -= out // p
        p += 1
    if rest > 1:
        out -= out // rest
    return out


@lru_cache(maxsize=None)
def _orders_up_to(degree):
    """Every m whose Phi_m has degree phi(m) <= degree, in increasing order:
    the Phi_m that _cyclotomic_split tries.

    m < 6*phi(m) for every m below 2*10^8, so no m above 6*degree qualifies.
    """
    return tuple(m for m in range(1, 6 * degree + 1) if _totient(m) <= degree)


def _divide_out(dense, limits):
    """Divide each Phi_m of limits = {m: e} out of a dense polynomial as often
    as it goes, at most e times, in the order of limits; returns the
    quotient and {m: times} of the Phi_m that divided.  Exact division alone
    decides; a Phi_m of higher degree than what is left cannot divide, so it
    is not built."""
    exps = {}
    for m, limit in limits.items():
        if _totient(m) >= len(dense):
            continue
        phi = _cyclotomic(m)
        times = 0
        while times < limit:
            q = _exact_quotient(dense, phi)
            if q is None:
                break
            dense, times = q, times + 1
        if times:
            exps[m] = times
    return dense, exps


def _cyclotomic_split(poly):
    """Factor a nonzero LaurentPoly as c * A^k * prod Phi_m^e.

    Returns (c, k, {m: e}) with m ascending, or None when poly has an
    irreducible factor that is no Phi_m.  Every Phi_m of degree up to
    poly's is tried by exact division; no float decides a factor.
    """
    shift, dense = poly.dense()
    dense, exps = _divide_out(dense, dict.fromkeys(_orders_up_to(len(dense) - 1), len(dense)))
    if len(dense) > 1:
        return None
    return dense[0], shift, exps


@lru_cache(maxsize=None)
def _cyclotomic_product(key):
    """prod Phi_m^e over the sorted (m, e) pairs of key, exponents ascending."""
    out = LaurentPoly.one()
    for m, e in key:
        out = out * LaurentPoly.from_dense(0, _cyclotomic(m)) ** e
    return LaurentPoly.from_dense(*out.dense())


def _over_common(x, y):
    """The numerators of x and y over the multiset max of their Phi_m
    exponents, and that multiset."""
    common = dict(x._phis)
    for m, e in y._phis.items():
        if e > common.get(m, 0):
            common[m] = e

    def top(fn):
        extra = ((m, e - fn._phis.get(m, 0)) for m, e in common.items())
        return fn._top * _cyclotomic_product(tuple(sorted(p for p in extra if p[1])))

    return top(x), top(y), common


def _fn(top, phis):
    """The RationalFn top / prod Phi_m^e for phis = {m: e}, with no checks."""
    out = RationalFn.__new__(RationalFn)
    out._top = top
    out._phis = phis if top else {}
    out._canon = None
    return out


class RationalFn:
    """Ratio of Laurent polynomials over a product of cyclotomic polynomials.

    The value is _top / prod Phi_m(A)^e over _phis = {m: e}; arithmetic keeps
    that form and computes no gcd.  A denominator that is not
    c * A^k * prod Phi_m^e for a rational c raises InvariantError.

    The canonical pair (num, den), which evaluation, printing and hashing
    read, is in lowest terms with den an ordinary polynomial in A of nonzero
    constant term and leading coefficient 1; any A-power shift is absorbed
    into num.  Both have ascending exponents.  It is built on first use, by
    exact division of _top by the Phi_m of _phis, and kept.
    """

    __slots__ = ("_top", "_phis", "_canon")

    def __init__(self, num, den=None):
        top, phis = _coerce(num), {}
        if top is NotImplemented:
            raise TypeError(f"cannot build a RationalFn from {type(num).__name__}")
        if den is not None:
            den = _coerce(den)
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            split = _cyclotomic_split(den)
            if split is None:
                raise InvariantError(f"denominator {den!r} is no product of cyclotomic polynomials")
            c, shift, phis = split
            top = top * LaurentPoly({-shift: Fraction(1) / c})
        self._top = top
        self._phis = phis if top else {}
        self._canon = None

    @classmethod
    def from_scalar(cls, value):
        out = cls._try_coerce(value)
        if out is NotImplemented:
            raise TypeError(f"cannot build a RationalFn from {type(value).__name__}")
        return out

    @classmethod
    def _try_coerce(cls, value):
        if isinstance(value, RationalFn):
            return value
        lp = _coerce(value)
        if lp is NotImplemented:
            return NotImplemented
        return _fn(lp, {})

    def lowest(self):
        """This value in lowest terms: every Phi_m of _phis that divides _top
        cancelled (the same value, so the same canonical pair)."""
        return _fn(*self._cancelled()) if self._phis else self

    def _cancelled(self):
        """The numerator and {m: e} of this value with every Phi_m that
        divides _top cancelled."""
        shift, dense = self._top.dense()
        dense, gone = _divide_out(dense, self._phis)
        left = {m: e - gone.get(m, 0) for m, e in self._phis.items() if e > gone.get(m, 0)}
        return LaurentPoly.from_dense(shift, dense), left

    def _pair(self):
        if self._canon is None:
            num, left = self._cancelled()
            self._canon = (num, _cyclotomic_product(tuple(sorted(left.items()))))
        return self._canon

    @property
    def num(self):
        return self._pair()[0]

    @property
    def den(self):
        return self._pair()[1]

    def is_zero(self):
        return not self._top

    def __eq__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._phis == other._phis or not (self._top and other._top):
            return self._top == other._top
        top, other_top, _ = _over_common(self, other)
        return top == other_top

    def __hash__(self):
        return hash(self._pair())

    def __add__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._phis == other._phis:
            return _fn(self._top + other._top, self._phis)
        if not other._top:
            return self
        if not self._top:
            return other
        top, other_top, common = _over_common(self, other)
        return _fn(top + other_top, common)

    __radd__ = __add__

    def __neg__(self):
        return _fn(-self._top, self._phis)

    def __sub__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._phis, other._phis
        if a and b:
            a = dict(a)
            for m, e in b.items():
                a[m] = a.get(m, 0) + e
        return _fn(self._top * other._top, a or b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        # cancelled at once, or numerators grow with every repeated quotient
        return (self * RationalFn(other.den, other.num)).lowest()

    def __rtruediv__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def bar(self):
        """A -> 1/A, by Phi_m(1/A) = A^-phi(m) Phi_m(A) for m > 1 and
        Phi_1(1/A) = -A^-1 Phi_1(A)."""
        phis = self._phis
        shift = sum(_totient(m) * e for m, e in phis.items())
        sign = -1 if phis.get(1, 0) % 2 else 1
        return _fn(self._top.bar() * LaurentPoly._wrap({shift: sign}), phis)

    def evaluate(self, a):
        num, den = self._pair()
        dv = den.evaluate(a)
        if abs(dv) < DENOMINATOR_TOL:
            raise DegeneratePointError(f"denominator vanishes at A={a!r}", "denominator")
        return num.evaluate(a) / dv

    def __repr__(self):
        num, den = self._pair()
        if den == LaurentPoly.one():
            return repr(num)
        return f"({num!r})/({den!r})"


def work_size(c):
    """(numerator terms as held, largest Phi_m exponent) of a coefficient, (1, 0)
    for a number: a product multiplies numerators term by term, and a sum
    multiplies a numerator by up to that power of a Phi_m."""
    if isinstance(c, RationalFn):
        return len(c._top.coeffs), max(c._phis.values(), default=0)
    return (len(c.coeffs), 0) if isinstance(c, LaurentPoly) else (1, 0)


# ---------------------------------------------------------------------------
# loop value and quantum integers

_D = LaurentPoly({2: -1, -2: -1})


def d_param():
    """The loop value d = -A^2 - A^(-2)."""
    return _D


def delta(n):
    """Chebyshev-like loop weights: delta(-1) = 0, delta(0) = 1, then
    delta(n+1) = d*delta(n) - delta(n-1).  Closing a width-n symmetrizer
    in a trace gives delta(n)."""
    if n < -1:
        raise ValueError(f"delta(n) needs n >= -1, got {n}")
    prev, cur = LaurentPoly.zero(), LaurentPoly.one()
    for _ in range(n + 1):
        prev, cur = cur, _D * cur - prev
    return prev


def _factorial_phis(powers):
    """The signed Phi_m multiset {m: e} of prod [a]!^e over powers = ((a, e), ...):
    [k] = (-1)^(k-1) delta(k-1) = A^(-2(k-1)) prod Phi_m(A) over m | 4k, m not 1, 2 or 4.
    Its positive part is the numerator, its negative part the denominator."""
    exps = {}
    for a, e in powers:
        for k in range(1, a + 1):
            for m in range(3, 4 * k + 1):
                if 4 * k % m == 0 and m != 4:
                    exps[m] = exps.get(m, 0) + e
    return exps


def quantum_factorials(*powers):
    """prod [a]!^e over powers = ((a, e), ...) in lowest terms, read off its
    Phi_m multiset (_factorial_phis) with no division."""
    exps = _factorial_phis(powers)
    top = _cyclotomic_product(tuple(sorted((m, e) for m, e in exps.items() if e > 0)))
    top = top * LaurentPoly.A_power(-sum(a * (a - 1) * e for a, e in powers))
    return _fn(top, {m: -e for m, e in sorted(exps.items()) if e < 0})


class EvalPoint:
    """Numeric evaluation point A = exp(i*theta) on the unit circle."""

    __slots__ = ("theta",)

    def __init__(self, theta):
        self.theta = float(theta)

    @classmethod
    def from_level(cls, k):
        """Principal branch for the root-of-unity family q = exp(2*pi*i/(k+2)):
        theta = -pi / (2*(k+2))."""
        k = float(k)
        if k == -2.0:
            raise ValueError("level k = -2 is singular")
        return cls(-math.pi / (2.0 * (k + 2.0)))

    @property
    def A(self):
        return cmath.exp(1j * self.theta)

    @property
    def q(self):
        return self.A ** (-4)

    @property
    def d(self):
        return -2.0 * math.cos(2.0 * self.theta)

    def __repr__(self):
        return f"EvalPoint(theta={self.theta!r})"

    def __eq__(self, other):
        return isinstance(other, EvalPoint) and self.theta == other.theta

    def __hash__(self):
        return hash(self.theta)


def evaluate(x, point):
    """Evaluate an exact scalar (or plain number) at an EvalPoint."""
    if isinstance(x, (RationalFn, LaurentPoly)):
        return x.evaluate(point.A)
    return complex(x)


# ---------------------------------------------------------------------------
# polynomials in the loop value d, used by the orthonormalization convention

def as_poly_in_d(x):
    """Rewrite a LaurentPoly in A as a dense polynomial in d = -A^2 - A^(-2)
    (coefficient list, low->high).  Returns None when x is not in that subring."""
    x = _coerce(x)
    if x is NotImplemented or any(e % 2 for e in x.coeffs):
        return None
    work = dict(x.coeffs)
    out = [Fraction(0)] * (max(x.max_exp(), 0) // 2 + 1)
    while work:
        hi = max(work)
        if hi < 0:
            return None
        # d^m leads with (-1)^m A^(2m)
        out[hi // 2] = scale = Fraction(work[hi]) * (-1) ** (hi // 2)
        for e, dc in (_D ** (hi // 2)).coeffs.items():
            s = work.get(e, 0) - scale * dc
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return out


def _dpoly_eval(p, d):
    """Horner evaluation of a float coefficient list (low->high) at d."""
    out = 0.0
    for c in reversed(p):
        out = out * d + c
    return out


def _d_group(m):
    """{m: e} of the group of Phi_m that holds Phi_m, keyed by its smallest m.

    A group's product is +-A^k times one irreducible polynomial in d:
    Phi_m Phi_2m for odd m > 1, Phi_1^2 Phi_2^2 for d + 2, Phi_4^2 for d - 2,
    and Phi_m alone for the other m divisible by 4.
    """
    if m <= 2:
        return {1: 2, 2: 2}
    if m == 4:
        return {4: 2}
    if m % 2:
        return {m: 1, 2 * m: 1}
    if m % 4 == 2:
        return {m // 2: 1, m: 1}
    return {m: 1}


def _d_groups(phis):
    """{key: n} with prod Phi_m^e over phis = {m: e} the product of each
    group to the power n; InvariantError if the exponents make no whole groups."""
    groups = {}
    for m, e in phis.items():
        group = _d_group(m)
        groups[min(group)] = e // group[m]
    if any(phis.get(m, 0) != n * e for key, n in groups.items()
           for m, e in _d_group(key).items()):
        raise InvariantError(f"the product of Phi_m^e over {phis} is no function of d")
    return groups


def _square_split(groups):
    """(r, s) with prod (group product)^n over groups = {key: n} equal to
    r^2 * s up to a power of A, as polynomials in d: r is read off the one
    cyclotomic product of the groups to the power n // 2 and made monic, s
    off the one cyclotomic product of the groups of odd n.  Each group
    product is +-A^k f(d) (see _d_group), so s takes the signs of the odd
    groups; even groups' signs square away."""
    half, odd = [], []
    for key, n in groups.items():
        for m, e in _d_group(key).items():
            if n > 1:
                half.append((m, e * (n // 2)))
            if n % 2:
                odd.append((m, e))
    r, s = (_cyclotomic_product(tuple(sorted(phis))) for phis in (half, odd))
    # every group product has even degree, so A^(-degree/2) centres each product
    r, s = (as_poly_in_d(p * LaurentPoly.A_power(-p.max_exp() // 2)) for p in (r, s))
    return [c / r[-1] for c in r], s


class SplitNorm:
    """The squared norm quantum_factorials(*powers), split once for repeated
    square roots: norm_sq = (rn/rd)^2 * sn/sd with rn, rd monic and sn, sd
    square-free polynomials in d, read off the positive and negative parts
    of its Phi_m multiset.  The split does not depend on the evaluation
    point, so each point only evaluates the four d-polynomials.  A multiset
    that makes no whole groups (_d_groups) is no function of d and raises
    InvariantError.
    """

    __slots__ = ("parts",)

    def __init__(self, *powers):
        exps = _factorial_phis(powers)
        num = {m: e for m, e in exps.items() if e > 0}
        den = {m: -e for m, e in exps.items() if e < 0}
        parts = _square_split(_d_groups(num)) + _square_split(_d_groups(den))
        self.parts = tuple([float(x) for x in part] for part in parts)

    def sqrt_at(self, point):
        """r/r' * sqrt(s/s') at point: the sign of r/r' is the projector-basis
        convention.  DegeneratePointError, with its factor set, when a part
        vanishes or s/s' is not positive (below NORM_TOL)."""
        d = point.d
        rn, sn, rd, sd = (_dpoly_eval(poly, d) for poly in self.parts)
        if abs(rd) < NORM_TOL or abs(sd) < NORM_TOL:
            raise DegeneratePointError(f"squared norm singular at theta={point.theta}",
                                       "denominator")
        r_val = rn / rd
        s_val = sn / sd
        if abs(r_val) < NORM_TOL or s_val < NORM_TOL:
            raise DegeneratePointError(
                f"squared norm degenerate at theta={point.theta} "
                f"(square part {r_val}, squarefree part {s_val})",
                "square" if abs(r_val) < NORM_TOL else "squarefree")
        return complex(r_val * math.sqrt(s_val))


def sqrt_normalizer(powers, point):
    """SplitNorm(*powers).sqrt_at(point), for one root of one norm; kept by
    name because the benchmark's tracer wraps it."""
    return SplitNorm(*powers).sqrt_at(point)
