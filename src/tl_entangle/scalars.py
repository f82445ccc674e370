"""Exact scalar arithmetic for the diagram calculus.

Coefficients live in the ring of Laurent polynomials in the bracket variable A
over exact rationals, or in its fraction field.  Numeric evaluation sends A to
exp(i*theta) on the unit circle, where the loop value becomes
d = -A^2 - A^(-2) = -2*cos(2*theta).

Laurent polynomials hold integral coefficients as ints and the others as
Fractions.  Every denominator the package builds is a product of cyclotomic
polynomials Phi_m(A): up to a unit +-A^k, each quantum integer delta(n) is
one, and the Jones-Wenzl recursion and Gram-Schmidt divide only by what they
build from those.  So a RationalFn holds a Laurent polynomial numerator over
a multiset {m: e} of Phi_m exponents.  A sum brings both numerators to the
larger multiset, a product adds the multisets, bar uses
Phi_m(1/A) = A^-phi(m) Phi_m(A) (m > 1), and equality cross-multiplies; none
of them computes a gcd.  A division finds the Phi_m factors of the divisor's
numerator by exact trial division.  Only a denominator with an irreducible
factor that is no Phi_m takes the general path, a Euclidean gcd over the
rationals.  The canonical (numerator, denominator) pair, which evaluation,
printing and hashing read, is built once per value by exact division.
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
    split squared norm, see SplitNorm).  QuditSpace.ortho_transform sets
    vector, the index of the frame vector; DiagramState.amplitudes sets
    party, the name of the party whose frame failed, and
    DiagramState.dressed_numeric the party whose projector dressing failed.
    Unknown fields are None.
    """

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor
        self.vector = None
        self.party = None


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

    def shifted_coeff_list(self):
        """dense() with Fraction coefficients, as the gcd code takes them."""
        lo, dense = self.dense()
        return lo, [Fraction(c) for c in dense]

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


def _poly_divmod(num, den):
    """Divmod for dense Fraction coefficient lists (low->high order)."""
    num = list(num)
    dn = len(den) - 1
    while dn > 0 and den[dn] == 0:
        dn -= 1
    if dn == 0 and den[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead = den[dn]
    q = [Fraction(0)] * max(len(num) - dn, 1)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn] / lead
        if c:
            q[k] = c
            for j in range(dn + 1):
                num[k + j] -= c * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_gcd(a, b):
    """Monic gcd of dense Fraction coefficient lists."""
    a = list(a)
    b = list(b)
    while len(b) > 1 or b[0] != 0:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    lead = a[-1]
    if lead and lead != 1:
        a = [c / lead for c in a]
    return a


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
    """Every m whose Phi_m has degree phi(m) <= degree, in increasing order.

    m < 6*phi(m) for every m below 2*10^8, so no m above 6*degree qualifies.
    """
    return tuple(m for m in range(1, 6 * degree + 1) if _totient(m) <= degree)


def _candidate_orders(dense):
    """The m for which Phi_m may divide a dense polynomial: those where its
    value at exp(2*pi*i/m) is zero up to rounding.  Exact division decides."""
    orders = _orders_up_to(len(dense) - 1)
    if not orders:
        return orders
    try:
        coeffs = [float(c) for c in reversed(dense)]
    except OverflowError:
        return orders
    tol = 1e-6 * sum(abs(c) for c in coeffs)
    out = []
    for m in orders:
        root = cmath.exp(2j * math.pi / m)
        value = 0j
        for c in coeffs:  # Horner, highest coefficient first
            value = value * root + c
        # hypot gives inf where abs() would raise; a NaN value is kept:
        # exact division decides
        if not math.hypot(value.real, value.imag) > tol:
            out.append(m)
    return out


def _divide_out(dense, m, limit):
    """Divide Phi_m out of a dense polynomial as often as it goes, at most
    limit times; returns (quotient, times)."""
    phi = _cyclotomic(m)
    times = 0
    while times < limit:
        q = _exact_quotient(dense, phi)
        if q is None:
            break
        dense, times = q, times + 1
    return dense, times


def _cyclotomic_split(poly):
    """Factor a nonzero LaurentPoly as c * A^k * prod Phi_m^e.

    Returns (c, k, {m: e}), or None when poly has an irreducible factor that
    is no Phi_m.
    """
    shift, dense = poly.dense()
    exps = {}
    for m in _candidate_orders(dense):
        dense, e = _divide_out(dense, m, len(dense))
        if e:
            exps[m] = e
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


def _gcd_reduce(num, den):
    """Canonical (num, den) of num/den by a Euclidean gcd over the rationals.

    The general path, for a denominator with an irreducible factor that is no
    cyclotomic polynomial; nothing the package builds takes it.
    """
    nlo, ncoeffs = num.shifted_coeff_list()
    dlo, dcoeffs = den.shifted_coeff_list()
    g = _poly_gcd(ncoeffs, dcoeffs)
    if len(g) > 1:
        ncoeffs, _ = _poly_divmod(ncoeffs, g)
        dcoeffs, _ = _poly_divmod(dcoeffs, g)
    lead = dcoeffs[-1]
    return (LaurentPoly.from_dense(nlo - dlo, [c / lead for c in ncoeffs]),
            LaurentPoly.from_dense(0, [c / lead for c in dcoeffs]))


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
    that form and computes no gcd.  A value whose denominator has another
    irreducible factor has _phis None and is held by its canonical pair only.

    The canonical pair (num, den), which evaluation, printing and hashing
    read, is gcd-reduced with den an ordinary polynomial in A of nonzero
    constant term and leading coefficient 1; any A-power shift is absorbed
    into num.  Both have ascending exponents.  It is built on first use, by
    exact division of _top by the Phi_m of _phis, and kept.
    """

    __slots__ = ("_top", "_phis", "_canon")

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = LaurentPoly.one() if den is None else _coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self._canon = None
        if num.is_zero():
            self._top, self._phis = num, {}
            return
        split = _cyclotomic_split(den)
        if split is None:
            self._canon = _gcd_reduce(num, den)
            self._top, self._phis = self._canon[0], None
            return
        c, shift, self._phis = split
        self._top = num * LaurentPoly({-shift: Fraction(1) / c})

    @classmethod
    def from_scalar(cls, value):
        if isinstance(value, RationalFn):
            return value
        if _coerce(value) is NotImplemented:
            raise TypeError(f"cannot build a RationalFn from {type(value).__name__}")
        return cls(value)

    @classmethod
    def _try_coerce(cls, value):
        if isinstance(value, RationalFn):
            return value
        lp = _coerce(value)
        if lp is NotImplemented:
            return NotImplemented
        return _fn(lp, {})

    def _cancelled(self):
        """The numerator and {m: e} of this value with every Phi_m that
        divides _top cancelled."""
        shift, dense = self._top.dense()
        left = {}
        for m, e in self._phis.items():
            dense, times = _divide_out(dense, m, e)
            if times < e:
                left[m] = e - times
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
        a, b = self._phis, other._phis
        if a is None or b is None:
            return self._pair() == other._pair()
        if a == b or not (self._top and other._top):
            return self._top == other._top
        top, other_top, _ = _over_common(self, other)
        return top == other_top

    def __hash__(self):
        return hash(self._pair())

    def __add__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._phis, other._phis
        if a is None or b is None:
            return RationalFn(self.num * other.den + other.num * self.den,
                              self.den * other.den)
        if a == b:
            return _fn(self._top + other._top, a)
        if not other._top:
            return self
        if not self._top:
            return other
        top, other_top, common = _over_common(self, other)
        return _fn(top + other_top, common)

    __radd__ = __add__

    def __neg__(self):
        out = _fn(-self._top, self._phis)
        if self._canon is not None:
            num, den = self._canon
            out._canon = (-num, den)
        return out

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
        if a is None or b is None:
            return RationalFn(self.num * other.num, self.den * other.den)
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
        quotient = self * RationalFn(other.den, other.num)
        if quotient._phis is None:
            return quotient
        # a quotient is cancelled at once: Gram-Schmidt divides by norms whose
        # factors recur in the dividend, and uncancelled numerators would grow
        # with every step
        return _fn(*quotient._cancelled())

    def __rtruediv__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def bar(self):
        """A -> 1/A, by Phi_m(1/A) = A^-phi(m) Phi_m(A) for m > 1 and
        Phi_1(1/A) = -A^-1 Phi_1(A)."""
        phis = self._phis
        if phis is None:
            return RationalFn(self.num.bar(), self.den.bar())
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
    if x is NotImplemented:
        return None
    if any(e % 2 for e in x.coeffs):
        return None
    work = dict(x.coeffs)
    out = []
    while work:
        hi = max(work)
        if hi < 0:
            return None
        m = hi // 2
        c = work[hi]
        dm = (_D ** m).coeffs
        lead = dm[2 * m]
        scale = Fraction(c) / lead
        while len(out) <= m:
            out.append(Fraction(0))
        out[m] = scale
        for e, dc in dm.items():
            s = work.get(e, Fraction(0)) - scale * dc
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    if not out:
        out = [Fraction(0)]
    return out


def _dpoly_derivative(p):
    return [c * i for i, c in enumerate(p)][1:] or [Fraction(0)]


def _dpoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def squarefree_split_d(p):
    """Split a polynomial-in-d coefficient list as p = r^2 * s with s squarefree.

    r is monic times a positive rational, so its sign convention is "positive
    leading coefficient"; the content (including sign) of p goes into s.
    """
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    if p == [Fraction(0)]:
        return [Fraction(0)], [Fraction(1)]
    content = p[-1]
    mon = [c / content for c in p]
    r = [Fraction(1)]
    s = [content]
    # Yun's square-free decomposition on the monic part
    dp = _dpoly_derivative(mon)
    a = _poly_gcd(mon, dp)
    b, _ = _poly_divmod(mon, a)
    c, _ = _poly_divmod(dp, a)
    i = 1
    while len(b) > 1:
        diff = [x - y for x, y in zip(c + [Fraction(0)] * len(b), _dpoly_derivative(b) + [Fraction(0)] * len(c))]
        while len(diff) > 1 and diff[-1] == 0:
            diff.pop()
        g = _poly_gcd(b, diff)
        for _ in range(i // 2):
            r = _dpoly_mul(r, g)
        if i % 2:
            s = _dpoly_mul(s, g)
        b, _ = _poly_divmod(b, g)
        c, _ = _poly_divmod(diff, g)
        i += 1
    return r, s


def _dpoly_eval(p, d):
    """Horner evaluation of a float coefficient list (low->high) at d."""
    out = 0.0
    for c in reversed(p):
        out = out * d + c
    return out


def _as_d_ratio(fn):
    """Rewrite a RationalFn as a pair of dense d-polynomials (num, den), or None.

    Canonicalization makes the denominator an ordinary polynomial in A, which
    shifts both parts by a common power of A; undo that by re-centering before
    converting, since only bar-symmetric Laurent polynomials live in Q[d].
    """
    if fn.num.is_zero():
        return [Fraction(0)], [Fraction(1)]
    cn = fn.num.min_exp() + fn.num.max_exp()
    cd = fn.den.min_exp() + fn.den.max_exp()
    if cn != cd or cn % 2:
        return None
    shift = LaurentPoly.A_power(-cn // 2)
    num_d = as_poly_in_d(shift * fn.num)
    den_d = as_poly_in_d(shift * fn.den)
    if num_d is None or den_d is None:
        return None
    return num_d, den_d


class SplitNorm:
    """An exact squared norm, split once for repeated square roots.

    The conversion to polynomials in d and the square-free splits do not
    depend on the evaluation point, so each point only evaluates the four
    d-polynomials of norm_sq = (rn/rd)^2 * sn/sd.
    """

    __slots__ = ("norm_sq", "parts")

    def __init__(self, norm_sq):
        self.norm_sq = RationalFn.from_scalar(norm_sq)
        ratio = _as_d_ratio(self.norm_sq)
        if ratio is None:
            self.parts = None
        else:
            num_d, den_d = ratio
            self.parts = tuple([float(c) for c in poly] for poly in
                               squarefree_split_d(num_d) + squarefree_split_d(den_d))

    def sqrt_at(self, point):
        """sqrt_normalizer(norm_sq, point) from the stored split."""
        if self.parts is None:
            # not a function of d alone; fall back to the principal root
            val = self.norm_sq.evaluate(point.A)
            if not (val.real > NORM_TOL and abs(val.imag) < NORM_TOL):
                raise DegeneratePointError(
                    f"squared norm {val!r} not positive at theta={point.theta}")
            return complex(math.sqrt(val.real))
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


def sqrt_normalizer(norm_sq, point):
    """Principal square root of an exact squared norm, with the sign convention
    matching the projector-basis formulas: norm_sq is a rational function of d,
    factored as (r/d-part)^2 * squarefree; the perfect-square part keeps its
    polynomial sign at the evaluation point.

    Returns a complex number (real positive when the rational part is positive).
    Raises DegeneratePointError when the squared norm is not strictly positive
    (a part below NORM_TOL in magnitude).
    To take roots of one squared norm at many points, split it once with
    SplitNorm.
    """
    return SplitNorm(norm_sq).sqrt_at(point)
