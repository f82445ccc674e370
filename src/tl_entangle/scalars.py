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
Laurent numerator over the multiset {m: e} of Phi_m exponents it was built
from; RationalFn(x) puts a number or a LaurentPoly over the empty multiset,
and nothing divides by a general polynomial.  A sum brings both numerators
to the larger multiset, a product adds the multisets, and bar uses
Phi_m(1/A) = A^-phi(m) Phi_m(A) (m > 1), with phi(m) the degree of Phi_m;
none of them computes a gcd.

Every Phi_m factor is found by one rule, exact division (_divide_out), and
no float decides a factor.  Each value divides its numerator by the Phi_m of
its own multiset once, each at most as often as the multiset holds it, and
keeps the result: its lowest terms (RationalFn.lowest, which a TLElement
applies to each coefficient as it is built) and the canonical (numerator,
denominator) pair, which evaluation, printing, hashing and equality read.
One dense product (_dense_product) multiplies out Phi_m and the psi_M below.

Numeric evaluation (evaluate, at an EvalPoint) builds once what the angle
does not change: each value's evaluation form, its canonical pair with
complex coefficients (RationalFn._form), and per point A, d and the powers
of A.  A new angle then costs one sum of terms times powers per side, in
the order LaurentPoly.evaluate takes, so the values are the same to the bit.

quantum_factorials and SplitNorm read a product of quantum factorials off
its q-orders (_factorial_orders): over q = A^2, [k] = q^(1-k) prod Phi_M(q)
over M | 2k, M >= 3.  quantum_factorials maps them to Phi_m in A; SplitNorm
splits that squared norm as (r/r')^2 * s/s' for its square roots:
q^-h Phi_M(q) is an irreducible polynomial psi_M in x = q + 1/q = -d (_psi),
so each side's r and s are products of psi_M, and the norm is a function of
d by construction.
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
    """Raised when an internal invariant fails, such as a one-sided Jacobi
    SVD that does not converge or a traceless ladder operator; the CLI maps
    it to exit 4."""


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
            raise ValueError("a LaurentPoly has no negative powers")
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


def _divide_out(dense, limits):
    """Divide each Phi_m of limits = {m: e} out of a dense polynomial as often
    as it goes, at most e times, in the order of limits; returns the
    quotient and {m: times} of the Phi_m that divided.  Exact division alone
    decides, and it fails at once for a Phi_m longer than what is left."""
    exps = {}
    for m, limit in limits.items():
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


def _dense_product(table, powers):
    """prod table(k)^e over powers = ((k, e), ...) for a table of dense
    integer polynomials, as dense coefficients (low->high)."""
    out = [1]
    for k, e in powers:
        row = table(k)
        for _ in range(e):
            prod = [0] * (len(out) + len(row) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(row):
                    prod[i + j] += x * y
            out = prod
    return out


@lru_cache(maxsize=None)
def _cyclotomic_product(key):
    """prod Phi_m^e over the sorted (m, e) pairs of key, exponents ascending."""
    return LaurentPoly.from_dense(0, _dense_product(_cyclotomic, key))


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


def _fn(top, phis, canon=None):
    """The RationalFn top / prod Phi_m^e for phis = {m: e}, with no checks;
    canon, when given, is that value's _canonical()."""
    out = RationalFn.__new__(RationalFn)
    out._top = top
    out._phis = phis if top else {}
    out._canon = canon
    return out


class RationalFn:
    """Ratio of Laurent polynomials over a product of cyclotomic polynomials.

    The value is _top / prod Phi_m(A)^e over _phis = {m: e}; arithmetic keeps
    that form and computes no gcd, and there is no division.  RationalFn(x)
    takes a number, a LaurentPoly (over no Phi_m) or a RationalFn; the other
    values come from quantum_factorials and the ring operations.

    The canonical pair (num, den), which evaluation, printing and hashing
    read, is in lowest terms with den an ordinary polynomial in A of nonzero
    constant term and leading coefficient 1; any A-power shift is absorbed
    into num.  Both have ascending exponents.  It is built on first use, by
    exact division of _top by the Phi_m of _phis, and kept (_canonical);
    lowest() and equality read it too.  Evaluation at an EvalPoint reads the
    pair's evaluation form (_form), built on the first such evaluation and
    kept after the pair in _canon, so the exact arithmetic builds no form.
    """

    __slots__ = ("_top", "_phis", "_canon")

    def __init__(self, value):
        value = RationalFn._try_coerce(value)
        if value is NotImplemented:
            raise TypeError("a RationalFn is built from a number, a LaurentPoly or a RationalFn")
        self._top, self._phis, self._canon = value._top, value._phis, value._canon

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
        cancelled; it shares this value's canonical pair (_canonical)."""
        if not self._phis:
            return self
        canon = self._canonical()
        return _fn(canon[0], canon[2], canon)

    def _canonical(self):
        """(num, den, phis): the canonical pair and the multiset {m: e} of the
        Phi_m whose product den is, by one exact division of _top by the
        Phi_m of _phis, kept for every later use (with the evaluation form
        after them once _form has run)."""
        if self._canon is None:
            shift, dense = self._top.dense()
            dense, gone = _divide_out(dense, self._phis)
            left = {m: e - gone.get(m, 0) for m, e in self._phis.items() if e > gone.get(m, 0)}
            self._canon = (LaurentPoly.from_dense(shift, dense),
                           _cyclotomic_product(tuple(sorted(left.items()))), left)
        return self._canon

    @property
    def num(self):
        return self._canonical()[0]

    @property
    def den(self):
        return self._canonical()[1]

    def is_zero(self):
        return not self._top

    def __eq__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._phis == other._phis or not (self._top and other._top):
            return self._top == other._top
        return self._canonical()[:2] == other._canonical()[:2]

    def __hash__(self):
        return hash(self._canonical()[:2])

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

    def bar(self):
        """A -> 1/A, by Phi_m(1/A) = A^-phi(m) Phi_m(A) for m > 1 and
        Phi_1(1/A) = -A^-1 Phi_1(A)."""
        phis = self._phis
        shift = sum((len(_cyclotomic(m)) - 1) * e for m, e in phis.items())
        sign = -1 if phis.get(1, 0) % 2 else 1
        return _fn(self._top.bar() * LaurentPoly._wrap({shift: sign}), phis)

    def evaluate(self, a):
        """The value at a numeric A (complex), read off the evaluation form
        (_form): LaurentPoly.evaluate's sums of each side, in its order."""
        powers = _Powers()
        powers.a = a
        return _form_value(self._form(), powers, a)

    def _at(self, point):
        """evaluate(point.A), over the powers of A the point keeps."""
        return _form_value(self._form(), point.powers, point.A)

    def _form(self):
        """The evaluation form, built once and kept after the canonical pair
        in _canon: each side's terms as (exponent, complex coefficient), or,
        for a constant pair, its value, the same at every A since A ** 0 is
        exactly 1 + 0j."""
        canon = self._canon
        if canon is None or len(canon) == 3:
            canon = self._canonical()
            form = tuple([(e, complex(c)) for e, c in p.coeffs.items()] for p in canon[:2])
            if not any(e for side in form for e, _ in side):
                form = _form_value(form, {0: 1 + 0j}, None)
            canon = self._canon = canon + (form,)
        return canon[3]

    def __repr__(self):
        num, den = self._canonical()[:2]
        if den == LaurentPoly.one():
            return repr(num)
        return f"({num!r})/({den!r})"


def _form_value(form, powers, a):
    """The value of an evaluation form (RationalFn._form) at powers[e] =
    a ** e: a constant's own value, else num / den for the terms (exponent,
    coefficient) of each side, den first, each summed as
    LaurentPoly.evaluate sums it."""
    if type(form) is complex:
        return form
    num, den = form
    dv = sum([c * powers[e] for e, c in den])
    if abs(dv) < DENOMINATOR_TOL:
        raise DegeneratePointError(f"denominator vanishes at A={a!r}", "denominator")
    return (sum([c * powers[e] for e, c in num]) if num else 0j) / dv


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


def _factorial_orders(powers):
    """The signed multiset {M: e} of q-orders of prod [a]!^e over powers =
    ((a, e), ...): over q = A^2, [k] = q^(1-k) prod Phi_M(q) over M | 2k, M >= 3.
    Its positive part is the numerator, its negative part the denominator."""
    orders = {}
    for a, e in powers:
        for k in range(1, a + 1):
            for M in range(3, 2 * k + 1):
                if 2 * k % M == 0:
                    orders[M] = orders.get(M, 0) + e
    return orders


def quantum_factorials(*powers):
    """prod [a]!^e over powers = ((a, e), ...) in lowest terms, read off its
    q-orders (_factorial_orders) with no division: Phi_M(A^2) is
    Phi_M(A) Phi_2M(A) for odd M and Phi_2M(A) for even M."""
    phis = {}
    for M, e in _factorial_orders(powers).items():
        for m in ((M, 2 * M) if M % 2 else (2 * M,)):
            phis[m] = e
    top = _cyclotomic_product(tuple(sorted((m, e) for m, e in phis.items() if e > 0)))
    top = top * LaurentPoly.A_power(-sum(a * (a - 1) * e for a, e in powers))
    return _fn(top, {m: -e for m, e in sorted(phis.items()) if e < 0})


class _Powers(dict):
    """a ** e by exponent e, each computed on first read and kept."""

    __slots__ = ("a",)

    def __missing__(self, e):
        value = self[e] = self.a ** e
        return value


class EvalPoint:
    """Numeric evaluation point A = exp(i*theta) on the unit circle.

    A, d and the table of powers A ** e (powers, filled as exponents are
    read) are built once per point; equality and hashing are by theta.  A
    theta that is not finite, or whose double is not (d is the cosine of
    2 theta), is a ValueError.
    """

    __slots__ = ("theta", "A", "d", "powers")

    def __init__(self, theta):
        try:
            self.theta = float(theta)
            finite = math.isfinite(2.0 * self.theta)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"theta must be finite with a finite double, got {theta!r}")
        self.A = cmath.exp(1j * self.theta)
        self.d = -2.0 * math.cos(2.0 * self.theta)
        self.powers = powers = _Powers()
        powers.a = self.A
        powers[0] = 1 + 0j  # A ** 0, exactly

    @classmethod
    def from_level(cls, k):
        """Principal branch for the root-of-unity family q = exp(2*pi*i/(k+2)):
        theta = -pi / (2*(k+2))."""
        k = float(k)
        if k == -2.0:
            raise ValueError("level k = -2 is singular")
        return cls(-math.pi / (2.0 * (k + 2.0)))

    @property
    def q(self):
        return self.A ** (-4)

    def __repr__(self):
        return f"EvalPoint(theta={self.theta!r})"

    def __eq__(self, other):
        return isinstance(other, EvalPoint) and self.theta == other.theta

    def __hash__(self):
        return hash(self.theta)


def evaluate(x, point):
    """Evaluate an exact scalar (or plain number) at an EvalPoint.

    Built once: a RationalFn's evaluation form (RationalFn._form), on its
    first evaluation, and the point's A, d and table of powers of A, with
    the point.  Per point, a coefficient costs one sum of its terms times
    those powers per side, in the order x.evaluate(point.A) takes, so the
    value is that one to the bit; a constant RationalFn's value is kept in
    its form.  A LaurentPoly converts its coefficients at each call.
    """
    if isinstance(x, RationalFn):
        return x._at(point)
    if isinstance(x, LaurentPoly):
        powers = point.powers
        return sum([complex(c) * powers[e] for e, c in x.coeffs.items()]) if x.coeffs else 0j
    return complex(x)


# ---------------------------------------------------------------------------
# polynomials in the loop value d, used by the orthonormalization convention

@lru_cache(maxsize=None)
def _psi(M):
    """Dense integer coefficients (low->high) in d of psi_M(x) = q^-h Phi_M(q),
    h = phi(M)/2, the factor of the quantum integers for q-order M >= 3.
    Phi_M = sum c_i q^i is palindromic, so psi_M is c_h + sum c_(h+j) V_j(x)
    over j = 1..h in x = q + 1/q, with V_j(x) = q^j + q^-j and
    V_(j+1) = x V_j - V_(j-1); then x = -d."""
    phi = _cyclotomic(M)
    h = len(phi) // 2
    out = [phi[h]] + [0] * h
    prev, cur = [2], [0, 1]
    for j in range(1, h + 1):
        for i, c in enumerate(cur):
            out[i] += phi[h + j] * c
        prev, cur = cur, [x - y for x, y in zip([0] + cur, prev + [0, 0])]
    return tuple(-c if i % 2 else c for i, c in enumerate(out))


class SplitNorm:
    """The squared norm quantum_factorials(*powers), split once for repeated
    square roots: norm_sq = (rn/rd)^2 * sn/sd with rn, rd monic and sn, sd
    square-free polynomials in d.  Each side of the norm's q-orders
    (_factorial_orders) is prod psi_M^e, a function of d by construction:
    its r is prod psi_M^(e // 2) made monic, its s prod psi_M^(e % 2).  The
    split does not depend on the evaluation point, so each point only
    evaluates the four d-polynomials.
    """

    __slots__ = ("parts",)

    def __init__(self, *powers):
        orders = _factorial_orders(powers)
        parts = []
        for side in (1, -1):
            exps = [(M, side * e) for M, e in orders.items() if side * e > 0]
            r = _dense_product(_psi, [(M, e // 2) for M, e in exps])
            # each psi_M is monic in x = -d, so r leads with +-1
            parts += [[c * r[-1] for c in r], _dense_product(_psi, [(M, e % 2) for M, e in exps])]
        self.parts = tuple([float(c) for c in part] for part in parts)

    def sqrt_at(self, point):
        """r/r' * sqrt(s/s') at point: the sign of r/r' is the projector-basis
        convention.  DegeneratePointError, with its factor set, when a part
        vanishes or s/s' is not positive (below NORM_TOL)."""
        d = point.d
        values = []
        for part in self.parts:
            # Horner, from the highest coefficient down
            out = 0.0
            for c in reversed(part):
                out = out * d + c
            values.append(out)
        rn, sn, rd, sd = values
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
