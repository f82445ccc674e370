"""Exact scalar arithmetic for the diagram calculus.

Coefficients live in the ring of Laurent polynomials in the bracket variable A
over exact rationals, or in its fraction field.  Numeric evaluation sends A to
exp(i*theta) on the unit circle, where the loop value becomes
d = -A^2 - A^(-2) = -2*cos(2*theta).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

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


def _coerce(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly({0: Fraction(value)} if value else {})
    return NotImplemented


class LaurentPoly:
    """Laurent polynomial in A with Fraction coefficients, zero terms dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for exp, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                clean[int(exp)] = c
        self.coeffs = clean

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
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

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
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = out
        return res

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
        res = LaurentPoly.__new__(LaurentPoly)
        res.coeffs = {-e: c for e, c in self.coeffs.items()}
        return res

    def shifted_coeff_list(self):
        """Return (shift, dense ordinary-poly coefficients low->high)."""
        if not self.coeffs:
            return 0, [Fraction(0)]
        lo, hi = self.min_exp(), self.max_exp()
        dense = [Fraction(0)] * (hi - lo + 1)
        for e, c in self.coeffs.items():
            dense[e - lo] = c
        return lo, dense

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


class RationalFn:
    """Ratio of Laurent polynomials, kept gcd-reduced and canonically normalized.

    Canonical form: the denominator is an ordinary polynomial in A with nonzero
    constant term and leading coefficient 1; any A-power shift is absorbed into
    the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = LaurentPoly.one() if den is None else _coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = LaurentPoly.zero(), LaurentPoly.one()
            return
        nlo, ncoeffs = num.shifted_coeff_list()
        dlo, dcoeffs = den.shifted_coeff_list()
        g = _poly_gcd(ncoeffs, dcoeffs)
        if len(g) > 1:
            ncoeffs, _ = _poly_divmod(ncoeffs, g)
            dcoeffs, _ = _poly_divmod(dcoeffs, g)
        lead = dcoeffs[-1]
        ncoeffs = [c / lead for c in ncoeffs]
        dcoeffs = [c / lead for c in dcoeffs]
        self.num = LaurentPoly({nlo - dlo + i: c for i, c in enumerate(ncoeffs)})
        self.den = LaurentPoly({i: c for i, c in enumerate(dcoeffs)})

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
        return cls(lp)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RationalFn.__new__(RationalFn)
        out.num, out.den = -self.num, self.den
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
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = RationalFn._try_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def bar(self):
        return RationalFn(self.num.bar(), self.den.bar())

    def evaluate(self, a):
        dv = self.den.evaluate(a)
        if abs(dv) < DENOMINATOR_TOL:
            raise DegeneratePointError(f"denominator vanishes at A={a!r}", "denominator")
        return self.num.evaluate(a) / dv

    def __repr__(self):
        if self.den == LaurentPoly.one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


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
        scale = c / lead
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
