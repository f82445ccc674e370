"""The gcd-reduced RationalFn that scalars.RationalFn replaced, and the
Yun square-free split that scalars.SplitNorm replaced, kept as the references
their differential tests compare against.

Every result is reduced by a Euclidean gcd over the rationals and normalized:
the denominator is an ordinary polynomial in A with nonzero constant term and
leading coefficient 1, and any A-power shift is absorbed into the numerator.
"""

import math
from fractions import Fraction

from tl_entangle.scalars import (
    DENOMINATOR_TOL,
    DegeneratePointError,
    LaurentPoly,
    _coerce,
    as_poly_in_d,
)


def shifted_coeff_list(poly):
    """(lowest exponent, dense Fraction coefficients low->high) of a LaurentPoly."""
    lo, dense = poly.dense()
    return lo, [Fraction(c) for c in dense]


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
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = LaurentPoly.one() if den is None else _coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = LaurentPoly.zero(), LaurentPoly.one()
            return
        nlo, ncoeffs = shifted_coeff_list(num)
        dlo, dcoeffs = shifted_coeff_list(den)
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


# --- the square-free split ----------------------------------------------------

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


def split_norm_parts(norm_sq):
    """SplitNorm(norm_sq).parts as Yun's split computed it: (rn, sn, rd, sd)
    float lists with norm_sq = (rn/rd)^2 * sn/sd, or None."""
    ratio = _as_d_ratio(norm_sq)
    if ratio is None:
        return None
    num_d, den_d = ratio
    return tuple([float(c) for c in poly] for poly in
                 squarefree_split_d(num_d) + squarefree_split_d(den_d))


def yun_sqrt(norm_sq, point):
    """The root SplitNorm.sqrt_at takes, r/r' * sqrt(s/s') at point.d, from
    Yun's split of the exact norm, with the same float operations (Horner,
    then the two ratios) and no degeneracy checks."""
    rn, sn, rd, sd = (_horner(poly, point.d) for poly in split_norm_parts(norm_sq))
    return complex(rn / rd * math.sqrt(sn / sd))


def _horner(poly, x):
    out = 0.0
    for c in reversed(poly):
        out = out * x + c
    return out
