"""The gcd-reduced RationalFn that scalars.RationalFn replaced, and the
Yun square-free split that scalars.SplitNorm replaced, kept as the references
their differential tests compare against.

Every result is reduced by a Euclidean gcd over the rationals and normalized:
the denominator is an ordinary polynomial in A with nonzero constant term and
leading coefficient 1, and any A-power shift is absorbed into the numerator.
Its / is the only general division the tests have: scalars.RationalFn has
none, so a test builds its package value from Phi_m factors (package_fraction,
wenzl_coefficient) and the reference value by division or from the product of
the same factors (reference_fraction).
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from tl_entangle.scalars import (
    DENOMINATOR_TOL,
    DegeneratePointError,
    LaurentPoly,
    _coerce,
    _fn,
    d_param,
    quantum_factorials,
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


# generic points on the unit circle, and the level-4 point
POINTS = [cmath.exp(1j * t) for t in (0.1, 0.7, 1.3, -0.2617993877991494)]


def _value(x, a):
    try:
        return x.evaluate(a)
    except DegeneratePointError as exc:
        return str(exc), exc.factor


def assert_same(new, ref):
    """A package value and a reference value have the same canonical pair,
    with the same coefficients in the same order, the same repr and hash, and
    bit-identical floats from evaluate."""
    for part, ref_part in ((new.num, ref.num), (new.den, ref.den)):
        assert list(part.coeffs.items()) == list(ref_part.coeffs.items())
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)
    for a in POINTS:
        assert _value(new, a) == _value(ref, a)


# --- one value from its Phi_m factors, in both classes --------------------------

@lru_cache(maxsize=None)
def cyclotomic(m):
    """Phi_m(A), from A^m - 1 = prod over k | m of Phi_k by the reference's
    division."""
    out = RationalFn(LaurentPoly.A_power(m) - 1)
    for k in range(1, m):
        if m % k == 0:
            out = out / cyclotomic(k)
    assert out.den == LaurentPoly.one()
    return out.num


def cyclotomic_denominator(c, k, phis):
    """c * A^k * prod Phi_m^e over phis = {m: e}, multiplied out."""
    out = LaurentPoly({k: c})
    for m, e in phis.items():
        out = out * cyclotomic(m) ** e
    return out


def package_fraction(num, c, k, phis):
    """num / (c * A^k * prod Phi_m^e) as a scalars.RationalFn holds it: the
    unit moved into the numerator, over the multiset phis = {m: e}."""
    return _fn(_coerce(num) * LaurentPoly({-k: Fraction(1) / c}), dict(phis))


def reference_fraction(num, c, k, phis):
    """The same value as package_fraction, reduced from the multiplied-out
    denominator."""
    return RationalFn(num, cyclotomic_denominator(c, k, phis))


def wenzl_coefficient(n):
    """The Wenzl coefficient delta(n-2)/delta(n-1) in the package's arithmetic:
    -[n-1]/[n], as [k] = (-1)^(k-1) delta(k-1), read off quantum factorials."""
    return -quantum_factorials((n - 1, 2), (n - 2, -1), (n, -1))


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
        for e, dc in (d_param() ** (hi // 2)).coeffs.items():
            s = work.get(e, 0) - scale * dc
            if s:
                work[e] = s
            else:
                work.pop(e, None)
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
