"""The gcd-reduced RationalFn that scalars.RationalFn replaced, kept as the
reference its differential tests compare against.

Every result is reduced by a Euclidean gcd over the rationals and normalized:
the denominator is an ordinary polynomial in A with nonzero constant term and
leading coefficient 1, and any A-power shift is absorbed into the numerator.
"""

from tl_entangle.scalars import (
    DENOMINATOR_TOL,
    DegeneratePointError,
    LaurentPoly,
    _coerce,
    _poly_divmod,
    _poly_gcd,
)


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
