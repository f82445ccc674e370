"""Jones-Wenzl projectors.

The width-n projector is the unique idempotent in the n-strand diagram algebra
that is killed by every cup-cap generator.  Coefficients are exact rational
functions of A, built by the Wenzl recursion
    p(n+1) = p(n) (x) 1  -  (delta(n-1)/delta(n)) * (p(n) (x) 1) e_n (p(n) (x) 1),
whose coefficient -delta(n-1)/delta(n) is the quantum-integer ratio
[n]/[n+1] = [n]!^2 / ([n-1]! [n+1]!), read off its Phi_m multiset.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import PlanarDiagram, TLElement, close_trace
from .scalars import RationalFn, d_param, quantum_factorials

_D = d_param()
# e_1 of two strands, glued under strands n-1, n as e_(n-1)
_HOOK = TLElement.from_diagram(PlanarDiagram.generator(2, 1))


@lru_cache(maxsize=None)
def jones_wenzl(n):
    """Exact width-n projector as a TLElement (n >= 0)."""
    if n < 0:
        raise ValueError("projector width must be nonnegative")
    if n == 0:
        return TLElement.from_diagram(PlanarDiagram.empty(), RationalFn(1))
    if n == 1:
        return TLElement.from_diagram(PlanarDiagram.identity(1), RationalFn(1))
    prev = jones_wenzl(n - 1)
    wide = prev.tensor(TLElement.from_diagram(PlanarDiagram.identity(1)))
    coeff = quantum_factorials((n - 1, 2), (n - 2, -1), (n, -1))
    correction = wide.compose(_HOOK, _D, n - 2).compose(wide, _D)
    return wide + coeff * correction


def projector_trace(n):
    """Markov trace closure of the width-n projector (equals delta(n))."""
    return close_trace(jones_wenzl(n), _D)
