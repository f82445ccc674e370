"""Spin labels and the bound on their product space, without numpy.

su2 decomposes the product of spin-j factors; product_dims checks a list of
spins first, so the command line rejects one before su2 loads numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

# largest product dimension prod(2j+1) that su2.highest_weight_vectors decomposes
MAX_PRODUCT_DIM = 4096


def product_dims(spins):
    """(spins as Fractions, factor dimensions 2j+1).

    A spin that is not a nonnegative half-integer, or factors whose product
    dimension exceeds MAX_PRODUCT_DIM, is a ValueError.
    """
    out = []
    for j in spins:
        twice = Fraction(j) * 2
        if twice.denominator != 1 or twice < 0:
            raise ValueError(f"not a half-integer spin: {j!r}")
        out.append(Fraction(j))
    dims = tuple(int(2 * j) + 1 for j in out)
    dim = math.prod(dims)
    if dim > MAX_PRODUCT_DIM:
        raise ValueError(f"spins {', '.join(str(j) for j in out)} span a product "
                         f"space of dimension {dim}, above the limit {MAX_PRODUCT_DIM}")
    return out, dims
