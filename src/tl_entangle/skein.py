"""Slice words: tangles as stacks of elementary slices.

A word starts from a fixed number of top endpoints and grows downward one
slice at a time: cup (insert an adjacent arc), cap (join two adjacent
strands), e (a cap-cup hook on two adjacent strands), over / under (a
crossing of two adjacent strands), jw (a projector across a run of strands).
Crossings are resolved immediately:

    over  = A * id + A^(-1) * e_i
    under = A^(-1) * id + A * e_i

so a fully expanded word is a combination of pair diagrams.  Permutation
mode is the same expansion specialized at A = 1: both smoothings carry
coefficient 1, loops count -2, and connectivity is all that survives.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import PlanarDiagram, TLElement, as_int, charge
from .jones_wenzl import jones_wenzl
from .scalars import LaurentPoly, RationalFn, d_param

MODES = ("kauffman", "permutation")
_D = d_param()

# The widest jw slice slice_width accepts: jones_wenzl(7) is one unmetered 0.9 s
# step on two cores, (6) 0.08 s; to_element charges every slice to diagrams.WORK_BUDGET.
MAX_JW_WIDTH = 6


def _at_one(c):
    """Exact value of a coefficient at A = 1."""
    c = RationalFn(c)
    return sum(c.num.coeffs.values(), Fraction(0)) / sum(c.den.coeffs.values())


def crossing_element(width, i, kind):
    """Resolve one crossing of strands i, i+1 into a two-term combination."""
    ident = TLElement.from_diagram(PlanarDiagram.identity(width))
    hook = TLElement.from_diagram(PlanarDiagram.generator(width, i))
    if kind == "over":
        return LaurentPoly.A_power(1) * ident + LaurentPoly.A_power(-1) * hook
    if kind == "under":
        return LaurentPoly.A_power(-1) * ident + LaurentPoly.A_power(1) * hook
    raise ValueError(f"unknown crossing kind {kind!r}")


_WIDTH_CHANGE = {"cup": 2, "cap": -2, "e": 0, "over": 0, "under": 0}

# The layer of each slice kind but jw, on the strands it acts on
_LAYERS = {
    "cup": TLElement.from_diagram(PlanarDiagram.cups(2)),
    "cap": TLElement.from_diagram(PlanarDiagram.caps(2)),
    "e": TLElement.from_diagram(PlanarDiagram.generator(2, 1)),
    "over": crossing_element(2, 1, "over"),
    "under": crossing_element(2, 1, "under"),
}


def slice_width(op, width):
    """Width below slice op when it acts on width strands.

    op is (kind, position) or ("jw", position, strands) with integer
    position and strands; a slice that does not fit the width, or an unknown
    kind, is a ValueError.
    """
    kind = op[0]
    if kind == "jw":
        _, i, k = op
        i, k = as_int(i, "a slice position"), as_int(k, "a jw strand count")
        if k < 1 or not 1 <= i <= width - k + 1:
            raise ValueError(f"jw {i} {k} out of range at width {width}")
        if k > MAX_JW_WIDTH:
            raise ValueError(f"jw {i} {k} is wider than the bound of {MAX_JW_WIDTH} strands")
        return width
    if kind not in _WIDTH_CHANGE:
        raise ValueError(f"unknown slice kind {kind!r}")
    _, i = op
    i = as_int(i, "a slice position")
    if not 1 <= i <= (width + 1 if kind == "cup" else width - 1):
        raise ValueError(f"{kind} {i} out of range at width {width}")
    return width + _WIDTH_CHANGE[kind]


class SliceWord:
    """A validated sequence of slices below n_top starting endpoints.

    ops is a tuple of (kind, position) or ("jw", position, width) entries.
    """

    __slots__ = ("n_top", "ops", "final_width")

    def __init__(self, n_top, ops):
        self.n_top = as_int(n_top, "the top endpoint count")
        if self.n_top < 0:
            raise ValueError("negative endpoint count")
        clean = []
        width = self.n_top
        for op in ops:
            width = slice_width(op, width)
            clean.append((op[0], *map(int, op[1:])))
        self.ops = tuple(clean)
        self.final_width = width

    def is_closed(self):
        return self.n_top == 0 and self.final_width == 0

    def to_element(self, mode="kauffman"):
        """Expand the word into a combination of pair diagrams (at A = 1 in
        permutation mode).  Each slice's narrow layer, at most a few strands
        wide, is glued under the strands it acts on (from position i), and
        every other strand passes by.  Each slice is charged before it runs."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        element = TLElement.from_diagram(PlanarDiagram.identity(self.n_top))
        spent = 0
        for i, op in enumerate(self.ops):
            layer = jones_wenzl(op[2]) if op[0] == "jw" else _LAYERS[op[0]]
            spent = charge(spent, element.compose_work(layer), f"slice {i + 1}", i)
            element = element.compose(layer, _D, op[1] - 1)
        if mode == "permutation":
            return element.map_coefficients(_at_one)
        return element

    def __repr__(self):
        bits = " ".join("-".join(str(x) for x in op) for op in self.ops)
        return f"SliceWord(top {self.n_top}: {bits})"


def bracket(word, mode="kauffman"):
    """Scalar value of a closed slice word (loop-weighted smoothing sum)."""
    if not word.is_closed():
        raise ValueError("bracket needs a closed word (no open endpoints)")
    return word.to_element(mode).scalar()


def word_from_pairing(pairs, n_points):
    """Word of cups and under-crossings whose state has the given label pairing.

    Bottom column j carries label n_points + 1 - j.  Read from the bottom up,
    the last slice is a cup on the leftmost pair of adjacent partners, or, if
    no partners are adjacent, an under-crossing of two adjacent strands that
    head toward each other's side.  Partners never pass each other, so every
    interleaved pair of chords crosses exactly once and no other pair does.
    """
    mate = [0] * n_points  # 0-based column -> partner column
    for a, b in pairs:
        mate[n_points - a], mate[n_points - b] = n_points - b, n_points - a
    ops = []
    while mate:
        i = next((i for i in range(len(mate) - 1) if mate[i] == i + 1), None)
        if i is not None:
            ops.append(("cup", i + 1))
            mate = [x if x < i else x - 2 for x in mate[:i] + mate[i + 2:]]
            continue
        i = next(i for i in range(len(mate) - 1) if mate[i] > i + 1 > mate[i + 1])
        ops.append(("under", i + 1))
        x, y = mate[i], mate[i + 1]
        mate[i], mate[i + 1], mate[x], mate[y] = y, x, i + 1, i
    return SliceWord(0, reversed(ops))


def word_from_matching(pairs, n_points=None):
    """Cups-only slice word whose state diagram has the given label pairing.

    Labels are circular, so bottom column j carries label n_points + 1 - j;
    the pairing must be noncrossing in that ordering.
    """
    if n_points is None:
        n_points = 2 * len(pairs)
    if not PlanarDiagram(0, n_points, pairs).is_noncrossing():
        raise ValueError("pairing is not noncrossing")
    return word_from_pairing(pairs, n_points)
