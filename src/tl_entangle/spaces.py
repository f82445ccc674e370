"""Qudit state spaces on punctured disk boundaries and amplitude extraction.

A party of local dimension n occupies 4(n-1) consecutive boundary labels,
grouped into four punctures of n-1 points, each dressed with the width-(n-1)
projector.  The n non-null noncrossing pairings of those points form the local
basis.  Its Gram-Schmidt frame, the fusion basis, is read off closed forms in
the quantum integers (QuditSpace), with one square root per vector taken at
the evaluation point (sign fixed by the square part of the norm).

A state's pairing with a tuple basis diagram depends on theta only through
the coefficients: its loop counts are topological.  Each DiagramState keeps
them per diagram it has paired (basis_loops), a table bounded by the state's
distinct dressed diagrams and independent of theta, so raw overlaps at a new
angle re-walk no loop; amplitudes builds one frame per party dimension.

Built once, whatever the angle: the loop counts, each frame's split norms
and coefficients (whose evaluation forms scalars.evaluate keeps), and per
party dimensions the contraction plan (_contraction_plan).  Per point: the
frames' coefficients and square roots, the dressing, the sums of the raw
overlaps and the contraction, each in the order it always had.

Every numeric use of a frame reads QuditSpace.frame_rows: amplitude_list
contracts the raw overlaps with them, and the projector tile of the replica
check is the sum of u_i^dagger (x) u_i over the frame's vectors, on a grid
of diagrams fixed per dimension (tile_cells).  Frames,
raw overlaps (raw_overlap_list) and amplitudes (amplitude_list) are lists,
flat in index order (the last party's index runs fastest); ortho_transform,
raw_overlaps and amplitudes are array views of those lists, and like every
method that returns an array they import numpy when called.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate, chain, product
from operator import add, mul

from .diagrams import PlanarDiagram, TLElement, _accumulate, _join, as_int, charge
from .jones_wenzl import jones_wenzl
from .scalars import (DegeneratePointError, RationalFn, SplitNorm, d_param, evaluate,
                      quantum_factorials)

_D = d_param()

# Projector tiles kept in one LRU over (space, point), that is over (dimension,
# point): a sweep over many points keeps constant memory, while the few
# repeated keys of a replica benchmark (two dimensions at three levels) stay
# cached.
POINT_CACHE_SIZE = 8


def local_basis_matchings(n):
    """The n non-null noncrossing pairings of 4(n-1) points.

    Pairing j (0-based) sends j arcs from each outer puncture across the
    middle; j = 0 is fully nested within each half, j = n-1 fully across.
    Every arc joins two different punctures, so no pairing is killed by the
    projector dressing, and each pairing is symmetric under label reversal.
    """
    if n < 1:
        raise ValueError("local dimension must be at least 1")
    w = n - 1
    out = []
    for j in range(n):
        arcs = []
        for i in range(j + 1, w + 1):
            arcs.append((i, 2 * w + 1 - i))
            arcs.append((2 * w + i, 4 * w + 1 - i))
        for i in range(1, j + 1):
            arcs.append((i, 4 * w + 1 - i))
        for i in range(2 * w - j + 1, 2 * w + 1):
            arcs.append((i, 4 * w + 1 - i))
        out.append(tuple(sorted(tuple(sorted(a)) for a in arcs)))
    return out


class QuditSpace:
    """A party's local basis and orthonormal frame; the dressed basis and its
    Hermitian Gram matrix (i <= j paired, the rest bars) are built on first read.

    Gram-Schmidt gives the one orthogonal u_j with u_j - b_j in the span of
    the b_k, k < j: the fusion vector, b_j with JW(2j) across its 2j strands
    that join punctures 1, 2 to punctures 3, 4.  JW(2j)'s identity gives b_j,
    a cap on two strands of one puncture is killed by its JW(w), each centred
    t-fold cap-cup left gives b_(j-t), and distinct channels are orthogonal.
    So, with w = n - 1 and t = j - k, u_j's coefficient of b_k is JW(2j)'s of
    that cap-cup (Morrison, arXiv:1503.00384), and its squared norm two theta
    nets glued along the 2j edge; quantum_factorials builds both:
        qbinom(j, t)^2 / qbinom(2j, t) = [j]!^2 [j+k]! / ([j-k]! [k]!^2 [2j]!),
        theta(w, w, 2j)^2 / Delta_2j = [w+j+1]!^2 [w-j]!^2 [j]!^4 / ([w]!^4 [2j]! [2j+1]!).
    """

    def __init__(self, n):
        self.n = n
        self.n_points = 4 * (n - 1)
        self.matchings = local_basis_matchings(n)
        self.basis = [TLElement.from_diagram(PlanarDiagram(0, self.n_points, m))
                      for m in self.matchings]
        self._gs_coeffs = [
            [quantum_factorials((j, 2), (j - k, -1), (k, -2), (j + k, 1), (2 * j, -1))
             if k <= j else RationalFn(0) for k in range(n)] for j in range(n)]
        norms = [((n + j, 2), (n - 1 - j, 2), (j, 4), (n - 1, -4), (2 * j, -1), (2 * j + 1, -1))
                 for j in range(n)]
        self.gs_norms_sq = [quantum_factorials(*powers) for powers in norms]
        self._gs_roots = [SplitNorm(*powers) for powers in norms]

    @cached_property
    def dressed(self):
        return [dress(b, PartyLayout(((f"of dimension {self.n}", self.n),)), jones_wenzl, _D)
                for b in self.basis]

    @cached_property
    def gram(self):
        n = self.n
        upper = {(i, j): RationalFn(self.basis[i].inner(self.dressed[j], _D))
                 for j in range(n) for i in range(j + 1)}
        return [[upper[i, j] if i <= j else upper[j, i].bar() for j in range(n)] for i in range(n)]

    def frame_rows(self, point):
        """Rows of the lower triangular T with orthonormal vectors
        u_i = sum_j T[i][j] b_j, each cut after its diagonal entry.

        Each norm is split once at construction, from the quantum-factorial
        powers it is built from (SplitNorm, whose sign convention the rows
        keep), and each coefficient keeps its evaluation form, so a fresh
        point costs only numeric evaluations.
        """
        rows = []
        for i, (root, coeffs) in enumerate(zip(self._gs_roots, self._gs_coeffs)):
            try:
                nrm = root.sqrt_at(point)
                rows.append([evaluate(c, point) / nrm for c in coeffs[:i + 1]])
            except DegeneratePointError as exc:
                exc.vector = i
                raise
        return rows

    def ortho_transform(self, point):
        """frame_rows as an n x n array, zero above the diagonal."""
        import numpy as np

        n = self.n
        return np.array([row + [0j] * (n - len(row)) for row in self.frame_rows(point)],
                        dtype=complex)

    def gram_numeric(self, point):
        import numpy as np

        n = self.n
        return np.array([[complex(evaluate(self.gram[i][j], point))
                          for j in range(n)] for i in range(n)])

    def projector_element(self, point):
        """Numeric resolution of identity on the local span, as an 8w-point state.

        As a 4w -> 4w map, composing a state with it from below replaces the
        state by its orthogonal projection onto the dressed local basis span.
        The result holds that map's diagrams as states on the same circularly
        labeled points (its top 1..4w, then its bottom 4w+1..8w), the form
        glue_network takes.  It is built once per (space, point) while that
        key stays among the last POINT_CACHE_SIZE used (_projector_tile), and
        the same object is returned.  Where the frame degenerates,
        frame_rows' DegeneratePointError is raised.
        """
        return _projector_tile(self, point)

    @cached_property
    def tile_cells(self):
        """Every diagram a projector tile can hold, x^dagger (x) y read as a
        state, mapped to (x, y), for the pairs of the dressed basis's diagrams
        in the order b_0's diagrams, then those new in b_1, and so on.  The
        maps are built from checked diagrams, so the states are not checked
        again (PlanarDiagram._built)."""
        seen, pairs = {}, {}
        for b in self.dressed:
            seen.update(dict.fromkeys(b.terms))
            pairs.update(dict.fromkeys(product(seen, repeat=2)))
        return {PlanarDiagram._built(0, 2 * self.n_points, x.adjoint().tensor(y).pairs): (x, y)
                for x, y in pairs}

    def _projector_state(self, point):
        """The sum of u_i^dagger (x) u_i over the orthonormal vectors
        u_i = sum_j T[i][j] b_j of frame_rows, by cell of tile_cells; it
        equals sum_ab Ginv[a][b] b_b^dagger (x) b_a, as Ginv = T^t conj(T)."""
        rows = self.frame_rows(point)
        dressed_num = [v.evaluate(point) for v in self.dressed]
        us = [{} for _ in rows]
        for u, row in zip(us, rows):
            for t, b in zip(row, dressed_num):
                for dg, c in b.terms.items():
                    _accumulate(u, dg, t * c)
        out = {}
        for dg, (x, y) in self.tile_cells.items():
            for u in us:
                if x in u and y in u:
                    _accumulate(out, dg, u[x].conjugate() * u[y])
        return TLElement(out)


@lru_cache(maxsize=POINT_CACHE_SIZE)
def _projector_tile(space, point):
    """space's projector tile at point (QuditSpace._projector_state)."""
    return space._projector_state(point)


@lru_cache(maxsize=None)
def qudit_space(n):
    return QuditSpace(n)


def dress(element, layout, projector, d):
    """element with projector(w) glued under each puncture of each party of
    width w >= 2 in layout, in label order, each gluing charged to the work
    meter before it runs.  A DegeneratePointError from projector names the party."""
    N = layout.n_points
    spent = 0
    for (name, nk), o in zip(layout.parties, layout.offsets):
        w = nk - 1
        if w < 2:
            continue
        try:
            proj = projector(w)
        except DegeneratePointError as exc:
            exc.party = name
            raise
        # party labels o+tw+1 .. o+(t+1)w sit at bottom positions
        # N-o-(t+1)w+1 .. N-o-tw (labels run right to left)
        for t in range(4):
            spent = charge(spent, element.compose_work(proj), "dressing party {}", name)
            element = element.compose(proj, d, N - o - (t + 1) * w)
    return element


class PartyLayout:
    """Named parties in boundary order, each covering 4(dim-1) labels."""

    def __init__(self, parties):
        parties = tuple((str(name), as_int(n, "a party dimension")) for name, n in parties)
        names = [nm for nm, _ in parties]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate party names in {names}")
        if any(n < 1 for _, n in parties):
            raise ValueError("party dimensions must be at least 1")
        self.parties = parties
        ends = tuple(accumulate((4 * (n - 1) for _, n in parties), initial=0))
        self.offsets, self.n_points = ends[:-1], ends[-1]
        self.dims = tuple(n for _, n in parties)

    @classmethod
    def qubits(cls, *names):
        return cls(tuple((nm, 2) for nm in names))

    @property
    def names(self):
        return tuple(nm for nm, _ in self.parties)

    def index(self, name):
        for k, (nm, _) in enumerate(self.parties):
            if nm == name:
                return k
        raise KeyError(f"no party named {name!r}")

    def block(self, name):
        k = self.index(name)
        return range(self.offsets[k] + 1, self.offsets[k] + 4 * (self.dims[k] - 1) + 1)

    def __repr__(self):
        inner = ", ".join(f"{nm}:{n}" for nm, n in self.parties)
        return f"PartyLayout({inner})"

    def __eq__(self, other):
        return isinstance(other, PartyLayout) and self.parties == other.parties

    def __hash__(self):
        return hash(self.parties)


def tuple_basis_diagram(layout, indices):
    """Product of local basis pairings, offset into each party's label block."""
    if len(indices) != len(layout.parties):
        raise ValueError("one basis index per party required")
    for k, (_, nk) in enumerate(layout.parties):
        if not 0 <= indices[k] < nk:
            raise ValueError(f"basis index {indices[k]} out of range for dimension {nk}")
    return PlanarDiagram(0, layout.n_points, tuple_basis_pairs(basis_blocks(layout), indices))


def basis_blocks(layout):
    """Per party, its local basis pairings offset into its label block."""
    return [[tuple((a + o, b + o) for a, b in m) for m in qudit_space(nk).matchings]
            for o, (_, nk) in zip(layout.offsets, layout.parties)]


def tuple_basis_pairs(blocks, indices):
    """The pairs of tuple_basis_diagram(layout, indices), sorted as its, from
    blocks = basis_blocks(layout), without building or checking a diagram:
    each block's pairings are sorted and the blocks follow one another."""
    return tuple(chain.from_iterable(block[i] for block, i in zip(blocks, indices)))


@lru_cache
def _contraction_plan(dims):
    """Per party of a layout of dimensions dims, in party order, the
    (column, i) that amplitude_list contracts each flat entry (index order)
    from: row i of the party's frame, the party's index in that entry, times
    the slice column of the flat list along which that index runs with the
    others fixed.  Built once per dims."""
    plan, size = [], math.prod(dims)
    block = size
    for nk in dims:
        stride = block // nk
        plan.append(tuple((slice(f - f % block + f % stride, f - f % block + block, stride),
                           f % block // stride) for f in range(size)))
        block = stride
    return tuple(plan)


def _tensor(values, dims):
    """The flat list values, in index order, as a complex array of shape dims
    that owns its data (a reshaped array is a view that keeps a second
    array header alive, so the shape is set in place)."""
    import numpy as np

    out = np.array(values, dtype=complex)
    out.shape = dims
    return out


class DiagramState:
    """A boundary pairing state together with its party layout.

    basis_loops maps each diagram that raw_overlaps has paired (each term of
    the dressed state) to its loop counts against the tuple basis diagrams.
    It holds at most one entry per distinct dressed diagram, whatever the
    number of points, so a new angle re-walks no loop; only the dressing
    and the sums of c * d**loops run per point.  amplitudes builds one
    frame per distinct party dimension per call, before any dressing.
    """

    def __init__(self, element, layout):
        if isinstance(element, PlanarDiagram):
            element = TLElement.from_diagram(element)
        shape = element.shape()
        if shape is not None and shape != (0, layout.n_points):
            raise ValueError(f"element shape {shape} does not match layout "
                             f"with {layout.n_points} bottom points")
        self.element = element
        self.layout = layout
        # replica ring plans by (n, kept parties), filled by
        # entanglement._glued_power, never keyed by point; element and
        # layout are never reassigned
        self.replica_plans = {}
        # loop counts by paired diagram, in index order of the tuple
        # basis; filled by raw_overlap_list, never keyed by point
        self.basis_loops = {}

    def norm_sq(self, point):
        """Raw pairing of the diagram with itself (no projection)."""
        el = self.element.evaluate(point)
        return el.inner(el, complex(point.d))

    def dressed_numeric(self, point):
        """dress of the state at point, with the projectors evaluated there."""
        return dress(self.element.evaluate(point), self.layout,
                     lambda w: jones_wenzl(w).evaluate(point), complex(point.d))

    def raw_overlap_list(self, point):
        """Pairings of the dressed state with the tuple basis pairings, flat
        in index order.

        Each entry is TLElement.inner of its basis diagram with the dressed
        state: c * d**loops summed over the dressed terms in order, d applied
        one factor at a time and a sum that reaches exactly 0 restarted from
        0.  The loop counts come from basis_loops, so a diagram is walked
        with _join once per state, at the first point where it appears.
        inner's factor 1 (the basis coefficient) is left out: it can only
        flip the sign of a zero part, which a sum started from 0 drops.
        """
        dval = complex(point.d)
        table = self.basis_loops
        dims = self.layout.dims
        dressed = self.dressed_numeric(point).terms
        # listing a tuple basis diagram, or walking one, places n_points arc ends
        tuples = math.prod(dims)
        charge(0, (len(dressed) + 1) * tuples * (self.layout.n_points + 1),
               "pairing {:,} dressed terms with {:,} basis diagrams", len(dressed), tuples)
        sums = [0] * tuples
        basis_pairs = None
        for dg, c in dressed.items():
            loops = table.get(dg)
            if loops is None:
                if basis_pairs is None:
                    blocks = basis_blocks(self.layout)
                    basis_pairs = [tuple_basis_pairs(blocks, idx)
                                   for idx in product(*map(range, dims))]
                loops = table[dg] = tuple(_join({}, dg.pairs + pairs) for pairs in basis_pairs)
            powers = [c]
            for _ in range(max(loops)):
                powers.append(powers[-1] * dval)
            sums = [s if s != 0 else 0 for s in map(add, sums, map(powers.__getitem__, loops))]
        return list(map(complex, sums))

    def raw_overlaps(self, point):
        """raw_overlap_list as a tensor with one axis per party."""
        return _tensor(self.raw_overlap_list(point), self.layout.dims)

    def _frames(self, point):
        """The conjugated frame_rows at point, by party dimension.

        Each dimension's frame is built once, before the dressing and the
        raw overlaps, so a degenerate frame raises before either runs; its
        DegeneratePointError names the first party of that dimension.
        """
        frames = {}
        for name, nk in self.layout.parties:
            if nk not in frames:
                try:
                    frames[nk] = [list(map(complex.conjugate, row))
                                  for row in qudit_space(nk).frame_rows(point)]
                except DegeneratePointError as exc:
                    exc.party = name
                    raise
        return frames

    def amplitudes(self, point):
        """amplitude_list as a tensor with one axis per party."""
        return _tensor(self.amplitude_list(point), self.layout.dims)

    def amplitude_list(self, point):
        """Amplitudes in the orthonormal local frames, flat in index order.

        The frames (see _frames) are contracted party by party, in party
        order, along _contraction_plan(dims); each entry sums
        conj(T[i][j]) * v_j over j <= i in order.
        """
        frames = self._frames(point)
        amp = self.raw_overlap_list(point)
        for nk, entries in zip(self.layout.dims, _contraction_plan(self.layout.dims)):
            rows = frames[nk]
            amp = [sum(map(mul, rows[i], amp[column])) for column, i in entries]
        return amp

    def __repr__(self):
        return f"DiagramState({self.element!r}, {self.layout!r})"


def reduced_diagram(n, j):
    """Two-party qudit diagram with j+1 strand groups crossing the middle.

    The lower half of each party is joined straight across; the upper halves
    carry the arcs of local basis pairing j, with its across arcs turned into
    lines between the parties.  The resulting states have Schmidt rank j+1.
    """
    if not 0 <= j < n:
        raise ValueError(f"diagram index {j} out of range for dimension {n}")
    w = n - 1
    arcs = [(i, 8 * w + 1 - i) for i in range(1, 2 * w + 1)]
    for p, q in local_basis_matchings(n)[j]:
        if p > 2 * w:
            arcs.append((p, q))
        elif q <= 2 * w:
            arcs.append((p + 4 * w, q + 4 * w))
        else:
            arcs.append((q, p + 4 * w))
    layout = PartyLayout((("L", n), ("R", n)))
    return DiagramState(PlanarDiagram(0, 8 * w, arcs), layout)


def crossed_triple_residual(dval):
    """Squared norm of the third orthogonalized 4-point pairing at loop value d.

    The three pairings of 4 points (two noncrossing plus the crossed one) are
    orthogonalized in order; the returned residual vanishes exactly at d = -2,
    where the crossed pairing becomes linearly dependent on the other two.
    """
    pairings = [((1, 2), (3, 4)), ((1, 4), (2, 3)), ((1, 3), (2, 4))]
    els = [TLElement.from_diagram(PlanarDiagram(0, 4, m)) for m in pairings]
    G = [[complex(els[i].inner(els[j], dval)) for j in range(3)] for i in range(3)]
    # the last Gram-Schmidt norm is the ratio of consecutive Gram minors;
    # the 3 x 3 one expands along its first row
    minor = G[0][0] * G[1][1] - G[0][1] * G[1][0]
    det = sum(G[0][j] * (G[1][(j + 1) % 3] * G[2][(j + 2) % 3]
                         - G[1][(j + 2) % 3] * G[2][(j + 1) % 3]) for j in range(3))
    return det / minor
