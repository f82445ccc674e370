"""Boundary-pairing diagrams and their formal linear combinations.

A diagram is a perfect matching of boundary points on a disk.  Points are
labeled circularly: top points 1..n_top left to right, then bottom points
n_top+1..n_top+n_bottom right to left, so that walking 1, 2, ..., N goes once
around the boundary.  Strand crossings never appear here; crossings live one
level up and are resolved into combinations of these matchings.  Matchings
with crossing pairs are still representable (they occur in the loop-counting
model where only connectivity matters).

A matching is checked once, where it enters the program: the public
PlanarDiagram constructor, which the parser, connectomes, reduced_diagram,
the tests and library callers use, rejects anything that is not a perfect
matching of 1..N.  Methods that build a diagram from diagrams already checked
(compose_with, tensor, adjoint, and the re-wrap of a map as a state in
spaces.QuditSpace.tile_cells) go through PlanarDiagram._built, which sorts
the pairs, each given low end first, but does not check them again.  Every
diagram keeps its hash from when it is built.
"""

from __future__ import annotations

import numbers
from array import array

from .scalars import LaurentPoly, RationalFn, evaluate, work_size

# The most work one expansion may spend: a slice word's expansion, a dressing
# (spaces.dress), a state's raw overlaps, or a connectome's reduction.  Each
# step is charged before it runs, from the exact sizes of its operands.  On two
# cores a unit took 0.05 to 1.9 us in every case measured, so about 10 s at most.
WORK_BUDGET = 5_000_000


class WorkBoundError(ValueError):
    """A step that would take an expansion past WORK_BUDGET, at index step."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def charge(spent, units, what, *args, step=None):
    """spent + units once step what.format(*args) has run; past WORK_BUDGET a
    WorkBoundError.  The step's name is formatted only for that error, so a
    step within the budget pays for no message."""
    spent += units
    if spent > WORK_BUDGET:
        raise WorkBoundError(f"{what.format(*args)} would take the work to {spent:,} units, "
                             f"above the budget of {WORK_BUDGET:,}", step)
    return spent


def as_int(value, what):
    """value as an int when it is a Python or numpy integer; a bool, a float,
    a str or anything else is a ValueError naming what."""
    if type(value) is int:  # the common case, without the Integral ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class PlanarDiagram:
    """Perfect matching of n_top + n_bottom circularly labeled points.

    pairs is sorted, each pair (a, b) with a < b.  The constructor checks
    that they form a perfect matching of 1..n_top + n_bottom; compose_with,
    tensor and adjoint build their results with _built, which does not check
    again.  The hash is computed once, when the diagram is built.
    """

    __slots__ = ("n_top", "n_bottom", "pairs", "_hash")

    def __init__(self, n_top, n_bottom, pairs):
        n = n_top + n_bottom
        norm = tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs))
        seen = [p for ab in norm for p in ab]
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"pairs {norm} do not form a perfect matching of 1..{n}")
        self.n_top = n_top
        self.n_bottom = n_bottom
        self.pairs = norm
        self._hash = hash((n_top, n_bottom, norm))

    @classmethod
    def _built(cls, n_top, n_bottom, pairs):
        """The diagram of pairs, sorted as the constructor sorts them, without
        its check: pairs must already be a perfect matching of 1..n_top +
        n_bottom, each pair given low end first, as the methods that build
        from checked diagrams give them."""
        dg = cls.__new__(cls)
        dg.n_top = n_top
        dg.n_bottom = n_bottom
        dg.pairs = pairs = tuple(sorted(pairs))
        dg._hash = hash((n_top, n_bottom, pairs))
        return dg

    @property
    def n_points(self):
        return self.n_top + self.n_bottom

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls(n, n, [(i, 2 * n + 1 - i) for i in range(1, n + 1)])

    @classmethod
    def generator(cls, n, i):
        """The cup-cap element e_i in the n-strand algebra (1 <= i < n)."""
        if not 1 <= i < n:
            raise ValueError(f"generator index {i} out of range for {n} strands")
        pairs = [(i, i + 1), (2 * n - i, 2 * n + 1 - i)]
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                pairs.append((j, 2 * n + 1 - j))
        return cls(n, n, pairs)

    @classmethod
    def cups(cls, n):
        """State with n bottom points joined in adjacent pairs (n even)."""
        if n % 2:
            raise ValueError("cups need an even number of points")
        return cls(0, n, [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)])

    @classmethod
    def caps(cls, n):
        return cls.cups(n).adjoint()

    @classmethod
    def empty(cls):
        return cls(0, 0, ())

    # -- structure --------------------------------------------------------

    def is_noncrossing(self):
        for i, (a, b) in enumerate(self.pairs):
            for c, d in self.pairs[i + 1:]:
                if a < c < b < d or c < a < d < b:
                    return False
        return True

    def __eq__(self, other):
        return (isinstance(other, PlanarDiagram)
                and self.n_top == other.n_top
                and self.n_bottom == other.n_bottom
                and self.pairs == other.pairs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PlanarDiagram({self.n_top}, {self.n_bottom}, {list(self.pairs)})"

    # -- operations -------------------------------------------------------

    def adjoint(self):
        """Vertical flip (top and bottom exchanged, left-right kept)."""
        nt, nb = self.n_bottom, self.n_top

        def remap(p):
            if p <= self.n_top:
                # top position p -> new bottom position p
                return nt + nb + 1 - p
            # bottom R->L position i = p - n_top -> new top R->L position i
            i = p - self.n_top
            return nt + 1 - i

        # remap sends the low end of every pair above its high end
        return PlanarDiagram._built(nt, nb, [(remap(b), remap(a)) for a, b in self.pairs])

    def tensor(self, other):
        """Place other to the right of self."""
        nt = self.n_top + other.n_top
        nb = self.n_bottom + other.n_bottom

        def remap_self(p):
            if p <= self.n_top:
                return p
            return p + other.n_top + other.n_bottom

        # both remaps keep the low end of every pair first
        pairs = [(remap_self(a), remap_self(b)) for a, b in self.pairs]
        pairs += [(a + self.n_top, b + self.n_top) for a, b in other.pairs]
        return PlanarDiagram._built(nt, nb, pairs)

    def compose_with(self, lower, offset=0):
        """Glue lower's top points under self's bottom positions offset+1 ..
        offset+lower.n_top, counted from the left; the other bottom points of
        self pass by on either side and stay bottom points of the result.

        Returns (diagram, n_loops).  Every point is one end of a bond for
        _join.  The result's labels 1..nt+nb are bonds placed once, so they
        stay open and end up paired in mate; glued column j is bond nt+nb+j,
        placed from each side.  Each boundary label ends up in exactly one
        pair of mate, so the result is built without a check (_built).  An
        offset outside 0 .. self.n_bottom - lower.n_top is a ValueError."""
        m, g, nt, lb = self.n_bottom, lower.n_top, self.n_top, lower.n_bottom
        kept = m - g - offset + nt
        if offset < 0 or kept < nt:
            raise ValueError(f"cannot glue {g} top points under bottom positions "
                             f"{offset + 1}..{offset + g} of {m}")
        # self's labels up to kept (its top, then the points passing on the
        # right) stay; glued column j is self's label up - nt - nb - j and
        # lower's top label j; self's points passing on the left move by
        # lb - g, and lower's bottom labels by kept - g
        nb = m - g + lb
        up = 2 * nt + nb + m + 1 - offset
        left, glued, shift = kept + g, nt + nb, kept - g
        arcs = [(a if a <= kept else up - a if a <= left else a + lb - g,
                 b if b <= kept else up - b if b <= left else b + lb - g)
                for a, b in self.pairs]
        arcs += [(a + glued if a <= g else a + shift, b + glued if b <= g else b + shift)
                 for a, b in lower.pairs]
        mate = {}
        loops = _join(mate, arcs)
        return PlanarDiagram._built(nt, nb, [pr for pr in mate.items() if pr[0] < pr[1]]), loops


def noncrossing_matchings(labels):
    """All non-crossing perfect matchings of circularly ordered labels."""
    labels = list(labels)
    if len(labels) % 2:
        raise ValueError("odd number of points has no perfect matching")
    if not labels:
        return [()]
    out = []
    first = labels[0]
    for idx in range(1, len(labels), 2):
        mate = labels[idx]
        inner = noncrossing_matchings(labels[1:idx])
        outer = noncrossing_matchings(labels[idx + 1:])
        for lm in inner:
            for rm in outer:
                out.append(((first, mate),) + lm + rm)
    return out


def all_matchings(labels):
    """All perfect matchings (crossings allowed, connectivity only)."""
    labels = list(labels)
    if len(labels) % 2:
        raise ValueError("odd number of points has no perfect matching")
    if not labels:
        return [()]
    out = []
    first = labels[0]
    for idx in range(1, len(labels)):
        rest = labels[1:idx] + labels[idx + 1:]
        for m in all_matchings(rest):
            out.append(((first, labels[idx]),) + m)
    return out


def tl_basis(n_top, n_bottom):
    """Diagram basis of maps from n_bottom to n_top points (Catalan many)."""
    return [PlanarDiagram(n_top, n_bottom, m)
            for m in noncrossing_matchings(range(1, n_top + n_bottom + 1))]


def conj_scalar(c):
    if isinstance(c, (LaurentPoly, RationalFn)):
        return c.bar()
    if isinstance(c, complex):
        return c.conjugate()
    return c


class TLElement:
    """Formal linear combination of diagrams with a common boundary shape.

    Coefficients may be exact (LaurentPoly / RationalFn / Fraction) or numeric
    (complex); operations that close loops take the loop value d explicitly so
    the same element type serves both modes.  terms is never written after
    __init__, which drops zero coefficients and puts each RationalFn in lowest
    terms (evaluate, whose terms are clean by construction, skips it).  A network of state tiles is contracted by network_plan, which
    reads only the diagrams (and splits product tiles), and glue_network,
    which reads the coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for diag, c in (terms or {}).items():
            if isinstance(c, (LaurentPoly, RationalFn)):
                if c.is_zero():
                    continue
                if type(c) is RationalFn:
                    c = c.lowest()
            elif c == 0:
                continue
            self.terms[diag] = c
        shapes = {(dg.n_top, dg.n_bottom) for dg in self.terms}
        if len(shapes) > 1:
            raise ValueError(f"mixed boundary shapes {shapes}")

    @classmethod
    def from_diagram(cls, diag, coeff=1):
        return cls({diag: coeff})

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def shape(self):
        for dg in self.terms:
            return dg.n_top, dg.n_bottom
        return None

    def __add__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        out = dict(self.terms)
        for dg, c in other.terms.items():
            _accumulate(out, dg, c)
        return TLElement(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        return TLElement({dg: scalar * c for dg, c in self.terms.items()})

    def __mul__(self, scalar):
        return TLElement({dg: c * scalar for dg, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if not self.terms:
            return "TLElement(0)"
        bits = [f"({c!r})*{dg!r}" for dg, c in self.terms.items()]
        return " + ".join(bits)

    def map_coefficients(self, f):
        return TLElement({dg: f(c) for dg, c in self.terms.items()})

    def adjoint(self):
        return TLElement({dg.adjoint(): conj_scalar(c) for dg, c in self.terms.items()})

    def tensor(self, other):
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                _accumulate(out, d1.tensor(d2), c1 * c2)
        return TLElement(out)

    def compose(self, lower, d, offset=0):
        """lower glued under self's bottom positions offset+1 .. offset+w
        (w = lower's top points), the other bottom points passing by, as in
        PlanarDiagram.compose_with; each closed loop contributes d.  Terms
        are summed with self's outer and lower's inner."""
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in lower.terms.items():
                dg, loops = d1.compose_with(d2, offset)
                _accumulate(out, dg, c1 * c2, loops, d)
        return TLElement(out)

    def compose_work(self, lower):
        """Units of work of compose(lower): each pair of terms walks self's
        points, multiplies numerators (s * s' products) and brings each side
        over a common denominator (up to s * m products; scalars.work_size)."""
        if not (self.terms and lower.terms):
            return 0
        (s1, m1), (s2, m2) = _widest(self), _widest(lower)
        return (len(self.terms) * len(lower.terms)
                * (sum(self.shape()) + s1 * s2 + s1 * m1 + s2 * m2))

    def scalar(self):
        """Coefficient of the empty diagram (element must be fully closed)."""
        if not self.terms:
            return 0
        shape = self.shape()
        if shape != (0, 0):
            raise ValueError(f"element with boundary {shape} is not a scalar")
        return self.terms.get(PlanarDiagram.empty(), 0)

    def inner(self, other, d):
        """Hermitian pairing <self|other> of two elements of one shape
        (conjugate linear on self): each pair of diagrams closes into the
        loops of the union of their matchings, each loop worth d."""
        if self.terms and other.terms and self.shape() != other.shape():
            raise ValueError(f"cannot pair shapes {self.shape()} and {other.shape()}")
        mine = [(dg.pairs, conj_scalar(c)) for dg, c in self.terms.items()]
        out = {}
        for dg, c in other.terms.items():
            for pairs, cs in mine:
                _accumulate(out, None, c * cs, _join({}, dg.pairs + pairs), d)
        return out.get(None, 0)

    def evaluate(self, point):
        """The element with each coefficient evaluated at point (scalars.evaluate,
        which reads the forms a point does not change) and added to 0j; terms
        that evaluate to 0 are dropped.  The terms are clean by construction,
        so they are wrapped without __init__'s checks."""
        out = {}
        for dg, c in self.terms.items():
            val = c if isinstance(c, complex) else evaluate(c, point)
            if val != 0:
                out[dg] = 0j + val
        element = TLElement.__new__(TLElement)
        element.terms = out
        return element


def _widest(element):
    """The most numerator terms and the largest exponent of element's coefficients."""
    return [max(column) for column in zip(*map(work_size, element.terms.values()))]


def close_trace(element, d):
    """Markov trace closure of an n -> n element: its pairing with the
    identity, which joins each top point to the bottom point below it."""
    shape = element.shape()
    if shape is None:
        return 0
    return TLElement.from_diagram(PlanarDiagram.identity(shape[0])).inner(element, d)


def _accumulate(out, key, c, loops=0, d=None):
    """Add c * d**loops to out[key], dropping the entry when the sum vanishes."""
    for _ in range(loops):
        c = c * d
    s = out.get(key, 0) + c
    # s == 0 tests every coefficient type exactly, and costs less than an
    # is_zero type test on the complex coefficients of a numeric network
    if s == 0:
        out.pop(key, None)
    else:
        out[key] = s


def _join(mate, arcs):
    """Attach arcs, given as pairs of bonds, to a frontier; return closed loops.

    mate maps each open bond to the open bond at the other end of its strand
    and is updated in place.  A bond is open exactly while one of its ends is
    placed, so an arc end at an open bond closes it and extends that strand,
    and an arc end at any other bond opens it.  An arc closes a loop when it
    joins the two ends of one bond, or the two open ends of one strand.
    A bond placed only once stays open: compose_with gives each boundary
    point such a bond and reads the boundary pairs off mate once every arc
    is attached.
    """
    loops = 0
    for x, y in arcs:
        if x == y:
            loops += 1
            continue
        a = mate.pop(x, x)
        if a == y:
            del mate[y]
            loops += 1
        else:
            b = mate.pop(y, y)
            mate[a] = b
            mate[b] = a
    return loops


def _opened(open_bonds, arcs):
    """The sorted open bonds once arcs are attached: each arc end toggles its bond."""
    out = set(open_bonds)
    for arc in arcs:
        for b in arc:
            out ^= {b}
    return tuple(sorted(out))


class NetworkPlan:
    """The topology of a closed network of state tiles, compiled by
    network_plan and replayed by glue_network at any coefficients.

    terms[t] maps each diagram that tile t was compiled over to its index in
    term order; tiles compiled over one diagram set share one map.  steps[t]
    holds the frontier transitions of attaching tile t, in one of two forms:
    (codes, shift, width) for a tile attached whole, and
    (u_codes, width, pairs, codes, shift, mids) for a product tile attached
    in halves (network_plan), where width is the number of frontier states
    the tile is attached to and mids the number between its halves.  No
    coefficient is read or kept, so one plan serves every point at which
    each tile's diagrams lie in its terms.
    """

    __slots__ = ("terms", "steps")

    def __init__(self, terms, steps):
        self.terms = terms
        self.steps = steps


def network_plan(tiles, bonds):
    """Compile the contraction of a closed network of state tiles.

    tiles: per tile, the diagrams (n_top = 0) it is compiled over, in term
           order, such as a TLElement's terms (one object given twice is indexed once).
    bonds: list of ((tile_index, point_label), (tile_index, point_label));
           every boundary point of every tile must appear in exactly one bond.

    Tiles are attached in order, keeping a frontier of partially connected
    bonds, so the cost is driven by frontier width rather than by the
    product of term counts.  A bond is open while one of its ends is placed;
    every frontier state pairs the same open bonds through the strands
    placed so far, and is keyed by the tuple of partners over the sorted
    open bonds.  Attaching a term joins its arcs onto those strands (_join)
    and counts the loops they close.  For every term of a tile and every
    frontier state, in order, the plan keeps the state reached and the loops
    closed, packed as target << shift | loops in one flat array per step:
    the source is the position, and states are numbered in order of first
    arrival.  A product tile, sum C[u,v] u (x) v with no strand between the
    halves, is attached in two halves when that walks fewer terms
    (_product_halves): first the half closing more open bonds, per u, to
    the mids intermediate states; glue_network folds those through C into
    one frontier per v; then the other half, per v, from every intermediate
    state.  pairs[i * |V| + j] is the term index of u_i (x) v_j, or -1.
    That is about |U| + |V| walks per frontier state instead of one per
    term; a qutrit projector tile has 14 + 14 against 196.  Each tile is
    split once per first half per plan.
    """
    point_bond = {}
    for b, (end1, end2) in enumerate(bonds):
        for end in (end1, end2):
            if end in point_bond:
                raise ValueError(f"point {end} appears in two bonds")
            point_bond[end] = b
    terms, shared = [], {}
    for t, tile in enumerate(tiles):
        if id(tile) not in shared:
            shared[id(tile)] = {dg: i for i, dg in enumerate(tile)}
        terms.append(shared[id(tile)])
        first = next(iter(terms[-1]), None)
        if first is None:
            continue
        if first.n_top != 0:
            raise ValueError("glue_network tiles must be states (no top points)")
        for p in range(1, first.n_bottom + 1):
            if (t, p) not in point_bond:
                raise ValueError(f"unbonded point ({t}, {p})")

    steps, memo = [], {}
    frontier, open_bonds = [()], ()
    for t, table in enumerate(terms):
        if not table:
            # a zero tile: glue_network gives 0 before reading any step
            break

        def edges(pairs):
            return [(point_bond[(t, a)], point_bond[(t, b)]) for a, b in pairs]

        open_set = set(open_bonds)
        halves = _product_halves(table, lambda p: point_bond[(t, p)] in open_set, memo)
        # a term closes at most one loop per arc
        shift = (next(iter(table)).n_bottom // 2).bit_length()
        targets, codes = {}, array("Q")
        if halves is None:
            arcs = [edges(dg.pairs) for dg in table]
            new_open = _opened(open_bonds, arcs[0])
            for term_arcs in arcs:
                _walk(frontier, open_bonds, term_arcs, new_open, targets, codes, shift)
            steps.append((_packed(codes), shift, len(frontier)))
        else:
            us, vs, pairs = halves
            mid_open = _opened(open_bonds, edges(us[0]))
            mids, u_codes = {}, array("Q")
            for u in us:
                _walk(frontier, open_bonds, edges(u), mid_open, mids, u_codes, shift)
            new_open = _opened(mid_open, edges(vs[0]))
            for v in vs:
                _walk(mids, mid_open, edges(v), new_open, targets, codes, shift)
            steps.append((_packed(u_codes), len(frontier), pairs, _packed(codes), shift,
                          len(mids)))
        frontier, open_bonds = list(targets), new_open
    return NetworkPlan(terms, steps)


def _walk(frontier, open_bonds, arcs, new_open, targets, codes, shift):
    """Attach arcs to each frontier key over open_bonds, in order, appending
    target << shift | loops to codes; targets numbers the keys over
    new_open in order of first arrival."""
    for key in frontier:
        mate = dict(zip(open_bonds, key))
        loops = _join(mate, arcs)
        target = targets.setdefault(tuple(map(mate.__getitem__, new_open)), len(targets))
        codes.append(target << shift | loops)


def _packed(codes):
    """codes in an array of the fewest bytes per entry that holds them all."""
    top = max(codes, default=0)
    return array("H" if top < 1 << 16 else "I" if top < 1 << 32 else "Q", codes)


def _product_halves(terms, closes, memo):
    """Write a tile as sum_{u,v} C[u,v] u (x) v over two halves.

    terms are the tile's diagrams in term order.  One half is the set X of
    points that their arcs link to point 1, the other its complement, so no
    term pairs the halves.  closes(p) tells whether point p ends a bond that
    is open in the frontier; the half that closes more of them is u, the
    half attached first.  Returns (us, vs, pairs) with pairs[i * len(vs) + j]
    the index in terms of u_i (x) v_j, or -1 where there is none; None when
    the tile is one piece or when |U| + |V| walks per frontier state are no
    fewer than its T terms.  The halves and each split are kept in memo by
    terms, so one compile splits a tile once per first half.
    """
    if id(terms) not in memo:
        memo[id(terms)] = (_point_halves(terms), {})
    halves, splits = memo[id(terms)]
    if halves is None:
        return None
    x, y = halves
    first = y if sum(map(closes, y)) > sum(map(closes, x)) else x
    if first not in splits:
        splits[first] = _split(terms, first)
    return splits[first]


def _point_halves(terms):
    """(X, Y): the points linked to point 1 by the arcs of terms, and the
    rest; None when Y is empty or there are at most 4 terms."""
    if len(terms) <= 4:
        # T <= |U|*|V| gives |U| + |V| >= 2 sqrt(T) >= T: qubit projectors stay whole
        return None
    arcs = {pr for dg in terms for pr in dg.pairs}
    x = {1}
    grown = True
    while grown:
        grown = False
        for a, b in arcs:
            if (a in x) != (b in x):
                x.update((a, b))
                grown = True
    y = frozenset(range(1, next(iter(terms)).n_bottom + 1)) - x
    if not y:
        return None
    return frozenset(x), y


def _split(terms, first):
    """(us, vs, pairs) of _product_halves with u on the points of first."""
    halves = [(tuple(pr for pr in dg.pairs if pr[0] in first),
               tuple(pr for pr in dg.pairs if pr[0] not in first))
              for dg in terms]
    us = {u: i for i, u in enumerate(dict.fromkeys(u for u, _ in halves))}
    vs = {v: j for j, v in enumerate(dict.fromkeys(v for _, v in halves))}
    if len(halves) <= len(us) + len(vs):
        return None
    pairs = array("i", [-1]) * (len(us) * len(vs))
    for index, (u, v) in enumerate(halves):
        pairs[us[u] * len(vs) + vs[v]] = index
    return list(us), list(vs), pairs


def glue_network(plan, tiles, d):
    """Contract a closed network of state tiles into a scalar along plan,
    which network_plan compiled over their diagrams; each closed loop of
    strands contributes a factor d.

    The numeric pass walks no strand: it replays network_plan's frontier
    walk with the positions the plan gives each state.  The frontier maps
    positions to coefficients; every term carries every state, in its
    order, to the position the plan names, adding scoeff * coeff times d
    once per loop closed (_accumulate, which drops a sum that reaches
    exactly 0).  A product tile carries each state through its first half
    per u, folds the results through C[u,v] into one frontier per v, and
    carries those through the second half.  So every sum is taken in the
    order the walk over the tiles' own diagrams takes it.  A term of the
    plan that a tile lacks (its coefficient is 0 here) is skipped; a tile
    with a term the plan lacks is a ValueError.
    """
    if not all(tile.terms for tile in tiles):
        return 0
    coeffs, shared = [], {}
    for tile, terms in zip(tiles, plan.terms):
        key = (id(tile), id(terms))
        if key not in shared:
            cs = [tile.terms.get(dg) for dg in terms]
            if len(cs) - cs.count(None) != len(tile.terms):
                raise ValueError("a tile has a term that its plan was not compiled over")
            shared[key] = cs
        coeffs.append(shared[key])
    states = {0: 1}
    for cs, step in zip(coeffs, plan.steps):
        if not states:
            return 0
        if len(step) == 3:
            codes, shift, width = step
            states = _carry({}, states, cs, codes, shift, d, width)
        else:
            u_codes, width, pairs, codes, shift, mids = step
            nv = len(pairs) * width // len(u_codes)
            by_v = [{} for _ in range(nv)]
            for i in range(len(u_codes) // width):
                fold = [(by_v[j], cs[k]) for j, k in enumerate(pairs[i * nv:(i + 1) * nv])
                        if k >= 0 and cs[k] is not None]
                if fold:
                    mid = _carry({}, states, (1,), u_codes, shift, d, width, i)
                    for m, w in mid.items():
                        for column, c in fold:
                            _accumulate(column, m, w * c)
            states = {}
            for j, column in enumerate(by_v):
                _carry(states, column, (1,), codes, shift, d, mids, j)
    return states.get(0, 0)


def _carry(out, states, cs, codes, shift, d, width, block=0):
    """Add states[p] * cs[k] * d**loops to out[target] for each term k and
    frontier position p, in the order of cs and states, reading (target,
    loops) from codes[(block + k) * width + p]; a coefficient None is a
    term absent here.  Returns out."""
    mask = (1 << shift) - 1
    for k, c in enumerate(cs, block):
        if c is not None:
            row = k * width
            for p, s in states.items():
                code = codes[row + p]
                _accumulate(out, code >> shift, s * c, code & mask, d)
    return out
