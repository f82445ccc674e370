import cmath
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tl_entangle.diagrams import (
    PlanarDiagram,
    TLElement,
    _join,
    _opened,
    _product_halves,
    all_matchings,
    close_trace,
    glue_network,
    network_plan,
    noncrossing_matchings,
    tl_basis,
)
from tl_entangle.scalars import EvalPoint, LaurentPoly, d_param, evaluate
from tl_entangle.spaces import qudit_space

D = d_param()


def test_matching_validation():
    for n_top, n_bottom, pairs in [
            (2, 2, [(1, 2), (3, 3)]),
            (1, 2, [(1, 2)]),
            # an odd point count
            (1, 0, []),
            (2, 1, [(1, 2), (3, 3)]),
            # a repeated point
            (2, 2, [(1, 2), (2, 3)]),
            (1, 1, [(1, 2), (2, 1)]),
            # a missing point
            (2, 2, [(1, 2)]),
            (0, 4, [(1, 4)]),
            # a label out of range
            (2, 2, [(1, 2), (3, 5)]),
            (1, 1, [(0, 1)]),
            (1, 1, [(-1, 2)])]:
        with pytest.raises(ValueError, match="do not form a perfect matching"):
            PlanarDiagram(n_top, n_bottom, pairs)


def test_catalan_counts():
    assert [len(tl_basis(n, n)) for n in range(1, 5)] == [1, 2, 5, 14]
    assert len(all_matchings(range(1, 5))) == 3
    assert len(all_matchings(range(1, 7))) == 15
    assert len(noncrossing_matchings([1, 3, 5, 7])) == 2


def test_identity_and_generators():
    i2 = PlanarDiagram.identity(2)
    assert i2.pairs == ((1, 4), (2, 3))
    e1 = PlanarDiagram.generator(2, 1)
    assert e1.pairs == ((1, 2), (3, 4))
    dg, loops = i2.compose_with(i2)
    assert dg == i2 and loops == 0
    dg, loops = e1.compose_with(e1)
    assert dg == e1 and loops == 1
    with pytest.raises(ValueError):
        PlanarDiagram.generator(2, 2)


def test_tl_relations():
    n = 3
    d_el = {i: TLElement.from_diagram(PlanarDiagram.generator(n, i)) for i in (1, 2)}
    e1, e2 = d_el[1], d_el[2]
    assert e1.compose(e2, D).compose(e1, D) == e1
    assert e2.compose(e1, D).compose(e2, D) == e2
    assert e1.compose(e1, D) == D * e1
    n = 4
    a = TLElement.from_diagram(PlanarDiagram.generator(n, 1))
    b = TLElement.from_diagram(PlanarDiagram.generator(n, 3))
    assert a.compose(b, D) == b.compose(a, D)


def test_cup_cap_closure():
    cups = TLElement.from_diagram(PlanarDiagram.cups(2))
    caps = TLElement.from_diagram(PlanarDiagram.caps(2))
    val = cups.compose(caps, D).scalar()
    assert val == D
    # snake move: a strand bent through a cup and a cap straightens to identity
    idg = PlanarDiagram.identity(1)
    upper = idg.tensor(PlanarDiagram.cups(2))
    lower = PlanarDiagram.caps(2).tensor(idg)
    dg, loops = upper.compose_with(lower)
    assert dg == idg and loops == 0


def test_adjoint_involution_and_labels():
    dg = PlanarDiagram(2, 4, [(1, 6), (2, 3), (4, 5)])
    assert dg.adjoint().adjoint() == dg
    assert dg.adjoint().n_top == 4
    assert PlanarDiagram.identity(3).adjoint() == PlanarDiagram.identity(3)
    assert PlanarDiagram.caps(4) == PlanarDiagram(4, 0, [(1, 2), (3, 4)])


def test_state_gram_entries():
    # two-qubit pair basis on 4 points
    e1 = TLElement.from_diagram(PlanarDiagram(0, 4, [(1, 2), (3, 4)]))
    e2 = TLElement.from_diagram(PlanarDiagram(0, 4, [(1, 4), (2, 3)]))
    assert e1.inner(e1, D) == D * D
    assert e1.inner(e2, D) == D
    assert e2.inner(e2, D) == D * D
    # crossed matching in the connectivity-only model: all overlaps give d
    e3 = TLElement.from_diagram(PlanarDiagram(0, 4, [(1, 3), (2, 4)]))
    two = Fraction(-2)
    assert e3.inner(e3, two) == 4
    assert e1.inner(e3, two) == -2


def test_trace_closure():
    for n in (1, 2, 3):
        idn = TLElement.from_diagram(PlanarDiagram.identity(n))
        assert close_trace(idn, D) == D ** n
    e1 = TLElement.from_diagram(PlanarDiagram.generator(3, 1))
    assert close_trace(e1, D) == D * D


def test_compose_associative_with_loops():
    pt = EvalPoint.from_level(5)
    basis = tl_basis(3, 3)
    for a in basis[:3]:
        for b in basis:
            for c in basis[-3:]:
                ea, eb, ec = (TLElement.from_diagram(x) for x in (a, b, c))
                lhs = ea.compose(eb, D).compose(ec, D)
                rhs = ea.compose(eb.compose(ec, D), D)
                assert lhs == rhs


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_tensor_compose_interchange(data):
    basis2 = tl_basis(2, 2)
    a = data.draw(st.sampled_from(basis2))
    b = data.draw(st.sampled_from(basis2))
    c = data.draw(st.sampled_from(basis2))
    e = data.draw(st.sampled_from(basis2))
    ea, eb, ec, ee = (TLElement.from_diagram(x) for x in (a, b, c, e))
    lhs = ea.tensor(eb).compose(ec.tensor(ee), D)
    rhs = ea.compose(ec, D).tensor(eb.compose(ee, D))
    assert lhs == rhs


def glue(tiles, bonds, d):
    """Compile the network of tiles and replay it with their coefficients."""
    return glue_network(network_plan([tile.terms for tile in tiles], bonds), tiles, d)


def test_glue_network_matches_inner_product():
    x = TLElement.from_diagram(PlanarDiagram(0, 4, [(1, 2), (3, 4)]))
    y = TLElement.from_diagram(PlanarDiagram(0, 4, [(1, 4), (2, 3)]))
    bonds = [((0, p), (1, p)) for p in range(1, 5)]
    assert glue([x, x], bonds, D) == D * D
    assert glue([x, y], bonds, D) == D
    # numeric mode agrees
    pt = EvalPoint(0.3)
    dv = complex(pt.d)
    xn, yn = x.evaluate(pt), y.evaluate(pt)
    got = glue([xn, yn], bonds, dv)
    assert abs(got - evaluate(D, pt)) < 1e-12


def test_glue_network_three_tiles_ring():
    # three cup states glued in a ring pairing (1,2),(3,4) across neighbors
    x = TLElement.from_diagram(PlanarDiagram(0, 4, [(1, 2), (3, 4)]))
    bonds = [((0, 3), (1, 2)), ((0, 4), (1, 1)),
             ((1, 3), (2, 2)), ((1, 4), (2, 1)),
             ((2, 3), (0, 2)), ((2, 4), (0, 1))]
    # each tile's two cups chain into one big loop plus two small ones
    val = glue([x, x, x], bonds, D)
    assert val == D ** 3


def test_glue_network_rejects_bad_wiring():
    x = TLElement.from_diagram(PlanarDiagram(0, 4, [(1, 2), (3, 4)]))
    with pytest.raises(ValueError):
        network_plan([x.terms, x.terms], [((0, 1), (1, 1))])
    with pytest.raises(ValueError):
        network_plan([x.terms], [((0, 1), (0, 1)), ((0, 2), (0, 3))])


def test_glue_network_rejects_a_term_outside_its_plan():
    x = TLElement.from_diagram(PlanarDiagram(0, 4, [(1, 2), (3, 4)]))
    y = TLElement.from_diagram(PlanarDiagram(0, 4, [(1, 4), (2, 3)]))
    bonds = [((0, p), (1, p)) for p in range(1, 5)]
    plan = network_plan([x.terms, x.terms], bonds)
    with pytest.raises(ValueError, match="not compiled over"):
        glue_network(plan, [x, x + y], D)


def reference_glue_network(tiles, bonds, d):
    """glue_network as it was before product tiles were split: every tile is
    attached whole, walking each (frontier state, term) pair."""
    point_bond = {}
    for b, (end1, end2) in enumerate(bonds):
        for end in (end1, end2):
            point_bond[end] = b
    states = {frozenset(): 1}
    for t, tile in enumerate(tiles):
        new_states = {}
        for diag, dcoeff in tile.terms.items():
            tile_edges = [(point_bond[(t, a)], point_bond[(t, b)]) for a, b in diag.pairs]
            for state, scoeff in states.items():
                adj = {}
                for pr in state:
                    x, y = tuple(pr) if len(pr) == 2 else (next(iter(pr)), next(iter(pr)))
                    adj.setdefault(x, []).append(y)
                    adj.setdefault(y, []).append(x)
                loops = 0
                for x, y in tile_edges:
                    if x == y:
                        loops += 1
                        continue
                    adj.setdefault(x, []).append(y)
                    adj.setdefault(y, []).append(x)
                endpoints = [n for n, nb_ in adj.items() if len(nb_) == 1]
                visited = set()
                new_pairs = []
                for start in endpoints:
                    if start in visited:
                        continue
                    visited.add(start)
                    prev, cur = start, adj[start][0]
                    while len(adj[cur]) == 2:
                        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                        visited.add(cur)
                        prev, cur = cur, nxt
                    visited.add(cur)
                    new_pairs.append(frozenset((start, cur)))
                for n in adj:
                    if n in visited:
                        continue
                    loops += 1
                    prev, cur = n, adj[n][0]
                    visited.add(n)
                    while cur != n:
                        visited.add(cur)
                        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                        prev, cur = cur, nxt
                c = scoeff * dcoeff
                for _ in range(loops):
                    c = c * d
                key = frozenset(new_pairs)
                s = new_states.get(key, 0) + c
                if s == 0:
                    new_states.pop(key, None)
                else:
                    new_states[key] = s
        states = new_states
    return states.get(frozenset(), 0)


def walk_glue_network(tiles, bonds, d):
    """glue_network as it was before it was split into a plan and a pass:
    every call walks every frontier state through every term with _join, and
    a product tile is attached in halves, split afresh on every call.  The
    coefficients and d may be numpy arrays over points, so that one walk of
    the topology gives the value at each point by that point's arithmetic."""
    point_bond = {}
    for b, (end1, end2) in enumerate(bonds):
        for end in (end1, end2):
            point_bond[end] = b
    if any(not tile.terms for tile in tiles):
        return 0
    states = {(): 1}
    open_bonds = ()
    for t, tile in enumerate(tiles):
        if not states:
            return 0

        def edges(pairs):
            return [(point_bond[(t, a)], point_bond[(t, b)]) for a, b in pairs]

        open_set = set(open_bonds)
        halves = _walk_halves(tile, lambda p: point_bond[(t, p)] in open_set)
        new_states = {}
        if halves is None:
            terms = [(edges(diag.pairs), dcoeff) for diag, dcoeff in tile.terms.items()]
            new_open = _opened(open_bonds, terms[0][0])
            for arcs, dcoeff in terms:
                _walk_attach(new_states, states, open_bonds, arcs, new_open, dcoeff, d)
        else:
            us, vs, rows = halves
            mid_open = _opened(open_bonds, edges(us[0]))
            by_v = [{} for _ in vs]
            for i, u in enumerate(us):
                mid = _walk_attach({}, states, open_bonds, edges(u), mid_open, 1, d)
                for key, w in mid.items():
                    for j, c in rows[i].items():
                        _walk_accumulate(by_v[j], key, w * c)
            new_open = _opened(mid_open, edges(vs[0]))
            for v, mid in zip(vs, by_v):
                _walk_attach(new_states, mid, mid_open, edges(v), new_open, 1, d)
        states, open_bonds = new_states, new_open
    return states.get((), 0)


def _walk_attach(out, states, open_bonds, arcs, new_open, coeff, d):
    for key, scoeff in states.items():
        mate = dict(zip(open_bonds, key))
        loops = _join(mate, arcs)
        _walk_accumulate(out, tuple(map(mate.__getitem__, new_open)), scoeff * coeff, loops, d)
    return out


def _walk_accumulate(out, key, c, loops=0, d=None):
    """diagrams._accumulate for coefficients that may be arrays over points: an
    entry is dropped only when it is zero at every point."""
    for _ in range(loops):
        c = c * d
    s = out.get(key, 0) + c
    zero = not s.any() if isinstance(s, np.ndarray) else s == 0
    if zero:
        out.pop(key, None)
    else:
        out[key] = s


def _walk_halves(tile, closes):
    """(us, vs, rows) with rows[i] = {j: C[us[i], vs[j]]}: the product split
    of tile with the half closing more open bonds first, or None."""
    if len(tile.terms) <= 4:
        return None
    arcs = {pr for dg in tile.terms for pr in dg.pairs}
    x = {1}
    grown = True
    while grown:
        grown = False
        for a, b in arcs:
            if (a in x) != (b in x):
                x.update((a, b))
                grown = True
    y = set(range(1, tile.shape()[1] + 1)) - x
    if not y:
        return None
    first = y if sum(map(closes, y)) > sum(map(closes, x)) else x
    halves = [(tuple(pr for pr in dg.pairs if pr[0] in first),
               tuple(pr for pr in dg.pairs if pr[0] not in first), c)
              for dg, c in tile.terms.items()]
    us = {u: i for i, u in enumerate(dict.fromkeys(u for u, _, _ in halves))}
    vs = {v: j for j, v in enumerate(dict.fromkeys(v for _, v, _ in halves))}
    if len(halves) <= len(us) + len(vs):
        return None
    rows = [{} for _ in us]
    for u, v, c in halves:
        rows[us[u]][vs[v]] = c
    return list(us), list(vs), rows


def _laurent(data):
    """A nonzero Laurent polynomial with one or two terms."""
    exps = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=2, unique=True))
    return LaurentPoly({e: data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) for e in exps})


def _product_tile(data, nx, ny):
    """sum C[u,v] u (x) v with u on points 1..nx and v on the ny points after:
    three or four distinct pairings on each half and every entry of C nonzero,
    so the tile has more terms than |U| + |V| and must split."""
    us = data.draw(st.lists(st.sampled_from(all_matchings(range(1, nx + 1))),
                            min_size=3, max_size=4, unique=True))
    vs = data.draw(st.lists(st.sampled_from(all_matchings(range(nx + 1, nx + ny + 1))),
                            min_size=3, max_size=4, unique=True))
    return TLElement({PlanarDiagram(0, nx + ny, u + v): _laurent(data)
                      for u in us for v in vs})


def _plain_tile(data):
    n = data.draw(st.sampled_from((2, 4, 6)))
    pairings = data.draw(st.lists(st.sampled_from(all_matchings(range(1, n + 1))),
                                  min_size=1, max_size=3, unique=True))
    return TLElement({PlanarDiagram(0, n, m): _laurent(data) for m in pairings})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_glue_network_product_tiles_match_reference(data):
    tiles = [_plain_tile(data)]
    for _ in range(data.draw(st.integers(1, 2))):
        tiles.append(_product_tile(data, 4, data.draw(st.sampled_from((4, 6)))))
    assert all(_product_halves(tile.terms, lambda p: False, {}) for tile in tiles[1:])
    if data.draw(st.booleans()):
        # one tile object twice, as a projector occurs in a replica ring
        tiles.append(tiles[1])
    tiles.append(_plain_tile(data))
    order = data.draw(st.permutations(range(len(tiles))))
    tiles = [tiles[i] for i in order]
    ends = [(t, p) for t, tile in enumerate(tiles) for p in range(1, tile.shape()[1] + 1)]
    ends = data.draw(st.permutations(ends))
    bonds = [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]
    plan = network_plan([tile.terms for tile in tiles], bonds)
    assert glue_network(plan, tiles, D) == reference_glue_network(tiles, bonds, D)
    # the plan reads no coefficient: replayed with other coefficients on the
    # same diagrams it gives their contraction
    scale = [LaurentPoly.A_power(data.draw(st.integers(-3, 3))) for _ in tiles]
    scaled = [tile.map_coefficients(lambda c, a=a: c * a) for tile, a in zip(tiles, scale)]
    assert glue_network(plan, scaled, D) == reference_glue_network(scaled, bonds, D)


@pytest.mark.parametrize("closing_half", [range(1, 5), range(5, 9)])
def test_glue_network_split_either_half_first(closing_half):
    # an 8-point product tile between two different 4-point states:
    # closing_half bonds to the tile before it, the other half to the tile
    # after.  C is not symmetric, so a transposed C gives a different value.
    us = all_matchings(range(1, 5))
    vs = all_matchings(range(5, 9))
    tile = TLElement({PlanarDiagram(0, 8, u + v): LaurentPoly({i: 1, 4 + j: 2})
                      for i, u in enumerate(us) for j, v in enumerate(vs)})
    before = TLElement({PlanarDiagram(0, 4, [(1, 4), (2, 3)]): 1,
                        PlanarDiagram(0, 4, [(1, 2), (3, 4)]): LaurentPoly.A_power(3)})
    after = TLElement({PlanarDiagram(0, 4, [(1, 3), (2, 4)]): LaurentPoly.A_power(-2),
                       PlanarDiagram(0, 4, [(1, 2), (3, 4)]): 1})
    other_half = [p for p in range(1, 9) if p not in closing_half]
    bonds = [((0, q), (1, p)) for q, p in enumerate(closing_half, 1)]
    bonds += [((1, p), (2, q)) for q, p in enumerate(other_half, 1)]
    first, _, _ = _product_halves(tile.terms, lambda p: p in closing_half, {})
    assert {p for u in first for pr in u for p in pr} == set(closing_half)
    tiles = [before, tile, after]
    assert glue(tiles, bonds, D) == reference_glue_network(tiles, bonds, D)


def test_qutrit_projector_tile_attaches_closing_half_first():
    tile = qudit_space(3).projector_element(EvalPoint.from_level(4))
    low, high = set(range(1, 9)), set(range(9, 17))
    for closing in (low, high):
        us, vs, pairs = _product_halves(tile.terms, lambda p: p in closing, {})
        assert len(us) == len(vs) == 14
        assert {p for u in us for pr in u for p in pr} == closing
        assert sorted(pairs) == list(range(len(tile.terms))) == list(range(196))
    # a qubit projector (2 x 2 terms) is attached whole
    qubit = qudit_space(2).projector_element(EvalPoint.from_level(4))
    assert _product_halves(qubit.terms, lambda p: p > 4, {}) is None


def bottom_label(dg, j):
    """Label of dg's bottom point at left-to-right position j (1-based)."""
    return dg.n_top + dg.n_bottom + 1 - j


def reference_close_trace(element, d):
    """close_trace as it was before it shared glue_network's kernel: walk the
    loops of each diagram joined to its own trace closure."""
    nt = element.shape()[0]
    total = 0
    for dg, c in element.terms.items():
        pair = {a: b for a, b in dg.pairs}
        pair.update({b: a for a, b in dg.pairs})
        closure = {}
        for j in range(1, nt + 1):
            closure[j] = bottom_label(dg, j)
            closure[bottom_label(dg, j)] = j
        visited = set()
        loops = 0
        for p in range(1, 2 * nt + 1):
            if p in visited:
                continue
            loops += 1
            cur = p
            while cur not in visited:
                visited.add(cur)
                nxt = pair[cur]
                visited.add(nxt)
                cur = closure[nxt]
        term = c
        for _ in range(loops):
            term = term * d
        total = total + term
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_close_trace_matches_reference(n):
    basis = tl_basis(n, n)
    for k, dg in enumerate(basis):
        el = TLElement.from_diagram(dg, LaurentPoly({k - 3: k + 1}))
        assert close_trace(el, D) == reference_close_trace(el, D)
    whole = TLElement({dg: LaurentPoly({k % 5 - 2: 1, 3: -k}) for k, dg in enumerate(basis)})
    assert close_trace(whole, D) == reference_close_trace(whole, D)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_glue_network_plain_tiles_match_reference(data):
    # random tiles of 2-8 points with random wiring, in random order
    tiles = []
    for _ in range(data.draw(st.integers(2, 4))):
        n = data.draw(st.sampled_from((2, 4, 6, 8)))
        pairings = data.draw(st.lists(st.sampled_from(all_matchings(range(1, n + 1))),
                                      min_size=1, max_size=3, unique=True))
        tiles.append(TLElement({PlanarDiagram(0, n, m): _laurent(data) for m in pairings}))
    # a ring of three 2-point tiles always closes a loop through three tiles
    ring = len(tiles)
    tiles += [TLElement.from_diagram(PlanarDiagram(0, 2, [(1, 2)]), _laurent(data))
              for _ in range(3)]
    ends = [(t, p) for t in range(ring) for p in range(1, tiles[t].shape()[1] + 1)]
    ends = data.draw(st.permutations(ends))
    # the ends of one arc of the widest tile form a bond within that tile
    wide = max(range(ring), key=lambda t: tiles[t].shape()[1])
    a, b = next(iter(tiles[wide].terms)).pairs[0]
    ends.remove((wide, a))
    ends.remove((wide, b))
    ends = [(wide, a), (wide, b)] + ends
    bonds = [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]
    bonds += [((ring + r, 2), (ring + (r + 1) % 3, 1)) for r in range(3)]
    order = data.draw(st.permutations(range(len(tiles))))
    slot = {t: i for i, t in enumerate(order)}
    tiles = [tiles[t] for t in order]
    bonds = [((slot[t1], p1), (slot[t2], p2)) for (t1, p1), (t2, p2) in bonds]
    assert glue(tiles, bonds, D) == reference_glue_network(tiles, bonds, D)
    assert walk_glue_network(tiles, bonds, D) == reference_glue_network(tiles, bonds, D)


def reference_compose_with(upper, lower):
    """compose_with as it was before it shared glue_network's kernel: walk
    from each boundary point through pair and glue edges, then count the
    closed loops left among the glued points."""
    m = upper.n_bottom
    pair_u = {}
    for a, b in upper.pairs:
        pair_u[("u", a)] = ("u", b)
        pair_u[("u", b)] = ("u", a)
    for a, b in lower.pairs:
        pair_u[("l", a)] = ("l", b)
        pair_u[("l", b)] = ("l", a)
    glue = {}
    for j in range(1, m + 1):
        un = ("u", bottom_label(upper, j))
        ln = ("l", j)
        glue[un] = ln
        glue[ln] = un
    new_nt, new_nb = upper.n_top, lower.n_bottom

    def boundary_new_label(node):
        side, p = node
        if side == "u" and p <= upper.n_top:
            return p
        if side == "l" and p > lower.n_top:
            j = lower.n_top + lower.n_bottom + 1 - p
            return new_nt + new_nb + 1 - j
        return None

    boundary = [n for n in pair_u if boundary_new_label(n) is not None]
    new_pairs = []
    seen = set()
    for start in boundary:
        if start in seen:
            continue
        seen.add(start)
        cur = pair_u[start]
        while boundary_new_label(cur) is None:
            seen.add(cur)
            mate = glue[cur]
            seen.add(mate)
            cur = pair_u[mate]
        seen.add(cur)
        new_pairs.append((boundary_new_label(start), boundary_new_label(cur)))
    loops = 0
    for node in pair_u:
        if node in seen:
            continue
        loops += 1
        cur = node
        while cur not in seen:
            seen.add(cur)
            nxt = pair_u[cur]
            seen.add(nxt)
            cur = glue[nxt]
    return PlanarDiagram(new_nt, new_nb, new_pairs), loops


def _assert_compose_matches_reference(upper, lower):
    dg, loops = upper.compose_with(lower)
    ref, ref_loops = reference_compose_with(upper, lower)
    assert (dg.n_top, dg.n_bottom, dg.pairs, loops) == \
        (ref.n_top, ref.n_bottom, ref.pairs, ref_loops)


def test_compose_with_matches_reference_exhaustively():
    # every pair of matchings, crossings included, for up to 3 points a side
    shapes = 0
    for nt in range(4):
        for m in range(4):
            for nb in range(4):
                if (nt + m) % 2 or (m + nb) % 2:
                    continue
                shapes += 1
                for u in all_matchings(range(1, nt + m + 1)):
                    for v in all_matchings(range(1, m + nb + 1)):
                        _assert_compose_matches_reference(
                            PlanarDiagram(nt, m, u), PlanarDiagram(m, nb, v))
    assert shapes == 16


def _padded(lower, offset, m):
    """lower between offset identity strands on its left and the rest of m on its right."""
    return (PlanarDiagram.identity(offset).tensor(lower)
            .tensor(PlanarDiagram.identity(m - lower.n_top - offset)))


def test_offset_compose_matches_padded_compose_exhaustively():
    # every pair of matchings, crossings included, for up to 3 points a side,
    # glued at every offset
    cases = 0
    for nt in range(4):
        for m in range(4):
            for g in range(m + 1):
                for lb in range(4):
                    if (nt + m) % 2 or (g + lb) % 2:
                        continue
                    for u in all_matchings(range(1, nt + m + 1)):
                        upper = PlanarDiagram(nt, m, u)
                        for v in all_matchings(range(1, g + lb + 1)):
                            lower = PlanarDiagram(g, lb, v)
                            for offset in range(m - g + 1):
                                dg, loops = upper.compose_with(lower, offset)
                                wide = _padded(lower, offset, m)
                                assert (dg, loops) == upper.compose_with(wide)
                                ref, ref_loops = reference_compose_with(upper, wide)
                                assert (dg.n_top, dg.n_bottom, dg.pairs, loops) == \
                                    (ref.n_top, ref.n_bottom, ref.pairs, ref_loops)
                                cases += 1
    assert cases == 936


def test_offset_compose_rejects_offsets_out_of_range():
    upper = PlanarDiagram.identity(3)
    hook = PlanarDiagram.generator(2, 1)
    for offset in (-1, 2, 5):
        with pytest.raises(ValueError):
            upper.compose_with(hook, offset)
        with pytest.raises(ValueError):
            TLElement.from_diagram(upper).compose(TLElement.from_diagram(hook), D, offset)
    with pytest.raises(ValueError):
        PlanarDiagram.identity(1).compose_with(hook)


def _random_matching(data, n):
    points = data.draw(st.permutations(range(1, n + 1)))
    return [(points[i], points[i + 1]) for i in range(0, n, 2)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_compose_with_matches_reference_random(data):
    m = data.draw(st.integers(0, 6))
    nt = data.draw(st.sampled_from([n for n in range(7) if (n + m) % 2 == 0]))
    nb = data.draw(st.sampled_from([n for n in range(7) if (n + m) % 2 == 0]))
    _assert_compose_matches_reference(PlanarDiagram(nt, m, _random_matching(data, nt + m)),
                                      PlanarDiagram(m, nb, _random_matching(data, m + nb)))


@functools.lru_cache
def _noncrossing(n):
    return noncrossing_matchings(range(1, n + 1))


def _drawn_diagram(data, n_top, n_bottom):
    """A diagram on n_top + n_bottom points, its matching noncrossing or crossing."""
    n = n_top + n_bottom
    if data.draw(st.booleans()):
        pairs = data.draw(st.sampled_from(_noncrossing(n)))
    else:
        pairs = _random_matching(data, n)
    return PlanarDiagram(n_top, n_bottom, pairs)


# the most points of a drawn diagram
MOST_POINTS = 16


def _drawn_bottom(data, n_top):
    return data.draw(st.sampled_from(range(n_top % 2, MOST_POINTS - n_top + 1, 2)))


def _drawn_shape(data):
    n_top = data.draw(st.integers(0, MOST_POINTS))
    return n_top, _drawn_bottom(data, n_top)


def _assert_as_checked(dg):
    """dg equals the diagram the checking constructor builds from its pairs
    (given reversed, each pair flipped), with the same pairs and hash, and
    each finds the other as a dict key."""
    ref = PlanarDiagram(dg.n_top, dg.n_bottom, [(b, a) for a, b in reversed(dg.pairs)])
    assert (dg.n_top, dg.n_bottom, dg.pairs) == (ref.n_top, ref.n_bottom, ref.pairs)
    assert dg == ref and hash(dg) == hash(ref)
    assert {ref: 1}[dg] == 1 and {dg: 1}[ref] == 1


# derandomized: the diagrams built without a check are compared with the
# checking constructor on one fixed example set
@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_trusted_builders_match_the_checking_constructor(data):
    nt, m = _drawn_shape(data)
    upper = _drawn_diagram(data, nt, m)
    _assert_as_checked(upper)
    _assert_as_checked(upper.adjoint())
    other = _drawn_diagram(data, *_drawn_shape(data))
    _assert_as_checked(upper.tensor(other))
    _assert_as_checked(other.tensor(upper))
    # every width and offset of a lower diagram that fits under upper
    for g in range(m + 1):
        lower = _drawn_diagram(data, g, _drawn_bottom(data, g))
        for offset in range(m - g + 1):
            dg, _ = upper.compose_with(lower, offset)
            _assert_as_checked(dg)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tile_cells_match_the_checking_constructor(n):
    cells = qudit_space(n).tile_cells
    for dg, (x, y) in cells.items():
        _assert_as_checked(dg)
        assert dg.pairs == x.adjoint().tensor(y).pairs


def reference_inner(a, b, d):
    """TLElement.inner as it was before it counted the loops of two matchings
    directly: compose b with the adjoint of a and read off the coefficient."""
    return b.compose(a.adjoint(), d).scalar()


def _random_state(data, n):
    """A state on n points: one to four matchings, crossings allowed."""
    count = data.draw(st.integers(1, 4))
    return TLElement({PlanarDiagram(0, n, _random_matching(data, n)): _laurent(data)
                      for _ in range(count)})


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_inner_matches_reference(data):
    n = data.draw(st.sampled_from((0, 2, 4, 6, 8, 10)))
    a, b = _random_state(data, n), _random_state(data, n)
    assert a.inner(b, D) == reference_inner(a, b, D)
    assert b.inner(a, D) == reference_inner(b, a, D)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_exact_inner_evaluates_to_numeric_inner(data):
    n = data.draw(st.sampled_from((2, 4, 6, 8, 10)))
    a, b = _random_state(data, n), _random_state(data, n)
    pt = EvalPoint(data.draw(st.floats(-math.pi / 6, math.pi / 6)))
    exact = evaluate(a.inner(b, D), pt)
    numeric = a.evaluate(pt).inner(b.evaluate(pt), complex(pt.d))
    assert cmath.isclose(numeric, exact, rel_tol=1e-12, abs_tol=1e-12)


def test_inner_rejects_different_shapes():
    cups = TLElement.from_diagram(PlanarDiagram.cups(4))
    with pytest.raises(ValueError):
        cups.inner(TLElement.from_diagram(PlanarDiagram.cups(2)), D)
    with pytest.raises(ValueError):
        cups.inner(TLElement.from_diagram(PlanarDiagram.identity(2)), D)
    assert cups.inner(TLElement.zero(), D) == 0
    assert TLElement.zero().inner(cups, D) == 0
