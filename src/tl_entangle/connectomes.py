"""Party-level adjacency matrices of wirings and their entanglement classes.

A connectome forgets everything about a diagram except how many lines run
between each pair of parties (off-diagonal entries) and how many endpoints
each party uses up internally (even diagonal entries).  Row sums equal the
per-party endpoint count: 4 endpoints for qubit parties, 4(n-1) for
dimension-n parties.
"""

from __future__ import annotations

import itertools
import json

from .diagrams import as_int, charge
from .skein import word_from_pairing
from .spaces import DiagramState, PartyLayout

_NAMES = "ABCDEFGH"


class Connectome:
    def __init__(self, adj, punctures=None):
        adj = tuple(tuple(as_int(v, "a line count") for v in row) for row in adj)
        m = len(adj)
        if m < 1:
            raise ValueError("need at least one party")
        if any(len(row) != m for row in adj):
            raise ValueError("adjacency matrix must be square")
        if any(adj[i][j] != adj[j][i] for i in range(m) for j in range(m)):
            raise ValueError("adjacency matrix must be symmetric")
        if any(v < 0 for row in adj for v in row):
            raise ValueError("line counts cannot be negative")
        if any(adj[i][i] % 2 for i in range(m)):
            raise ValueError("diagonal endpoint counts must be even")
        sums = [sum(row) for row in adj]
        punctures = sums[0] if punctures is None else as_int(punctures, "punctures")
        if punctures % 2:
            raise ValueError("punctures per party must be even")
        if any(s != punctures for s in sums):
            raise ValueError(f"row sums must all equal {punctures}")
        self.adj = adj
        self.m = m
        self.punctures = punctures

    def __eq__(self, other):
        return (isinstance(other, Connectome)
                and self.adj == other.adj and self.punctures == other.punctures)

    def __hash__(self):
        return hash((self.adj, self.punctures))

    def __repr__(self):
        return f"Connectome({[list(r) for r in self.adj]})"

    def canonical(self):
        best = min(tuple(tuple(self.adj[p[i]][p[j]] for j in range(self.m))
                         for i in range(self.m))
                   for p in itertools.permutations(range(self.m)))
        return Connectome(best, self.punctures)

    def to_json(self):
        return json.dumps({"parties": self.m, "punctures": self.punctures,
                           "adj": [list(r) for r in self.adj]})

    @classmethod
    def from_json(cls, text):
        """The connectome of a JSON document: rows of integers, bare or under
        "adj" of an object whose "punctures" and "parties" are integers.  A
        document of another shape is a TypeError, text that is no JSON a
        json.JSONDecodeError, and rows that make no connectome a ValueError."""
        data = json.loads(text)
        fields = data if isinstance(data, dict) else {"adj": data}
        rows = fields.get("adj")
        table = isinstance(rows, list) and all(isinstance(row, list) for row in rows)
        values = [x for row in rows for x in row] if table else [None]
        values += [fields[k] for k in ("punctures", "parties") if k in fields]
        if not all(type(x) is int for x in values):
            raise TypeError('must be a list of rows of integers, or an object with such '
                            'rows under "adj" and integer "punctures" and "parties"')
        c = cls(rows, fields.get("punctures"))
        if fields.get("parties", c.m) != c.m:
            raise ValueError("party count disagrees with adjacency size")
        return c


def enumerate_connectomes(m, punctures=4):
    """All connectomes on m parties up to party relabeling, in canonical order."""
    if m < 1:
        raise ValueError("need at least one party")
    if punctures < 0:
        raise ValueError("punctures per party cannot be negative")
    if punctures % 2:
        raise ValueError("punctures per party must be even")
    found = set()
    adj = [[0] * m for _ in range(m)]
    remaining = [punctures] * m

    def fill_row(i, j, rem):
        if j == m:
            if rem >= 0 and rem % 2 == 0:
                adj[i][i] = rem
                next_row(i + 1)
                adj[i][i] = 0
            return
        for v in range(min(rem, remaining[j]) + 1):
            adj[i][j] = adj[j][i] = v
            remaining[j] -= v
            fill_row(i, j + 1, rem - v)
            remaining[j] += v
            adj[i][j] = adj[j][i] = 0

    def next_row(i):
        if i == m:
            found.add(Connectome(adj, punctures).canonical())
            return
        fill_row(i, i + 1, remaining[i])

    next_row(0)
    return sorted(found, key=lambda c: c.adj)


def _crossing_count(adj, inside):
    m = len(adj)
    return sum(adj[i][j] for i in inside for j in range(m) if j not in inside)


def reduce_connectome(c):
    """Cut every bipartition crossed by two lines and rejoin the loose ends.

    A pair of lines crossing a cut can be slid off through the completeness
    relation on the two-strand space, so both sides close up independently.
    Repeats until every bipartition is crossed by zero or at least four lines.
    A pass scans the rows of the parties inside each of the 2^(m-1) sides
    that hold party 0, m * 2^(m-2) rows, charged before the sides are listed.
    """
    adj = [list(row) for row in c.adj]
    m = c.m
    charge(0, m * 2 ** m // 4, f"reducing {m} parties")
    subsets = [s for size in range(1, m)
               for s in itertools.combinations(range(m), size) if 0 in s]
    changed = True
    while changed:
        changed = False
        for s in subsets:
            inside = set(s)
            if _crossing_count(adj, inside) != 2:
                continue
            ends_in, ends_out = [], []
            for i in inside:
                for j in range(m):
                    if j not in inside and adj[i][j]:
                        ends_in += [i] * adj[i][j]
                        ends_out += [j] * adj[i][j]
                        adj[i][j] = adj[j][i] = 0
            for pair in (ends_in, ends_out):
                a, b = pair
                if a == b:
                    adj[a][a] += 2
                else:
                    adj[a][b] += 1
                    adj[b][a] += 1
            changed = True
            break
    return Connectome(adj, c.punctures)


def components(c):
    """Connected components of the party graph, ignoring internal arcs."""
    parent = list(range(c.m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(c.m):
        for j in range(i + 1, c.m):
            if c.adj[i][j]:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(c.m):
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(g) for g in groups.values())


_BLOCK_LABELS = {1: "unentangled", 2: "Bell", 3: "GHZ"}


def classify(c):
    """Blocks of parties that stay entangled after reduction, with labels."""
    return label_blocks(reduce_connectome(c))


def label_blocks(red):
    """The blocks of a reduced connectome's party graph, with labels."""
    return [(block, _BLOCK_LABELS.get(len(block), f"{len(block)}-party block"))
            for block in components(red)]


def class_signature(c):
    """Canonical reduced adjacency; equal signatures mean one entanglement class."""
    return reduce_connectome(c).canonical().adj


def is_biseparable(c):
    return len(components(reduce_connectome(c))) > 1


def _party_slots(c):
    """Clockwise endpoint usage per party block.

    Within a block: bundles to other parties ordered by decreasing cyclic
    distance, with internal arcs just before the nearest-clockwise bundle.
    Internal arcs follow the spin-zero pattern (adjacent nested halves), so a
    fully self-paired party carries the maximal d factor.
    """
    m = c.m
    p = c.punctures
    pairs = []
    cursors = [i * p for i in range(m)]  # next free slot per party, 0-based

    def take(i, count):
        out = list(range(cursors[i] + 1, cursors[i] + count + 1))
        cursors[i] += count
        return out

    def self_arcs(i, count):
        slots = take(i, count)
        if count == p:
            half = count // 2
            quarters = [slots[:half], slots[half:]]
            for q in quarters:
                for t in range(len(q) // 2):
                    pairs.append((q[t], q[len(q) - 1 - t]))
        else:
            for t in range(0, count, 2):
                pairs.append((slots[t], slots[t + 1]))

    bundle_slots = {}
    for i in range(m):
        partners = sorted((j for j in range(m) if j != i and c.adj[i][j]),
                          key=lambda j: -((j - i) % m))
        placed_self = False
        for j in partners:
            if not placed_self and (j - i) % m == 1 and c.adj[i][i]:
                self_arcs(i, c.adj[i][i])
                placed_self = True
            bundle_slots[i, j] = take(i, c.adj[i][j])
        if not placed_self and c.adj[i][i]:
            self_arcs(i, c.adj[i][i])

    for i in range(m):
        for j in range(i + 1, m):
            if c.adj[i][j]:
                for a, b in zip(bundle_slots[i, j], reversed(bundle_slots[j, i])):
                    pairs.append((a, b))
    return sorted(tuple(sorted(pr)) for pr in pairs)


def party_names(m):
    """The names of m parties in representative_state's layout."""
    return [_NAMES[i] if i < len(_NAMES) else f"P{i}" for i in range(m)]


def representative_state(c):
    """Canonical diagram state wiring the connectome's line counts.

    Parties sit in cyclic order; bundles run as parallel nested lines.
    Wirings that cannot avoid crossings (distant parties both bridged at
    four or more points) are built as a slice word in which every
    interleaved pair of lines meets at one under-crossing, expanded by
    skein's crossing rule.
    """
    if c.punctures % 4:
        raise ValueError("default layout needs punctures divisible by 4")
    dim = c.punctures // 4 + 1
    layout = PartyLayout(tuple((nm, dim) for nm in party_names(c.m)))
    word = word_from_pairing(_party_slots(c), c.m * c.punctures)
    return DiagramState(word.to_element(), layout)
