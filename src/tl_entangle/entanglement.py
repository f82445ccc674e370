"""Entanglement measures and SLOCC classification of amplitudes.

Every measure reads one cut's singular values from cut_singular_values: the
flat amplitude list (index order) of a tensor with one axis per party, its
shape and the kept parties give a matrix whose rows run over the kept axes,
and Hestenes' one-sided Jacobi finds its singular values in pure Python
(_singular_values, which the array measures call past the checks they have
made).
Ranks are counted with rank_above, entropies summed with spectrum_entropy,
Tr rho^n is the sum of the n-th powers of the Schmidt weights, three-qubit
classes are named by tripartite_class from the local ranks and the tau3 of
three_tangle_of.  Built once: each cut's index plan (the flat index of
every entry of the vectors the kernel rotates, on the side with fewer of
them, and its pair list) per (dims, keep) in _cut_plan; per call the
kernel gathers the vectors and rotates them.  The array functions
(schmidt_rank, entanglement_entropy, local_ranks, slocc_tripartite_class,
replica_check and the rest) take tensors whose axis order is the party
order of the layout that produced them, read only their shape, dtype, bytes
and flat list, and normalize internally, so raw diagram normalizations only
matter for amplitude output, never for the measures.  They reach the kernel only through _cut, which shares the last
numeric tensor's flat list, singular values per keep and tau3 across calls
(_computed): a set of measures on one tensor runs each distinct cut and tau3
once, and an object array, such as one of Fractions, is never kept.  A
vanishing entropy is 0.0, not -0.0.
The command line calls the kernel, which keeps plans but never results, on
DiagramState.amplitude_list directly.
The replica check's glued side compiles its n-th power ring once per state
(network_plan), replays it per point (glue_network) and divides it by the
n-th power of Tr rho = sum |t|^2 of the tensor it checks.  No measure calls a
BLAS or LAPACK routine; only the ladder indicator imports numpy, for its
six-copy contraction and eigenvalues.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

from .diagrams import as_int, conj_scalar, glue_network, network_plan
from .scalars import InvariantError
from .spaces import qudit_space

# Sweeps of one-sided Jacobi before cut_singular_values gives up.  Jacobi
# converges quadratically once the pairs are nearly orthogonal, so the count
# grows slowly with the cut's size: the corpus's cuts take at most 2, and
# random complex n x n matrices at most 3, 6, 7 and 9 for n = 2, 4, 8, 16.
MAX_JACOBI_SWEEPS = 30


def cut_singular_values(amps, dims, keep):
    """The singular values, largest first, of the flat amplitude list amps
    over dims as a matrix whose rows run over the kept axes and whose columns
    run over the others, each in index order (_flat_offsets).

    Hestenes' one-sided Jacobi on the rows, or on the columns where they are
    fewer: rotate pairs of them until each pair is orthogonal to within
    tol = length * eps of the product of their norms, or has a vector whose
    squared norm is at most tol^2 times the matrix's squared Frobenius norm
    (rounding noise, which a rotation shrinks by about eps but may leave
    parallel to the other vector); their norms are then the singular values.
    (More vectors than their length could never all be orthogonal: the
    rounding noise left of a dependent one would keep rotating.)
    ValueError for an amps whose length is not prod(dims), for a keep that
    does not name distinct axes (_checked_keep) and for a zero tensor, an
    axis of dimension 0 included; InvariantError after MAX_JACOBI_SWEEPS
    sweeps that still rotate.
    """
    if len(amps) != math.prod(dims):
        raise ValueError(f"{len(amps)} amplitudes do not fill dims {tuple(dims)}")
    return _singular_values(amps, tuple(dims), _checked_keep(keep, len(dims)))


def _singular_values(amps, dims, keep):
    """cut_singular_values past its checks, for an amps that fills the tuple
    dims and a keep that _checked_keep has passed; the array measures call
    it directly (_cut)."""
    vectors, pairs = _cut_plan(dims, keep)
    rows = [[amps[k] for k in v] for v in vectors]
    tol = len(rows[0]) * sys.float_info.epsilon
    norms = list(map(_norm_sq, rows))
    noise = tol * tol * _nonzero(sum(norms))
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = False
        for i, j in pairs:
            a, b = norms[i], norms[j]
            if min(a, b) <= noise:
                continue
            x, y = rows[i], rows[j]
            c = sum([u * v.conjugate() for u, v in zip(x, y)])
            if abs(c) <= tol * math.sqrt(a) * math.sqrt(b):
                continue
            # with y's phase turned so that <x, y> = |c|, the real rotation
            # by t = tan(angle) makes the pair orthogonal
            zeta = (b - a) / (2 * abs(c))
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cs = 1 / math.sqrt(1 + t * t)
            sn, phase = cs * t, c / abs(c)
            sp, cp = sn * phase, cs * phase
            rows[i] = [cs * u - sp * v for u, v in zip(x, y)]
            rows[j] = [sn * u + cp * v for u, v in zip(x, y)]
            norms[i], norms[j] = _norm_sq(rows[i]), _norm_sq(rows[j])
            rotated = True
        if not rotated:
            return sorted(map(math.sqrt, norms), reverse=True)
    raise InvariantError(f"one-sided Jacobi did not converge in {MAX_JACOBI_SWEEPS} sweeps")


@functools.lru_cache
def _cut_plan(dims, keep):
    """(vectors, pairs) for _singular_values: the vectors that Jacobi
    rotates are [amps[k] for k in v] for v in vectors, the rows of the cut
    (_flat_offsets of the kept axes and of the rest), or its columns where
    they are fewer, and pairs lists their index pairs in rotation order.
    Built once per (dims, keep), for a keep that _checked_keep has passed:
    the cache's keys cannot check it, since (1,) and (True,), or (0,) and
    (0.0,), are one key.  A ValueError, never kept, for dims that hold no
    amplitude."""
    if not all(dims):
        raise ValueError(f"dims {dims} hold no amplitude: zero tensor has no entanglement data")
    rows = _flat_offsets(dims, keep)
    columns = _flat_offsets(dims, [a for a in range(len(dims)) if a not in keep])
    if len(rows) > len(columns):
        rows, columns = columns, rows
    return (tuple(tuple(o + i for i in columns) for o in rows),
            tuple(itertools.combinations(range(len(rows)), 2)))


def _checked_keep(keep, parties):
    """keep as a tuple of ints; a ValueError unless it names distinct parties
    among 0 .. parties - 1, each a Python or numpy integer (as_int)."""
    keep = tuple(keep)
    ints = []
    for k in keep:
        try:
            k = as_int(k, "a kept party")
        except ValueError as exc:
            raise ValueError(f"keep {keep} does not name parties out of {parties} parties: "
                             f"{exc}") from None
        if not 0 <= k < parties or k in ints:
            raise ValueError(f"keep {keep} does not name distinct parties out of {parties} parties")
        ints.append(k)
    return tuple(ints)


def _flat_offsets(dims, axes):
    """The flat offsets, in index order, of the index tuples over axes of a
    tensor of shape dims whose other indices are 0."""
    offsets = [0]
    for a in axes:
        stride = math.prod(dims[a + 1:])
        offsets = [o + i * stride for o in offsets for i in range(dims[a])]
    return offsets


def _norm_sq(row):
    return sum([z.real * z.real + z.imag * z.imag for z in row])


def _nonzero(norm_sq):
    """norm_sq, a tensor's squared norm; a zero tensor is a ValueError."""
    if norm_sq == 0:
        raise ValueError("zero tensor has no entanglement data")
    return norm_sq


def _unit(amps):
    """The flat amplitude list amps over its norm."""
    norm = math.sqrt(_nonzero(_norm_sq(amps)))
    return [z / norm for z in amps]


def three_tangle_of(amps):
    """Residual tangle 4|d1 - 2 d2 + 4 d3| of a normalized three-qubit state
    given as its 8 amplitudes in index order (000, 001, ..., 111)."""
    p000, p001, p010, p011, p100, p101, p110, p111 = amps
    d1 = (p000 ** 2 * p111 ** 2 + p001 ** 2 * p110 ** 2
          + p010 ** 2 * p101 ** 2 + p100 ** 2 * p011 ** 2)
    d2 = (p000 * p111 * (p011 * p100 + p101 * p010 + p110 * p001)
          + p011 * p100 * p101 * p010
          + p011 * p100 * p110 * p001
          + p101 * p010 * p110 * p001)
    d3 = p000 * p110 * p101 * p011 + p111 * p001 * p010 * p100
    return float(4 * abs(d1 - 2 * d2 + 4 * d3))


def rank_above(sv, tol):
    """Number of singular values (largest first) above tol times the largest."""
    if not sv or sv[0] == 0:
        return 0
    cut = tol * sv[0]
    return len([s for s in sv if s > cut])


def _weights(sv):
    """The Schmidt weights s^2 / sum s^2 of singular values sv, smallest first."""
    total = sum([s * s for s in sv])
    return [s * s / total for s in reversed(sv)]


def spectrum_entropy(sv):
    """Entanglement entropy in nats across a cut from its singular values:
    -sum w ln w over the Schmidt weights w above 1e-14, subtracted from 0.0
    so that a product state's entropy is 0.0, not -0.0."""
    return float(0.0 - sum([w * math.log(w) for w in _weights(sv) if w > 1e-14]))


def tripartite_class(ranks, tau3, tol):
    """One of separable, biseparable(X|YZ), W, GHZ from the local ranks and
    the three-tangle of a normalized three-qubit state."""
    ones = [ax for ax, r in enumerate(ranks) if r == 1]
    if len(ones) == 3:
        return "separable"
    if len(ones) == 1:
        names = ("A", "B", "C")
        ax = ones[0]
        others = "".join(nm for k, nm in enumerate(names) if k != ax)
        return f"biseparable({names[ax]}|{others})"
    return "GHZ" if tau3 > tol else "W"


# The last numeric tensor the array measures were given, as (dtype, shape,
# bytes), and what they computed from it: its flat list under "amps", its
# singular values by keep and its tau3 under "tau3".
_last_tensor = [None, {}]


def _computed(t):
    """The dict of t's flat list, cuts and tau3 computed so far: the last
    tensor's while t has the same dtype, shape and bytes, else a fresh one
    that replaces it.  A tensor without a numeric dtype (an object array's
    bytes are pointers) gets a fresh dict that is never kept."""
    dtype = getattr(t, "dtype", None)
    if dtype is None or dtype.kind not in "biufc":
        return {}
    key = (dtype, tuple(t.shape), t.tobytes())
    if _last_tensor[0] != key:
        _last_tensor[:] = key, {}
    return _last_tensor[1]


def _cut(t, computed, keep):
    """The singular values of the tensor t's cut keep, a keep that
    _checked_keep has passed, run once per keep while computed
    (_computed(t)) is kept.  Only results are kept: a zero tensor raises on
    every call."""
    sv = computed.get(keep)
    if sv is None:
        amps = computed.get("amps")
        if amps is None:
            amps = computed["amps"] = t.reshape(-1).tolist()
        sv = computed[keep] = _singular_values(amps, tuple(t.shape), keep)
    return sv


def _tensor_cut(t, keep):
    """_cut of the tensor t (an array with shape and reshape, such as
    numpy's) at a keep checked here, so a bad keep raises on every call."""
    return _cut(t, _computed(t), _checked_keep(keep, len(t.shape)))


def schmidt_rank(t, keep=None, tol=1e-9):
    """Rank across a bipartition (or of a plain matrix) at relative tolerance."""
    if keep is None:
        if len(t.shape) != 2:
            raise InvariantError("schmidt_rank needs a bipartition for tensors")
        keep = (0,)
    return rank_above(_tensor_cut(t, keep), tol)


def entanglement_entropy(t, keep=(0,)):
    """Entropy in nats of the reduced density of the kept parties."""
    return spectrum_entropy(_tensor_cut(t, keep))


def trace_power(t, n, keep=(0,)):
    """Tr rho^n of the reduced density of the kept parties: the sum of the
    n-th powers of the cut's Schmidt weights."""
    return float(sum(w ** n for w in _weights(_tensor_cut(t, keep))))


def _ring(layout, n, keep):
    """(slots, bonds) of the network whose contraction is Tr of the n-th
    power of the unnormalized reduced density of the kept parties.

    2n copies of the diagram alternate ket/bra around a ring; every interface
    between a ket and a bra passes through the local resolution of identity of
    each glued party, so the contraction happens in the physical spans rather
    than in the ambient pairing space.  Each slot is "ket", "bra" or the
    index of the party whose projector tile it holds; bonds are as
    network_plan takes them.
    """
    nontrivial = [k for k, (_, nk) in enumerate(layout.parties) if nk > 1]
    traced = [k for k in nontrivial if k not in keep]
    kept = [k for k in nontrivial if k in keep]
    order = []
    for r in range(n):
        order.append(("ket", r))
        order += [("pi", r, p, "T") for p in traced]
        order.append(("bra", r))
        order += [("pi", r, p, "K") for p in kept]
    index = {tag: i for i, tag in enumerate(order)}

    bonds = []

    def wire(ket_tile, pi_tile, bra_tile, party):
        o = layout.offsets[party]
        w4 = 4 * (layout.dims[party] - 1)
        for l in range(1, w4 + 1):
            bonds.append(((ket_tile, o + l), (pi_tile, w4 + 1 - l)))
            bonds.append(((pi_tile, w4 + l), (bra_tile, o + l)))

    for r in range(n):
        for p in traced:
            wire(index[("ket", r)], index[("pi", r, p, "T")], index[("bra", r)], p)
        for p in kept:
            wire(index[("ket", (r + 1) % n)], index[("pi", r, p, "K")],
                 index[("bra", r)], p)
    return [tag[2] if tag[0] == "pi" else tag[0] for tag in order], bonds


def _glued_power(state, n, keep, point):
    """Tr of the n-th power of the unnormalized reduced density by gluing
    the ring of _ring.

    The ring's plan (network_plan) is compiled once per (n, kept parties),
    kept in replica_plans, over diagrams that hold those of every point:
    the exact element's for the ket and bra, tile_cells for each projector.
    A call builds the ket and bra coefficients, looks up the point's
    projector tiles, and glue_network replays the plan with them.
    """
    layout = state.layout
    key = (n, frozenset(keep))
    if key not in state.replica_plans:
        slots, bonds = _ring(layout, n, keep)
        sets = [state.element.terms if slot in ("ket", "bra")
                else qudit_space(layout.dims[slot]).tile_cells for slot in slots]
        state.replica_plans[key] = slots, network_plan(sets, bonds)
    slots, plan = state.replica_plans[key]
    ket = state.element.evaluate(point)
    tiles = {"ket": ket, "bra": ket.map_coefficients(conj_scalar)}
    for slot in slots:
        if slot not in tiles:
            tiles[slot] = qudit_space(layout.dims[slot]).projector_element(point)
    return glue_network(plan, [tiles[slot] for slot in slots], complex(point.d))


def replica_check(t, state, point, n, keep=(0,)):
    """Tr rho^n two ways: from the tensor t = state.amplitudes(point) and by
    gluing 2n diagram copies.

    The glued n-th power ring (_glued_power, compiled once per (n, kept
    parties) and replayed on every call) is the unnormalized Tr rho^n, so it
    is divided by (sum |t|^2)^n, Tr rho of t: a t or a tile off by a constant
    factor shows in the difference.  n is read with as_int.  An n outside
    2..4, a keep that does not name distinct parties of the state and a t
    whose shape is not the layout's dims are ValueErrors, raised before any
    contraction.
    """
    n = as_int(n, "a replica order")
    if not 2 <= n <= 4:
        raise ValueError("replica order must be between 2 and 4")
    keep = _checked_keep(keep, len(state.layout.parties))
    if tuple(t.shape) != state.layout.dims:
        raise ValueError(f"tensor of shape {tuple(t.shape)} does not match "
                         f"the state's dims {state.layout.dims}")
    numeric = trace_power(t, n, keep)
    glued = _glued_power(state, n, keep, point) / _norm_sq(t.reshape(-1).tolist()) ** n
    return numeric, complex(glued)


def conversion_probability(t):
    """Chance of converting a two-qubit pure state to the maximally entangled
    one: twice its smaller Schmidt weight."""
    if tuple(t.shape) != (2, 2):
        raise ValueError("conversion probability is defined for qubit pairs")
    return float(2 * min(_weights(_tensor_cut(t, (0,)))))


def three_tangle(t):
    """Residual tangle of a three-qubit pure state (three_tangle_of)."""
    if tuple(t.shape) != (2, 2, 2):
        raise ValueError("three_tangle needs a 2x2x2 tensor")
    computed = _computed(t)
    if "tau3" not in computed:
        computed["tau3"] = three_tangle_of(_unit(computed.get("amps") or t.reshape(-1).tolist()))
    return computed["tau3"]


def local_ranks(t, tol=1e-9):
    """The rank of each party's cut against the rest, in party order."""
    computed = _computed(t)
    return tuple([rank_above(_cut(t, computed, (k,)), tol) for k in range(len(t.shape))])


def slocc_tripartite_class(t, tol=1e-8):
    """One of separable, biseparable(X|YZ), W, GHZ for a three-qubit tensor."""
    if tuple(t.shape) != (2, 2, 2):
        raise ValueError("tripartite classifier needs a 2x2x2 tensor")
    return tripartite_class(local_ranks(t, tol), three_tangle(t), tol)


def ladder_operator(t, party=0):
    """Six-copy ladder contraction on the doubled space of one party.

    With the chosen party moved to the first axis, copies 1..6 alternate
    psi, conj(psi) around a ring.  First-axis bonds join copies (3,4); second
    axis joins (1,2),(3,4),(5,6); third axis joins (2,3),(4,5),(6,1).  The
    four remaining first-axis indices are grouped as rows (copies 1,6) and
    columns (copies 2,5).  Returns (L, asymmetry): L is trace-normalized and
    symmetrized, asymmetry is the Frobenius norm dropped by symmetrization.
    """
    import numpy as np

    if len(t.shape) != 3:
        raise ValueError("ladder indicator needs a tripartite tensor")
    psi = np.array(_unit(t.reshape(-1).tolist())).reshape(t.shape)
    psi = np.moveaxis(psi, party, 0)
    c = np.conj(psi)
    lhat = np.einsum("ibc,jbg,keg,keh,lfh,mfc->imjl", psi, c, psi, c, psi, c)
    q = psi.shape[0]
    lhat = lhat.reshape(q * q, q * q)
    tr = np.trace(lhat)
    if abs(tr) < 1e-14:
        raise InvariantError("ladder operator is traceless; indicator undefined")
    lhat = lhat / tr
    asym = float(np.linalg.norm(lhat - lhat.conj().T))
    return (lhat + lhat.conj().T) / 2, asym


def ladder_indicator(t, party=0):
    """Entropy of the positive part of the normalized ladder operator."""
    import numpy as np

    L, _ = ladder_operator(t, party)
    ev = np.linalg.eigvalsh(L)
    ev = ev[ev > 1e-14]
    ev = ev / ev.sum()
    # subtracted from 0.0, so that a rank-one ladder gives 0.0, not -0.0
    return float(0.0 - (ev * np.log(ev)).sum())


def min_ladder_indicator(t):
    """Minimum of the ladder indicator over the three party choices.

    Vanishes on every product and biseparable tensor (whichever party is
    unentangled gives a rank-one ladder), stays positive on genuinely
    tripartite-entangled states.
    """
    return min(ladder_indicator(t, party=p) for p in range(3))
