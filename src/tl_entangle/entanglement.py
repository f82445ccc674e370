"""Entanglement measures and SLOCC classification of amplitudes.

The measures come in two forms.  The array functions (schmidt_rank,
entanglement_entropy, local_ranks, slocc_tripartite_class, replica_check and
the rest) take tensors with one axis per party (axis order = party order of
the layout that produced them) and normalize internally, so raw diagram
normalizations only matter for amplitude output, never for the measures.
They import numpy when called, for SVDs and eigenvalues, except the replica
check: trace_power multiplies the kept block's Gram matrix in pure Python,
and the glued side compiles its network once per state (network_plan) and
replays it per point (glue_network), so no BLAS or LAPACK routine runs.

The list form reads the flat amplitude list of DiagramState.amplitude_list
in pure Python: party_singular_values finds a cut's singular values by
one-sided Jacobi (a party has at most four levels on the command line, so
each cut is a matrix with at most four rows), and three_tangle_of reads tau3
off eight amplitudes; the command line reads only this form.  Both forms
count ranks with rank_above, sum entropies with _entropy, name three-qubit
classes with tripartite_class and take tau3 from three_tangle_of: they
differ only in how they get the singular values.
"""

from __future__ import annotations

import itertools
import math
import sys

from .diagrams import conj_scalar, glue_network, network_plan
from .scalars import InvariantError
from .spaces import qudit_space

# Sweeps of one-sided Jacobi before party_singular_values gives up; rows of
# at most four levels take a few.
MAX_JACOBI_SWEEPS = 30


def party_singular_values(amps, dims, k):
    """The min(dims[k], len(amps) // dims[k]) singular values, largest first,
    of the flat amplitude list amps over dims with party k's index as the row.

    Hestenes' one-sided Jacobi on the rows, or on the columns where they are
    fewer: rotate pairs of them until each pair is orthogonal to within
    tol = length * eps of the product of their norms, or has a vector whose
    squared norm is at most tol^2 times the matrix's squared Frobenius norm
    (rounding noise, which a rotation shrinks by about eps but may leave
    parallel to the other vector); their norms are then the singular values.
    (More vectors than their length could never all be orthogonal: the
    rounding noise left of a dependent one would keep rotating.)
    InvariantError after MAX_JACOBI_SWEEPS sweeps that still rotate.
    """
    inner = math.prod(dims[k + 1:])
    block = dims[k] * inner
    rows = [[amps[s + i * inner + b] for s in range(0, len(amps), block) for b in range(inner)]
            for i in range(dims[k])]
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]
    tol = len(rows[0]) * sys.float_info.epsilon
    noise = tol * tol * sum(map(_norm_sq, rows))
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = False
        for i, j in itertools.combinations(range(len(rows)), 2):
            x, y = rows[i], rows[j]
            a, b = _norm_sq(x), _norm_sq(y)
            c = sum(u * v.conjugate() for u, v in zip(x, y))
            if min(a, b) <= noise or abs(c) <= tol * math.sqrt(a) * math.sqrt(b):
                continue
            # with y's phase turned so that <x, y> = |c|, the real rotation
            # by t = tan(angle) makes the pair orthogonal
            zeta = (b - a) / (2 * abs(c))
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cs = 1 / math.sqrt(1 + t * t)
            sn, phase = cs * t, c / abs(c)
            rows[i] = [cs * u - sn * phase * v for u, v in zip(x, y)]
            rows[j] = [sn * u + cs * phase * v for u, v in zip(x, y)]
            rotated = True
        if not rotated:
            return sorted((math.sqrt(_norm_sq(row)) for row in rows), reverse=True)
    raise InvariantError(f"one-sided Jacobi did not converge in {MAX_JACOBI_SWEEPS} sweeps")


def _norm_sq(row):
    return sum(z.real * z.real + z.imag * z.imag for z in row)


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
    return sum(1 for s in sv if s > tol * sv[0])


def _entropy(weights):
    """-sum w ln w in nats over the weights above 1e-14."""
    return float(-sum(w * math.log(w) for w in weights if w > 1e-14))


def spectrum_entropy(sv):
    """Entanglement entropy across a cut from its singular values."""
    total = sum(s * s for s in sv)
    return _entropy([s * s / total for s in reversed(sv)])


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


def _normalized(t):
    import numpy as np

    t = np.asarray(t, dtype=complex)
    nrm = np.linalg.norm(t)
    if nrm == 0:
        raise ValueError("zero tensor has no entanglement data")
    return t / nrm


def _matricized(t, keep):
    """t as a matrix whose rows run over the kept axes."""
    keep = tuple(keep)
    rest = [a for a in range(t.ndim) if a not in keep]
    return t.transpose(list(keep) + rest).reshape(math.prod(t.shape[a] for a in keep), -1)


def reduced_density(t, keep=(0,)):
    """Density matrix of the kept parties, traced over the rest."""
    tt = _matricized(_normalized(t), keep)
    return tt @ tt.conj().T


def schmidt_rank(t, keep=None, tol=1e-9):
    """Rank across a bipartition (or of a plain matrix) at relative tolerance."""
    import numpy as np

    t = np.asarray(t, dtype=complex)
    if keep is None and t.ndim != 2:
        raise InvariantError("schmidt_rank needs a bipartition for tensors")
    m = t if keep is None else _matricized(t, keep)
    return rank_above(np.linalg.svd(m, compute_uv=False).tolist(), tol)


def von_neumann_entropy(rho):
    """Entropy in nats of a density matrix (normalized to unit trace first)."""
    import numpy as np

    rho = np.asarray(rho, dtype=complex)
    tr = np.trace(rho).real
    if tr <= 0:
        raise ValueError("density matrix with nonpositive trace")
    return _entropy(np.linalg.eigvalsh(rho / tr).tolist())


def entanglement_entropy(t, keep=(0,)):
    return von_neumann_entropy(reduced_density(t, keep))


def trace_power(t, n, keep=(0,)):
    """Tr rho^n of the reduced density matrix of the kept parties, from the
    amplitude tensor t (an array with shape and tolist, such as numpy's).

    rho is the Gram matrix of the rows of t's matrix over the kept axes
    (_matricized), over its trace; where the columns are fewer their Gram
    matrix is taken instead, which has the same nonzero spectrum.  The
    power is taken by matrix products in pure Python, so no BLAS or LAPACK
    routine runs.
    """
    dims = tuple(t.shape)
    amps = t.reshape(-1).tolist()
    columns = _flat_offsets(dims, [a for a in range(len(dims)) if a not in keep])
    rows = [[amps[r + c] for c in columns] for r in _flat_offsets(dims, keep)]
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]
    gram = [[sum(x * y.conjugate() for x, y in zip(a, b)) for b in rows] for a in rows]
    total = sum(gram[i][i] for i in range(len(gram))).real
    if total == 0:
        raise ValueError("zero tensor has no entanglement data")
    rho = [[z / total for z in row] for row in gram]
    power = rho
    for _ in range(n - 1):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*rho)] for row in power]
    return float(sum(power[i][i] for i in range(len(power))).real)


def _flat_offsets(dims, axes):
    """The flat offsets, in index order, of the index tuples over axes of a
    tensor of shape dims whose other indices are 0."""
    strides = [math.prod(dims[a + 1:]) for a in axes]
    return [sum(i * s for i, s in zip(index, strides))
            for index in itertools.product(*(range(dims[a]) for a in axes))]


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

    The ring's plan (network_plan) is kept on the state per (n, kept
    parties), in replica_plans, and is never keyed by point: each call
    builds only the ket and bra coefficients and looks up the projector
    tiles of the point, and glue_network replays the plan with them.  Where
    a tile has a diagram the plan lacks (a coefficient that was exactly 0
    where the plan was compiled), the plan is compiled again over the union
    of the diagrams seen, so it only grows.
    """
    layout = state.layout
    ket = state.element.evaluate(point)
    tiles = {"ket": ket, "bra": ket.map_coefficients(conj_scalar)}
    key = (n, frozenset(keep))
    slots, plan = state.replica_plans.get(key, (None, None))
    bonds = None
    if slots is None:
        slots, bonds = _ring(layout, n, keep)
    for slot in slots:
        if slot not in tiles:
            tiles[slot] = qudit_space(layout.dims[slot]).projector_element(point)
    ring = [tiles[slot] for slot in slots]
    if plan is None or not plan.covers(ring):
        plan = network_plan(ring, bonds or _ring(layout, n, keep)[1], plan)
        state.replica_plans[key] = slots, plan
    return glue_network(plan, ring, complex(point.d))


def replica_check(t, state, point, n, keep=(0,)):
    """Tr rho^n two ways: from the tensor and by gluing 2n diagram copies.

    The n = 1 contraction that normalizes the glued value is kept on the
    state, per kept parties and point (DiagramState.replica_norms); the n-th
    power network is compiled once per (n, kept parties) and replayed on
    every call (_glued_power).  A keep that does not name distinct parties
    of the state is a ValueError, raised before any contraction.
    """
    if not 2 <= n <= 4:
        raise ValueError("replica order must be between 2 and 4")
    parties = len(state.layout.parties)
    if len(set(keep)) != len(keep) or not all(0 <= k < parties for k in keep):
        raise ValueError(f"keep {tuple(keep)} does not name distinct parties "
                         f"of a state with {parties} parties")
    numeric = trace_power(t, n, keep)
    norm = state.replica_norms.get((frozenset(keep), point),
                                   lambda: _glued_power(state, 1, keep, point))
    glued = _glued_power(state, n, keep, point) / norm ** n
    return numeric, complex(glued)


def conversion_probability(t):
    """Chance of converting a two-qubit pure state to the maximally entangled one."""
    import numpy as np

    t = _normalized(t)
    if t.shape != (2, 2):
        raise ValueError("conversion probability is defined for qubit pairs")
    sv = np.linalg.svd(t, compute_uv=False)
    p = sv ** 2
    return float(2 * min(p[0], p[1]))


def three_tangle(t):
    """Residual tangle of a three-qubit pure state (three_tangle_of)."""
    p = _normalized(t)
    if p.shape != (2, 2, 2):
        raise ValueError("three_tangle needs a 2x2x2 tensor")
    return three_tangle_of(p.ravel().tolist())


def local_ranks(t, tol=1e-9):
    import numpy as np

    return tuple(schmidt_rank(t, keep=(ax,), tol=tol) for ax in range(np.ndim(t)))


def slocc_tripartite_class(t, tol=1e-8):
    """One of separable, biseparable(X|YZ), W, GHZ for a three-qubit tensor."""
    t = _normalized(t)
    if t.shape != (2, 2, 2):
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

    psi = _normalized(t)
    if psi.ndim != 3:
        raise ValueError("ladder indicator needs a tripartite tensor")
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
    return float(-(ev * np.log(ev)).sum())


def min_ladder_indicator(t):
    """Minimum of the ladder indicator over the three party choices.

    Vanishes on every product and biseparable tensor (whichever party is
    unentangled gives a rank-one ladder), stays positive on genuinely
    tripartite-entangled states.
    """
    return min(ladder_indicator(t, party=p) for p in range(3))
