"""Known answers and invariants that every benchmark op is checked against.

The closed forms are those of the acceptance criteria (crit 03 maxent and
chained, crit 05 the seven tripartite wirings, crit 08 quasi-W, crit 09 the
qutrit Schmidt ranks, crit 10 the connectome counts, crit 11 the SU(2)
tables, crit 12 the replica tolerance).  The measures are computed here
from the closed-form tensors, independently of tl_entangle.  Each check
returns None when the op passed and a short message when it failed.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction

import numpy as np

from workloads import CONNECTOMES, QUTRIT_STATES, TRIPARTITE

AMP_TOL = 1e-8
REPLICA_TOL = 1e-8
RANK_TOL = 1e-8
QUASIW_ZERO = 0.0945866  # theta / pi where the quasi-W three-tangle vanishes

# Block structure of each input connectome, as printed by `connectome classify`.
CONNECTOME_CLASSES = dict(zip(CONNECTOMES, (
    (((0, 2), "Bell"), ((1,), "unentangled")),
    (((0, 2), "Bell"), ((1,), "unentangled")),
    (((0, 1, 2), "GHZ"),),
    (((0,), "unentangled"), ((1,), "unentangled"), ((2,), "unentangled")),
    (((0,), "unentangled"), ((1,), "unentangled"), ((2,), "unentangled")),
    (((0,), "unentangled"), ((1,), "unentangled"), ((2,), "unentangled")),
    (((0,), "unentangled"), ((1,), "unentangled"), ((2,), "unentangled")),
    (((0, 3), "Bell"), ((1, 2), "Bell")),
    (((0, 3), "Bell"), ((1,), "unentangled"), ((2,), "unentangled")),
    (((0, 3), "Bell"), ((1,), "unentangled"), ((2,), "unentangled")),
    (((0, 1, 2, 3), "4-party block"),),
    (((0, 2, 3), "GHZ"), ((1,), "unentangled")),
    (((0, 2, 3), "GHZ"), ((1,), "unentangled")),
    (((0, 1, 2, 3), "4-party block"),),
    (((0, 3), "Bell"), ((1,), "unentangled"), ((2,), "unentangled")),
    (((0,), "unentangled"), ((1,), "unentangled"), ((2,), "unentangled"),
     ((3,), "unentangled")),
    (((0,), "unentangled"), ((1,), "unentangled"), ((2,), "unentangled"),
     ((3,), "unentangled")),
)))
CONNECTOME_COUNTS = {2: 3, 3: 7, 4: 20}
# Terms of the exact expansion printed by `reduce --mode exact`.
REDUCE_TERMS = {"chained": 4, "quasiw": 5}
TRIPARTITE_CLASS = {1: "separable", 2: "separable", 3: "separable", 4: "separable",
                    5: "biseparable(B|AC)", 6: "biseparable(B|AC)", 7: "GHZ"}
# Brackets as Laurent polynomials {exponent of A: coefficient}.
BRACKETS = {"hopf": {6: 1, 2: 1, -2: 1, -6: 1},
            "trefoil": {7: 1, 3: 1, -1: 1, -9: -1}}


# ---------------------------------------------------------------------------
# closed forms

def closed_form(state, theta):
    """Amplitude tensor of a qubit corpus state at theta, or None if unknown."""
    A = cmath.exp(1j * theta)
    d = -2.0 * math.cos(2.0 * theta)
    s = math.sqrt(d * d - 1)
    t = np.zeros((2, 2, 2), complex)
    if state == "maxent":
        return np.eye(2, dtype=complex)
    if state == "chained":
        a4 = A ** 4
        return np.diag([(a4 + 1 / a4) ** 2, (1 - 1 / a4) ** 2])
    if state == "two_qubit_product":
        return np.array([[d * d, 0], [0, 0]], complex)
    if state == "two_qubit_two_lines":
        return np.array([[d, 0], [0, 0]], complex)
    if state == "quasiw":
        return _quasiw(A)
    if state not in TRIPARTITE:
        return None
    key = int(state.rsplit("_", 1)[1])
    if key in (1, 2, 3):
        t[0, 0, 0] = d ** (4 - key)
    elif key == 4:
        v = np.array([1.0, s])
        t = np.einsum("i,j,k->ijk", v, v, v) / d ** 2
    elif key == 5:
        t[0, 0, 0] = t[1, 0, 1] = d
    elif key == 6:
        t[0, 0, 0] = t[1, 0, 1] = 1 / d
        t[0, 1, 0] = t[1, 1, 1] = s / d
    else:
        t[0, 0, 0] = 1
        t[1, 1, 1] = 1 / s
    return t


def _quasiw(A):
    s = cmath.sqrt((-A ** 2 - A ** -2) ** 2 - 1)
    psi = np.zeros((2, 2, 2), complex)
    psi[0, 0, 0] = (A ** 12 + A ** 4 - 1) / (A ** 12 * (A ** 4 + 1) ** 2)
    psi[1, 1, 1] = -(1 + A ** 4 * (A ** 8 + 1)
                     * (A ** 20 - 3 * A ** 16 + A ** 8 - 3 * A ** 4 - 1)) \
        / (A ** 12 * (A ** 4 + 1) ** 2 * s)
    c001 = s * (A ** 8 - A ** 4 + 1) / (A ** 4 + 1) ** 2
    c011 = (-A ** 16 + 2 * A ** 12 + A ** 4 + 1) / (A ** 4 + 1) ** 2
    psi[0, 0, 1] = psi[0, 1, 0] = psi[1, 0, 0] = c001
    psi[0, 1, 1] = psi[1, 0, 1] = psi[1, 1, 0] = c011
    return psi


# ---------------------------------------------------------------------------
# measures on tensors

def _unit(t):
    t = np.asarray(t, complex)
    return t / np.linalg.norm(t)


def _matricize(t, axis):
    return np.moveaxis(t, axis, 0).reshape(t.shape[axis], -1)


def entropy(t, axis=0):
    sv = np.linalg.svd(_matricize(_unit(t), axis), compute_uv=False)
    p = sv ** 2
    p = p[p > 1e-14]
    return float(-(p * np.log(p)).sum())


def rank(t, axis=0, tol=RANK_TOL):
    sv = np.linalg.svd(_matricize(np.asarray(t, complex), axis), compute_uv=False)
    return int(np.sum(sv > tol * sv[0]))


def tau3(t):
    """Three-tangle 4|Det| with Det the Cayley hyperdeterminant."""
    a = _unit(t)
    a000, a001, a010, a011 = a[0, 0, 0], a[0, 0, 1], a[0, 1, 0], a[0, 1, 1]
    a100, a101, a110, a111 = a[1, 0, 0], a[1, 0, 1], a[1, 1, 0], a[1, 1, 1]
    det = (a000 ** 2 * a111 ** 2 + a001 ** 2 * a110 ** 2
           + a010 ** 2 * a101 ** 2 + a100 ** 2 * a011 ** 2
           - 2 * (a000 * a001 * a110 * a111 + a000 * a010 * a101 * a111
                  + a000 * a100 * a011 * a111 + a001 * a010 * a101 * a110
                  + a001 * a100 * a011 * a110 + a010 * a100 * a011 * a101)
           + 4 * (a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111))
    return float(4 * abs(det))


def slocc_class(t, tol):
    """separable / biseparable(X|YZ) / W / GHZ, axis names A, B, C."""
    ones = [ax for ax in range(3) if rank(t, ax, tol) == 1]
    if len(ones) == 3:
        return "separable"
    if len(ones) == 1:
        names = "ABC"
        return f"biseparable({names[ones[0]]}|{names.replace(names[ones[0]], '')})"
    return "GHZ" if tau3(t) > tol else "W"


def expected_class(state, t, tol=1e-8):
    """The class at this angle, or None where it sits too close to a change."""
    if state in TRIPARTITE:
        return TRIPARTITE_CLASS[int(state.rsplit("_", 1)[1])]
    loose, strict = slocc_class(t, tol * 1e3), slocc_class(t, tol * 1e-3)
    return loose if loose == strict else None


def _close(actual, expected, tol=AMP_TOL):
    expected = np.asarray(expected)
    scale = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(np.asarray(actual) - expected))) < tol * scale


# ---------------------------------------------------------------------------
# in-process workloads

def check_theta_op(op, out):
    """out: amplitudes, ranks, entropy, and for three qubits tau3 and class."""
    state, theta = op["state"], op["theta"]
    amp = out["amplitudes"]
    dim = amp.shape[0]
    if not -1e-12 <= out["entropy"] <= math.log(dim) + 1e-12:
        return f"{state}: entropy {out['entropy']} outside [0, log {dim}]"
    if state in QUTRIT_STATES:
        j = int(state[-1])
        if tuple(out["ranks"]) != (j, j) or rank(amp) != j:
            return f"{state}: ranks {out['ranks']}, want {j}"
        return None
    expect = closed_form(state, theta)
    if not _close(amp, expect):
        return f"{state}: amplitudes differ from the closed form at theta={theta!r}"
    if abs(out["entropy"] - entropy(expect)) > AMP_TOL:
        return f"{state}: entropy {out['entropy']} != {entropy(expect)}"
    if state not in ("chained", "quasiw"):
        want = tuple(rank(expect, ax) for ax in range(expect.ndim))
        if tuple(out["ranks"]) != want:
            return f"{state}: local ranks {out['ranks']}, want {want}"
    if expect.ndim == 3:
        if abs(out["tau3"] - tau3(expect)) > AMP_TOL:
            return f"{state}: tau3 {out['tau3']} != {tau3(expect)}"
        want = expected_class(state, expect)
        if want is not None and out["class"] != want:
            return f"{state}: class {out['class']}, want {want}"
    return None


def check_replica_op(op, out):
    numeric, glued = out
    if not abs(numeric - glued) < REPLICA_TOL:
        return (f"{op['state']} n={op['n']} k={op['k']}: "
                f"numeric {numeric!r} vs glued {glued!r}")
    return None


# ---------------------------------------------------------------------------
# CLI outputs

def _amp_tensor(entries, shape):
    t = np.zeros(shape, complex)
    for e in entries:
        t[tuple(e["index"])] = complex(e["re"], e["im"])
    return t


def _laurent(text):
    """Parse the printed integer Laurent polynomial, e.g. 'A^7 + A^3 - A^-9'."""
    out = {}
    for sign, coeff, power, const in re.findall(
            r"([+-]?)\s*(?:(\d+)\*)?(?:A\^(-?\d+)|(\d+))", text.replace(" ", "")):
        c = int(const or coeff or 1) * (-1 if sign == "-" else 1)
        e = 0 if const else int(power)
        out[e] = out.get(e, 0) + c
    return out


def check_cli_op(op, stdout):
    """Check one CLI invocation's stdout against the known answers."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    argv = op["argv"]
    cmd = argv[0]
    if cmd in ("state", "classify", "entropy", "tangle3"):
        return _check_state_cmd(cmd, op, data)
    if cmd == "scan-tangle3":
        return _check_scan(data)
    if cmd == "bracket":
        if _laurent(data["value"]) != BRACKETS[argv[1]]:
            return f"bracket {argv[1]} = {data['value']}"
        return None
    if cmd == "reduce":
        return _check_reduce(argv[1], data)
    if cmd == "connectome":
        return _check_connectome(argv, data)
    if cmd == "rep":
        return _check_rep(argv[3], data)
    return f"unknown command {cmd}"


def _check_state_cmd(cmd, op, data):
    state, theta = op["state"], op["theta"]
    expect = closed_form(state, theta)
    if cmd == "state":
        shape = tuple(p["dim"] for p in data["parties"])
        amp = _amp_tensor(data["amplitudes"], shape)
        if expect is not None:
            return None if _close(amp, expect) else f"state {state} amplitudes"
        j = int(state[-1])
        return None if rank(amp) == j else f"state {state}: rank {rank(amp)}, want {j}"
    if state in QUTRIT_STATES:
        j = int(state[-1])
        ent = data["entropy"]
        if data["schmidt_rank"] != j or not 0 <= ent <= math.log(3) + AMP_TOL:
            return f"{cmd} {state}: rank {data['schmidt_rank']} entropy {ent}"
        return None
    if cmd == "tangle3":
        return None if abs(data["tau3"] - tau3(expect)) < AMP_TOL \
            else f"tangle3 {state}: {data['tau3']} != {tau3(expect)}"
    if cmd == "entropy":
        axis = ("A", "C", "B").index(data["party"]) if expect.ndim == 3 \
            else ("A", "B").index(data["party"])
        if abs(data["entropy"] - entropy(expect, axis)) > AMP_TOL:
            return f"entropy {state}: {data['entropy']} != {entropy(expect, axis)}"
        return None
    # classify
    if expect.ndim == 2:
        if abs(data["entropy"] - entropy(expect)) > AMP_TOL:
            return f"classify {state}: entropy {data['entropy']}"
        if state != "chained" and data["schmidt_rank"] != rank(expect):
            return f"classify {state}: rank {data['schmidt_rank']}"
        return None
    if abs(data["tau3"] - tau3(expect)) > AMP_TOL:
        return f"classify {state}: tau3 {data['tau3']} != {tau3(expect)}"
    want = expected_class(state, expect)
    if want is not None and data["class"] != want:
        return f"classify {state}: class {data['class']}, want {want}"
    return None


def _check_scan(data):
    zeros = [z["theta"] / math.pi for z in data["zeros"]]
    if not any(abs(z - QUASIW_ZERO) < 1e-4 for z in zeros):
        return f"scan-tangle3 zeros {zeros}, want {QUASIW_ZERO}"
    for row in data["rows"]:
        want = tau3(_quasiw(cmath.exp(1j * row["theta"])))
        if row["tau3"] is None or abs(row["tau3"] - want) > AMP_TOL:
            return f"scan-tangle3 tau3 {row['tau3']} != {want} at {row['theta']}"
    return None


def _check_reduce(state, data):
    terms = data["terms"]
    n = data["bottom"]
    for term in terms:
        labels = sorted(x for pair in term["pairs"] for x in pair)
        if labels != list(range(1, n + 1)):
            return f"reduce {state}: pairs {term['pairs']} do not match {n} points"
    want = REDUCE_TERMS.get(state, 1)
    if len(terms) != want:
        return f"reduce {state}: {len(terms)} terms, want {want}"
    if want == 1 and terms[0]["coeff"] != "1":
        return f"reduce {state}: coefficient {terms[0]['coeff']}"
    return None


def _check_connectome(argv, data):
    action = argv[1]
    if action == "enumerate":
        m = int(argv[3])
        if data["count"] != CONNECTOME_COUNTS[m]:
            return f"enumerate {m}: {data['count']}, want {CONNECTOME_COUNTS[m]}"
        return None
    adj = tuple(tuple(r) for r in json.loads(argv[3]))
    classes = tuple((tuple(c["parties"]), c["label"]) for c in data["classes"])
    if classes != CONNECTOME_CLASSES[adj]:
        return f"connectome {action} {argv[3]}: classes {classes}"
    if action == "classify":
        return None
    # the tensor's local ranks agree with the block structure (crit 06)
    m = len(adj)
    amp = _amp_tensor(data["amplitudes"], (2,) * m)
    for parties, label in classes:
        for p in parties:
            want = 1 if label == "unentangled" else 2
            if rank(amp, p) != want:
                return f"connectome state {argv[3]}: party {p} rank {rank(amp, p)}"
    if m == 3 and classes[0][1] == "GHZ" and tau3(amp) < 1e-6:
        return f"connectome state {argv[3]}: GHZ block with tau3 {tau3(amp)}"
    return None


def _check_rep(spins, data):
    twice = [int(2 * Fraction(s)) for s in spins.split(",")]
    if len(twice) == 2:
        got = [(Fraction(row["J"]), row["schmidt_rank"]) for row in data["table"]]
        want = _spin_table(*twice)
        return None if got == want else f"rep hw {spins}: {got}, want {want}"
    labels = [c["class"] for c in data.get("classes", [])]
    sectors = {s["J"]: s["multiplicity"] for s in data["sectors"]}
    if sectors != {"3/2": 1, "1/2": 2} or "W" not in labels or "GHZ" in labels:
        return f"rep hw {spins}: sectors {sectors} classes {labels}"
    return None


def _spin_table(a, b):
    """(J, Schmidt rank) of the highest-weight vectors of spins a/2 x b/2.

    The rank falls by one per step of J from min(a, b) + 1 at J = |a-b|/2
    down to 1 at J = (a+b)/2 (crit 11's staircase).
    """
    return [(Fraction(J, 2), (a + b - J) // 2 + 1)
            for J in range(abs(a - b), a + b + 1, 2)]
