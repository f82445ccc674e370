"""Seeded op lists for the three benchmark workloads.

A workload is a sequence of rounds.  Every round has the same fixed
composition (which states, commands and replica orders it holds); the seed
picks the evaluation points and the order of the ops inside the round.  A run
executes whole rounds, so the mix of op classes, and with it the place where
p50 and p90 fall, is the same for every seed and every run length.
"""

from __future__ import annotations

import math
import random

TRIPARTITE = tuple(f"tripartite_{i}" for i in range(1, 8))
THREE_QUBIT = ("quasiw",) + TRIPARTITE
TWO_QUBIT = ("maxent", "chained", "two_qubit_product", "two_qubit_two_lines")
QUBIT_STATES = TWO_QUBIT + THREE_QUBIT
QUTRIT_STATES = ("two_qutrit_rank1", "two_qutrit_rank2", "two_qutrit_rank3")
MULTI_PARTY = QUBIT_STATES + QUTRIT_STATES

LEVELS = (4, 5, 6, 7, 8)
# Nondegenerate windows around theta = 0; samples stay inside MARGIN of them.
QUBIT_WINDOW = math.pi / 6
QUTRIT_WINDOW = math.pi / 10
MARGIN = 0.85

# The canonical 3- and 4-party connectomes with four punctures per party
# (the output of `connectome enumerate`), used as `--adj` inputs.
CONNECTOMES = (
    ((0, 0, 4), (0, 4, 0), (4, 0, 0)),
    ((0, 1, 3), (1, 2, 1), (3, 1, 0)),
    ((0, 2, 2), (2, 0, 2), (2, 2, 0)),
    ((0, 2, 2), (2, 2, 0), (2, 0, 2)),
    ((2, 0, 2), (0, 4, 0), (2, 0, 2)),
    ((2, 1, 1), (1, 2, 1), (1, 1, 2)),
    ((4, 0, 0), (0, 4, 0), (0, 0, 4)),
    ((0, 0, 0, 4), (0, 0, 4, 0), (0, 4, 0, 0), (4, 0, 0, 0)),
    ((0, 0, 0, 4), (0, 2, 2, 0), (0, 2, 2, 0), (4, 0, 0, 0)),
    ((0, 0, 1, 3), (0, 2, 1, 1), (1, 1, 2, 0), (3, 1, 0, 0)),
    ((0, 0, 2, 2), (0, 0, 2, 2), (2, 2, 0, 0), (2, 2, 0, 0)),
    ((0, 0, 2, 2), (0, 2, 1, 1), (2, 1, 0, 1), (2, 1, 1, 0)),
    ((0, 0, 2, 2), (0, 4, 0, 0), (2, 0, 0, 2), (2, 0, 2, 0)),
    ((0, 1, 1, 2), (1, 0, 2, 1), (1, 2, 0, 1), (2, 1, 1, 0)),
    ((0, 1, 1, 2), (1, 2, 0, 1), (1, 0, 2, 1), (2, 1, 1, 0)),
    ((2, 0, 0, 2), (0, 2, 2, 0), (0, 2, 2, 0), (2, 0, 0, 2)),
    ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)),
)
SPINS = ("1/2,1/2", "1,1", "1,2", "1/2,1/2,1/2")
SCAN_ARGV = ("scan-tangle3", "quasiw", "--theta-min", "0.02pi",
             "--theta-max", "0.12pi", "--steps", "200")


def level_theta(k):
    """The angle of root-of-unity level k (EvalPoint.from_level)."""
    return -math.pi / (2.0 * (k + 2.0))


def window(state):
    return QUTRIT_WINDOW if state in QUTRIT_STATES else QUBIT_WINDOW


def fresh_theta(rng, state):
    w = MARGIN * window(state)
    return rng.uniform(-w, w)


class Workload:
    """Rounds of ops drawn from one seeded generator."""

    min_ops = 1

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def rounds(self):
        while True:
            ops = self.round()
            self.rng.shuffle(ops)
            yield ops


class ThetaSweep(Workload):
    """Each op: one state at a fresh angle inside its window.

    Per round: every qubit state 4 times, rank1 and rank3 twice, rank2 ten
    times.  rank2 is 16% of the ops, so p90 lies inside the rank2 class; the
    qubit states are 77%, so p50 lies inside the three-qubit ops.
    """

    COMPOSITION = tuple((s, 4) for s in QUBIT_STATES) + (
        ("two_qutrit_rank1", 2), ("two_qutrit_rank3", 2), ("two_qutrit_rank2", 10))

    def round(self):
        return [{"state": s, "theta": fresh_theta(self.rng, s)}
                for s, count in self.COMPOSITION for _ in range(count)]


class ReplicaRing(Workload):
    """Each op: replica_check at one of three level points, so points repeat.

    Per round: every qubit state 10 times, half at n = 2 and half at n = 3,
    rank1 24 times at n = 3, and the four slow qutrit checks (rank2 and
    rank3, each at n = 2 and n = 3).  rank1 is 16% of the ops and the slow
    checks above it 3%, so p90 lies inside the rank1 class and p50 inside the
    qubit ops.  Every round holds all four slow checks, so the mix is the
    same whether a run ends after one round or two.
    """

    SLOW = (("two_qutrit_rank2", 2), ("two_qutrit_rank3", 3),
            ("two_qutrit_rank3", 2), ("two_qutrit_rank2", 3))

    def __init__(self, seed):
        super().__init__(seed)
        self.levels = sorted(self.rng.sample(LEVELS, 3))

    def round(self):
        ops = [(s, 2 + i % 2) for s in QUBIT_STATES for i in range(10)]
        ops += [("two_qutrit_rank1", 3)] * 24
        ops += list(self.SLOW)
        return [{"state": s, "n": n, "k": self.rng.choice(self.levels)}
                for s, n in ops]


class CliOneshot(Workload):
    """Each op: one `python -m tl_entangle.cli` invocation in a fresh process.

    Per round of 20: three slow ops near 1 s (scan-tangle3, and state and
    entropy of two_qutrit_rank2: 15%), one command each on rank1 and rank3
    (rotating by round) and fifteen light ones, so p90 lies inside the slow
    class.  A run holds at least 100 ops, so 10 samples lie beyond p90.
    """

    min_ops = 100

    def __init__(self, seed):
        super().__init__(seed)
        self.count = 0

    def _point(self, state):
        if self.rng.random() < 0.5:
            k = self.rng.choice(LEVELS)
            return ["--k", str(k)], level_theta(k)
        text = f"{fresh_theta(self.rng, state):.9f}"
        return [f"--theta={text}"], float(text)

    def _state_op(self, cmd, state):
        point, theta = self._point(state)
        argv = [cmd, state] + point
        if cmd == "entropy":
            party = self.rng.choice(("L", "R") if state in QUTRIT_STATES
                                    else ("A", "B") if state in TWO_QUBIT
                                    else ("A", "C", "B"))
            argv += ["--party", party]
        return {"argv": argv, "state": state, "theta": theta}

    def round(self):
        rng = self.rng
        commands = ("state", "classify", "entropy")
        ops = [self._state_op("state", rng.choice(QUBIT_STATES)) for _ in range(2)]
        ops += [self._state_op("classify", rng.choice(THREE_QUBIT)),
                self._state_op("classify", rng.choice(TWO_QUBIT))]
        ops += [self._state_op("entropy", rng.choice(QUBIT_STATES)) for _ in range(2)]
        ops += [self._state_op("tangle3", rng.choice(THREE_QUBIT)) for _ in range(2)]
        ops += [self._state_op(commands[(self.count + i) % 3], state)
                for i, state in enumerate(("two_qutrit_rank1", "two_qutrit_rank3"))]
        ops += [self._state_op(cmd, "two_qutrit_rank2") for cmd in ("state", "entropy")]
        self.count += 1
        ops.append({"argv": list(SCAN_ARGV)})
        ops.append({"argv": ["bracket", rng.choice(("hopf", "trefoil")),
                             "--mode", "exact"]})
        ops.append({"argv": ["reduce", rng.choice(QUBIT_STATES), "--mode", "exact"]})
        adj = rng.choice(CONNECTOMES)
        ops.append({"argv": ["connectome", "classify", "--adj", _adj_text(adj)]})
        adj = rng.choice(CONNECTOMES)
        point, theta = self._point("maxent")
        ops.append({"argv": ["connectome", "state", "--adj", _adj_text(adj)] + point,
                    "theta": theta})
        ops.append({"argv": ["connectome", "enumerate", "--parties",
                             str(rng.choice((2, 3, 4)))]})
        ops += [{"argv": ["rep", "hw", "--spins", rng.choice(SPINS)]}
                for _ in range(2)]
        return ops


def _adj_text(adj):
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in adj) + "]"


WORKLOADS = {
    "cli_oneshot": CliOneshot,
    "theta_sweep": ThetaSweep,
    "replica_ring": ReplicaRing,
}
