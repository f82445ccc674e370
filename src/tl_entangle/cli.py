"""Command-line frontend for tangle evaluation and classification.

Exit codes: 0 success, 1 usage problem, 2 tangle parse error, 3 degenerate
evaluation point (the message ends with the party, frame vector and factor
that vanished, as far as they are known), 4 internal invariant violation.
Output is JSON (default) or CSV with floats printed to 12 significant
digits, so identical inputs produce byte-identical output.

Input bounds, each a usage error (exit 1) before any array, grid or search
is built: an angle and its double must be finite; --tol must lie above 0 and
below 1; scan-tangle3 --steps runs from 3 to MAX_STEPS (10,000), over a range
that splits into finite steps; rep hw takes half-integer spins whose product
space has dimension prod(2j+1) up to su2.MAX_PRODUCT_DIM (4,096); --adj
takes rows of JSON integers, bare or as the "adj" of an object whose
"punctures" and "parties" are integers; a connectome needs at least one party, and --punctures cannot be
negative; connectome enumerate takes at most 6 parties and at most
ENUMERATE_MAX_PUNCTURES[parties] punctures; a party evaluated by a command
has dimension at most MAX_PARTY_DIM (4), and a jw slice wider than
skein.MAX_JW_WIDTH (6) strands is a parse error (exit 2): jones_wenzl(7) and
qudit_space's closed-form frames run unmetered (about 0.9 s, and 4 ms for
dimension 5, on two cores).  All other work is charged step by step against
diagrams.WORK_BUDGET; a document's word that would pass it is a parse error
naming the slice's line (exit 2), any other expansion a usage error.

No command imports numpy.  Every command that evaluates a state reads
spaces' list form of the amplitudes (DiagramState.amplitude_list) and
normalizes it with _unit; classify and entropy take each one-party cut's
singular values from that list with entanglement.cut_singular_values, the
pure-Python kernel that every entanglement measure reads.
rep hw counts: su2 reads its ranks and multiplicities off the numbers of
product states per weight, and the three spin-1/2 classes off exact vectors.

A cold process loads only what its command runs.  It builds the top-level
parser and the named command's parser (every parser when the first argument
names no command); connectome imports connectomes, rep hw su2 and fractions,
and --format csv the csv module, and scalars and skein import fractions
only to build a Fraction.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import sys

from . import entanglement
from .scalars import DegeneratePointError, EvalPoint, evaluate
from .tangle_dsl import TangleParseError, corpus_names, load_corpus, parse_tangle

# upper bound of scan-tangle3 --steps
MAX_STEPS = 10_000

# The largest --punctures that connectome enumerate searches, by --parties.
# Each of these takes under 4 s on two cores, while 3 parties at 128
# punctures take 8 s, 4 at 14 take 7.5 s, 5 at 6 take 26 s, 6 at 4 more than
# 150 s, 7 at 2 more than 40 s, and 9 parties at none 6.3 s.
ENUMERATE_MAX_PUNCTURES = {1: 100_000, 2: 100_000, 3: 96, 4: 12, 5: 4, 6: 2}

# The largest party dimension a command evaluates, checked before exact
# set-up: a dimension-5 frame builds in 4 ms, but a two-party dimension-5
# connectome state passes the work budget dressing its second party (1.4 s).
MAX_PARTY_DIM = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# Magnitude below which tau3 and entropies of a normalized state, and the
# parts of an amplitude relative to the largest |amplitude|, print as 0.0:
# such values are rounding noise of exact zeros, and their digits would
# follow the order of the arithmetic.
NOISE_FLOOR = 1e-12


def _g12(x, floor=0.0):
    """Round a float to 12 significant digits for stable printing; a value
    whose magnitude lies below floor prints as 0.0."""
    if x == 0 or abs(x) < floor:
        return 0.0
    return float(f"{float(x):.12g}")


def _c12(z):
    z = complex(z)
    return {"re": _g12(z.real), "im": _g12(z.imag)}


def _amplitude_rows(amps, dims):
    """(JSON entries, CSV rows) of a flat amplitude list over dims, one per
    index; a real or imaginary part below NOISE_FLOOR of the largest
    |amplitude| prints as 0.0."""
    floor = NOISE_FLOOR * max(map(abs, amps), default=0.0)
    entries = []
    rows = []
    for idx, z in zip(itertools.product(*map(range, dims)), amps):
        re, im = _g12(z.real, floor), _g12(z.imag, floor)
        entries.append({"index": list(idx), "re": re, "im": im})
        rows.append(list(idx) + [re, im])
    return entries, rows


def _pi_multiple(head):
    """The factor written before 'pi': empty, '+', '-', or a number with an optional '*'."""
    head = head.rstrip("*")
    if head in ("", "+"):
        return 1.0
    if head == "-":
        return -1.0
    return float(head)


def _angle(text):
    """Angle in radians, with an optional 'pi' suffix like 0.5pi, -pi/12 or 2pi/3."""
    s = str(text).strip().lower().replace(" ", "").replace("π", "pi")
    if s.endswith("pi"):
        return _pi_multiple(s[:-2]) * math.pi
    if "pi/" in s:
        head, den = s.split("pi/", 1)
        return _pi_multiple(head) * math.pi / float(den)
    return float(s)


def _parse_theta(text, flag):
    """The angle given to flag; text that is not an angle, nan, inf, an angle
    whose double overflows (EvalPoint.d takes the cosine of 2 theta) and a
    division by zero are usage errors."""
    try:
        theta = _angle(text)
    except ZeroDivisionError:
        theta = math.inf
    except ValueError:
        raise UsageError(f"{flag} must be an angle such as 0.3, pi/12 or 2pi/3, "
                         f"got {text!r}") from None
    if not math.isfinite(2.0 * theta):
        raise UsageError(f"{flag} must be a finite angle whose double is finite, "
                         f"got {text!r}")
    return theta


def _checked_tol(tol):
    """The --tol value, which must lie in (0, 1); anything else, nan and inf
    included, is a usage error.  A tolerance of 1 or more counts no singular
    value in a rank and no three-tangle as GHZ."""
    if not 0 < tol < 1:
        raise UsageError(f"--tol must be a finite number above 0 and below 1, got {tol}")
    return tol


def _eval_point(args):
    if args.theta is not None:
        return EvalPoint(_parse_theta(args.theta, "--theta"))
    if args.k is not None:
        return EvalPoint.from_level(args.k)
    return EvalPoint.from_level(4)


def _load_document(source):
    if os.path.isfile(source):
        with open(source) as fh:
            return parse_tangle(fh.read())
    name = source[:-3] if source.endswith(".tl") else source
    try:
        return load_corpus(name)
    except KeyError:
        raise UsageError(
            f"no such file or shipped tangle: {source!r} "
            f"(shipped names: {', '.join(corpus_names())})")


def _parties_of(doc):
    """The document's (name, dimension) parties."""
    if not doc.parties:
        raise UsageError("this command needs a document with party declarations")
    return doc.layout().parties


def _state_of(doc):
    for name, n in _parties_of(doc):
        if n > MAX_PARTY_DIM:
            raise UsageError(f"party {name} has dimension {n}, above {MAX_PARTY_DIM}")
    return doc.state()


_ZERO_STATE = "state evaluates to the zero tensor at this point"


def _unit(amps):
    """A flat amplitude list divided by its norm, or None where the norm is
    below 1e-14 and the state counts as zero."""
    norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
    if norm < 1e-14:
        return None
    return [z / norm for z in amps]


def _unit_amplitudes(state, point):
    """The normalized amplitude list; a zero state is a usage error."""
    amps = _unit(state.amplitude_list(point))
    if amps is None:
        raise UsageError(_ZERO_STATE)
    return amps


def _require_three_qubits(doc):
    if [n for _, n in _parties_of(doc)] != [2, 2, 2]:
        raise UsageError("this command needs exactly three qubit parties")


def _emit(args, payload, csv_rows, csv_header):
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        sys.stdout.write(buf.getvalue())


def _sorted_terms(element):
    return sorted(element.terms.items(), key=lambda kv: sorted(kv[0].pairs))


def _cmd_bracket(args):
    doc = _load_document(args.file)
    if not doc.word.is_closed():
        raise UsageError("bracket needs a closed document (top 0, bottom 0)")
    value = doc.element().scalar()
    if args.mode == "exact":
        payload = {"name": doc.name, "skein_mode": doc.mode, "value": str(value)}
        rows = [[str(value)]]
        return payload, rows, ["value"]
    point = _eval_point(args)
    z = complex(evaluate(value, point))
    payload = {"name": doc.name, "skein_mode": doc.mode,
               "theta": _g12(point.theta), "value": _c12(z)}
    return payload, [[_g12(z.real), _g12(z.imag)]], ["re", "im"]


def _cmd_reduce(args):
    doc = _load_document(args.file)
    element = doc.element()
    terms = []
    rows = []
    if args.mode == "exact":
        for dg, coeff in _sorted_terms(element):
            pairs = sorted(dg.pairs)
            terms.append({"pairs": [list(p) for p in pairs], "coeff": str(coeff)})
            rows.append([" ".join(f"{a}-{b}" for a, b in pairs), str(coeff)])
        payload = {"name": doc.name, "skein_mode": doc.mode,
                   "top": doc.top, "bottom": doc.bottom, "terms": terms}
        return payload, rows, ["pairs", "coeff"]
    point = _eval_point(args)
    for dg, coeff in _sorted_terms(element.evaluate(point)):
        pairs = sorted(dg.pairs)
        z = complex(coeff)
        terms.append({"pairs": [list(p) for p in pairs], "coeff": _c12(z)})
        rows.append([" ".join(f"{a}-{b}" for a, b in pairs),
                     _g12(z.real), _g12(z.imag)])
    payload = {"name": doc.name, "skein_mode": doc.mode, "top": doc.top,
               "bottom": doc.bottom, "theta": _g12(point.theta), "terms": terms}
    return payload, rows, ["pairs", "re", "im"]


def _cmd_state(args):
    doc = _load_document(args.file)
    point = _eval_point(args)
    state = _state_of(doc)
    amps = state.amplitude_list(point)
    entries, rows = _amplitude_rows(amps, state.layout.dims)
    payload = {
        "name": doc.name,
        "theta": _g12(point.theta),
        "parties": [{"name": nm, "dim": n} for nm, n in state.layout.parties],
        "amplitudes": entries,
        "norm_sq": _g12(sum(abs(z) ** 2 for z in amps)),
    }
    header = [nm for nm, _ in state.layout.parties] + ["re", "im"]
    return payload, rows, header


def _cmd_classify(args):
    tol = _checked_tol(args.tol)
    doc = _load_document(args.file)
    point = _eval_point(args)
    state = _state_of(doc)
    amps = _unit_amplitudes(state, point)
    dims = list(state.layout.dims)
    payload = {"name": doc.name, "theta": _g12(point.theta),
               "parties": [nm for nm, _ in state.layout.parties], "dims": dims}
    if len(dims) == 2:
        sv = entanglement.cut_singular_values(amps, dims, (0,))
        payload["schmidt_rank"] = entanglement.rank_above(sv, tol)
        payload["entropy"] = _g12(entanglement.spectrum_entropy(sv), NOISE_FLOOR)
        rows = [[payload["schmidt_rank"], payload["entropy"]]]
        return payload, rows, ["schmidt_rank", "entropy"]
    ranks = [entanglement.rank_above(entanglement.cut_singular_values(amps, dims, (k,)), tol)
             for k in range(len(dims))]
    payload["local_ranks"] = ranks
    if dims == [2, 2, 2]:
        tau3 = entanglement.three_tangle_of(amps)
        payload["class"] = entanglement.tripartite_class(ranks, tau3, tol)
        payload["tau3"] = _g12(tau3, NOISE_FLOOR)
        rows = [[payload["class"], payload["tau3"], " ".join(map(str, ranks))]]
        return payload, rows, ["class", "tau3", "local_ranks"]
    return payload, [[" ".join(map(str, ranks))]], ["local_ranks"]


def _cmd_entropy(args):
    tol = _checked_tol(args.tol)
    doc = _load_document(args.file)
    point = _eval_point(args)
    names = [nm for nm, _ in _parties_of(doc)]
    if args.party not in names:
        raise UsageError(f"unknown party {args.party!r}; have {', '.join(names)}")
    state = _state_of(doc)
    sv = entanglement.cut_singular_values(_unit_amplitudes(state, point),
                                          state.layout.dims, (names.index(args.party),))
    entropy = _g12(entanglement.spectrum_entropy(sv), NOISE_FLOOR)
    rank = entanglement.rank_above(sv, tol)
    payload = {"name": doc.name, "theta": _g12(point.theta),
               "party": args.party, "entropy": entropy, "schmidt_rank": rank}
    return payload, [[args.party, entropy, rank]], ["party", "entropy", "schmidt_rank"]


def _cmd_tangle3(args):
    doc = _load_document(args.file)
    _require_three_qubits(doc)
    point = _eval_point(args)
    state = _state_of(doc)
    tau = _tau3_of(state, point)
    if tau is None:
        raise UsageError(_ZERO_STATE)
    tau = _g12(tau, NOISE_FLOOR)
    payload = {"name": doc.name, "theta": _g12(point.theta), "tau3": tau}
    return payload, [[_g12(point.theta), tau]], ["theta", "tau3"]


# width of the bracket at which a golden-section search stops
_GOLDEN_TOL = 1e-12


def _tau3_of(state, point):
    """tau3 of the normalized state at point, or None where the state
    evaluates to zero; computed from the amplitude list."""
    amps = _unit(state.amplitude_list(point))
    return None if amps is None else entanglement.three_tangle_of(amps)


def _tau3_at(state, theta):
    return _tau3_of(state, EvalPoint(theta))


def _tau3_or_inf(state, theta):
    """tau3 at theta, or +inf where the state vanishes or the point is
    degenerate, so that a minimum search never settles there."""
    try:
        tau = _tau3_at(state, theta)
    except DegeneratePointError:
        return math.inf
    return math.inf if tau is None else tau


def _golden_min(f, a, b):
    """Golden-section minimum of f on [a, b], to within _GOLDEN_TOL."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > _GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _cmd_scan_tangle3(args):
    tol = _checked_tol(args.tol)
    doc = _load_document(args.file)
    _require_three_qubits(doc)
    lo = _parse_theta(args.theta_min, "--theta-min")
    hi = _parse_theta(args.theta_max, "--theta-max")
    steps = args.steps
    if steps < 3:
        raise UsageError("--steps must be at least 3")
    if steps > MAX_STEPS:
        raise UsageError(f"--steps must be at most {MAX_STEPS}")
    if not hi > lo:
        raise UsageError("--theta-max must exceed --theta-min")
    if not math.isfinite((hi - lo) * (steps - 1)):
        raise UsageError("--theta-min and --theta-max lie too far apart "
                         "to be split into --steps points")
    grid = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    state = doc.state()
    values = []
    for t in grid:
        try:
            values.append(_tau3_at(state, t))
        except DegeneratePointError:
            values.append(None)
    zeros = []
    for i in range(1, steps - 1):
        v = values[i]
        if v is None or values[i - 1] is None or values[i + 1] is None:
            continue
        if v <= values[i - 1] and v <= values[i + 1]:
            x = _golden_min(lambda t: _tau3_or_inf(state, t), grid[i - 1], grid[i + 1])
            tau = _tau3_or_inf(state, x)
            if tau < tol:
                zeros.append((x, tau))
    grid_rows = [(_g12(t), None if v is None else _g12(v, NOISE_FLOOR))
                 for t, v in zip(grid, values)]
    zero_rows = [(_g12(x), _g12(v, NOISE_FLOOR)) for x, v in zeros]
    rows = [[t, v, "grid"] for t, v in grid_rows] + [[x, v, "zero"] for x, v in zero_rows]
    payload = {
        "name": doc.name,
        "theta_min": _g12(lo), "theta_max": _g12(hi),
        "steps": steps, "tol": _g12(tol),
        "rows": [{"theta": t, "tau3": v} for t, v in grid_rows],
        "zeros": [{"theta": x, "tau3": v} for x, v in zero_rows],
    }
    return payload, rows, ["theta", "tau3", "kind"]


def _connectome_from_args(args):
    """The connectome given to --adj (Connectome.from_json gives its forms)."""
    from .connectomes import Connectome

    try:
        return Connectome.from_json(args.adj)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--adj is not valid JSON: {exc}")
    except TypeError as exc:
        raise UsageError(f"--adj {exc}")


def _check_enumerate_size(parties, punctures):
    """Reject an enumeration beyond ENUMERATE_MAX_PUNCTURES before it starts."""
    top = max(ENUMERATE_MAX_PUNCTURES)
    if parties > top:
        raise UsageError(f"connectome enumerate takes --parties up to {top}, got {parties}")
    limit = ENUMERATE_MAX_PUNCTURES.get(parties)
    if limit is not None and punctures > limit:
        raise UsageError(f"connectome enumerate takes --punctures up to {limit} "
                         f"with --parties {parties}, got {punctures}")


def _cmd_connectome(args):
    from .connectomes import (enumerate_connectomes, label_blocks, reduce_connectome,
                              representative_state)

    if args.action == "enumerate":
        _check_enumerate_size(args.parties, args.punctures)
        found = enumerate_connectomes(args.parties, args.punctures)
        payload = {"parties": args.parties, "punctures": args.punctures,
                   "count": len(found),
                   "adjacency": [[list(r) for r in c.adj] for c in found]}
        rows = [[i] + [x for row in c.adj for x in row]
                for i, c in enumerate(found)]
        header = ["index"] + [f"a{i}{j}" for i in range(args.parties)
                              for j in range(args.parties)]
        return payload, rows, header
    c = _connectome_from_args(args)
    if args.action == "state":
        if c.punctures > 4 * (MAX_PARTY_DIM - 1):
            raise UsageError(f"connectome state takes at most {4 * (MAX_PARTY_DIM - 1)} "
                             f"punctures per party (party dimension {MAX_PARTY_DIM}), "
                             f"got {c.punctures}")
    red = reduce_connectome(c)
    blocks = label_blocks(red)
    payload = {
        "parties": c.m, "punctures": c.punctures,
        "adjacency": [list(r) for r in c.adj],
        "reduced": [list(r) for r in red.adj],
        "classes": [{"parties": list(block), "label": label}
                    for block, label in blocks],
        "biseparable": len(blocks) > 1,
    }
    if args.action == "classify":
        rows = [[" ".join(str(p) for p in block), label]
                for block, label in blocks]
        return payload, rows, ["parties", "label"]
    # action == "state"
    point = _eval_point(args)
    state = representative_state(c)
    entries, rows = _amplitude_rows(state.amplitude_list(point), state.layout.dims)
    payload["theta"] = _g12(point.theta)
    payload["party_names"] = [nm for nm, _ in state.layout.parties]
    payload["amplitudes"] = entries
    header = payload["party_names"] + ["re", "im"]
    return payload, rows, header


def _parse_spins(text):
    from fractions import Fraction

    spins = []
    for part in text.split(","):
        part = part.strip()
        try:
            spins.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad spin {part!r}")
    return spins


def _cmd_rep(args):
    from . import su2

    spins = _parse_spins(args.spins)
    if len(spins) not in (2, 3):
        raise UsageError("--spins needs two or three comma-separated values")
    payload = {"spins": [str(j) for j in spins]}
    if len(spins) == 2:
        table = su2.hw_rank_table(*spins)
        payload["table"] = [{"J": str(J), "schmidt_rank": r} for J, r in table]
        rows = [[str(J), r] for J, r in table]
        return payload, rows, ["J", "schmidt_rank"]
    sectors = su2.hw_multiplicities(spins)
    payload["sectors"] = [{"J": str(J), "multiplicity": n} for J, n in sectors]
    rows = [[str(J), n] for J, n in sectors]
    if payload["spins"] == ["1/2"] * 3:
        classes = su2.classify_hw_tripartite()
        payload["classes"] = [{"J": str(J), "index": k, "class": cls}
                              for J, k, cls in classes]
        rows = [[str(J), k, cls] for J, k, cls in classes]
        return payload, rows, ["J", "index", "class"]
    return payload, rows, ["J", "multiplicity"]


# The commands that read a document, in help order: each one's handler and
# the shared flags it reads, of --mode, --theta | --k and --tol
_DOCUMENT_COMMANDS = {
    "bracket": (_cmd_bracket, ("mode", "point")),
    "reduce": (_cmd_reduce, ("mode", "point")),
    "state": (_cmd_state, ("point",)),
    "classify": (_cmd_classify, ("point", "tol")),
    "entropy": (_cmd_entropy, ("point", "tol")),
    "tangle3": (_cmd_tangle3, ("point",)),
    "scan-tangle3": (_cmd_scan_tangle3, ("tol",)),
}
_COMMANDS = (*_DOCUMENT_COMMANDS, "connectome", "rep")


def _build_parser(argv=()):
    """The parser; every command accepts exactly the flags its handler reads.
    When argv's first word names a command, only that command's parser is
    built, and its help and usage errors are its own; otherwise every one is."""
    parser = _Parser(prog="tl-entangle",
                     description="Evaluate and classify tangle diagram states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, handler, flags=()):
        """A parser with the shared flags named in flags, in help order, then --format."""
        p = subparsers.add_parser(name)
        if "mode" in flags:
            p.add_argument("--mode", choices=("exact", "numeric"), default="numeric")
        if "point" in flags:
            angle = p.add_mutually_exclusive_group()
            angle.add_argument("--theta", help="evaluation angle in radians; accepts 0.5pi")
            angle.add_argument("--k", type=int, help="root-of-unity level (default 4)")
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(handler=handler)
        return p

    first = argv[0] if argv else None
    for name in [first] if first in _COMMANDS else _COMMANDS:
        if name in _DOCUMENT_COMMANDS:
            p = command(sub, name, *_DOCUMENT_COMMANDS[name])
            p.add_argument("file", help="path to a .tl file or a shipped tangle name")
            if name == "entropy":
                p.add_argument("--party", required=True)
            if name == "scan-tangle3":
                p.add_argument("--theta-min", dest="theta_min", required=True)
                p.add_argument("--theta-max", dest="theta_max", required=True)
                p.add_argument("--steps", type=int, default=200)
        elif name == "connectome":
            actions = sub.add_parser(name).add_subparsers(dest="action", required=True)
            p = command(actions, "enumerate", _cmd_connectome)
            p.add_argument("--parties", type=int, default=3)
            p.add_argument("--punctures", type=int, default=4)
            for action, flags in (("classify", ()), ("state", ("point",))):
                p = command(actions, action, _cmd_connectome, flags)
                p.add_argument("--adj", required=True,
                               help="adjacency matrix as JSON, or a connectome JSON object")
        else:
            actions = sub.add_parser(name).add_subparsers(dest="action", required=True)
            p = command(actions, "hw", _cmd_rep)
            p.add_argument("--spins", required=True,
                           help="comma-separated spins, e.g. 1/2,1/2 or 1,2")
    return parser


def _angle_flag_values(argv):
    """Rewrite 'flag value' as 'flag=value' for the angle flags.

    argparse reads a word that starts with '-' and is not a plain number,
    such as -pi/12 or -0.05pi, as an option; joined to its flag it is the
    flag's value.  A following word that starts with '--' stays an option.
    """
    out = list(argv)
    i = 0
    while i < len(out) - 1:
        if out[i] in ("--theta", "--theta-min", "--theta-max") and not out[i + 1].startswith("--"):
            out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
        i += 1
    return out


def main(argv=None):
    argv = _angle_flag_values(sys.argv[1:] if argv is None else argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        payload, rows, header = args.handler(args)
        _emit(args, payload, rows, header)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TangleParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DegeneratePointError as exc:
        fields = ", ".join(f"{name} {value}" for name in ("party", "vector", "factor")
                           if (value := getattr(exc, name)) is not None)
        print(f"degenerate evaluation point: {exc}" + (f" [{fields}]" if fields else ""),
              file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
