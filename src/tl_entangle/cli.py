"""Command-line frontend for tangle evaluation and classification.

Exit codes: 0 success, 1 usage problem, 2 tangle parse error, 3 degenerate
evaluation point, 4 internal invariant violation.  Output is JSON (default)
or CSV with floats printed to 12 significant digits, so identical inputs
produce byte-identical output.

Input bounds, each a usage error (exit 1) before any array or grid is built:
an angle must be finite; --tol must be finite and above 0; scan-tangle3
--steps runs from 3 to MAX_STEPS (10,000); rep hw takes product spaces of
dimension prod(2j+1) up to su2.MAX_PRODUCT_DIM (4,096); a connectome needs
at least one party, and --punctures cannot be negative.

The exact commands (bracket, reduce, connectome enumerate and classify)
never import numpy: the numeric modules are imported inside the handlers
that evaluate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from .connectomes import Connectome, classify as classify_connectome, \
    enumerate_connectomes, is_biseparable, reduce_connectome, representative_state
from .scalars import DegeneratePointError, EvalPoint, evaluate
from .skein import bracket
from .tangle_dsl import TangleParseError, corpus_names, load_corpus, parse_tangle

# upper bound of scan-tangle3 --steps
MAX_STEPS = 10_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _g12(x):
    """Round a float to 12 significant digits for stable printing."""
    if x == 0:
        return 0.0
    return float(f"{float(x):.12g}")


def _c12(z):
    z = complex(z)
    return {"re": _g12(z.real), "im": _g12(z.imag)}


def _amplitude_rows(amp):
    """(JSON entries, CSV rows) of an amplitude tensor, one per index.

    A real or imaginary part below 1e-12 of the largest |amplitude| is
    printed as 0.0: such parts are rounding noise of exact zeros, and their
    digits would follow the order of the state's terms.
    """
    import numpy as np

    floor = 1e-12 * float(np.max(np.abs(amp), initial=0.0))
    entries = []
    rows = []
    for idx in np.ndindex(*amp.shape):
        z = amp[idx]
        re, im = (0.0 if abs(x) < floor else _g12(x) for x in (z.real, z.imag))
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
    """The angle given to flag; text that is not an angle, nan, inf and a
    division by zero are usage errors."""
    try:
        theta = _angle(text)
    except ZeroDivisionError:
        theta = math.inf
    except ValueError:
        raise UsageError(f"{flag} must be an angle such as 0.3, pi/12 or 2pi/3, "
                         f"got {text!r}") from None
    if not math.isfinite(theta):
        raise UsageError(f"{flag} must be a finite angle, got {text!r}")
    return theta


def _checked_tol(tol):
    """The --tol value; nan, inf and a tolerance <= 0 are usage errors."""
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"--tol must be a finite number above 0, got {tol}")
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


def _layout_of(doc):
    if not doc.parties:
        raise UsageError("this command needs a document with party declarations")
    return doc.layout()


def _state_of(doc):
    _layout_of(doc)
    return doc.state()


def _normalized_amplitudes(doc, point):
    import numpy as np

    amp = _state_of(doc).amplitudes(point)
    norm = np.linalg.norm(amp.ravel())
    if norm < 1e-14:
        raise UsageError("state evaluates to the zero tensor at this point")
    return amp / norm


def _require_three_qubits(doc):
    if _layout_of(doc).dims != (2, 2, 2):
        raise UsageError("this command needs exactly three qubit parties")


def _emit(args, payload, csv_rows, csv_header):
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
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
    value = bracket(doc.word, doc.mode)
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
    import numpy as np

    doc = _load_document(args.file)
    point = _eval_point(args)
    state = _state_of(doc)
    amp = state.amplitudes(point)
    entries, rows = _amplitude_rows(amp)
    payload = {
        "name": doc.name,
        "theta": _g12(point.theta),
        "parties": [{"name": nm, "dim": n} for nm, n in state.layout.parties],
        "amplitudes": entries,
        "norm_sq": _g12(float(np.sum(np.abs(amp) ** 2))),
    }
    header = [nm for nm, _ in state.layout.parties] + ["re", "im"]
    return payload, rows, header


def _cmd_classify(args):
    from . import entanglement

    tol = _checked_tol(args.tol)
    doc = _load_document(args.file)
    point = _eval_point(args)
    amp = _normalized_amplitudes(doc, point)
    layout = doc.layout()
    names = [nm for nm, _ in layout.parties]
    payload = {"name": doc.name, "theta": _g12(point.theta),
               "parties": names, "dims": list(layout.dims)}
    if amp.ndim == 2:
        rank = entanglement.schmidt_rank(amp, tol=tol)
        payload["schmidt_rank"] = int(rank)
        payload["entropy"] = _g12(entanglement.entanglement_entropy(amp))
        rows = [[payload["schmidt_rank"], payload["entropy"]]]
        return payload, rows, ["schmidt_rank", "entropy"]
    payload["local_ranks"] = [int(r) for r in entanglement.local_ranks(amp)]
    if amp.shape == (2, 2, 2):
        payload["class"] = entanglement.slocc_tripartite_class(amp, tol=tol)
        payload["tau3"] = _g12(entanglement.three_tangle(amp))
        rows = [[payload["class"], payload["tau3"],
                 " ".join(str(r) for r in payload["local_ranks"])]]
        return payload, rows, ["class", "tau3", "local_ranks"]
    rows = [[" ".join(str(r) for r in payload["local_ranks"])]]
    return payload, rows, ["local_ranks"]


def _cmd_entropy(args):
    from . import entanglement

    tol = _checked_tol(args.tol)
    doc = _load_document(args.file)
    point = _eval_point(args)
    amp = _normalized_amplitudes(doc, point)
    layout = doc.layout()
    names = [nm for nm, _ in layout.parties]
    if args.party not in names:
        raise UsageError(f"unknown party {args.party!r}; have {', '.join(names)}")
    k = names.index(args.party)
    entropy = entanglement.entanglement_entropy(amp, keep=(k,))
    rank = entanglement.schmidt_rank(amp, keep=(k,), tol=tol)
    payload = {"name": doc.name, "theta": _g12(point.theta),
               "party": args.party, "entropy": _g12(entropy),
               "schmidt_rank": int(rank)}
    return payload, [[args.party, _g12(entropy), int(rank)]], \
        ["party", "entropy", "schmidt_rank"]


def _cmd_tangle3(args):
    from . import entanglement

    doc = _load_document(args.file)
    _require_three_qubits(doc)
    point = _eval_point(args)
    amp = _normalized_amplitudes(doc, point)
    tau = entanglement.three_tangle(amp)
    payload = {"name": doc.name, "theta": _g12(point.theta), "tau3": _g12(tau)}
    return payload, [[_g12(point.theta), _g12(tau)]], ["theta", "tau3"]


# width of the bracket at which a golden-section search stops
_GOLDEN_TOL = 1e-12


def _tau3_at(state, theta):
    import numpy as np

    from . import entanglement

    amp = state.amplitudes(EvalPoint(theta))
    norm = np.linalg.norm(amp.ravel())
    if norm < 1e-14:
        return None
    return entanglement.three_tangle(amp / norm)


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
    rows = [[_g12(t), None if v is None else _g12(v), "grid"]
            for t, v in zip(grid, values)]
    rows += [[_g12(x), _g12(v), "zero"] for x, v in zeros]
    payload = {
        "name": doc.name,
        "theta_min": _g12(lo), "theta_max": _g12(hi),
        "steps": steps, "tol": _g12(tol),
        "rows": [{"theta": _g12(t), "tau3": None if v is None else _g12(v)}
                 for t, v in zip(grid, values)],
        "zeros": [{"theta": _g12(x), "tau3": _g12(v)} for x, v in zeros],
    }
    return payload, rows, ["theta", "tau3", "kind"]


def _connectome_from_args(args):
    try:
        adj = json.loads(args.adj)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--adj is not valid JSON: {exc}")
    if isinstance(adj, dict):
        return Connectome.from_json(args.adj)
    return Connectome(adj)


def _cmd_connectome(args):
    if args.action == "enumerate":
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
    blocks = classify_connectome(c)
    payload = {
        "parties": c.m, "punctures": c.punctures,
        "adjacency": [list(r) for r in c.adj],
        "reduced": [list(r) for r in reduce_connectome(c).adj],
        "classes": [{"parties": list(block), "label": label}
                    for block, label in blocks],
        "biseparable": is_biseparable(c),
    }
    if args.action == "classify":
        rows = [[" ".join(str(p) for p in block), label]
                for block, label in blocks]
        return payload, rows, ["parties", "label"]
    # action == "state"
    point = _eval_point(args)
    state = representative_state(c)
    amp = state.amplitudes(point)
    entries, rows = _amplitude_rows(amp)
    payload["theta"] = _g12(point.theta)
    payload["party_names"] = [nm for nm, _ in state.layout.parties]
    payload["amplitudes"] = entries
    header = payload["party_names"] + ["re", "im"]
    return payload, rows, header


def _parse_spins(text):
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
        payload["table"] = [{"J": str(J), "schmidt_rank": int(r)}
                            for J, r in table]
        rows = [[str(J), int(r)] for J, r in table]
        return payload, rows, ["J", "schmidt_rank"]
    vectors = su2.highest_weight_vectors(spins)
    sectors = {}
    for J, _, _ in vectors:
        sectors[J] = sectors.get(J, 0) + 1
    payload["sectors"] = [{"J": str(J), "multiplicity": sectors[J]}
                          for J in sorted(sectors, reverse=True)]
    rows = [[str(J), sectors[J]] for J in sorted(sectors, reverse=True)]
    if all(j == Fraction(1, 2) for j in spins):
        classes = su2.classify_hw_tripartite()
        payload["classes"] = [{"J": str(J), "index": k, "class": cls}
                              for J, k, cls in classes]
        rows = [[str(J), k, cls] for J, k, cls in classes]
        return payload, rows, ["J", "index", "class"]
    return payload, rows, ["J", "multiplicity"]


def _build_parser():
    """The parser; every command accepts exactly the flags its handler reads."""
    fmt, point, mode, tol = (_Parser(add_help=False) for _ in range(4))
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    angle = point.add_mutually_exclusive_group()
    angle.add_argument("--theta", help="evaluation angle in radians; accepts 0.5pi")
    angle.add_argument("--k", type=int, help="root-of-unity level (default 4)")
    mode.add_argument("--mode", choices=("exact", "numeric"), default="numeric")
    tol.add_argument("--tol", type=float, default=1e-8)

    parser = _Parser(prog="tl-entangle",
                     description="Evaluate and classify tangle diagram states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, handler, *parents):
        p = subparsers.add_parser(name, parents=[*parents, fmt])
        p.set_defaults(handler=handler)
        return p

    for name, handler, parents in (
            ("bracket", _cmd_bracket, (mode, point)),
            ("reduce", _cmd_reduce, (mode, point)),
            ("state", _cmd_state, (point,)),
            ("classify", _cmd_classify, (point, tol)),
            ("entropy", _cmd_entropy, (point, tol)),
            ("tangle3", _cmd_tangle3, (point,)),
            ("scan-tangle3", _cmd_scan_tangle3, (tol,))):
        p = command(sub, name, handler, *parents)
        p.add_argument("file", help="path to a .tl file or a shipped tangle name")
        if name == "entropy":
            p.add_argument("--party", required=True)
        if name == "scan-tangle3":
            p.add_argument("--theta-min", dest="theta_min", required=True)
            p.add_argument("--theta-max", dest="theta_max", required=True)
            p.add_argument("--steps", type=int, default=200)

    actions = sub.add_parser("connectome").add_subparsers(dest="action", required=True)
    p = command(actions, "enumerate", _cmd_connectome)
    p.add_argument("--parties", type=int, default=3)
    p.add_argument("--punctures", type=int, default=4)
    for name, parents in (("classify", ()), ("state", (point,))):
        p = command(actions, name, _cmd_connectome, *parents)
        p.add_argument("--adj", required=True,
                       help="adjacency matrix as JSON, or a connectome JSON object")

    actions = sub.add_parser("rep").add_subparsers(dest="action", required=True)
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


def _linalg_error():
    """numpy's LinAlgError, or () while numpy is not loaded and nothing can
    have raised it."""
    numpy = sys.modules.get("numpy")
    return () if numpy is None else numpy.linalg.LinAlgError


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_angle_flag_values(sys.argv[1:] if argv is None else argv))
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
        print(f"degenerate evaluation point: {exc}", file=sys.stderr)
        return 3
    except _linalg_error() as exc:
        # a ValueError subclass, but a numeric failure rather than bad input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
