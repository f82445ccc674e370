"""Line-oriented text format for slice words with party declarations.

Example document:

    name maxent
    mode kauffman
    top 0
    cup 1
    cup 2
    cup 3
    cup 4
    bottom 8
    party A 1..4
    party B 5..8

'#' starts a comment.  `bottom` is redundant but checked.  Party ranges are
1-based, consecutive, and must tile the bottom endpoints; a range of length
4(n-1) declares a dimension-n party.
"""

from __future__ import annotations

import os
import re

from .diagrams import WorkBoundError
from .skein import MODES, SliceWord, slice_width
from .spaces import DiagramState, PartyLayout

_CORPUS_DIR = os.path.join(os.path.dirname(__file__), "tangles")

_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")


class TangleParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line = line_no


class TangleDocument:
    def __init__(self, mode, top, ops, parties=(), name=None, lines=()):
        self.mode = mode
        self.name = name
        self.word = SliceWord(top, ops)
        self.lines = tuple(lines)
        self.parties = tuple(parties)
        self.bottom = self.word.final_width
        if self.parties:
            cursor = 1
            for pname, first, last in self.parties:
                if first != cursor:
                    raise ValueError(
                        f"party {pname} starts at {first}, expected {cursor}")
                size = last - first + 1
                if size % 4:
                    raise ValueError(
                        f"party {pname} covers {size} endpoints, not 4(n-1)")
                cursor = last + 1
            if cursor != self.bottom + 1:
                raise ValueError("party ranges must tile the bottom endpoints")

    @property
    def top(self):
        return self.word.n_top

    def layout(self):
        """The parties' PartyLayout, or None without parties: a range of
        4(n-1) endpoints is a dimension-n party."""
        if not self.parties:
            return None
        return PartyLayout(tuple((nm, (last - first + 1) // 4 + 1)
                                 for nm, first, last in self.parties))

    def element(self):
        """The expanded word; a WorkBoundError is a TangleParseError at the
        line (of lines, one per slice) of the slice that would pass it."""
        try:
            return self.word.to_element(self.mode)
        except WorkBoundError as exc:
            raise TangleParseError(self.lines[exc.step], str(exc)) from None

    def state(self):
        if not self.parties:
            raise ValueError("document declares no parties")
        if self.top != 0:
            raise ValueError("state documents must have top 0")
        return DiagramState(self.element(), self.layout())

    def _key(self):
        return (self.name, self.mode, self.top, self.word.ops, self.parties)

    def __eq__(self, other):
        return isinstance(other, TangleDocument) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def pretty(self):
        lines = []
        if self.name:
            lines.append(f"name {self.name}")
        lines.append(f"mode {self.mode}")
        lines.append(f"top {self.top}")
        for op in self.word.ops:
            lines.append(" ".join(str(x) for x in op))
        lines.append(f"bottom {self.bottom}")
        for nm, first, last in self.parties:
            lines.append(f"party {nm} {first}..{last}")
        return "\n".join(lines) + "\n"


_SLICES = ("cup", "cap", "e", "over", "under", "jw")


def parse_tangle(text):
    name = None
    mode = None
    top = None
    bottom_decl = None
    ops = []
    parties = []
    lines = []
    width = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]

        def args(n):
            if len(parts) != n + 1:
                raise TangleParseError(ln, f"{kw} takes {n} argument(s)")
            try:
                return [int(x) for x in parts[1:]]
            except ValueError:
                raise TangleParseError(ln, f"{kw} needs integer arguments")

        if kw == "name":
            if len(parts) < 2:
                raise TangleParseError(ln, "name needs a value")
            name = " ".join(parts[1:])
        elif kw == "mode":
            if len(parts) != 2 or parts[1] not in MODES:
                raise TangleParseError(ln, f"mode must be one of {MODES}")
            mode = parts[1]
        elif kw == "top":
            (top,) = args(1)
            if top < 0:
                raise TangleParseError(ln, "top cannot be negative")
            width = top
        elif kw == "bottom":
            (bottom_decl,) = args(1)
        elif kw in _SLICES:
            if width is None:
                raise TangleParseError(ln, "slice before top declaration")
            op = (kw, *args(2 if kw == "jw" else 1))
            try:
                width = slice_width(op, width)
            except ValueError as exc:
                raise TangleParseError(ln, str(exc))
            ops.append(op)
            lines.append(ln)
        elif kw == "party":
            if len(parts) != 3:
                raise TangleParseError(ln, "party takes a name and a range")
            match = _RANGE.match(parts[2])
            if not match:
                raise TangleParseError(ln, "party range must look like 1..4")
            first, last = int(match.group(1)), int(match.group(2))
            if last < first:
                raise TangleParseError(ln, "empty party range")
            if any(nm == parts[1] for nm, _, _ in parties):
                raise TangleParseError(ln, f"duplicate party {parts[1]}")
            if any(first <= hi and lo <= last for _, lo, hi in parties):
                raise TangleParseError(ln, "overlapping party ranges")
            parties.append((parts[1], first, last))
        else:
            raise TangleParseError(ln, f"unknown directive {kw!r}")
    if top is None:
        raise TangleParseError(0, "missing top declaration")
    if bottom_decl is not None and bottom_decl != width:
        raise TangleParseError(
            0, f"declared bottom {bottom_decl} but slices end at width {width}")
    try:
        return TangleDocument(mode or "kauffman", top, ops,
                              sorted(parties, key=lambda p: p[1]), name, lines)
    except ValueError as exc:
        raise TangleParseError(0, str(exc))


def corpus_names():
    """Names of the tangle files shipped with the package."""
    return sorted(f[:-3] for f in os.listdir(_CORPUS_DIR) if f.endswith(".tl"))


def load_corpus(name):
    path = os.path.join(_CORPUS_DIR, name + ".tl")
    if not os.path.isfile(path):
        raise KeyError(f"no shipped tangle named {name!r}")
    with open(path) as fh:
        return parse_tangle(fh.read())
