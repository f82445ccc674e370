"""Byte-identity sweep of the command line, run in one process.

    python tests/cli_sweep.py OUT.jsonl
    python tests/cli_sweep.py --compare BASE.jsonl HEAD.jsonl

Run it from the repository root.  The first form runs tl_entangle.cli.main
in-process over a fixed list of invocations and writes one JSON line per
invocation: its argv, exit code, stdout and stderr.  The package is the one
on the import path, so pointing PYTHONPATH at two source trees and comparing
the two files shows every invocation whose output a change moved.  The
second form prints the number of invocations that differ and, for the first
few, their argv, any change of exit code, and the first differing stdout and
stderr line of each side; it exits 0 either way.  pytest does not collect
this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

POINTS = ([], ["--k", "4"], ["--k", "6"], ["--k", "9"], ["--theta=-0.05"], ["--theta=pi/4"])
FORMATS = (["--format", "json"], ["--format", "csv"])
SPINS = ("1/2,1/2", "1,1", "1,2", "1/2,1", "1/2,1/2,1/2", "1/2,1,1", "1,1,1", "3/2,3/2")
SCAN = ["scan-tangle3", "quasiw", "--theta-min", "0.02pi", "--theta-max", "0.12pi",
        "--steps", "200"]
# small connectomes that every command answers in well under a second, then
# documents that --adj rejects: floats, strings, booleans and a non-integer
# "punctures"
EXTRA_ADJ = ("[[0,4],[4,0]]", "[[2,2],[2,2]]", "[[4,0],[0,4]]", "[[0,8],[8,0]]",
             "[[0,2,2],[2,0,2],[2,2,0]]", "[[0,4,4],[4,0,4],[4,4,0]]",
             '{"adj": [[0,2],[2,0]], "punctures": 2, "parties": 2}', "[[0,3],[3,0]]",
             "[[1]]", "[]",
             "[[0,4.9],[4.9,0]]", "[[0,4.0],[4.0,0]]", '[[0,"4"],["4",0]]',
             "[[false,true],[true,false]]", '{"adj": [[0,4],[4,0]], "punctures": 4.0}',
             '{"adj": [[0,4],[4,0]], "punctures": "4"}')
# committed documents with projectors of width 3 to 6 and crossings, for the
# exact printing of their coefficients; the paths are relative to the
# repository root, so that two sweeps run from there share their argv
DOCUMENTS = tuple(f"tests/sweep/{name}.tl" for name in (
    "jw3_twisted_trace", "jw4_clasp", "jw4_clasped_trace", "jw5_braid", "jw5_braid_trace",
    "jw6", "jw6_twisted_trace"))


def invocations():
    """The argv lists of the sweep, in a fixed order."""
    from tl_entangle.connectomes import enumerate_connectomes
    from tl_entangle.tangle_dsl import corpus_names, load_corpus

    out = []
    for name in corpus_names():
        for cmd in ("bracket", "reduce"):
            for mode in ("exact", "numeric"):
                for fmt in FORMATS:
                    out.append([cmd, name, "--mode", mode] + fmt)
    for doc in DOCUMENTS:
        for cmd in ("bracket", "reduce"):
            for fmt in FORMATS:
                out.append([cmd, doc, "--mode", "exact"] + fmt)
    for name in corpus_names():
        parties = [p[0] for p in load_corpus(name).parties]
        for point in POINTS:
            for fmt in FORMATS:
                for cmd in ("state", "classify", "tangle3"):
                    out.append([cmd, name] + point + fmt)
                for party in parties or ["A"]:
                    out.append(["entropy", name, "--party", party] + point + fmt)
    out.append(SCAN)
    adjs = [json.dumps([list(r) for r in c.adj]).replace(" ", "")
            for parties in (2, 3, 4) for c in enumerate_connectomes(parties)]
    for adj in adjs + list(EXTRA_ADJ):
        for fmt in FORMATS:
            out.append(["connectome", "classify", "--adj", adj] + fmt)
            for point in POINTS:
                out.append(["connectome", "state", "--adj", adj] + point + fmt)
    for parties in range(1, 8):
        for punctures in (0, 2, 4, 6):
            out.append(["connectome", "enumerate", "--parties", str(parties),
                        "--punctures", str(punctures)])
    for spins in SPINS:
        for fmt in FORMATS:
            out.append(["rep", "hw", "--spins", spins] + fmt)
    return out + parser_invocations()


def parser_invocations():
    """The parser's own output: help at each level, and a usage error at each
    level that has one (no command or action, an unknown one, and one unknown
    flag after each command's required arguments)."""
    commands = [([cmd], ["quasiw"]) for cmd in ("bracket", "reduce", "state", "classify",
                                                "tangle3")]
    commands += [(["entropy"], ["quasiw", "--party", "A"]), (SCAN[:1], SCAN[1:]),
                 (["connectome", "enumerate"], []),
                 (["connectome", "classify"], ["--adj", "[[0,4],[4,0]]"]),
                 (["connectome", "state"], ["--adj", "[[0,4],[4,0]]"]),
                 (["rep", "hw"], ["--spins", "1,1"])]
    out = [["--help"], ["connectome", "--help"], ["rep", "--help"]]
    out += [cmd + ["--help"] for cmd, _ in commands]
    out += [[], ["nosuch"], ["connectome"], ["rep"], ["connectome", "nosuch"],
            ["rep", "nosuch"]]
    out += [cmd + required + ["--nosuch"] for cmd, required in commands]
    return out


def run(argv):
    from tl_entangle import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit through here
            code = exc.code
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def compare(base_path, head_path, shown=5):
    def load(path):
        with open(path) as fh:
            return [json.loads(line) for line in fh]

    base, head = load(base_path), load(head_path)
    differ = [(b, h) for b, h in zip(base, head) if b != h]
    print(f"{len(differ)} of {len(head)} invocations differ"
          + ("" if len(base) == len(head) else f" ({len(base)} in the base sweep)"))
    for b, h in differ[:shown]:
        print("  " + " ".join(h["argv"]))
        if b["code"] != h["code"]:
            print(f"    exit code: {b['code']} -> {h['code']}")
        for stream in ("stdout", "stderr"):
            lines = zip(b[stream].splitlines() + [""], h[stream].splitlines() + [""])
            first = next(((x, y) for x, y in lines if x != y), None)
            if first is not None:
                print(f"    {stream} base: {first[0]}\n    {stream} head: {first[1]}")


def main(args):
    if args and args[0] == "--compare":
        compare(args[1], args[2])
        return
    import tl_entangle

    os.environ["COLUMNS"] = "80"  # argparse wraps help at the terminal's width
    cases = invocations()
    with open(args[0], "w") as fh:
        for argv in cases:
            fh.write(json.dumps(run(argv)) + "\n")
    print(f"swept {len(cases)} invocations of {tl_entangle.__file__}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
