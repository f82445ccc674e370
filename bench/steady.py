"""Steadiness self-check: do two sets of runs of the same code agree?

Usage, from the repository root:

    python3 bench/steady.py

For each workload in BENCHMARK.json it makes two sets of RUNS runs of
bench/run.py at the benchmark's run_seconds, each run with its own seed,
alternating between the sets so that a slow phase of the machine falls on
both.  For every end-to-end metric it reports each set's median and spread
(interquartile range over median) and how much worse the second median is
than the first.  A metric passes when both spreads and the worsening stay
within the metric's bound from BENCHMARK.json; the target for a steady
benchmark is a third of the bound.  Every run's attempted and failed op
counts are printed.  Exits 1 if any metric fails or any op fails its check.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload, seed, seconds):
    """One untraced run: (metric values, ops attempted, ops failed)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["attempted"], result["failed"]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    change = statistics.median(second) / statistics.median(first) - 1.0
    return change if better == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = ([], [])
        attempted = failed = 0
        for i in range(RUNS):
            for k, runs in enumerate(sets):
                seed = 1000 + 100 * k + i
                values, n_ops, n_failed = run_once(workload, seed, seconds)
                runs.append(values)
                attempted += n_ops
                failed += n_failed
                print(f"  {workload} set {k + 1} seed {seed}: {n_ops} ops, "
                      f"{n_failed} failed: "
                      + " ".join(f"{n}={v:.5g}" for n, v in values.items()),
                      file=sys.stderr, flush=True)
        ok &= failed == 0
        print(f"{workload} ({RUNS} runs per set, {seconds} s): {attempted} ops, "
              f"{failed} failed{'' if failed == 0 else '  FAIL'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in sets[0]]
            b = [r[name] for r in sets[1]]
            spreads = (spread(a), spread(b))
            worse = worsening(a, b, metric["better"])
            passed = worse <= bound and max(spreads) <= bound
            steady = max(spreads) < bound / 3
            ok &= passed
            print(f"  {name:16s} {metric['unit']:4s} median {statistics.median(a):10.4g} / "
                  f"{statistics.median(b):10.4g}  spread {spreads[0]:.3f} / "
                  f"{spreads[1]:.3f}  worse {worse:+.3f}  bound {bound}  "
                  f"{'pass' if passed else 'FAIL'}{'' if steady else ' (spread above bound/3)'}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
