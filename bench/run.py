"""The repository benchmark: one seeded workload, end to end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload cli_oneshot|theta_sweep|replica_ring \
                         --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the same workload with spans around every layer and reports the per-layer
metrics, the tracing overhead and the share of op time no span covers.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a readable summary goes to stderr.  Every run starts
fresh worker processes, so no cache survives from one run into the next.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import StartProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0
WORKLOADS = ("cli_oneshot", "theta_sweep", "replica_ring")

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}
# (metric, span name, field) with field 0 = calls, 2 = self seconds
SPAN_METRICS = (
    ("cli.main.self_s", "cli.main", 2),
    ("tangle_dsl.parse.calls", "tangle_dsl.parse", 0),
    ("tangle_dsl.parse.self_s", "tangle_dsl.parse", 2),
    ("skein.to_element.calls", "skein.to_element", 0),
    ("skein.to_element.self_s", "skein.to_element", 2),
    ("skein.bracket.self_s", "skein.bracket", 2),
    ("jones_wenzl.calls", "jones_wenzl", 0),
    ("jones_wenzl.self_s", "jones_wenzl", 2),
    ("scalars.sqrt_normalizer.calls", "scalars.sqrt_normalizer", 0),
    ("scalars.sqrt_normalizer.self_s", "scalars.sqrt_normalizer", 2),
    ("spaces.qudit_space.self_s", "spaces.qudit_space", 2),
    ("spaces.dressed_numeric.self_s", "spaces.dressed_numeric", 2),
    ("spaces.raw_overlaps.self_s", "spaces.raw_overlaps", 2),
    ("spaces.ortho_transform.calls", "spaces.ortho_transform", 0),
    ("spaces.ortho_transform.self_s", "spaces.ortho_transform", 2),
    ("spaces.projector_element.self_s", "spaces.projector_element", 2),
    ("diagrams.compose.calls", "diagrams.compose", 0),
    ("diagrams.compose.self_s", "diagrams.compose", 2),
    ("diagrams.glue_network.calls", "diagrams.glue_network", 0),
    ("diagrams.glue_network.self_s", "diagrams.glue_network", 2),
    ("entanglement.measures.self_s", "entanglement.measures", 2),
    ("entanglement.replica_check.self_s", "entanglement.replica_check", 2),
    ("connectomes.representative_state.self_s", "connectomes.representative_state", 2),
    ("connectomes.enumerate.self_s", "connectomes.enumerate", 2),
    ("su2.self_s", "su2", 2),
)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("TL_ENTANGLE_THREADS", None)
    return env


def build():
    """The program is Python: check the sources are there and byte-compile
    them, and the benchmark, so every process starts from the same .pyc files."""
    if not (SRC / "tl_entangle" / "cli.py").is_file():
        raise BenchError(f"no tl_entangle sources under {SRC}")
    for package in (SRC / "tl_entangle", BENCH):
        if not compileall.compile_dir(str(package), quiet=1):
            raise BenchError(f"{package} does not compile")


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("the run exceeded its time limit")
        return left


def spawn_worker(deadline, *args):
    """Run bench/worker.py; returns (seconds from start to READY, result dict)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    start = time.perf_counter()
    # own process group, so a kill at the deadline also ends its CLI children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    killer = threading.Timer(deadline.left(), os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if line.strip() != b"READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(map(str, args))} failed "
                         f"(exit {proc.returncode})")
    lines = rest.decode().strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def import_seconds(deadline):
    """Median time of `import tl_entangle.cli` in fresh processes."""
    code = ("import time; t = time.perf_counter(); import tl_entangle.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             env=child_env(), cwd=ROOT, timeout=deadline.left())
        if out.returncode != 0:
            raise BenchError("import tl_entangle.cli failed")
        samples.append(float(out.stdout))
    return statistics.median(samples)


def setup_samples(base, deadline, count):
    """(scaled, raw) set-up seconds of `count` fresh workers."""
    probe = StartProbe()
    probe.sample()
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        ready_s = spawn_worker(deadline, *base, "--setup-only")[0]
        probe.sample()
        samples.append((ready_s * probe.factor(start, start + ready_s), ready_s))
    return samples


def end_to_end(args, deadline):
    base = ("--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds)
    # set-ups before and after the timed run, so that no one slow phase of
    # the machine covers all of them
    setups = setup_samples(base, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    _, res = spawn_worker(deadline, *base)
    setups += setup_samples(base, deadline, SETUP_SAMPLES // 2)
    setup_s = statistics.median(scaled for scaled, _ in setups)
    raw_setup_s = statistics.median(raw for _, raw in setups)
    lat = res["latencies"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    raw = statistics.quantiles(res["raw_latencies"], n=10, method="inclusive")
    completed = res["attempted"] - res["failed"]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": completed / sum(lat),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "cpu_ms_per_op": res["cpu_s"] / res["attempted"] * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"{res['attempted']} ops in {res['rounds']} rounds, {res['wall_s']:.2f} s; "
        f"p50 and p90 over n={len(lat)} samples ({len(lat) // 10} beyond p90)",
        f"raw, before scaling to the reference speed: setup_s "
        f"{raw_setup_s:.4f}, ops_per_s "
        f"{completed / sum(res['raw_latencies']):.4g}, p50 {raw[4] * 1e3:.4g} ms, "
        f"p90 {raw[8] * 1e3:.4g} ms, cpu_ms_per_op "
        f"{res['raw_cpu_s'] / res['attempted'] * 1e3:.4g}",
    ]
    return res, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes


def _median_or_zero(values):
    return statistics.median(values) if values else 0


def per_layer(args, deadline):
    base = ("--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds)
    _, res = spawn_worker(deadline, *base, "--trace")
    trace = res["trace"]
    if args.workload == "cli_oneshot":
        traced_s, untraced_s = res["traced_s"], res["untraced_s"]
        covered = trace["import_s"] + trace["spans"].get("cli.main", (0, 0.0, 0.0))[1]
        uncovered = 1.0 - covered / traced_s
        failed = res["failed"]
    else:
        _, twin = spawn_worker(deadline, *base, "--rounds", res["rounds"])
        traced_s, untraced_s = sum(res["latencies"]), sum(twin["latencies"])
        _, op_total, op_self = trace["spans"]["op"]
        uncovered = op_self / op_total
        failed = res["failed"] + twin["failed"]
    spans, counts = trace["spans"], trace["counts"]
    misses, samples = trace["misses"], trace["samples"]
    ortho_calls = spans.get("spaces.ortho_transform", (0,))[0]
    expanded = samples.get("skein.terms_expanded", [])
    dressed = samples.get("spaces.terms_dressed", [])
    metrics = {"cli.import_s": (import_seconds(deadline), "s")}
    for metric, span, field in SPAN_METRICS:
        value = spans.get(span, (0, 0.0, 0.0))[field]
        metrics[metric] = (value, "count" if field == 0 else "s")
    metrics.update({
        "skein.terms_expanded": (sum(expanded), "count"),
        "jones_wenzl.misses": (misses.get("jones_wenzl", 0), "count"),
        "scalars.rational_new": (counts.get("scalars.rational_new", 0), "count"),
        "spaces.qudit_space.misses": (misses.get("spaces.qudit_space", 0), "count"),
        "spaces.terms_dressed": (sum(dressed), "count"),
        "spaces.point_repeat_ratio": (
            counts.get("spaces.ortho_transform.repeats", 0) / ortho_calls
            if ortho_calls else 0.0, "ratio"),
        "diagrams.compose_with.calls": (counts.get("diagrams.compose_with", 0), "count"),
        "trace.overhead": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.uncovered_share": (uncovered, "ratio"),
        "input.point_repeat_share": (res["point_repeat_share"], "ratio"),
        "input.terms_expanded_p50": (_median_or_zero(expanded), "count"),
        "input.terms_expanded_max": (max(expanded, default=0), "count"),
        "input.terms_dressed_p50": (_median_or_zero(dressed), "count"),
        "input.terms_dressed_max": (max(dressed, default=0), "count"),
    })
    notes = [f"{res['attempted']} traced ops in {res['rounds']} rounds; "
             f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s of op time"]
    res = dict(res, failed=failed)
    return res, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = Deadline(DEADLINE_S)
    try:
        build()
        measure = per_layer if args.trace else end_to_end
        res, metrics, notes = measure(args, deadline)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in notes + res["failures"]:
        print(f"[{args.workload} seed {args.seed}] {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
