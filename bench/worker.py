"""One benchmark worker process: set-up, then a closed loop of timed ops.

Usage (started by run.py from the repository root, PYTHONPATH=src):

    python3 bench/worker.py --workload W --seed N --seconds S
                            [--rounds B] [--trace] [--setup-only]

The worker prints READY on stdout as soon as its set-up is done; run.py times
process start to READY as setup_s.  Unless --setup-only, it then runs whole
rounds of ops, one at a time, until --seconds have passed and the workload's
minimum op count is reached (or exactly --rounds rounds), checks every
output after the timed loop, and prints one JSON line with the numbers.
Between ops it samples the machine's speed (speed.py); op and CPU times are
reported both raw and scaled to the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import checks
from speed import SpeedProbe, StartProbe
from workloads import MULTI_PARTY, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(BENCH_DIR, "traced_cli.py")
OP_TIMEOUT_S = 60


class InProcess:
    """theta_sweep and replica_ring: tl_entangle in this process."""

    def __init__(self, workload_name, workload, tracer):
        if tracer is not None:
            from tracing import install
            install(tracer)
        from tl_entangle import entanglement, tangle_dsl
        from tl_entangle.scalars import EvalPoint
        self.E = entanglement
        self.EvalPoint = EvalPoint
        self.states = {name: tangle_dsl.load_corpus(name).state() for name in MULTI_PARTY}
        if workload_name == "theta_sweep":
            warm = EvalPoint.from_level(4)
            for st in self.states.values():
                st.amplitudes(warm)
            self.run = self.theta_op
            self.check = checks.check_theta_op
        else:
            self.points = {k: EvalPoint.from_level(k) for k in workload.levels}
            self.amps = {(name, k): st.amplitudes(pt)
                         for name, st in self.states.items()
                         for k, pt in self.points.items()}
            self.run = self.replica_op
            self.check = checks.check_replica_op

    def theta_op(self, op):
        E = self.E
        amp = self.states[op["state"]].amplitudes(self.EvalPoint(op["theta"]))
        out = {"amplitudes": amp, "ranks": E.local_ranks(amp),
               "entropy": E.entanglement_entropy(amp)}
        if amp.shape == (2, 2, 2):
            out["tau3"] = E.three_tangle(amp)
            out["class"] = E.slocc_tripartite_class(amp)
        return out

    def replica_op(self, op):
        name, k = op["state"], op["k"]
        return self.E.replica_check(self.amps[(name, k)], self.states[name],
                                    self.points[k], op["n"])


class CliProcesses:
    """cli_oneshot: every op is a fresh `python -m tl_entangle.cli` process."""

    def __init__(self, traced):
        self.traced = traced
        self.env = dict(os.environ)
        self.env.pop("TL_ENTANGLE_THREADS", None)
        self.first_stdout = {}
        self.reports = []
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.count = 0

    def _spawn(self, argv, traced):
        cmd = [sys.executable] + ([TRACED_CLI] if traced else ["-m", "tl_entangle.cli"])
        start = time.perf_counter()
        proc = subprocess.run(cmd + argv, capture_output=True, env=self.env,
                              timeout=OP_TIMEOUT_S)
        return proc, time.perf_counter() - start

    def run(self, op):
        """Untraced: one child.  Traced: a traced and an untraced child back to
        back, in alternating order; the traced one is the op."""
        self.count += 1
        if not self.traced:
            proc, _ = self._spawn(op["argv"], False)
            return proc
        order = (True, False) if self.count % 2 else (False, True)
        results = {t: self._spawn(op["argv"], t) for t in order}
        proc, traced_s = results[True]
        self.traced_s += traced_s
        self.untraced_s += results[False][1]
        plain = results[False][0]
        if plain.returncode != proc.returncode or plain.stdout != proc.stdout:
            raise RuntimeError("traced and untraced runs printed different output")
        for line in proc.stderr.decode().splitlines():
            if line.startswith("TRACE "):
                self.reports.append(json.loads(line[6:]))
        return proc

    def check(self, op, proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode()[-200:]}"
        key = tuple(op["argv"])
        first = self.first_stdout.setdefault(key, proc.stdout)
        if first != proc.stdout:
            return "stdout differs from an earlier identical invocation"
        return checks.check_cli_op(op, proc.stdout.decode())


def point_repeat_share(ops):
    """Share of ops with an evaluation point whose point occurred earlier."""
    seen, repeats, with_point = set(), 0, 0
    for op in ops:
        point = op.get("k", op.get("theta"))
        if point is None:
            continue
        with_point += 1
        repeats += point in seen
        seen.add(point)
    return repeats / with_point if with_point else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace and args.workload != "cli_oneshot":
        from tracing import Tracer
        tracer = Tracer()
    if args.workload == "cli_oneshot":
        runner = CliProcesses(args.trace)
    else:
        runner = InProcess(args.workload, workload, tracer)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run = runner.run if tracer is None else tracer.span("op", runner.run)
    # a CLI op is a fresh process, so its speed reference is one too
    probe = StartProbe() if args.workload == "cli_oneshot" else SpeedProbe()
    done, outputs, spans = [], [], []
    rounds = 0
    probe.sample()
    probe_cpu = probe.cpu_s
    start, cpu_start = time.perf_counter(), time.process_time()
    children_start = resource.getrusage(resource.RUSAGE_CHILDREN)
    for ops in workload.rounds():
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = run(op)
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            spans.append((t0, time.perf_counter()))
            done.append(op)
            outputs.append(out)
            probe.maybe_sample()
        rounds += 1
        elapsed = time.perf_counter() - start
        if args.rounds is not None:
            if rounds >= args.rounds:
                break
        elif elapsed >= args.seconds and (args.trace or len(done) >= workload.min_ops):
            break
    wall = time.perf_counter() - start
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (time.process_time() - cpu_start - (probe.cpu_s - probe_cpu)
           + children.ru_utime - children_start.ru_utime
           + children.ru_stime - children_start.ru_stime)
    probe.sample()
    if args.workload == "cli_oneshot":
        rss_kb = children.ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = [t1 - t0 for t0, t1 in spans]
    scaled = [(t1 - t0) * probe.factor(t0, t1) for t0, t1 in spans]

    failures = []
    for op, out in zip(done, outputs):
        if isinstance(out, Exception):
            msg = f"{type(out).__name__}: {out}"
        else:
            msg = runner.check(op, out)
        if msg is not None:
            failures.append(f"{op}: {msg}")

    result = {
        "latencies": scaled, "raw_latencies": raw, "wall_s": wall,
        "cpu_s": cpu * sum(scaled) / sum(raw), "raw_cpu_s": cpu,
        "peak_rss_mb": rss_kb / 1024.0, "rounds": rounds,
        "attempted": len(done), "failed": len(failures), "failures": failures[:5],
        "point_repeat_share": point_repeat_share(done),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    elif args.trace:
        from tracing import merge_reports
        result["trace"] = merge_reports(runner.reports)
        result["traced_s"] = runner.traced_s
        result["untraced_s"] = runner.untraced_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
