"""Span timing around the public entry points of tl_entangle's modules.

`install(tracer)` replaces each entry point, wherever a tl_entangle module
holds it, by a wrapper that records a span: calls, total time and self time
(total minus the time of the spans it encloses).  Spans are aggregated per
name in memory and read out once, by `Tracer.report()`, when the run ends.
A few hot inner functions get a call counter instead of a span.  Nothing
under src/ changes; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self._stack = []
        self._cache_baselines = {}

    def span(self, name, fn, merge=False, before=None, after=None):
        """Wrap fn in a span; merge=True folds a call nested in a span of the
        same name into the outer one (load_corpus -> parse_tangle)."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if merge and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def watch_cache(self, name, cached):
        """Report the misses of an lru_cache from the moment of installation."""
        self._cache_baselines[name] = (cached, cached.cache_info().misses)

    def report(self):
        misses = {name: cached.cache_info().misses - base
                  for name, (cached, base) in self._cache_baselines.items()}
        return {
            "spans": {n: [self.calls[n], self.total[n], self.self_s[n]]
                      for n in self.calls},
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "misses": misses,
        }


def _replace_function(original, wrapper):
    """Point every tl_entangle module attribute that holds original at wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "tl_entangle" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Import tl_entangle and wrap its entry points; returns nothing."""
    from tl_entangle import (cli, connectomes, diagrams, entanglement,
                             jones_wenzl, scalars, skein, spaces, su2, tangle_dsl)

    def wrap_functions(name, functions, **kw):
        for fn in functions:
            _replace_function(fn, tracer.span(name, fn, **kw))

    def wrap_method(name, cls, method, **kw):
        setattr(cls, method, tracer.span(name, vars(cls)[method], **kw))

    def sample(name):
        return lambda element: tracer.samples[name].append(len(element.terms))

    seen_points = set()

    def note_point(args):
        space, point = args[0], args[1]
        key = (space.n, point.theta)
        tracer.counts["spaces.ortho_transform.repeats"] += key in seen_points
        seen_points.add(key)

    wrap_functions("cli.main", [cli.main])
    wrap_functions("tangle_dsl.parse", [tangle_dsl.parse_tangle, tangle_dsl.load_corpus],
                   merge=True)
    wrap_method("skein.to_element", skein.SliceWord, "to_element",
                after=sample("skein.terms_expanded"))
    wrap_functions("skein.bracket", [skein.bracket])
    tracer.watch_cache("jones_wenzl", jones_wenzl.jones_wenzl)
    wrap_functions("jones_wenzl", [jones_wenzl.jones_wenzl])
    wrap_functions("scalars.sqrt_normalizer", [scalars.sqrt_normalizer])
    scalars.RationalFn.__init__ = tracer.counter(
        "scalars.rational_new", scalars.RationalFn.__init__)
    tracer.watch_cache("spaces.qudit_space", spaces.qudit_space)
    wrap_functions("spaces.qudit_space", [spaces.qudit_space])
    wrap_method("spaces.dressed_numeric", spaces.DiagramState, "dressed_numeric",
                after=sample("spaces.terms_dressed"))
    wrap_method("spaces.raw_overlaps", spaces.DiagramState, "raw_overlaps")
    wrap_method("spaces.ortho_transform", spaces.QuditSpace, "ortho_transform",
                before=note_point)
    wrap_method("spaces.projector_element", spaces.QuditSpace, "projector_element")
    wrap_method("diagrams.compose", diagrams.TLElement, "compose")
    diagrams.PlanarDiagram.compose_with = tracer.counter(
        "diagrams.compose_with", diagrams.PlanarDiagram.compose_with)
    wrap_functions("diagrams.glue_network", [diagrams.glue_network])
    wrap_functions("entanglement.measures",
                   [entanglement.schmidt_rank, entanglement.entanglement_entropy,
                    entanglement.local_ranks, entanglement.three_tangle,
                    entanglement.slocc_tripartite_class], merge=True)
    wrap_functions("entanglement.replica_check", [entanglement.replica_check])
    wrap_functions("connectomes.representative_state", [connectomes.representative_state])
    wrap_functions("connectomes.enumerate", [connectomes.enumerate_connectomes])
    wrap_functions("su2", [su2.hw_rank_table, su2.highest_weight_vectors,
                           su2.classify_hw_tripartite], merge=True)


def merge_reports(reports):
    """Sum the reports of several traced processes."""
    out = {"spans": {}, "counts": defaultdict(int), "samples": defaultdict(list),
           "misses": defaultdict(int), "import_s": 0.0}
    for rep in reports:
        for name, (calls, total, self_s) in rep["spans"].items():
            c, t, s = out["spans"].get(name, (0, 0.0, 0.0))
            out["spans"][name] = (c + calls, t + total, s + self_s)
        for key in ("counts", "misses"):
            for name, value in rep[key].items():
                out[key][name] += value
        for name, values in rep["samples"].items():
            out["samples"][name] += values
        out["import_s"] += rep["import_s"]
    return out
