"""Outside-in tracing of a sumess sweep.

`install` replaces public functions of the sumess layers with timing
wrappers, from outside the package: nothing under src/ knows about it.
Each wrapper records a span (name, request, start, end, parent) and adds
its duration to the parent's child time, so a span's self time is its
duration minus the time its child spans cover, and the self times of all
spans under the root add up to the root's duration.

Spans stay in memory and are written out by `Tracer.dump` at the end.
The hot leaf calls (`join_masks`, `cyclic_mask`) are only aggregated,
not kept one by one: there are hundreds of thousands of them per sweep.
The request of a span is the module being analysed, set when its
FiniteModule is built.
"""
from __future__ import annotations

import functools
import json
import time

THEOREM_IDS = (
    "prop-semisimple",
    "ex-1.2",
    "deg1-S",
    "thm-2.13",
    "deg1-interactions",
    "complete",
    "trianglefree",
    "npartite",
    "finiteness",
    "thm-1.5",
    "thm-girth-S",
    "thm-girth-N",
)

HOT = frozenset({"modules.join", "modules.cyclic"})

GRAPH_INVARIANTS = (
    "diameter",
    "girth",
    "triangle",
    "component_count",
    "complement_components",
    "is_clique",
    "k_regular",
)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [span id, child seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.spans: list[tuple] = []  # (id, parent, name, request, start, end)
        self.counts: dict[str, float] = {}
        self.request = ""
        self._next_id = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, fn, name: str, after=None):
        """Wrap fn in a span; after(args, result) runs outside the timing."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        agg = self.stats.setdefault(name, [0, 0.0, 0.0])
        keep = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    spans.append((frame[0], parent, name, self.request, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, fn, name: str):
        """Wrap fn so that each call is counted, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "request", "start", "end"],
                    "spans": self.spans,
                    "stats": self.stats,
                    "counts": self.counts,
                },
                fh,
            )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each sumess layer in tracer spans."""
    from sumess import analysis, corpus, graphs, lattice, modules, specfile, theorems

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, tracer.span(getattr(owner, attr), name, after))

    def module_built(args, _):
        mod = args[0]
        tracer.request = mod.presentation.name
        tracer.count("modules.action_ring_elems", mod.endo_count)

    def lattice_built(args, _):
        count = args[0].count
        tracer.count("lattice.submodules", count)
        tracer.counts["lattice.max_submodules"] = max(
            count, tracer.counts.get("lattice.max_submodules", 0)
        )

    def graph_built(args, _):
        graph = args[0]
        tracer.count("graphs.vertices", graph.n_vertices)
        tracer.count("graphs.edges", sum(r.bit_count() for r in graph.rows) // 2)

    distinct: set = set()

    def complements_asked(args, _):
        distinct.add((tracer.request, args[1], args[2]))
        tracer.counts["lattice.complements_distinct"] = len(distinct)

    def rows_made(_, result):
        tracer.count("corpus.rows", len(result.rows))

    FM, Sub = modules.FiniteModule, modules.Submodule
    patch(FM, "__init__", "modules.build", module_built)
    patch(FM, "join_masks", "modules.join")
    patch(FM, "cyclic_mask", "modules.cyclic")
    Sub.label = property(tracer.span(Sub.label.fget, "modules.gens"))
    patch(analysis, "is_isomorphic", "modules.iso")
    patch(analysis, "count_homs", "modules.hom")
    analysis.ModuleAnalysis.iso = tracer.counter(analysis.ModuleAnalysis.iso, "analysis.iso")

    SL = lattice.SubmoduleLattice
    patch(SL, "__init__", "lattice.build", lattice_built)
    patch(SL, "complements_within", "lattice.complements", complements_asked)
    patch(SL, "strongly_disjoint", "lattice.strongly_disjoint")

    patch(graphs.EssGraph, "__init__", "graphs.build", graph_built)
    for attr in GRAPH_INVARIANTS:
        patch(graphs.EssGraph, attr, "graphs.invariants")
    patch(corpus, "export_dot", "graphs.dot")

    for tid in THEOREM_IDS:
        theorems.REGISTRY[tid] = tracer.span(theorems.REGISTRY[tid], f"theorems.{tid}")

    patch(specfile, "load_spec", "specfile.load")
    patch(corpus, "run_corpus", "corpus.run", rows_made)
    patch(corpus, "write_csv", "corpus.csv_write")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced sweep, as name -> (value, unit)."""
    t, c = tracer, tracer.counts
    complements = t.calls("lattice.complements")
    iso_asked = c.get("analysis.iso", 0)
    out = {
        "modules.build_s": (t.self_s("modules.build"), "s"),
        "modules.action_ring_elems": (c.get("modules.action_ring_elems", 0), "count"),
        "modules.join_calls": (t.calls("modules.join"), "count"),
        "modules.join_s": (t.self_s("modules.join"), "s"),
        "modules.cyclic_calls": (t.calls("modules.cyclic"), "count"),
        "modules.cyclic_s": (t.self_s("modules.cyclic"), "s"),
        "modules.iso_calls": (t.calls("modules.iso"), "count"),
        "modules.iso_s": (t.self_s("modules.iso"), "s"),
        "modules.hom_calls": (t.calls("modules.hom"), "count"),
        "modules.hom_s": (t.self_s("modules.hom"), "s"),
        "modules.gens_s": (t.self_s("modules.gens"), "s"),
        "lattice.build_s": (t.self_s("lattice.build"), "s"),
        "lattice.submodules": (c.get("lattice.submodules", 0), "count"),
        "lattice.max_submodules": (c.get("lattice.max_submodules", 0), "count"),
        "lattice.complements_calls": (complements, "count"),
        "lattice.complements_s": (t.self_s("lattice.complements"), "s"),
        "lattice.complements_distinct_ratio": (
            c.get("lattice.complements_distinct", 0) / complements if complements else 0.0,
            "ratio",
        ),
        "lattice.strongly_disjoint_calls": (t.calls("lattice.strongly_disjoint"), "count"),
        "lattice.strongly_disjoint_s": (t.self_s("lattice.strongly_disjoint"), "s"),
        "graphs.build_s": (t.self_s("graphs.build"), "s"),
        "graphs.vertices": (c.get("graphs.vertices", 0), "count"),
        "graphs.edges": (c.get("graphs.edges", 0), "count"),
        "graphs.invariants_s": (t.self_s("graphs.invariants"), "s"),
        "graphs.invariant_calls": (t.calls("graphs.invariants"), "count"),
        "graphs.dot_s": (t.self_s("graphs.dot"), "s"),
        "analysis.iso_cache_ratio": (
            t.calls("modules.iso") / iso_asked if iso_asked else 0.0,
            "ratio",
        ),
    }
    for tid in THEOREM_IDS:
        out[f"theorems.{tid}.self_s"] = (t.self_s(f"theorems.{tid}"), "s")
    out["specfile.load_s"] = (t.self_s("specfile.load"), "s")
    out["corpus.self_s"] = (t.self_s("corpus.run"), "s")
    out["corpus.csv_write_s"] = (t.self_s("corpus.csv_write"), "s")
    out["corpus.rows"] = (c.get("corpus.rows", 0), "count")
    return out
