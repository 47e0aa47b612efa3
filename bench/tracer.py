"""Layer spans for specgraph, recorded from outside the package.

`Tracer.install()` replaces the public functions of every specgraph module
(and a few named private ones) with wrappers that record a span per call,
in every module namespace that holds a reference to them, so calls made
through `from .x import f` bindings are traced too. `FieldElement`
arithmetic is counted, not timed: there are millions of such calls and a
span each would swamp the trace.

Spans are kept in memory as (name, start, end, parent) tuples; `summarise`
turns them into the per-layer metrics named in bench/README.md.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

from specgraph.errors import CapExceeded

# module -> layer; corpus is data whose build time counts as family building
LAYERS = {
    "specgraph.finite_field": "finite_field",
    "specgraph.characters": "characters",
    "specgraph.graph_families": "graph_families",
    "specgraph.corpus": "graph_families",
    "specgraph.graph_core": "graph_core",
    "specgraph.spectra": "spectra",
    "specgraph.bounds": "bounds",
    "specgraph.cli": "cli",
}

# private functions that carry a layer metric of their own
PRIVATE_SPANS = {
    "specgraph.finite_field": ("_generator",),
    "specgraph.cli": ("_emit",),
}

ELEM_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__",
            "inverse")

ENGINES = ("graph_core.chromatic_number", "graph_core.independence_number",
           "graph_core.clique_number", "graph_core.isoperimetric_constant",
           "graph_core.is_isomorphic", "graph_core.automorphism_count")

EIG = ("spectra.eig_symmetric", "spectra.eig_symmetric_with_vectors")

SUMS = ("characters.gauss_sum", "characters.jacobi_sum", "characters.kloosterman_sum",
        "characters.eisenstein_sum", "characters.polynomial_character_sum",
        "characters.norm_restricted_sum")


def _traceable(module, name, obj) -> bool:
    if name.startswith("_") and name not in PRIVATE_SPANS.get(module.__name__, ()):
        return False
    if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
        return False
    return getattr(obj, "__module__", None) == module.__name__


class Tracer:
    """Span and counter recorder for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, args, kwargs):
        """Call fn inside a span; the span is stored when fn returns or raises."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = self.clock()
        exc = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            exc = e
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
            self._observe(name, idx, parent, args, exc, result if exc is None else None)
        return result

    def _observe(self, name, idx, parent, args, exc, result) -> None:
        """Counters taken at the span boundary from arguments and results."""
        if name in ENGINES:
            self.add(f"{name}.attempts")
            if isinstance(exc, CapExceeded):
                self.add(f"{name}.refusals")
        if exc is not None:
            return
        if name == "graph_core.isoperimetric_constant":
            self.add("beta_subsets", 1 << args[0].n)
        elif name in EIG:
            n = len(args[0])
            self.add("eig_calls")
            self.add("eig_n3", n ** 3)
            if "first_eig" not in self.counts:
                self.counts["first_eig"] = idx
        elif name in SUMS:
            self.add("sums")
        elif name == "bounds.audit_bounds":
            self.add("records", len(result.records))
            self.add("skipped", len(result.skipped))
        if (name.startswith("graph_families.")
                and (parent < 0 or not self.spans[parent][0].startswith("graph_families."))
                and hasattr(result, "edge_count")):
            self.add("builds")
            self.add("edges_built", result.edge_count)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs)
        return wrapper

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["elem_ops"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function, in every specgraph module that binds it."""
        import specgraph.cli  # noqa: F401  (imports every layer)
        from specgraph.finite_field import FieldElement

        modules = {m: sys.modules[m] for m in sorted(sys.modules)
                   if m == "specgraph" or m.startswith("specgraph.")}
        wrappers = {}
        for mod_name, layer in LAYERS.items():
            module = modules[mod_name]
            for name, obj in list(vars(module).items()):
                if _traceable(module, name, obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])
        self.counts["elem_ops"] = 0
        for op in ELEM_OPS:
            setattr(FieldElement, op, self._counted(getattr(FieldElement, op)))

    def summarise(self) -> dict:
        """Per-layer metrics of this process, from its spans and counters."""
        return layer_metrics(self.spans, self.counts)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts) -> dict:
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), s in zip(spans, selfs):
        by_name[name] = by_name.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1

    def self_of(*names):
        return sum(by_name.get(n, 0.0) for n in names)

    def self_where(pred):
        return sum(s for n, s in by_name.items() if pred(n))

    attempts = sum(counts.get(f"{e}.attempts", 0) for e in ENGINES)
    refusals = sum(counts.get(f"{e}.refusals", 0) for e in ENGINES)
    first = counts.get("first_eig")
    return {
        "graph_core.beta_s": self_of("graph_core.isoperimetric_constant"),
        "graph_core.beta_subsets": counts.get("beta_subsets", 0),
        "graph_core.chi_s": self_of("graph_core.chromatic_number"),
        "graph_core.iota_s": self_of("graph_core.independence_number"),
        "graph_core.omega_s": self_of("graph_core.clique_number"),
        "graph_core.omega_calls": calls.get("graph_core.clique_number", 0),
        "graph_core.metric_s": self_of("graph_core.diameter", "graph_core.girth",
                                       "graph_core.basic_metrics"),
        "graph_core.cap_attempts": attempts,
        "graph_core.cap_refusals_n": refusals,
        "graph_core.iso_s": self_of("graph_core.is_isomorphic"),
        "graph_core.aut_s": self_of("graph_core.automorphism_count"),
        "finite_field.construct_s": self_of("finite_field.construct_field",
                                            "finite_field.subfield_embedding",
                                            "finite_field._generator"),
        "finite_field.elem_ops": counts.get("elem_ops", 0),
        "characters.busy_s": self_where(lambda n: n.startswith("characters.")),
        "characters.sums": counts.get("sums", 0),
        "characters.eisenstein_s": self_of("characters.eisenstein_sum"),
        "graph_families.build_s": self_where(lambda n: n.startswith("graph_families.")),
        "graph_families.builds": counts.get("builds", 0),
        "graph_families.edges_built": counts.get("edges_built", 0),
        "spectra.eig_s": self_of(*EIG),
        "spectra.eig_calls": counts.get("eig_calls", 0),
        "spectra.eig_n3": counts.get("eig_n3", 0),
        "spectra.matrix_s": self_of("spectra.adjacency_matrix", "spectra.laplacian_matrix",
                                    "spectra.matrices"),
        "spectra.closed_form_s": self_where(
            lambda n: n.startswith("spectra.") and "closed_form" in n),
        "spectra.first_eig_s": (spans[first][2] - spans[first][1]) if first is not None else 0.0,
        "bounds.audit_s": self_where(lambda n: n.startswith("bounds.")),
        "bounds.records": counts.get("records", 0),
        "bounds.skipped": counts.get("skipped", 0),
        "cli.emit_s": self_of("cli._emit"),
        "cli.self_s": self_where(lambda n: n.startswith("cli.") and n != "cli._emit"),
        "spans": len(spans),
    }
