"""Per-layer tracing from outside the program.

The tracer rebinds public functions of ``pseudometric`` to timing wrappers
in every module namespace that holds them (``cli``, ``fuzz``, ``reflection``
and ``morphisms`` bind names at import, so patching the defining module
alone would miss their calls). Each call records a span: layer, start,
end, parent span and request id, in compact arrays kept in memory and
written out when the run ends. Counts are taken at the same boundaries from
the arguments and results. Self time is a span's duration minus the part
its direct children cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# Layer -> (self or total time, [(module, attribute)]). An attribute with a
# dot is a method; "fuzz._RUNNERS[...]" entries are the suite runners.
LAYERS: dict[str, tuple[str, list[tuple[str, str]]]] = {
    "cli.main": ("self", [("cli", "main")]),
    "document.parse": ("self", [("document", "load_space"), ("document", "parse_document")]),
    "document.emit": ("self", [("document", "emit_document")]),
    "core.validate": ("self", [("core", "validate_pseudometric")]),
    "core.space_new": ("self", [("core", "Space.__init__")]),
    "core.zero_classes": ("self", [("core", "zero_classes"), ("core", "zero_blocks_unchecked")]),
    "topology.query": (
        "self",
        [("core", "saturate"), ("core", "class_of")]
        + [
            ("topology", f)
            for f in (
                "open_ball", "is_open", "closure", "interior", "boundary", "is_closed",
                "is_cauchy", "limit_points", "complete_via_boundary", "closed_via_completeness",
            )
        ],
    ),
    "reflection.reflect": (
        "self",
        [("reflection", "metric_reflection"), ("reflection", "projection_as_pseudoisometry")],
    ),
    "reflection.well_defined": ("self", [("reflection", "check_well_defined")]),
    "morphisms.search": ("self", [("morphisms", "find_isometry")]),
    "morphisms.pseudo": ("self", [("morphisms", "are_pseudoisometric")]),
    "morphisms.oracle": ("self", [("morphisms", "brute_force_pseudoisometry")]),
    "morphisms.check": (
        "self",
        [
            ("morphisms", f)
            for f in ("is_pseudoisometry", "is_distance_preserving", "compose", "induced_reflection_map")
        ],
    ),
    "constructions.generate": (
        "self", [("constructions", "random_space"), ("constructions", "random_superspace")]
    ),
    "constructions.glue": (
        "self", [("constructions", "glue_zero_point"), ("constructions", "completion_glue")]
    ),
    "constructions.cec": (
        "self",
        [("constructions", f) for f in ("in_cec", "is_superspace", "check_cec_minimality")],
    ),
    "fuzz.topology": ("total", [("fuzz", "_RUNNERS[topology]")]),
    "fuzz.morphisms": ("total", [("fuzz", "_RUNNERS[morphisms]")]),
    "fuzz.constructions": ("total", [("fuzz", "_RUNNERS[constructions]")]),
}

LAYER_NAMES = list(LAYERS)


def _count_validate(counts, args, kwargs, result) -> None:
    labels = args[0] if args else kwargs["labels"]
    counts["core.triangle_triples"] += len(labels) ** 3
    counts["core.violations"] += len(result.violations)


def _count_parse(counts, args, kwargs, result) -> None:
    counts["document.in_bytes"] += len((args[0] if args else kwargs["text"]).encode())


def _count_search(counts, args, kwargs, result) -> None:
    witness, stats = result
    counts["morphisms.nodes"] += stats.nodes
    counts["morphisms.distance_checks"] += stats.distance_checks
    counts["morphisms.signature_prunes"] += stats.signature_prunes
    if witness is not None:
        counts["morphisms.witness_points"] += witness.domain.n
        counts["morphisms.witness_nodes"] += stats.nodes


COUNTERS = {
    ("core", "validate_pseudometric"): _count_validate,
    ("document", "parse_document"): _count_parse,
    ("morphisms", "find_isometry"): _count_search,
}


class Tracer:
    """Spans and counts of one traced pass; ``install`` and ``remove`` the wrappers."""

    def __init__(self) -> None:
        self.layer = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request_of = array("l")
        self.request = 0
        self.counts: list[Counter] = [Counter()]
        self._stack: list[int] = []
        self._undo: list[tuple[object, object, object]] = []

    def begin_request(self, request: int) -> None:
        self.request = request
        while len(self.counts) <= request:
            self.counts.append(Counter())

    def _wrap(self, layer_id: int, fn, counter):
        layer, start, end = self.layer, self.start, self.end
        parent, request_of, stack = self.parent, self.request_of, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            request_of.append(self.request)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                counter(self.counts[self.request], args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "pseudometric") -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for layer_id, (_, targets) in enumerate(LAYERS.values()):
            for module_name, attr in targets:
                module = sys.modules[f"{package}.{module_name}"]
                counter = COUNTERS.get((module_name, attr))
                if attr.startswith("_RUNNERS["):
                    runners, key = module._RUNNERS, attr[len("_RUNNERS["):-1]
                    self._set(runners, key, self._wrap(layer_id, runners[key], counter))
                elif "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, method, self._wrap(layer_id, getattr(cls, method), counter))
                else:
                    original = getattr(module, attr)
                    wrapper = self._wrap(layer_id, original, counter)
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, name, wrapper)

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def remove(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def layer_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds per layer (self or total, as declared) and outermost calls per layer.

        A call is outermost when its parent span belongs to another layer, so
        a nested call inside the same layer is not counted twice.
        """
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        kinds = [LAYERS[name][0] for name in LAYER_NAMES]
        seconds = [0.0] * len(LAYER_NAMES)
        calls = [0] * len(LAYER_NAMES)
        for i in range(n):
            lid = self.layer[i]
            dur = self.end[i] - self.start[i]
            seconds[lid] += dur if kinds[lid] == "total" else dur - child[i]
            p = self.parent[i]
            if p < 0 or self.layer[p] != lid:
                calls[lid] += 1
        return dict(zip(LAYER_NAMES, seconds)), dict(zip(LAYER_NAMES, calls))

    def covered(self) -> float:
        """Seconds covered by outermost spans, summed over all requests."""
        return sum(self.end[i] - self.start[i] for i in range(len(self.layer)) if self.parent[i] < 0)

    def totals(self) -> Counter:
        return sum(self.counts, Counter())

    def write(self, path: str) -> None:
        """All spans as gzip'd tab-separated lines: layer, start, end, parent, request."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("layer\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self.layer)):
                fh.write(
                    f"{LAYER_NAMES[self.layer[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.request_of[i]}\n"
                )
