"""Spans and counters recorded from outside the library.

``Tracer.install`` swaps every public function named in ``SPANNED`` for a
wrapper that records a span (name, start, end, parent span), in every
``scpl`` module namespace that binds it: ``strategy`` imports the rewrite
rules by name, and ``MachineIndex`` and ``map_states`` are bound in several
modules, so patching only the defining module would miss most calls.
``uninstall`` puts the originals back.

Spans stay in memory, in flat arrays, until the run ends.  Self time and
call counts are derived from them afterwards; a span's self time is its
duration minus the durations of its direct children, which nest strictly
because the library runs on one thread.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

# (module, public name) pairs that get a span.  Labels are "<module>.<name>".
# MachineIndex is a class, but no module tests instances against it, so a
# plain wrapper around the constructor call suffices.
SPANNED = (
    ("model", "MachineIndex"), ("model", "map_states"),
    ("model", "canonicalize"), ("model", "check_well_formed"),
    ("rewrite", "prune_conditions"), ("rewrite", "repair_initial"),
    ("rewrite", "delete_simple_state"), ("rewrite", "delete_or_state"),
    ("rewrite", "delete_and_state"), ("rewrite", "delete_transition"),
    ("rewrite", "finalize_optionals"), ("rewrite", "reachable_or"),
    ("rewrite", "reachable_and"),
    ("strategy", "instantiate"), ("strategy", "check_confluence"),
    ("formats", "parse_product_line"), ("formats", "serialize_product_line"),
    ("formats", "export_dot"),
    ("features", "validate_feature_model"),
    ("features", "validate_configuration"),
    ("binding", "nsc"), ("binding", "validate_imp"),
    ("cli", "main"),
)

# Counters recorded at the same boundaries as the spans.
COUNTERS = ("map_states.nodes", "reachable_and.tuples",
            "composed_transitions", "prune_steps")


class Tracer:
    """Records spans while installed; benchmark operations open root spans
    with ``begin_op``/``end_op`` so the spans of one operation share it."""

    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._table: dict[int, tuple[object, object]] | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --

    def label_id(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            self.labels.append(label)
            return len(self.labels) - 1

    def _open(self, label: int) -> int:
        i = len(self.name)
        self.name.append(label)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(i)
        return i

    def begin_op(self, label: str) -> int:
        """Opens a root span for one benchmark call; returns its index."""
        return self._open(self.label_id(label))

    def end_op(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, label: str, fn):
        tracer = self
        lid = self.label_id(label)

        def wrapper(*args, **kwargs):
            i = tracer._open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end_op(i)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --

    def _replacements(self) -> dict[int, tuple[object, object]]:
        import scpl.model
        import scpl.rewrite
        import scpl.strategy

        counts = self.counts
        out: dict[int, tuple[object, object]] = {}
        for module, attr in SPANNED:
            orig = getattr(sys.modules[f"scpl.{module}"], attr)
            out[id(orig)] = (orig, self._wrap(f"{module}.{attr}", orig))

        orig_map = scpl.model.map_states
        map_span = out[id(orig_map)][1]

        def map_states(sc, fn):
            def counted(state):
                counts["map_states.nodes"] += 1
                return fn(state)
            return map_span(sc, counted)

        out[id(orig_map)] = (orig_map, map_states)

        orig_and = scpl.rewrite.reachable_and
        and_span = out[id(orig_and)][1]

        def reachable_and(*args, **kwargs):
            seen = and_span(*args, **kwargs)
            counts["reachable_and.tuples"] += len(seen)
            return seen

        out[id(orig_and)] = (orig_and, reachable_and)

        orig_comp = scpl.rewrite.comp

        def comp(t1, t2):
            counts["composed_transitions"] += 1
            return orig_comp(t1, t2)

        out[id(orig_comp)] = (orig_comp, comp)

        orig_inst = scpl.strategy.instantiate
        inst_span = out[id(orig_inst)][1]

        def instantiate(*args, **kwargs):
            result = inst_span(*args, **kwargs)
            counts["prune_steps"] += sum(
                1 for s in result.trace if s.rule == "prune_conditions")
            return result

        out[id(orig_inst)] = (orig_inst, instantiate)
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        if self._table is None:
            self._table = self._replacements()
        replacements = self._table
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "scpl" and not mod_name.startswith("scpl."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._saved.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()

    # -- derived figures --

    def self_times(self) -> tuple[list[int], list[int]]:
        """Per-span duration and self time, in nanoseconds."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def totals(self) -> dict[str, tuple[int, float]]:
        """Label -> (calls, summed self time in ms)."""
        _, self_ns = self.self_times()
        calls = [0] * len(self.labels)
        ns = [0] * len(self.labels)
        for i, lid in enumerate(self.name):
            calls[lid] += 1
            ns[lid] += self_ns[i]
        return {label: (calls[i], ns[i] / 1e6)
                for i, label in enumerate(self.labels)}

    def self_ms_under(self, roots: set[int]) -> dict[str, float]:
        """Label -> summed self time (ms) of the spans nested under any of
        the given root spans, the roots included."""
        _, self_ns = self.self_times()
        owner = [-1] * len(self.name)
        out: dict[str, float] = {}
        for i in range(len(self.name)):
            p = self.parent[i]
            owner[i] = i if i in roots else (owner[p] if p >= 0 else -1)
            if owner[i] >= 0:
                label = self.labels[self.name[i]]
                out[label] = out.get(label, 0.0) + self_ns[i] / 1e6
        return out

    def write(self, path) -> None:
        """Writes the spans as tab-separated text: label, parent index,
        start and end in nanoseconds of the monotonic clock."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{self.labels[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]}\t{self.end[i]}\n")
