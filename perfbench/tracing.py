"""Per-layer spans for the traced run.

Spans wrap the public library calls the benchmark makes, and accumulate
inclusive wall time and counts per layer.  Two internal names that
``recognize`` looks up at call time are hooked as well, so membership
time splits into the count filter and the search:

* ``lambek.grammar._balanced_assignments``, timed per ``next()``;
* ``lambek.prover._Search.run``.

A hooked name that no longer exists leaves the metrics that depend on
it "unmeasured" with the reason, instead of crashing the run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import SimpleNamespace

# Public calls made by the pipelines, and the layer each one is timed in.
LAYER_OF_CALL = {
    "parse_sequent": "syntax.parse",
    "grammar_from_text": "syntax.parse",
    "grammar_to_text": "syntax.format",
    "validate_input": "analysis.validate",
    "recognize": "grammar.recognize",
    "prove": "prover.search",
    "check_proof": "checker.check",
    "proof_to_json_text": "prooftree.to_json",
    "proof_from_json_text": "prooftree.from_json",
    "build_reduction": "reduction.build",
    "solve_3partition": "reduction.solve3p",
}


class Tracer:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.unmeasured: dict[str, str] = {}
        self._active: set[str] = set()
        self._restore: list = []

    def span(self, layer: str, fn):
        """Wrap ``fn`` so its time adds to ``layer``; nesting counts once."""

        def traced(*args, **kwargs):
            if layer in self._active:
                return fn(*args, **kwargs)
            self._active.add(layer)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[layer] += time.perf_counter() - t0
                self._active.discard(layer)

        return traced

    def api(self, lib) -> SimpleNamespace:
        return SimpleNamespace(
            **{name: self.span(layer, getattr(lib, name)) for name, layer in LAYER_OF_CALL.items()}
        )

    # -- hooks inside recognize ------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install_hooks(self, lib) -> None:
        grammar = getattr(lib, "grammar", None)
        filt = getattr(grammar, "_balanced_assignments", None)
        if filt is None:
            reason = "lambek.grammar._balanced_assignments is gone"
            for name in ("grammar.filter_s", "grammar.assignments_searched", "grammar.witness_ratio"):
                self.unmeasured[name] = reason
        else:
            self._patch(grammar, "_balanced_assignments", self._timed_filter(filt))
        search = getattr(getattr(lib, "prover", None), "_Search", None)
        if search is None or not hasattr(search, "run"):
            reason = "lambek.prover._Search.run is gone"
            for name in ("prover.search_s", "prover.nodes_per_s"):
                self.unmeasured[name] = reason
        else:
            self._patch(search, "run", self.span("prover.search", search.run))

    def remove_hooks(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def _timed_filter(self, balanced_assignments):
        seconds, counts = self.seconds, self.counts

        def hooked(*args, **kwargs):
            gen = balanced_assignments(*args, **kwargs)
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        seconds["grammar.filter"] += time.perf_counter() - t0
                    counts["grammar.assignments_searched"] += 1
                    yield item
            finally:
                gen.close()

        return hooked
