"""Per-layer tracing of edcert, installed from outside the package.

The tracer wraps functions of each layer and replaces them at every module
attribute through which they are reached (``compose`` is reached from both
``permutation`` and ``permgroup``, ``closed_subgroup`` from ``permgroup`` and
``certifier``); methods are wrapped once on their class.  A span records its
name, its parent span, its duration and its self time (the duration minus the
part its child spans cover).  Spans stay in memory until the run ends, when
``metrics()`` sums them per layer.  The permutation kernels are called
millions of times, so they are counted but get no span.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter
from math import lcm

# span name -> (module, attribute path) of the function it wraps
SPANS = {
    "permgroup.chain": ("permgroup", "StabilizerChain.__init__"),
    "permgroup.elements": ("permgroup", "PermGroup.elements"),
    "permgroup.element_orders": ("permgroup", "PermGroup.element_orders"),
    "permgroup.classes": ("permgroup", "PermGroup.conjugacy_classes"),
    "permgroup.simplicity": ("permgroup", "PermGroup.is_simple_nonabelian"),
    "permgroup.subgroup_search": ("permgroup", "max_proper_subgroup"),
    "permgroup.sylow": ("permgroup", "sylow_report"),
    "certifier.cond1": ("certifier", "cond1_no_small_index"),
    "certifier.cond2": ("certifier", "cond2_mobius_subgroup"),
    "certifier.cond3": ("certifier", "cond3_no_small_genus_action"),
    "certifier.maxn": ("certifier", "max_certified_n"),
    "certifier.mobius_cyclic": ("certifier", "_search_cyclic"),
    "certifier.mobius_dihedral": ("certifier", "_search_dihedral"),
    "certifier.mobius_exceptional": ("certifier", "_search_exceptional"),
    "rhoracle.oracle": ("rhoracle", "acts_on_genus_le"),
    "rhoracle.signatures": ("rhoracle", "enumerate_signatures"),
    "rhoracle.vector_search": ("rhoracle", "find_generating_vector"),
    "rhoracle.validate": ("rhoracle", "validate_vector"),
    "catalogue.parse": ("catalogue", "parse_group_spec"),
    "catalogue.build": ("catalogue", "build"),
    "comparison.compare": ("comparison", "compare_rhs"),
    "cli": ("cli", "main"),
}
# counter name -> function whose calls it counts
KERNELS = {
    "permutation.compose_calls": ("permutation", "compose"),
    "permutation.invert_calls": ("permutation", "invert"),
    "permutation.order_calls": ("permutation", "tuple_order"),
    "permgroup.normal_closures": ("permgroup", "PermGroup.normal_closure"),
}
CLOSURE = ("permgroup", "closed_subgroup")

# element-order fingerprints of A4, S4 and A5, by group order
_FINGERPRINTS = {
    12: Counter({1: 1, 2: 3, 3: 8}),
    24: Counter({1: 1, 2: 9, 3: 8, 4: 6}),
    60: Counter({1: 1, 2: 15, 3: 20, 5: 24}),
}


def _order(p: tuple[int, ...]) -> int:
    seen, out = set(), 1
    for start in range(len(p)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        out = lcm(out, max(length, 1))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float] | None] = []  # name, parent, duration, self
        self.stack: list[list] = []  # [span index, child time, name]
        self.counts: Counter = Counter()
        self._seen_elements: weakref.WeakSet = weakref.WeakSet()
        self._seen_classes: weakref.WeakSet = weakref.WeakSet()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0, name]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                spans[frame[0]] = (name, parent, duration, duration - frame[1])
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _closure(self, fn):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["closures"] += 1
            if result is not None:
                counts["closure_elements"] += len(result)
            if stack and stack[-1][2] == "certifier.mobius_exceptional":
                counts["exceptional_pairs"] += 1
                if result is not None and len(result) in _FINGERPRINTS:
                    if Counter(_order(x) for x in result) == _FINGERPRINTS[len(result)]:
                        counts["exceptional_hits"] += 1
            return result

        return wrapper

    def _first_per_group(self, seen: weakref.WeakSet, key: str):
        counts = self.counts

        def on_result(args, result):
            group = args[0]
            if group not in seen:
                seen.add(group)
                counts[key] += len(result)

        return on_result

    def _count_result(self, key: str, measure):
        counts = self.counts

        def on_result(args, result):
            counts[key] += measure(result)

        return on_result

    # -- installation -----------------------------------------------------------

    def _replace(self, module: str, path: str, make) -> None:
        mod = sys.modules[f"edcert.{module}"]
        if "." in path:  # a method: wrap it once on its class
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(mod, path)
        wrapper = make(original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "edcert" or name.startswith("edcert.")):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, attr, original))
                    setattr(other, attr, wrapper)

    def install(self) -> None:
        hooks = {
            "permgroup.elements": self._first_per_group(self._seen_elements, "elements_enumerated"),
            "permgroup.classes": self._first_per_group(self._seen_classes, "classes"),
            "certifier.cond1": self._count_result("decided_conditions", lambda r: r.verdict != "unknown"),
            "certifier.cond2": self._count_result("decided_conditions", lambda r: r.verdict != "unknown"),
            "certifier.cond3": self._count_result("decided_conditions", lambda r: r.verdict != "unknown"),
            "rhoracle.signatures": self._count_result("signatures", len),
            "rhoracle.vector_search": self._count_result("vectors_found", lambda r: r is not None),
        }
        for key, (module, path) in KERNELS.items():
            self._replace(module, path, lambda fn, key=key: self._counter(key, fn))
        self._replace(*CLOSURE, self._closure)
        for name, (module, path) in SPANS.items():
            self._replace(module, path, lambda fn, name=name: self._span(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """Self time and number of spans, per span name."""
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for name, _parent, _duration, own in self.spans:
            self_time[name] += own
            calls[name] += 1
        return self_time, calls

    def metrics(self) -> dict[str, float]:
        self_time, calls = self.totals()
        c = self.counts
        out = {key: c[key] for key in KERNELS}
        out.update({
            "permgroup.chain_builds": calls["permgroup.chain"],
            "permgroup.elements_enumerated": c["elements_enumerated"],
            "permgroup.classes": c["classes"],
            "permgroup.closures": c["closures"],
            "permgroup.closure_elements": c["closure_elements"],
            "certifier.exceptional_pairs": c["exceptional_pairs"],
            "certifier.exceptional_hit_ratio":
                c["exceptional_hits"] / c["exceptional_pairs"] if c["exceptional_pairs"] else 0.0,
            "certifier.decided_conditions": c["decided_conditions"],
            "rhoracle.oracle_calls": calls["rhoracle.oracle"],
            "rhoracle.signatures": c["signatures"],
            "rhoracle.vector_searches": calls["rhoracle.vector_search"],
            "rhoracle.vectors_found": c["vectors_found"],
        })
        for name in SPANS:
            if name != "rhoracle.oracle":
                out[("cli.self" if name == "cli" else name) + "_s"] = float(self_time[name])
        return out
