"""Traced run: spans and counts recorded around trisat's layers from outside.

``Tracer`` replaces a fixed list of trisat functions with timing wrappers
while it is active and puts the originals back when it closes; nothing in
``src/`` is edited.  A function is replaced under every trisat module that
binds it (``from .weil import h1_principal`` makes ``saturation`` and
``bibi`` hold their own reference), so calls made inside the package are
seen too.

Each wrapped call is a span: its name, start, end and the span it was
called from.  Spans are folded into per-(parent, name) totals as they
close, since the search primitives run millions of times in one pass; a
span's self time is its duration minus the durations of the wrapped spans
it called.

The Alt_m search funnel is read from the calls ``find_generating_triple``
makes directly.  Per A representative (from ``lex_min_of_type``) it calls
``_cycle_lengths`` once on A; per pair once on the product A*B (pairs
tried) and, for pairs whose product lies in an allowed class, once more
on B (product-class pass).  Those three kinds are told apart by object
identity: A and B are the very tuples ``lex_min_of_type`` and
``_class_images`` returned, while each product is a fresh tuple.  Pairs
passing Scott's bound reach ``_is_transitive``; transitive pairs reach
``_bsgs_order``, and a pair is accepted when that order is |Alt_m|.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from math import factorial

SEARCH = "permgrp.find_generating_triple"

#: (module, attribute) of every wrapped function, span name "module.attribute".
TARGETS = (
    ("rootsys", "exponents"),
    ("weil", "h1_principal"),
    ("bibi", "so_fixed_dim"),
    ("bibi", "h1_bibi"),
    ("bibi", "bibi_criterion"),
    ("bibi", "search_bibi"),
    ("saturation", "ladder_verdict"),
    ("saturation", "decide"),
    ("altmethod", "alt_saturation_check"),
    ("altmethod", "h1_alt"),
    ("permgrp", "prove_non_generation"),
    ("permgrp", "scott_min_sum"),
    ("permgrp", "find_generating_triple"),
    ("permgrp", "lex_min_of_type"),
    ("permgrp", "_class_images"),
    ("permgrp", "_cycle_lengths"),
    ("permgrp", "_is_transitive"),
    ("permgrp", "_bsgs_order"),
    ("permgrp", "cycle_type"),
    ("permgrp", "GenerationWitness.validate"),
    ("fixtures", "check_table"),
)

#: Modules whose self time is reported; fixtures is covered by check_table alone.
MODULES = ("rootsys", "weil", "bibi", "saturation", "altmethod", "permgrp")


def _search_sets(frame) -> dict:
    if frame[2] is None:
        frame[2] = {"a": set(), "b": set()}
    return frame[2]


def _on_lex_min(counters, parent, args, result):
    if parent[0] == SEARCH:
        _search_sets(parent)["a"].add(id(result.images))


def _on_class_images(counters, parent, args, result):
    counters["class_images.elements"] += len(result)
    if parent[0] == SEARCH:
        _search_sets(parent)["b"].update(map(id, result))


def _on_cycle_lengths(counters, parent, args, result):
    if parent[0] != SEARCH:
        return
    sets, arg = _search_sets(parent), id(args[0])
    if arg in sets["b"]:
        counters["search.product_class_pass"] += 1
    elif arg in sets["a"]:
        counters["search.a_reps"] += 1
    else:
        counters["search.pairs_tried"] += 1


def _on_bsgs(counters, parent, args, result):
    full = result == factorial(args[1]) // 2
    counters["bsgs.full" if full else "bsgs.proper"] += 1
    if parent[0] == SEARCH and full:
        counters["search.accepted"] += 1


def _on_prove(counters, parent, args, result):
    method = getattr(result, "method", "refuted")
    counters[f"prove_non_generation.{method}"] += 1


HOOKS = {
    "permgrp.lex_min_of_type": _on_lex_min,
    "permgrp._class_images": _on_class_images,
    "permgrp._cycle_lengths": _on_cycle_lengths,
    "permgrp._bsgs_order": _on_bsgs,
    "permgrp.prove_non_generation": _on_prove,
}


class Tracer:
    """Wraps TARGETS while open; ``with Tracer() as tracer: ...``."""

    def __init__(self):
        self.agg: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self._stack = [["<root>", 0.0, None]]  # frames: [name, child_s, search sets]
        self._patched: list[tuple[object, str, object]] = []

    def _wrapper(self, name, fn):
        stack, agg, counters, clock = self._stack, self.agg, self.counters, time.perf_counter
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                totals = agg.get((parent[0], name))
                if totals is None:
                    totals = agg[(parent[0], name)] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
            if hook is not None:
                hook(counters, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == "trisat" or n.startswith("trisat.")]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"trisat.{mod_name}"]
            *cls, fn_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                holders = [owner]
            else:
                holders = [m for m in modules if getattr(m, fn_name, None) is getattr(owner, fn_name)]
            fn = getattr(owner, fn_name)
            wrapped = self._wrapper(f"{mod_name}.{attr}", fn)
            for holder in holders:
                setattr(holder, fn_name, wrapped)
                self._patched.append((holder, fn_name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for holder, fn_name, fn in reversed(self._patched):
            setattr(holder, fn_name, fn)
        self._patched.clear()

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(v[0] for (p, n), v in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def total_s(self, name: str) -> float:
        return sum(v[1] for (_, n), v in self.agg.items() if n == name)

    def self_s(self, name: str, parent: str | None = None) -> float:
        return sum(v[2] for (p, n), v in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def module_self_s(self, module: str) -> float:
        return sum(v[2] for (_, n), v in self.agg.items() if n.startswith(module + "."))

    def funnel(self) -> dict[str, int]:
        """The Alt_m search funnel, summed over every search traced."""
        c = self.counters
        return {
            "pairs_tried": c["search.pairs_tried"],
            "product_class_pass": c["search.product_class_pass"],
            "scott_pass": self.calls("permgrp._is_transitive", SEARCH),
            "transitive_pass": self.calls("permgrp._bsgs_order", SEARCH),
            "bsgs_calls": self.calls("permgrp._bsgs_order", SEARCH),
            "accepted": c["search.accepted"],
        }


#: Per-layer metrics of the traced run: (name, unit, better, what it should move).
LAYER_METRICS = (
    ("rootsys.exponents.hit_ratio", "ratio", "higher", "wall_s on closed-form"),
    ("weil.h1_principal.calls", "count", "lower", "wall_s on closed-form"),
    ("weil.h1_principal.self_s", "s", "lower", "wall_s on closed-form"),
    ("bibi.so_fixed_dim.calls", "count", "lower", "wall_s on closed-form"),
    ("bibi.so_fixed_dim.self_s", "s", "lower", "wall_s on closed-form"),
    ("bibi.search_bibi.k_per_call", "calls/call", "lower",
     "wall_s on closed-form, a little on decide-alt"),
    ("saturation.ladder_verdict.self_s", "s", "lower", "wall_s on closed-form and decide-alt"),
    ("saturation.decide.self_s", "s", "lower", "wall_s on decide-alt"),
    ("altmethod.alt_saturation_check.s", "s", "lower", "wall_s on decide-alt"),
    ("permgrp.class_images.calls", "count", "lower",
     "wall_s and peak_rss_mb on alt-gen and decide-alt"),
    ("permgrp.class_images.elements", "count", "lower",
     "wall_s and peak_rss_mb on alt-gen and decide-alt"),
    ("permgrp.class_images.self_s", "s", "lower",
     "wall_s and peak_rss_mb on alt-gen and decide-alt"),
    ("permgrp.search.pairs_tried", "count", "lower", "wall_s on decide-alt and alt-nongen"),
    ("permgrp.search.product_class_pass", "count", "lower", "wall_s on decide-alt and alt-nongen"),
    ("permgrp.search.scott_pass", "count", "lower", "wall_s on decide-alt and alt-nongen"),
    ("permgrp.search.transitive_pass", "count", "lower", "wall_s on decide-alt and alt-nongen"),
    ("permgrp.search.bsgs_calls", "count", "lower", "wall_s on decide-alt and alt-nongen"),
    ("permgrp.search.accepted", "count", "higher", "nothing: fixed by the cases"),
    ("permgrp.search.filter_self_s", "s", "lower", "wall_s on decide-alt and alt-nongen"),
    ("permgrp.bsgs.calls", "count", "lower",
     "wall_s on alt-nongen, a little on alt-gen, not closed-form"),
    ("permgrp.bsgs.self_s", "s", "lower",
     "wall_s on alt-nongen, a little on alt-gen, not closed-form"),
    ("permgrp.bsgs.proper_ratio", "ratio", "lower", "wall_s on alt-nongen"),
    ("permgrp.prove_non_generation.no_elements", "count", "higher", "wall_s on alt-nongen"),
    ("permgrp.prove_non_generation.scott", "count", "higher", "wall_s on alt-nongen"),
    ("permgrp.prove_non_generation.exhaustive", "count", "lower", "wall_s on alt-nongen"),
    ("fixtures.check_table.self_s", "s", "lower", "wall_s on the three table workloads"),
) + tuple(
    (f"{module}.self_s", "s", "lower", "wall_s where the module runs") for module in MODULES
) + (
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced wall_s"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, passes: int, time_scale: float, exponents_info: tuple[int, int],
                  check_table_self_s: float, overhead_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value; counts and times are per pass of the workload.

    Traced times are multiplied by ``time_scale`` (see refspeed.py).
    ``exponents_info`` is (hits, misses) of the rootsys.exponents cache over
    the traced passes, each started from an empty cache.
    """
    c = tracer.counters
    bsgs_calls = tracer.calls("permgrp._bsgs_order")
    filter_self = (tracer.self_s(SEARCH)
                   + tracer.self_s("permgrp._cycle_lengths", SEARCH)
                   + tracer.self_s("permgrp._is_transitive", SEARCH))
    totals = {
        "weil.h1_principal.calls": tracer.calls("weil.h1_principal"),
        "weil.h1_principal.self_s": tracer.self_s("weil.h1_principal"),
        "bibi.so_fixed_dim.calls": tracer.calls("bibi.so_fixed_dim"),
        "bibi.so_fixed_dim.self_s": tracer.self_s("bibi.so_fixed_dim"),
        "saturation.ladder_verdict.self_s": tracer.self_s("saturation.ladder_verdict"),
        "saturation.decide.self_s": tracer.self_s("saturation.decide"),
        "altmethod.alt_saturation_check.s": tracer.total_s("altmethod.alt_saturation_check"),
        "permgrp.class_images.calls": tracer.calls("permgrp._class_images"),
        "permgrp.class_images.elements": c["class_images.elements"],
        "permgrp.class_images.self_s": tracer.self_s("permgrp._class_images"),
        **{f"permgrp.search.{k}": v for k, v in tracer.funnel().items()},
        "permgrp.search.filter_self_s": filter_self,
        "permgrp.bsgs.calls": bsgs_calls,
        "permgrp.bsgs.self_s": tracer.self_s("permgrp._bsgs_order"),
        "permgrp.prove_non_generation.no_elements": c["prove_non_generation.no-elements"],
        "permgrp.prove_non_generation.scott": c["prove_non_generation.scott"],
        "permgrp.prove_non_generation.exhaustive": c["prove_non_generation.exhaustive"],
        **{f"{module}.self_s": tracer.module_self_s(module) for module in MODULES},
    }
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    out = {name: value / passes * (time_scale if units[name] == "s" else 1)
           for name, value in totals.items()}
    out["rootsys.exponents.hit_ratio"] = _ratio(exponents_info[0], sum(exponents_info))
    out["bibi.search_bibi.k_per_call"] = _ratio(
        tracer.calls("bibi.bibi_criterion", "bibi.search_bibi"), tracer.calls("bibi.search_bibi"))
    out["permgrp.bsgs.proper_ratio"] = _ratio(c["bsgs.proper"], bsgs_calls)
    out["fixtures.check_table.self_s"] = check_table_self_s
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _, _, _ in LAYER_METRICS}
