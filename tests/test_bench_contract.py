"""What the benchmark in bench/ needs from the package.

bench/tracing.py wraps a fixed list of trisat functions by (module, name),
and bench/workloads.py builds its cases from the table rows and keyword
arguments of the library.  Both are loaded here by file path, so a rename
or a deletion in the package that would break ``bench/run.py`` fails in
this suite too.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

from trisat import DynkinType, Triple, bibi, permgrp, saturation, tables, weil

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    tracing = _load("tracing")
    for module, attr in tracing.TARGETS:
        owner = importlib.import_module(f"trisat.{module}")
        assert callable(reduce(getattr, attr.split("."), owner)), (module, attr)


@pytest.mark.parametrize("workload,cases", [
    ("closed-form", 2334), ("alt-nongen", 244), ("alt-gen", 8), ("decide-alt", 40),
])
def test_workload_sizes(workload, cases):
    assert len(_load("workloads").build(workload)) == cases


def test_traced_search_funnel(monkeypatch):
    # Alt_9 (2,3,9) goes the exhaustive route; the bench reads its funnel from
    # the calls the search makes, so a change in those calls shows here.
    # The tracer reads transitive_pass off the Sims-table calls, which the
    # search makes only on the least transitive pair of each C(A)-orbit, so
    # it reads the 4 orbits; the search's transitivity test accepts all 63.
    accepted = []
    real = permgrp._is_transitive
    monkeypatch.setattr(permgrp, "_is_transitive",
                        lambda a, b, m: accepted.append(ok := real(a, b, m)) or ok)
    with _load("tracing").Tracer() as tracer:
        permgrp.prove_non_generation(9, Triple(2, 3, 9))
    assert tracer.funnel() == {"pairs_tried": 63, "product_class_pass": 63, "scott_pass": 63,
                               "transitive_pass": 4, "bsgs_calls": 4, "accepted": 0}
    assert sum(accepted) == 63


def test_traced_first_hit_funnel():
    # Hinted Alt_11 (2,3,11) goes the first-hit route: 54 B's of the
    # (3)^3(1)^2 class are built, and the first pair walked is the witness.
    with _load("tracing").Tracer() as tracer:
        permgrp.find_generating_triple(11, Triple(2, 3, 11),
                                       shape_hint=tables.generating_pair_hint(11, (2, 3, 11)))
    assert tracer.funnel() == {"pairs_tried": 1, "product_class_pass": 1, "scott_pass": 1,
                               "transitive_pass": 1, "bsgs_calls": 1, "accepted": 1}
    assert tracer.counters["class_images.elements"] == 54


def test_traced_funnels_of_a_repeated_search():
    # A search keeps nothing for the next one: a second traced run reads
    # the same funnel and the same element count as the first.
    tracing = _load("tracing")
    hint = tables.generating_pair_hint(11, (2, 3, 11))
    for _ in range(2):
        with tracing.Tracer() as tracer:
            permgrp.prove_non_generation(9, Triple(2, 3, 9))
        assert tracer.funnel() == {"pairs_tried": 63, "product_class_pass": 63, "scott_pass": 63,
                                   "transitive_pass": 4, "bsgs_calls": 4, "accepted": 0}
        assert tracer.counters["class_images.elements"] == 63
        with tracing.Tracer() as tracer:
            permgrp.find_generating_triple(11, Triple(2, 3, 11), shape_hint=hint)
        assert tracer.funnel() == {"pairs_tried": 1, "product_class_pass": 1, "scott_pass": 1,
                                   "transitive_pass": 1, "bsgs_calls": 1, "accepted": 1}
        assert tracer.counters["class_images.elements"] == 54


def test_traced_exhaustive_searches_walk_every_b_built():
    # An exhaustive search walks every B that _class_images built, so the
    # tracer's pairs tried equal the elements built.  Were a walked list
    # freed before the search returned, a later product could take a freed
    # B's id and be counted as a product-class pass.
    tracing = _load("tracing")
    exhaustive = 0
    for _, run in _load("workloads").build("alt-nongen"):
        with tracing.Tracer() as tracer:
            run()
        funnel = tracer.funnel()
        assert funnel["pairs_tried"] == tracer.counters["class_images.elements"]
        assert funnel["pairs_tried"] >= funnel["product_class_pass"]
        exhaustive += tracer.counters["prove_non_generation.exhaustive"]
    assert exhaustive == 13


@pytest.mark.parametrize("workload", ["alt-nongen", "alt-gen", "decide-alt"])
def test_every_traced_pair_passes_the_product_class(workload):
    # _class_images returns only B's whose AB is an allowed class, so each
    # pair tried calls _cycle_lengths on B too: the tracer's product-class
    # pass equals its pairs tried, case by case.
    tracing = _load("tracing")
    tried = 0
    for key, run in _load("workloads").build(workload):
        with tracing.Tracer() as tracer:
            run()
        funnel = tracer.funnel()
        assert funnel["product_class_pass"] == funnel["pairs_tried"], key
        tried += funnel["pairs_tried"]
    assert tried > 0


def test_traced_closed_form_calls_with_a_warm_memo():
    # weil.principal_fixed_dim, weil.weil_h1 and bibi.so_fixed_dim are
    # memoised; the tracer wraps so_fixed_dim and h1_principal from outside
    # the memo, so a warm second run counts every call a cold first run counts.
    weil.principal_fixed_dim.cache_clear()
    bibi.so_fixed_dim.cache_clear()
    weil.weil_h1.cache_clear()
    tracing = _load("tracing")
    for _ in range(2):
        with tracing.Tracer() as tracer:
            bibi.search_bibi(7, Triple(2, 3, 7))
            saturation.ladder_verdict(DynkinType.parse("D7"), Triple(2, 4, 6))
        assert tracer.calls("weil.h1_principal") == 4
        assert tracer.calls("bibi.so_fixed_dim") == 3
