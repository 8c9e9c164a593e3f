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


def test_traced_search_funnel():
    # Alt_9 (2,3,9) goes the exhaustive route; the bench reads its funnel from
    # the calls the search makes, so a change in those calls shows here.
    # transitive_pass is left out: the tracer reads it off the Sims-table calls.
    with _load("tracing").Tracer() as tracer:
        permgrp.prove_non_generation(9, Triple(2, 3, 9))
    funnel = tracer.funnel()
    del funnel["transitive_pass"]
    assert funnel == {"pairs_tried": 176, "product_class_pass": 63, "scott_pass": 63,
                      "bsgs_calls": 4, "accepted": 0}


def test_traced_first_hit_funnel():
    # Hinted Alt_11 (2,3,11) goes the first-hit route: its witness lies in
    # slice 1 of the (3)^3(1)^2 class, so slices 0 and 1 (22,400 + 10,080
    # elements) are all that is built, and the 151st pair walked is the witness.
    with _load("tracing").Tracer() as tracer:
        permgrp.find_generating_triple(11, Triple(2, 3, 11),
                                       shape_hint=tables.generating_pair_hint(11, (2, 3, 11)))
    funnel = tracer.funnel()
    del funnel["transitive_pass"]
    assert funnel == {"pairs_tried": 151, "product_class_pass": 1, "scott_pass": 1,
                      "bsgs_calls": 1, "accepted": 1}
    assert tracer.counters["class_images.elements"] == 32_480


def test_traced_funnels_with_a_warm_memo(monkeypatch):
    # permgrp._class_images hands a repeated search the slices built before,
    # but the search still asks for each slice once: a second traced run
    # reads the same funnel and the same element count as a cold one.
    monkeypatch.setattr(permgrp, "_SLICE_MEMO", {})
    tracing = _load("tracing")
    hint = tables.generating_pair_hint(11, (2, 3, 11))
    for _ in range(2):
        with tracing.Tracer() as tracer:
            permgrp.prove_non_generation(9, Triple(2, 3, 9))
        funnel = tracer.funnel()
        del funnel["transitive_pass"]
        assert funnel == {"pairs_tried": 176, "product_class_pass": 63, "scott_pass": 63,
                          "bsgs_calls": 4, "accepted": 0}
        assert tracer.counters["class_images.elements"] == 1_960
        with tracing.Tracer() as tracer:
            permgrp.find_generating_triple(11, Triple(2, 3, 11), shape_hint=hint)
        funnel = tracer.funnel()
        del funnel["transitive_pass"]
        assert funnel == {"pairs_tried": 151, "product_class_pass": 1, "scott_pass": 1,
                          "bsgs_calls": 1, "accepted": 1}
        assert tracer.counters["class_images.elements"] == 32_480


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
