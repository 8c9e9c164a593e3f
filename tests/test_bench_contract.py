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
