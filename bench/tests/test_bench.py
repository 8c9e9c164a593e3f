"""Tests of the benchmark itself: funnel counts, golden copy, seeds, contract.

Run with: python3 -m pytest bench/tests
"""

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from trisat import fixtures, permgrp, saturation, weil  # noqa: E402


def _case(workload, key):
    return dict(workloads.build(workload))[key]


def _golden(workload):
    return dict(run.load_golden(workload))


def _digest(pairs):
    h = hashlib.sha256()
    for key, out in sorted(pairs):
        h.update(f"{key}\t{out}\n".encode())
    return h.hexdigest()


def test_funnel_alt9_239():
    case = _case("alt-nongen", "alt-nongen/9/2,3,9")
    with tracing.Tracer() as tracer:
        out = case()
    assert workloads.canonical(out) == _golden("alt-nongen")["alt-nongen/9/2,3,9"]
    assert tracer.funnel() == {"pairs_tried": 11536, "product_class_pass": 2112,
                               "scott_pass": 2112, "transitive_pass": 2112,
                               "bsgs_calls": 2112, "accepted": 0}
    assert tracer.counters["bsgs.proper"] == 2112
    assert tracer.counters["prove_non_generation.exhaustive"] == 1


def test_funnel_decide_d5_245():
    case = _case("decide-alt", "decide/D5/2,4,5")
    with tracing.Tracer() as tracer:
        out = case()
    assert workloads.canonical(out) == _golden("decide-alt")["decide/D5/2,4,5"]
    assert tracer.funnel() == {"pairs_tried": 914760, "product_class_pass": 38616,
                               "scott_pass": 0, "transitive_pass": 0,
                               "bsgs_calls": 0, "accepted": 0}
    assert tracer.counters["class_images.elements"] == 457380


def test_tracer_puts_originals_back():
    before = (weil.h1_principal, saturation.h1_principal, permgrp._cycle_lengths,
              permgrp.GenerationWitness.validate, fixtures.check_table)
    with tracing.Tracer():
        assert saturation.h1_principal is weil.h1_principal is not before[0]
    after = (weil.h1_principal, saturation.h1_principal, permgrp._cycle_lengths,
             permgrp.GenerationWitness.validate, fixtures.check_table)
    assert after == before


@pytest.mark.parametrize("workload", ["closed-form", "alt-gen"])
def test_seed_changes_case_order_only(workload):
    digests, orders = [], []
    for seed in (1, 2):
        cases = workloads.build(workload)
        random.Random(seed).shuffle(cases)
        orders.append([key for key, _ in cases])
        digests.append(_digest((key, workloads.canonical(fn())) for key, fn in cases))
    assert orders[0] != orders[1]
    assert digests[0] == digests[1] == _digest(_golden(workload).items())


def test_golden_matches_check_table_rows():
    checker = run.Checker({})
    for workload, (table_ids, _) in workloads.WORKLOADS.items():
        if table_ids:
            run.check_tables(table_ids, run.load_golden(workload), checker)
    assert checker.attempted == 6 and checker.failed == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (_, why) in workloads.WORKLOADS.items()}
    for name, (_, why) in workloads.WORKLOADS.items():  # each reason opens with the case count
        assert int(why.split()[0].replace(",", "")) == len(workloads.build(name))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _bench("--workload", "alt-gen", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 8
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if trace == "1":
        assert result["metrics"]["permgrp.search.accepted"]["value"] == 8


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "alt-gen", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
