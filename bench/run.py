"""trisat benchmark: one workload, timed end to end, or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Workloads are listed in bench/workloads.py.  The seed shuffles the case
order and nothing else.  Each pass runs every case once in one process and
one thread, through trisat's public functions, and every output of every
pass is compared byte for byte with bench/golden/<workload>.txt.  Passes
repeat until the next one would overrun --seconds (at least one pass).

--trace 0 reports the end-to-end metrics: the median pass's wall and CPU
time, set-up time (median over fresh processes that import trisat and
expand the case list), and peak resident memory.  Times are in reference
seconds: each is scaled by the machine's speed, read from a fixed kernel
timed around and between cases (bench/refspeed.py), because on a virtual
machine whose cores are shared with other tenants one core's speed can
change by half within minutes.  Raw times stay in the record.  --trace 1
spends half the time on untraced passes and half on passes traced by
bench/tracing.py, then, for the table workloads, traces one check_table
call per table and diffs its rows with the golden copy; it reports the
per-layer metrics.

Every metric is printed by name with its unit, then a JSON record with the
machine, Python, commit, metrics, layers and counters (also written to
--out when given), then, as the last line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refspeed import REFERENCE_S, Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
SETUP_PROBES = 11

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import trisat from this checkout's src/, or exit without a result."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import trisat
    except ImportError as exc:
        sys.exit(f"bench: cannot import trisat from {SRC}: {exc}")
    if Path(trisat.__file__).resolve().parent != SRC / "trisat":
        sys.exit(f"bench: imported trisat from {trisat.__file__}, not from {SRC}")


def load_golden(workload: str) -> list[tuple[str, str]]:
    path = GOLDEN / f"{workload}.txt"
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        sys.exit(f"bench: no golden outputs for {workload}: {exc}")
    return [tuple(line.split("\t", 1)) for line in lines]


class CaseError:
    """Stands in for the output of a case that raised."""

    def __init__(self, text: str):
        self.text = text


class Checker:
    """Compares pass outputs with the golden copy and counts failures."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: FAILED {key}: {why}", file=sys.stderr)

    def check(self, cases, outputs) -> None:
        from workloads import canonical

        for (key, _), out in zip(cases, outputs):
            self.attempted += 1
            if isinstance(out, CaseError):
                self.fail(key, out.text)
                continue
            got = canonical(out)
            if got != self.golden.get(key):
                self.fail(key, f"output differs from golden: {got[:300]}")


def run_pass(cases, speed: Speed):
    """One pass; returns raw wall and CPU seconds, the speed scale, and the outputs.

    The wall time is the sum of the cases' times, so the kernel samples
    taken between cases stay out of it, and their CPU time is taken off.
    """
    # Each search leaves its class list in a reference cycle (the recursive
    # closure in permgrp._class_images) until the cyclic collector runs.
    # Collecting before every pass starts each one from the same heap, as a
    # fresh process would; otherwise peak memory grows with the pass count.
    gc.collect()
    speed.sample()
    scaled0, kernel_cpu0 = speed.scaled_s, speed.cpu_s
    outputs = []
    wall = 0.0
    cpu0 = time.process_time()
    for _, run in cases:
        speed.sample_if_due()
        start = time.perf_counter()
        try:
            outputs.append(run())
        except Exception:  # a failing case is counted, the pass goes on
            outputs.append(CaseError(traceback.format_exc()))
        elapsed = time.perf_counter() - start
        speed.add(elapsed)
        wall += elapsed
    cpu = time.process_time() - cpu0 - (speed.cpu_s - kernel_cpu0)
    speed.sample()
    return wall, cpu, (speed.scaled_s - scaled0) / wall, outputs


def timed_passes(cases, budget_s: float, checker: Checker, speed: Speed, before_pass=None):
    """Run passes until the next would end after budget_s.

    Returns one (raw wall s, raw CPU s, speed scale) triple per pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        wall, cpu, scale, outputs = run_pass(cases, speed)
        checker.check(cases, outputs)
        passes.append((wall, cpu, scale))
        if time.perf_counter() - start + wall > budget_s:
            return passes


def measure_setup(workload: str, n_cases: int, speed: Speed) -> tuple[list[float], float]:
    """Raw seconds from starting a fresh process until its case list is ready, per
    probe, and the speed scale over the probes (a kernel sample before each)."""
    probes = []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    first = len(speed.samples)
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            probes.append(time.perf_counter() - start)
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if code != 0 or line.strip() != str(n_cases):
            sys.exit(f"bench: set-up probe failed (exit {code}, printed {line.strip()!r})")
    speed.sample()
    return probes, speed.mean_scale(first)


def check_tables(table_ids, ordered_golden, checker: Checker):
    """Trace one check_table(detail=True) per table and diff its rows with the golden copy."""
    from tracing import Tracer

    from trisat import fixtures, saturation
    from workloads import C_MAX, canonical, table_of

    with Tracer() as tracer:
        reports = [fixtures.check_table(tid, C_MAX, detail=True) for tid in table_ids]
    for tid, report in zip(table_ids, reports):
        want = [out for key, out in ordered_golden if table_of(key) == tid]
        if tid == "nonso3":  # check_nonso3 emits rows for non-Saturated cases only
            want = [out for out in want
                    if json.loads(out)["status"] != saturation.Status.SATURATED]
        checker.attempted += 1
        if not report["ok"] or [canonical(r) for r in report["rows"]] != want:
            checker.fail(f"check_table({tid!r})", "rows or verdict differ from golden")
    return tracer.self_s("fixtures.check_table")


def machine_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "platform": platform.platform()}


def commit_info() -> dict:
    """The git commit when run inside a clone, and a digest of src/trisat either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "trisat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def traced_run(workload, cases, ordered_golden, budget_s, checker, speed, untraced_wall_s):
    """Traced passes (each from an empty exponents cache), then check_table per table.

    Returns the per-layer metrics, the per-span totals (raw seconds) and the
    counters, all per pass.
    """
    import tracing
    import workloads

    from trisat import rootsys

    exponents = rootsys.exponents
    cache_stats = []

    def cold_cache():
        cache_stats.append(exponents.cache_info())
        exponents.cache_clear()

    with tracing.Tracer() as tracer:
        traced = timed_passes(cases, budget_s, checker, speed, before_pass=cold_cache)
    cold_cache()
    hits = sum(info.hits for info in cache_stats[1:])
    misses = sum(info.misses for info in cache_stats[1:])
    table_ids, _ = workloads.WORKLOADS[workload]
    check_table_self = check_tables(table_ids, ordered_golden, checker) if table_ids else 0.0
    passes = len(traced)
    walls = [wall * scale for wall, _, scale in traced]
    time_scale = statistics.mean(scale for _, _, scale in traced)
    per_layer = tracing.layer_metrics(tracer, passes, time_scale, (hits, misses),
                                      check_table_self * time_scale,
                                      statistics.median(walls) - untraced_wall_s)
    spans = {f"{parent} > {name}": {"calls": calls / passes, "total_s": total / passes,
                                     "self_s": self_s / passes}
             for (parent, name), (calls, total, self_s) in sorted(tracer.agg.items())}
    counters = {**{k: v / passes for k, v in sorted(tracer.counters.items())},
                "rootsys.exponents.hits": hits / passes,
                "rootsys.exponents.misses": misses / passes}
    return per_layer, {"traced_passes": passes, "traced_wall_s": statistics.median(walls),
                       "spans": spans}, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, help="also append the JSON record to this file")
    args = parser.parse_args(argv)

    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    ordered_golden = load_golden(args.workload)
    checker = Checker(dict(ordered_golden))

    cases = workloads.build(args.workload)
    if sorted(key for key, _ in cases) != sorted(checker.golden):
        sys.exit("bench: the case list differs from the golden copy's")
    random.Random(args.seed).shuffle(cases)

    speed = Speed()
    setup, setup_scale = measure_setup(args.workload, len(cases), speed)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(cases, budget, checker, speed)
    end_to_end = {
        "wall_s": statistics.median(wall * scale for wall, _, scale in passes),
        "cpu_s": statistics.median(cpu * scale for _, cpu, scale in passes),
        "setup_s": statistics.median(setup) * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_layer, layers, counters = {}, {}, {}
    if args.trace:
        per_layer, layers, counters = traced_run(args.workload, cases, ordered_golden, budget,
                                                 checker, speed, end_to_end["wall_s"])
    failed_frac = checker.failed / checker.attempted

    units = {**END_TO_END_UNITS, "failed_frac": "ratio",
             **{name: unit for name, unit, _, _ in tracing.LAYER_METRICS}}
    for name, value in {**end_to_end, "failed_frac": failed_frac, **per_layer}.items():
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}")

    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _, _ in tracing.LAYER_METRICS}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cases": len(cases), "passes": len(passes),
        "machine": machine_info(), "python": platform.python_version(), **commit_info(),
        "end_to_end": {**end_to_end, "failed_frac": failed_frac},
        "raw": {"passes_wall_cpu_scale": passes, "setup_s": setup, "setup_scale": setup_scale,
                "kernel_s": speed.samples, "reference_s": REFERENCE_S},
        "layers": {"per_layer": per_layer, **layers}, "counters": counters,
        "result": result,
    }
    print(json.dumps(record))
    if args.out is not None:
        with args.out.open("a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
