#!/usr/bin/env python3
"""Reduced-scale self-test of the benchmark; takes under a minute.

    python3 perfbench/selftest.py

Runs every workload end to end at a tenth of the simulated time (gen.py
--small), untraced and traced, and checks that:
  - each run is correct and prints every metric BENCHMARK.json lists, by
    name with its unit;
  - the checker fails exactly one cell when one latency digit of that cell's
    line changes;
  - the traced run's span file gives each span a name, start, end and
    parent, and the layer self-times add up to the traced wall within
    SELF_TIME_TOLERANCE. Spans of cells that run at the same time on
    several threads overlap, so there the sum exceeds the wall by exactly
    that overlap.
Exits 1 on the first failed check.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402

SEED = 7
SELF_TIME_TOLERANCE = 0.01


def expect(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_result(workload, result, units):
    expect(result["correct"] and result["failed"] == 0,
           f"{workload}: {result['failed']} of {result['attempted']} cells "
           "failed")
    expect(set(result["metrics"]) == set(units),
           f"{workload}: metrics {sorted(result['metrics'])}")
    for name, unit in units.items():
        expect(result["metrics"][name]["unit"] == unit,
               f"{workload}: {name} has unit "
               f"{result['metrics'][name]['unit']}, not {unit}")


def check_spans(workload, path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    for span in spans:
        expect({"id", "name", "start", "end", "parent"} <= span.keys(),
               f"{workload}: span without name, start, end or parent")
    roots = [s for s in spans if s["parent"] == -1]
    expect(len(roots) == 1, f"{workload}: {len(roots)} root spans")
    wall = roots[0]["end"] - roots[0]["start"]
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    # A span's self time is its duration less the part of it its children
    # cover. Child time outside its parent adds to the sum, so this also
    # checks that the spans nest.
    total = 0.0
    overlap = 0.0
    for s in spans:
        inside = [(max(a, s["start"]), min(b, s["end"]))
                  for a, b in children.get(s["id"], [])
                  if min(b, s["end"]) > max(a, s["start"])]
        covered = run.union_length(inside)
        total += s["end"] - s["start"] - covered
        overlap += sum(b - a for a, b in inside) - covered
    expect(abs(total - overlap - wall) <= SELF_TIME_TOLERANCE * wall,
           f"{workload}: self-times sum to {total:.6f} s with "
           f"{overlap:.6f} s of overlap, traced wall {wall:.6f} s")


def tamper_test(tools):
    """One changed latency digit fails exactly that cell."""
    work = run.WORK / f"selftest-tamper-{SEED}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifests = gen.write("grid-sim", SEED, work / "inputs", small=True)
        one = run.run_sweeps(tools, "grid-sim", manifests, work / "pass")
        reference = run.Reference(tools[1], manifests, one["results"], {})
        expect(reference.failures(one["results"]) == [],
               "untampered pass fails")
        lines = run.read_lines(one["results"][0])
        line = lines[1]
        at = line.index(b'"latencies":[') + len(b'"latencies":[')
        while not line[at:at + 1].isdigit():
            at += 1
        digit = b"1" if line[at:at + 1] != b"1" else b"2"
        lines[1] = line[:at] + digit + line[at + 1:]
        tampered = work / "tampered.results.jsonl"
        tampered.write_bytes(b"".join(line + b"\n" for line in lines))
        failed = reference.failures([tampered])
        expect(failed == [f"{manifests[0].name}:1"],
               f"tampered latency digit failed cells {failed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    tools = run.build()
    tamper_test(tools)
    print("selftest: tampered line fails exactly its cell", file=sys.stderr)
    for workload in gen.WORKLOADS:
        result, _ = run.bench(workload, SEED, 1, False, small=True)
        check_result(workload, result, run.metric_units("end_to_end"))
        result, context = run.bench(workload, SEED, 1, True, small=True)
        check_result(workload, result, run.metric_units("per_layer"))
        expect(result["metrics"]["trace.overhead_pct"]["value"] > 0,
               f"{workload}: no tracing overhead measured")
        check_spans(workload, run.ROOT / context["spans"])
        print(f"selftest: {workload} ok", file=sys.stderr)
    print("selftest: ok", file=sys.stderr)


if __name__ == "__main__":
    main()
