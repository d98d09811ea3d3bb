#!/usr/bin/env python3
"""Benchmark of econcast_sweep, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run builds econcast_sweep and
perfbench_probe from the checkout's sources into .bench_build/ (incremental
after the first run), writes the workload's manifests from --seed
(perfbench/gen.py), and sets up several times; setup_s is the median CPU
time of a set-up.
It then repeats the workload's sweeps as econcast_sweep child processes for
--seconds and reports medians over the repetitions: wall_s, cpu_s and
peak_rss_mb come from each child's own rusage, reported by the small
launcher `perfbench_probe spawn`. Every results line is checked
(perfbench_probe check, then byte equality with the reference lines); the
share of cells that pass is cell_pass_ratio.

With --trace 1 the run makes one untraced pass and one traced pass
(perfbench_probe trace), writes the span file to .bench_runs/, and reports
the per-layer metrics derived from the spans instead.

Each run also writes its context (commit, build type, compiler, nproc, CPU
model, load average, steal time across the run) and result to .bench_runs/.
The last line of standard output is the JSON result; everything else goes to
standard error. Without the repository's sources next to perfbench/ the run
exits 2 before measuring anything. Metric names and units come from
BENCHMARK.json; a run that does not compute exactly those metrics is an
error.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
RUNS = ROOT / ".bench_runs"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# setup_s is the median set-up of a run, in CPU seconds of the benchmark and
# the programs it runs. On a shared virtual machine the wall clock of a
# millisecond process launch doubles while the host steals CPU time, which
# CPU time leaves out. A cached workload's set-up is a cold cache fill of
# several seconds and runs COLD_FILLS times. The others write and validate
# the inputs in a few milliseconds, most of it process start-up, so they
# repeat for SETUP_SECONDS (at least MIN_SETUPS times) to give a median of
# a few hundred.
COLD_FILLS = 3
SETUP_SECONDS = 1.0
MIN_SETUPS = 15


class BenchError(Exception):
    """The run cannot produce a result."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    spec = json.loads(BENCHMARK.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# ------------------------------------------------------------------ build --

def build():
    """Builds the tools; returns (econcast_sweep, perfbench_probe) paths."""
    for need in ("CMakeLists.txt", "src", "tools"):
        if not (ROOT / need).exists():
            raise BenchError(f"'{need}' not found next to perfbench/: run "
                             "from the root of a checkout of the repository")
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "econcast_sweep", "perfbench_probe", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return (BUILD / "econcast" / "tools" / "econcast_sweep",
            BUILD / "perfbench_probe")


# --------------------------------------------------------------- children --

def run_child(tools, argv, check=True):
    """Runs argv through `perfbench_probe spawn`; returns argv's own
    (wall s, user+sys s, peak RSS MB).

    With check, a non-zero exit raises BenchError; otherwise it is logged."""
    out = subprocess.run([str(a) for a in (tools[1], "spawn", *argv)],
                         stdout=subprocess.PIPE, text=True, check=True)
    usage = json.loads(out.stdout)
    if usage["status"] != 0:
        message = f"{' '.join(map(str, argv))} exited {usage['status']}"
        if check:
            raise BenchError(message)
        log(message)
    return usage["wall_s"], usage["cpu_s"], usage["maxrss_kb"] / 1024.0


def run_sweeps(tools, workload, manifests, out_dir, cache_dir=None):
    """One pass over the workload's manifests, each an econcast_sweep child.

    Returns a dict with the pass's summed wall and CPU, its peak RSS and the
    results files, in manifest order. A sweep that fails leaves its missing
    cells to fail the checks."""
    out_dir.mkdir(parents=True)
    results = []
    wall = 0.0
    cpu = 0.0
    rss = 0.0
    for manifest in manifests:
        result = out_dir / (manifest.stem + ".results.jsonl")
        argv = [tools[0], manifest, "--results", result, "--threads",
                gen.THREADS[workload], "--quiet"]
        if cache_dir is not None:
            argv += ["--cache", cache_dir]
        child_wall, child_cpu, child_rss = run_child(tools, argv,
                                                     check=False)
        wall += child_wall
        cpu += child_cpu
        rss = max(rss, child_rss)
        result.touch()
        results.append(result)
    return {"wall": wall, "cpu": cpu, "rss": rss, "results": results}


# ----------------------------------------------------------------- checks --

def read_lines(path):
    with open(path, "rb") as f:
        return f.read().split(b"\n")[:-1]


def cell_digest(line):
    return hashlib.sha256(line).hexdigest()[:16]


def pinned_digests(workload, seed, small):
    """{manifest file name: [per-cell digest]} pinned for this seed, or {}."""
    if small or not REFERENCE.exists():
        return {}
    pinned = json.loads(REFERENCE.read_text())
    if pinned["seed"] != seed:
        return {}
    return pinned["cells"].get(workload, {})


class Reference:
    """The lines every later pass must repeat byte for byte.

    Built from a first pass whose cells perfbench_probe check examined;
    a cell that failed there, or whose digest differs from the pinned one,
    fails in every pass."""

    def __init__(self, probe, manifests, results, pinned):
        self.names = [m.name for m in manifests]
        self.lines = []
        self.bad = []
        self.why = {}
        for manifest, result in zip(manifests, results):
            out = subprocess.run([str(probe), "check", str(manifest),
                                  str(result)], capture_output=True,
                                 text=True, check=True)
            report = json.loads(out.stdout)
            lines = read_lines(result)
            bad = {f["index"]: f["why"] for f in report["failed"]}
            expected = pinned.get(manifest.name)
            if expected is not None:
                for i, digest in enumerate(expected):
                    if i >= len(lines) or cell_digest(lines[i]) != digest:
                        bad.setdefault(i, "bytes differ from the pinned "
                                          "digest")
            for index, why in sorted(bad.items()):
                self.why[f"{manifest.name}:{index}"] = why
            self.lines.append(lines[:report["cells"]] +
                              [None] * (report["cells"] - len(lines)))
            self.bad.append(set(bad))

    def cells(self):
        return sum(len(lines) for lines in self.lines)

    def failures(self, results):
        """Indices ("file:index") of the cells of a pass that fail."""
        failed = []
        for k, result in enumerate(results):
            got = read_lines(result)
            for i, want in enumerate(self.lines[k]):
                if (i in self.bad[k] or want is None or i >= len(got)
                        or got[i] != want):
                    failed.append(f"{self.names[k]}:{i}")
        return failed


def log_failures(reference, failed):
    for cell in sorted(set(failed)):
        log(f"cell {cell} failed: "
            f"{reference.why.get(cell, 'bytes differ from the reference')}")


# ------------------------------------------------------------------ set-up --

def cpu_seconds():
    """User + sys CPU of this process and of every child it has waited for
    (with their own children)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def set_up(tools, workload, seed, out_dir, small):
    """Writes the inputs into out_dir and has the program validate them;
    a cached workload also fills a cache there cold. Returns (CPU seconds,
    manifests, cold pass or None)."""
    start = cpu_seconds()
    manifests = gen.write(workload, seed, out_dir, small)
    for manifest in manifests:
        subprocess.run([str(tools[0]), str(manifest), "--dry-run"],
                       stdout=subprocess.DEVNULL, check=True)
    cold = None
    if workload in gen.CACHED:
        cold = run_sweeps(tools, workload, manifests, out_dir / "cold",
                          out_dir / "cache")
    return cpu_seconds() - start, manifests, cold


def enough_setups(workload, times, elapsed):
    if workload in gen.CACHED:
        return len(times) >= COLD_FILLS
    return len(times) >= MIN_SETUPS and elapsed >= SETUP_SECONDS


def set_up_all(tools, workload, seed, work, small, once=False):
    """Runs the set-ups (just one with `once`) in work/setup-<k>; the cheap
    ones all rewrite work/setup-0.

    Returns (their times, the first set-up's manifests, the reference built
    from its cold fill or None, the later cold fills' failed cells, their
    cell count). Every later cold fill must repeat the first byte for
    byte."""
    times = []
    colds = []
    manifests = None
    start = time.perf_counter()
    while True:
        seconds, written, cold = set_up(tools, workload, seed,
                                        work / f"setup-{len(colds)}", small)
        times.append(seconds)
        manifests = manifests or written
        if cold is not None:
            colds.append(cold)
        if once or enough_setups(workload, times,
                                 time.perf_counter() - start):
            break
    if not colds:
        return times, manifests, None, [], 0
    reference = Reference(tools[1], manifests, colds[0]["results"],
                          pinned_digests(workload, seed, small))
    failed = [cell for cold in colds[1:]
              for cell in reference.failures(cold["results"])]
    return (times, manifests, reference, failed,
            reference.cells() * (len(colds) - 1))


# ------------------------------------------------------------ timed phase --

def timed_phase(tools, workload, seed, seconds, small, work):
    setups, manifests, reference, failed, attempted = set_up_all(
        tools, workload, seed, work, small)
    cache_dir = (work / "setup-0" / "cache" if workload in gen.CACHED
                 else None)

    passes = []
    measured = 0.0
    # Start another repetition while it is expected to end less than half a
    # repetition past --seconds.
    while not passes or (measured + 0.5 * statistics.median(
            p["wall"] for p in passes) <= seconds):
        out = work / f"pass-{len(passes)}"
        one = run_sweeps(tools, workload, manifests, out, cache_dir)
        if reference is None:
            reference = Reference(tools[1], manifests, one["results"],
                                  pinned_digests(workload, seed, small))
        failed += reference.failures(one["results"])
        shutil.rmtree(out)
        passes.append(one)
        measured += one["wall"]

    attempted += reference.cells() * len(passes)
    log_failures(reference, failed)
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
        "setup_s": statistics.median(setups),
        "cell_pass_ratio": (attempted - len(failed)) / attempted,
    }
    detail = {"passes": [round(p["wall"], 4) for p in passes],
              "setups": len(setups),
              "setup_s_range": [min(setups), max(setups)]}
    return metrics, "end_to_end", attempted, len(failed), detail


# ------------------------------------------------------------ traced run --

def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def union_length(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def layer_metrics(spans, threads):
    """Returns (per-layer metrics, the sample count of each timed call)."""
    def named(name):
        return [s for s in spans if s["name"] == name]

    def durations(name):
        return [s["end"] - s["start"] for s in named(name)]

    cells = durations("sim.cell")
    events = sum(s["events"] for s in named("sim.cell"))
    probes = durations("cache.probe")
    sessions = named("runner.session_run")
    hits = sum(s["hits"] for s in sessions)
    misses = sum(s["misses"] for s in sessions)
    rejected = sum(s["rejected"] for s in sessions)
    decode_mb = sum(s["bytes"] for s in named("json.decode")) / 1e6
    encode_mb = sum(s["bytes"] for s in named("json.encode")) / 1e6
    decode_s = sum(durations("json.decode"))
    encode_s = sum(durations("json.encode"))

    # Runner time that no cell covers: all of SweepSession::run on
    # cache-replay, where no cell runs (probes, decoding, writing the
    # results); the scheduling and the cell-free start and tail of
    # ScenarioRunner::run_with_seeds on the others.
    batches = named("runner.run_with_seeds")
    overhead = sum(
        r["end"] - r["start"] - union_length([
            (c["start"], c["end"]) for c in named("sim.cell")
            if c["parent"] == r["id"]])
        for r in sessions + batches)
    busy = sum(cells)
    capacity = threads * sum(b["end"] - b["start"] for b in batches)
    root = named("trace")[0]
    tracing = len(spans) * root["span_cost_s"]
    metrics = {
        "sim.cell_s": busy,
        "sim.cell_s_max": max(cells, default=0.0),
        "sim.events": events,
        "sim.ns_per_event": busy * 1e9 / events if events else 0.0,
        "runner.manifest_load_s": sum(durations("runner.manifest_load")),
        "runner.session_overhead_s": overhead,
        "cache.probe_ms_p50": percentile(probes, 50) * 1e3,
        "cache.probe_ms_p99": percentile(probes, 99) * 1e3,
        "cache.key_us_p50": percentile(durations("cache.key"), 50) * 1e6,
        "cache.key_us_p99": percentile(durations("cache.key"), 99) * 1e6,
        "cache.publish_ms_p50":
            percentile(durations("cache.publish"), 50) * 1e3,
        "cache.publish_ms_p99":
            percentile(durations("cache.publish"), 99) * 1e3,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.rejected": rejected,
        "cache.hit_ratio":
            hits / (hits + misses + rejected) if sessions else 0.0,
        "json.decode_mb_per_s": decode_mb / decode_s if decode_s else 0.0,
        "json.encode_mb_per_s": encode_mb / encode_s if encode_s else 0.0,
        "json.mb": decode_mb,
        "exec.busy_s": busy,
        "exec.idle_s": capacity - busy if batches else 0.0,
        "exec.utilization": busy / capacity if capacity else 0.0,
        # Spans recorded x the cost of one, against the traced wall without
        # them.
        "trace.overhead_pct":
            100.0 * tracing / (root["end"] - root["start"] - tracing),
    }
    counts = {name: len(named(name)) for name in (
        "sim.cell", "cache.probe", "cache.key", "cache.publish",
        "json.decode", "json.encode")}
    counts["spans"] = len(spans)
    return metrics, counts


def traced_run(tools, workload, seed, small, work):
    probe = tools[1]
    cached = workload in gen.CACHED
    _, manifests, reference, _, _ = set_up_all(tools, workload, seed,
                                               work, small, once=True)
    cache_dir = work / "setup-0" / "cache" if cached else None
    untraced = run_sweeps(tools, workload, manifests, work / "untraced",
                          cache_dir)
    if reference is None:
        reference = Reference(probe, manifests, untraced["results"],
                              pinned_digests(workload, seed, small))
    failed = reference.failures(untraced["results"])

    traced_dir = work / "traced"
    traced_dir.mkdir()
    results = [traced_dir / (m.stem + ".results.jsonl") for m in manifests]
    spans_path = traced_dir / "spans.jsonl"
    argv = [probe, "trace", "--threads", gen.THREADS[workload], "--spans",
            spans_path]
    if cached:
        argv += ["--cache", cache_dir, "--publish-dir",
                 traced_dir / "publish"]
    for manifest, result in zip(manifests, results):
        argv += [manifest, result]
    run_child(tools, argv)
    failed += reference.failures(results)
    log_failures(reference, failed)

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    metrics, counts = layer_metrics(spans, gen.THREADS[workload])
    RUNS.mkdir(exist_ok=True)
    kept = RUNS / f"{stamp()}-{workload}-s{seed}-spans.jsonl"
    shutil.copyfile(spans_path, kept)
    return (metrics, "per_layer", 2 * reference.cells(), len(failed),
            {"spans": str(kept.relative_to(ROOT)), "n": counts,
             "untraced_wall_s": untraced["wall"]})


# ------------------------------------------------------------ run context --

def stamp():
    return time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()) + f"-{os.getpid()}"


def steal_seconds():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def first_line(argv):
    """First line of argv's output, or "unknown" if it cannot run."""
    try:
        out = subprocess.run(argv, capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = out.stdout.splitlines()
    return lines[0].strip() if out.returncode == 0 and lines else "unknown"


def run_context():
    def cmake_cache(key):
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
        return "unknown"

    cpu_model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        # Only the checkout's own repository, never one that encloses it.
        "commit": first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        if (ROOT / ".git").exists() else "unknown",
        "source_sha256": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": first_line([cmake_cache("CMAKE_CXX_COMPILER"),
                                "--version"]),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg": list(os.getloadavg()),
    }


# ------------------------------------------------------------------- main --

def bench(workload, seed, seconds, trace, small=False):
    """Runs one benchmark run; returns (result dict, run context dict)."""
    tools = build()
    context = run_context()
    steal = steal_seconds()
    work = WORK / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            measured = traced_run(tools, workload, seed, small, work)
        else:
            measured = timed_phase(tools, workload, seed, seconds, small,
                                   work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, kind, attempted, failed, detail = measured
    units = metric_units(kind)
    if set(metrics) != set(units):
        raise BenchError(f"computed {sorted(metrics)}, but BENCHMARK.json "
                         f"lists {sorted(units)} under {kind}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    context.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "small": small,
        "loadavg_end": list(os.getloadavg()),
        "steal_s": steal_seconds() - steal, **detail,
    })
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{stamp()}-{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n")
    log(f"context: {json.dumps(context)}")
    return result, context


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, _ = bench(args.workload, args.seed, args.seconds,
                          args.trace == 1)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
