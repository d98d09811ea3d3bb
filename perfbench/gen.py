"""Input generator: writes a workload's sweep manifests from its seed.

    python3 perfbench/gen.py <workload> <seed> <out-dir> [--small]

The manifests hold scenario data only. Execution policy (queue_engine,
hotpath_engine, report_*_stats, threads, cache, order) is left out, so the
codec's defaults apply and the benchmark measures whatever the program does
by default. The seed sets the runner's base_seed (every cell's seed derives
from it) and, for the sampled networks of cache-replay, the sampling seed.
The cell count and the per-cell work depend only on the workload name.
"""

import json
import sys
from pathlib import Path

# The fig6 SimConfig: duration 1e6 packet-times, warmup 4e5, energy guard on.
SIM = {"duration": 1e6, "warmup": 4e5, "energy_guard": True,
       "initial_energy": 5e5}
# --small: the same shapes at a tenth of the simulated time, for the
# self-test. Shorter runs leave the σ = 0.25 grid cells below their power
# budget, which the checker rejects.
SIM_SMALL = {"duration": 1e5, "warmup": 4e4, "energy_guard": True,
             "initial_energy": 5e5}

WORKLOADS = ("grid-sim", "clique-ladder", "cache-replay")

# Threads handed to econcast_sweep, below nproc = 4 so that one core stays
# free for the rest of the machine.
THREADS = {"grid-sim": 1, "clique-ladder": 3, "cache-replay": 1}
# Workloads whose sweeps run against a result cache filled in set-up.
CACHED = {"cache-replay"}


def _grid_edges(k):
    edges = []
    for r in range(k):
        for c in range(k):
            i = r * k + c
            if c + 1 < k:
                edges.append([i, i + 1])
            if r + 1 < k:
                edges.append([i, i + k])
    return edges


def _manifest(name, sweep, seed):
    return {
        "format": "econcast-sweep-manifest",
        "schema_version": 2,
        "sweep": dict(name=name, **sweep),
        "runner": {"base_seed": str(seed % 2**64), "reseed": True},
    }


def _econcast(sim):
    return [{"name": "econcast", "params": dict(sim)}]


def manifests(workload, seed, small=False):
    """[(file name, manifest dict)] in the order the workload runs them."""
    sim = SIM_SMALL if small else SIM
    if workload == "grid-sim":
        # The largest Fig. 6 row: the 10 x 10 grid as an explicit edge list.
        return [("grid-N100.json", _manifest("grid-N100", {
            "protocols": _econcast(sim),
            "node_counts": [100],
            "sigmas": [0.25, 0.5, 0.75],
            "topology": {"kind": "edge_list", "n": 100,
                         "edges": _grid_edges(10)},
        }, seed))]
    if workload == "clique-ladder":
        # One replicate per size keeps a pass near 5 s, so that a run
        # repeats it about five times; the sizes keep the cost span.
        return [("clique-ladder.json", _manifest("clique-ladder", {
            "protocols": _econcast(sim),
            "node_counts": [k * k for k in range(2, 11)],
            "sigmas": [0.5],
        }, seed))]
    if workload == "cache-replay":
        # Fig. 2-style sampled analytic sweep (small entries) plus EconCast
        # cliques whose entries carry ~160 KB of latency samples each.
        return [
            ("fig2.json", _manifest("fig2", {
                "protocols": [{"name": "econcast-p4"}, {"name": "oracle"}],
                "modes": ["groupput", "anyput"],
                "sigmas": [0.25, 0.5, 0.75],
                "replicates": 5 if small else 25,
                "node_set": {"kind": "sampled",
                             "h": [10, 50, 90, 130, 170, 250],
                             "sample_seed": str(seed % 2**64)},
            }, seed)),
            ("big.json", _manifest("big", {
                "protocols": _econcast(sim),
                "node_counts": [25],
                "sigmas": [0.75],
                "replicates": 4,
            }, seed)),
        ]
    raise ValueError(f"unknown workload '{workload}'")


def write(workload, seed, out_dir, small=False):
    """Writes the manifests into out_dir; returns their paths in run order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, manifest in manifests(workload, seed, small):
        path = out_dir / name
        path.write_text(json.dumps(manifest) + "\n")
        paths.append(path)
    return paths


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--small"]
    if len(args) != 3 or args[0] not in WORKLOADS:
        sys.exit(f"usage: gen.py {{{','.join(WORKLOADS)}}} <seed> <out-dir>"
                 " [--small]")
    for p in write(args[0], int(args[1]), args[2], "--small" in sys.argv):
        print(p)
