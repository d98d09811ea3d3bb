#!/usr/bin/env python3
"""Rewrites perfbench/reference.json from the current build.

    python3 perfbench/pin.py

The file pins the SHA-256 (first 16 hex digits) of every results line of
every workload at SEED. At that seed a benchmark run fails each cell whose
bytes differ from the pin, so rerun this only for a change that is meant to
alter result bytes, and say so in the change.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402

SEED = 1


def main():
    tools = run.build()
    cells = {}
    for workload in gen.WORKLOADS:
        work = run.WORK / f"pin-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            manifests = gen.write(workload, SEED, work / "inputs")
            cache = work / "cache" if workload in gen.CACHED else None
            one = run.run_sweeps(tools, workload, manifests, work / "pass",
                                 cache)
            reference = run.Reference(tools[1], manifests, one["results"],
                                      {})
            if reference.why:
                sys.exit(f"pin: {workload} fails its checks: "
                         f"{reference.why}")
            cells[workload] = {
                m.name: [run.cell_digest(line) for line in run.read_lines(r)]
                for m, r in zip(manifests, one["results"])}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(
        json.dumps({"seed": SEED, "cells": cells}, indent=1) + "\n")


if __name__ == "__main__":
    main()
