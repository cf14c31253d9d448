"""One benchmark rep in a fresh process: set up, run to halt, report.

Started by ``run.py``, one child at a time, so every rep pays a fresh
CMS launch: interpreter start, imports, program generation and
assembly, an empty tcache and an empty process-wide JIT code cache.
Prints one JSON object on stdout.

Modes:

* ``cms`` — default ``CMSConfig()``, driven through ``run_slice(S)``
  with every slice timed from outside;
* ``trace`` — the same, with ``trace.Tracer`` spans around each layer;
* ``oracle`` — interpreter-only, untimed; only the digest matters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"


def _counters(legs) -> dict:
    """Deterministic counters summed over the rep's legs."""
    from repro.scenarios.runner import _mmu_record

    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for system, _ in legs:
        stats = system.stats
        for key, value in stats.as_dict().items():
            if isinstance(value, int):
                add(key, value)
        add("total_molecules", stats.total_molecules(system.config.cost))
        add("tcache_resident", len(system.tcache.translations()))
        for key, value in _mmu_record(system.machine).items():
            add(f"mmu_{key}", value)
        icache = system.icache
        if icache is not None:
            add("icache_hits", icache.hits)
            add("icache_misses", icache.misses)
            add("icache_invalidations", icache.invalidations)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("cms", "trace", "oracle"),
                        required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from repro.cms.config import CMSConfig
    from repro.cms.system import CodeMorphingSystem
    from repro.scenarios.runner import _build_machine

    from workloads import WORKLOADS, outcome_digest

    workload = WORKLOADS[args.workload]
    base = CMSConfig()
    config = base.interpreter_only() if args.mode == "oracle" else base
    legs = []
    for program in workload.programs(args.seed, args.smoke):
        machine, entry = _build_machine(program, args.seed)
        system = CodeMorphingSystem(machine, config)
        system.state.eip = entry
        legs.append((system, program))
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.mode == "trace":
        from trace import Tracer
        tracer = Tracer()
        for system, _ in legs:
            tracer.install(system)

    slice_s: list[float] = []
    digests = []
    halted = True
    budget = workload.slice_instructions
    clock = time.perf_counter
    for system, program in legs:
        if args.mode == "oracle":
            result = system.run(max_instructions=program.max_instructions)
        else:
            machine = system.machine
            run_slice = system.run_slice
            limit = program.max_instructions
            alive = True
            while alive and machine.instructions_retired < limit:
                started = clock()
                alive = run_slice(budget)
                slice_s.append(clock() - started)
            result = system.finalize_run()
        halted = halted and result.halted
        digests.append(outcome_digest(system, program, result,
                                      workload.pin_interrupts))

    report = {
        "setup_s": setup_s,
        "slice_s": slice_s,
        "halted": halted,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "counters": _counters(legs),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
