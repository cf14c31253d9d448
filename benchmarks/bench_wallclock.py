"""Wall-clock performance of the simulator itself.

Every other benchmark in this directory compares *molecule counts* —
the paper's metric, measuring the quality of the code CMS generates.
This one times the *host*: how many guest instructions per second the
reproduction retires, and how much the two engineering dials in
``CMSConfig`` (the decode cache and the template JIT) buy over
``CMSConfig.seed_performance()``, which turns both off.  The two
metrics are deliberately orthogonal: every row below asserts that
console output and molecule counts are bit-identical with the
optimizations on and off, so the dials can never change *what* is
computed, only how fast the host computes it.

Coverage: one boot (``dos_boot``), one app kernel (``compress``), and
one SMC-heavy workload (``quake_demo2``, the self-modifying renderer).
Each translating row also times an interpreter-only run of the same
workload, and the **headline gate** asserts the paper's premise holds
in wall-clock terms: with the template JIT on, the CMS path beats
interpretation on every workload (``cms_vs_interp_speedup >= 1.0``,
measured margins are 1.6-3.9x).  The interpreter-dominated quake row keeps
its own optimized-vs-seed gate.  Bisect bus routing and the software
TLB are on in both of its legs, and the template JIT does nothing
without translations, so that row measures the decode cache alone:
it is the decode cache's gate, on the workload whose SMC stores
invalidate the cache.

The ablation attributes the template JIT's win, measured best-of-3 on
a translating run of compress (the template JIT is a no-op
interpreter-only), against a hard floor.

Results land in three places: the usual ``results.txt`` table, a
machine-readable ``BENCH_wallclock.json`` at the repo root, and the
pytest output.  ``REPRO_WALLCLOCK_BUDGET=<n>`` caps every run at n
guest instructions for CI smoke runs; with a reduced budget every
timing assertion is skipped (startup costs dominate tiny runs) but
identity and report shape are still checked.
"""

from __future__ import annotations

import json
import os

from common import BASELINE, emit_telemetry, print_table, run_timed

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_wallclock.json")

# (workload, role, interpreter-only?) rows.  The interpreter-only
# quake_demo2 row is the "interpreter-dominated workload" of the
# original acceptance criterion: no translations, every instruction
# through decode+dispatch, SMC stores invalidating the decode cache.
ROWS = [
    ("dos_boot", "boot", False),
    ("compress", "app", False),
    ("quake_demo2", "smc", False),
    ("quake_demo2", "interp", True),
]
INTERP_DOMINATED = ("quake_demo2", True)

# Interp-dominated row, decode cache on vs off (see module docstring).
# Six full runs read 3.04-3.19x (EXPERIMENTS.md, "Cheaper
# interpretation"); the floor sits 51% below the lowest of them.
MIN_SPEEDUP = 1.5
MIN_CMS_SPEEDUP = 1.0  # every workload: CMS path vs interpreter-only

# Per-dial ablation: (dial, workload, interp_only?, min slowdown_without).
# Each dial is measured on a mode where its mechanism is exercised; the
# decode cache has no row here, since the interp-dominated row above
# already times it off against on.
ABLATIONS = (
    ("template_jit", "compress", False, 1.5),
)
ABLATION_ROUNDS = 3  # best-of-N timing for every ablation config


def _budget() -> int | None:
    raw = os.environ.get("REPRO_WALLCLOCK_BUDGET", "").strip()
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise SystemExit(
            f"REPRO_WALLCLOCK_BUDGET must be an instruction count, "
            f"got {raw!r}") from None
    if budget <= 0:
        raise SystemExit(
            f"REPRO_WALLCLOCK_BUDGET must be positive, got {budget}")
    return budget


def _config(interp_only: bool, **dials):
    config = BASELINE.interpreter_only() if interp_only else BASELINE
    if dials:
        from dataclasses import replace
        config = replace(config, **dials)
    return config


def _modeled_per_instr(result) -> float:
    """Modeled cycles per *translated* guest instruction — the static
    schedule-quality counter, deterministic for a fixed budget."""
    stats = result.system.stats
    if not stats.guest_instructions_translated:
        return 0.0
    return round(stats.modeled_cycles_translated
                 / stats.guest_instructions_translated, 4)


def _measure(name: str, interp_only: bool, budget: int | None) -> dict:
    optimized = _config(interp_only)
    seed = optimized.seed_performance()
    seed_secs, seed_result = run_timed(name, seed, budget)
    opt_secs, opt_result = run_timed(name, optimized, budget)
    # The dials must be invisible to everything the paper measures.
    # With the template JIT among them, this doubles as a system-level
    # JIT-vs-simulated-VLIW identity check on every benchmark workload.
    assert opt_result.console_output == seed_result.console_output, (
        f"{name}: console output diverged with optimizations on"
    )
    assert opt_result.total_molecules == seed_result.total_molecules, (
        f"{name}: molecule counts diverged with optimizations on"
    )
    assert opt_result.guest_instructions == seed_result.guest_instructions
    instructions = opt_result.guest_instructions
    row = {
        "config": "interp-only" if interp_only else "baseline",
        "guest_instructions": instructions,
        "seed_seconds": round(seed_secs, 4),
        "optimized_seconds": round(opt_secs, 4),
        "seed_ips": round(instructions / seed_secs) if seed_secs else 0,
        "optimized_ips": round(instructions / opt_secs) if opt_secs else 0,
        "speedup": round(seed_secs / opt_secs, 3) if opt_secs else 0.0,
        "molecules_per_instruction": round(opt_result.mpx, 3),
        "identical_output": True,
    }
    if not interp_only:
        # The headline measurement: the translating CMS path against a
        # pure-interpretation run of the same guest.
        interp_secs, interp_result = run_timed(
            name, _config(True), budget)
        assert interp_result.console_output == opt_result.console_output, (
            f"{name}: console output diverged vs the interpreter"
        )
        row["interp_seconds"] = round(interp_secs, 4)
        row["cms_vs_interp_speedup"] = (
            round(interp_secs / opt_secs, 3) if opt_secs else 0.0
        )
        row["jit_dispatches"] = opt_result.system.stats.jit_dispatches
        row["modeled_cycles_per_instr"] = _modeled_per_instr(opt_result)
    return row


def _best_of(name: str, config, budget: int | None,
             rounds: int = ABLATION_ROUNDS) -> tuple[float, object]:
    best_secs, best_result = run_timed(name, config, budget)
    for _ in range(rounds - 1):
        secs, result = run_timed(name, config, budget)
        if secs < best_secs:
            best_secs, best_result = secs, result
    return best_secs, best_result


def _ablate(budget: int | None) -> dict:
    """Per-dial attribution: all-on vs exactly one dial off, each on a
    run mode where the dial's mechanism is live, best-of-N both sides."""
    out = {}
    all_on_cache: dict[tuple[str, bool], tuple[float, object]] = {}
    for dial, name, interp_only, minimum in ABLATIONS:
        key = (name, interp_only)
        if key not in all_on_cache:
            all_on_cache[key] = _best_of(name, _config(interp_only), budget)
        all_on_secs, all_on = all_on_cache[key]
        secs, result = _best_of(
            name, _config(interp_only, **{dial: False}), budget)
        assert result.console_output == all_on.console_output, dial
        assert result.total_molecules == all_on.total_molecules, dial
        out[dial] = {
            "workload": name,
            "mode": "interp-only" if interp_only else "baseline",
            "all_on_seconds": round(all_on_secs, 4),
            "seconds_without": round(secs, 4),
            "slowdown_without": round(secs / all_on_secs, 3)
            if all_on_secs else 0.0,
            "min_slowdown": minimum,
        }
    return out


def _collect() -> dict:
    budget = _budget()
    workloads = {}
    for name, role, interp_only in ROWS:
        key = f"{name}:{'interp' if interp_only else 'baseline'}"
        workloads[key] = {"workload": name, "role": role,
                          **_measure(name, interp_only, budget)}
    return {
        "budget": budget,
        "workloads": workloads,
        "ablation": _ablate(budget),
    }


def test_wallclock(benchmark):
    report = benchmark.pedantic(_collect, rounds=1, iterations=1)
    _emit(report)
    _check(report)


def _emit(report: dict) -> None:
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit_telemetry("bench-wallclock", report)
    table = []
    for key, row in report["workloads"].items():
        cms = row.get("cms_vs_interp_speedup")
        vs_interp = f"  vs-interp {cms:.2f}x" if cms is not None else ""
        table.append((
            key,
            f"{row['optimized_ips']:>9,} ips  "
            f"(seed {row['seed_ips']:>9,})  "
            f"speedup {row['speedup']:.2f}x{vs_interp}",
        ))
    for dial, entry in report["ablation"].items():
        table.append((
            f"ablate {dial}",
            f"{entry['slowdown_without']:.2f}x slower without  "
            f"({entry['workload']}, {entry['mode']}, "
            f"best of {ABLATION_ROUNDS})",
        ))
    budget = report["budget"]
    print_table(
        "Wall-clock (host instructions/second, optimizations vs seed)",
        table,
        footer=f"budget={'full' if budget is None else budget}; "
               "output and molecule counts identical in every row",
    )


def _check(report: dict) -> None:
    key = (f"{INTERP_DOMINATED[0]}:"
           f"{'interp' if INTERP_DOMINATED[1] else 'baseline'}")
    dominated = report["workloads"][key]
    for row in report["workloads"].values():
        assert row["identical_output"]
        assert row["optimized_ips"] > 0
    if report["budget"] is not None:
        return  # CI smoke: identity and shape only; timing is noise.
    assert dominated["speedup"] >= MIN_SPEEDUP, (
        f"interpreter-dominated speedup {dominated['speedup']:.2f}x "
        f"< {MIN_SPEEDUP}x"
    )
    # The headline gate: the CMS path must beat interpretation in
    # wall-clock terms on every workload (the paper's premise).
    for key, row in report["workloads"].items():
        cms = row.get("cms_vs_interp_speedup")
        if cms is None:
            continue
        assert cms >= MIN_CMS_SPEEDUP, (
            f"{key}: CMS path is slower than the interpreter "
            f"({cms:.3f}x < {MIN_CMS_SPEEDUP}x)"
        )
        assert row["jit_dispatches"] > 0, (
            f"{key}: template JIT never dispatched on a translating run"
        )
    for dial, entry in report["ablation"].items():
        assert entry["slowdown_without"] >= entry["min_slowdown"], (
            f"ablation {dial}: {entry['slowdown_without']:.3f}x < "
            f"{entry['min_slowdown']}x on {entry['workload']} "
            f"({entry['mode']})"
        )


if __name__ == "__main__":
    report = _collect()
    _emit(report)
    _check(report)
    print("ok")
