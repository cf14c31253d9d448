"""End-to-end CMS benchmark: fresh-process reps, timed from outside.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload cold-flat --seed 0
    python3 benchmarks/e2e/run.py --seed 0 --trace 1 --json out.json
    python3 benchmarks/e2e/run.py --regen-golden

The driver is one process.  For ``--seconds`` it starts one child
(``rep.py``) at a time; each child sets up a fresh CMS, runs the
workload's guest programs to halt through ``run_slice(S)``, and reports
its slice times, set-up time, peak RSS, counters and outcome digest.
Every digest is checked against the interpreter-only oracle: the
committed ``golden.json`` for seeds 0 and 1, otherwise an untimed oracle
child run first.  A rep fails when its child raises or times out, the
guest does not halt, or the digest differs.

With ``--trace 1`` the children alternate untraced and traced reps and
the per-layer metrics are printed instead (see ``trace.py``).  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--workload`` every workload runs
in turn and the metric names gain a ``<workload>.`` prefix.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from trace import layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
GOLDEN = HERE / "golden.json"
GOLDEN_SEEDS = (0, 1)

SECONDS = 20  # BENCHMARK.json run_seconds
MIN_ROUNDS = {False: 3, True: 1}  # per run, untraced / traced
HARD_LIMIT_S = 170  # one run must end well inside 180 s
TRACE_SUM_TOLERANCE = 0.01  # sum of self times vs traced slice wall
IDENTITY_COUNTERS = ("dispatches", "translations_made", "total_molecules",
                     "guest_instructions")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".share")):
        return "fraction"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Driver:
    """Spawns rep children for one invocation and checks their output."""

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke
        # HARD_LIMIT_S caps the whole invocation, every workload included.
        self.started = time.monotonic()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, workload: str, seed: int, mode: str) -> dict | None:
        """Run one child; its report, or None if it failed."""
        timeout = max(1.0, self.remaining())
        command = [sys.executable, str(HERE / "rep.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--mode", mode]
        if self.smoke:
            command.append("--smoke")
        command += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{workload}: {mode} rep timed out after {timeout:.0f} s",
                  file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"{workload}: {mode} rep failed (exit "
                  f"{proc.returncode}):\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout)

    def golden_table(self) -> dict:
        with open(GOLDEN, encoding="utf-8") as handle:
            return json.load(handle)["smoke" if self.smoke else "full"]

    def expected_digest(self, workload, seed: int) -> str:
        key = str(seed) if workload.seeded else "0"
        digest = self.golden_table().get(workload.name, {}).get(key)
        if digest is not None:
            return digest
        report = self.spawn(workload.name, seed, "oracle")
        if report is None or not report["halted"]:
            raise SystemExit(f"{workload.name}: oracle run failed")
        return report["digest"]

    def measure(self, workload, seed: int, seconds: float,
                traced: bool) -> dict:
        """Reps for ``seconds``; the workload's report."""
        expected = self.expected_digest(workload, seed)
        started = time.monotonic()
        modes = ("cms", "trace") if traced else ("cms",)
        reps, traced_reps = [], []
        attempted = failed = rounds = 0
        plain = None  # the untraced rep a traced one is checked against
        while True:
            rounds += 1
            for mode in modes:
                rep = self.spawn(workload.name, seed, mode)
                attempted += 1
                # A rep that ran but failed its checks still reports its
                # measurements; ``failed`` marks the result incorrect.
                if rep is not None:
                    (traced_reps if mode == "trace" else reps).append(rep)
                problem = _rep_problem(rep, expected)
                if problem is None and mode == "trace":
                    problem = _trace_problem(rep, plain)
                if problem is not None:
                    failed += 1
                    print(f"{workload.name}: {mode} rep failed: {problem}",
                          file=sys.stderr)
                plain = rep
            elapsed = time.monotonic() - started
            per_round = elapsed / rounds
            if self.remaining() < 2 * per_round:
                break
            if rounds >= MIN_ROUNDS[traced] and \
                    elapsed + per_round > seconds:
                break
        report = {"attempted": attempted, "failed": failed,
                  "failed_ratio": failed / attempted}
        if reps:
            report["counters"] = reps[0]["counters"]
        if traced and traced_reps:
            report["metrics"] = layer_metrics_of(traced_reps, reps)
        elif not traced and reps:
            report["metrics"] = end_to_end_metrics(reps)
        return report


def _rep_problem(rep: dict | None, expected: str) -> str | None:
    """Why a rep failed, or None."""
    if rep is None:
        return "its child crashed or timed out"
    if not rep["halted"]:
        return "the guest did not halt"
    if rep["digest"] != expected:
        return "its outcome digest differs from the oracle's"
    return None


def _trace_problem(rep: dict, plain: dict | None) -> str | None:
    """Why a traced rep's checks fail, or None.  ``plain`` is the
    untraced rep just before it."""
    wall = sum(rep["slice_s"])
    self_sum = sum(layer["self_s"] for layer in rep["layers"].values())
    if abs(self_sum - wall) > TRACE_SUM_TOLERANCE * wall:
        return (f"layer self times sum to {self_sum:.4f} s, traced slice "
                f"wall is {wall:.4f} s")
    if plain is not None:
        for key in IDENTITY_COUNTERS:
            if rep["counters"].get(key) != plain["counters"].get(key):
                return (f"counter {key}: traced {rep['counters'].get(key)}"
                        f" != untraced {plain['counters'].get(key)}")
    return None


def _summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def typical_slices(reps: list[dict]) -> tuple[list[float], list[dict]]:
    """Each slice's median time over the reps, in seconds, and the reps
    it was taken from.

    The guest and the CMS are deterministic, so slice ``i`` does the
    same work in every rep.  Taking its median across reps drops the
    bursts of host noise that hit a few slices of one rep; the slice
    metrics and ``guest_kips`` are computed from these typical times.
    Reps whose slice count differs from the most common one (a failed
    rep) are left out.
    """
    counts = [len(rep["slice_s"]) for rep in reps]
    common = max(set(counts), key=counts.count)
    kept = [rep for rep in reps if len(rep["slice_s"]) == common]
    columns = zip(*(rep["slice_s"] for rep in kept))
    return [statistics.median(column) for column in columns], kept


def end_to_end_metrics(reps: list[dict]) -> dict:
    def per_rep(fn):
        return [fn(rep) for rep in reps]

    def kips(rep, seconds):
        return rep["counters"]["guest_instructions"] / seconds / 1e3

    def mpi(rep):
        counters = rep["counters"]
        return counters["total_molecules"] / counters["guest_instructions"]

    typical, kept = typical_slices(reps)
    typical_ms = sorted(s * 1e3 for s in typical)
    p99 = statistics.quantiles(typical_ms, n=100)[98] \
        if len(typical_ms) > 1 else typical_ms[0]
    # Each rep's own reading, for the spread the typical slices remove.
    rep_q1, _, rep_q3 = quartiles(
        per_rep(lambda rep: kips(rep, sum(rep["slice_s"]))))
    return {
        "guest_kips": {"value": kips(kept[0], sum(typical)),
                       "unit": "kinstr/s", "n": len(kept),
                       "rep_q1": rep_q1, "rep_q3": rep_q3},
        "slice_p50_ms": {"value": statistics.median(typical_ms),
                         "unit": "ms", "n": len(typical_ms)},
        "slice_p99_ms": {"value": p99, "unit": "ms", "n": len(typical_ms)},
        "mol_per_instr": _summary(per_rep(mpi), "molecules/instr"),
        "setup_s": _summary(per_rep(lambda rep: rep["setup_s"]), "s"),
        "peak_rss_mb": _summary(per_rep(lambda rep: rep["peak_rss_mb"]),
                                "MiB"),
    }


def layer_metrics_of(traced_reps: list[dict], reps: list[dict]) -> dict:
    per_rep = [layer_metrics(rep["layers"], rep["counters"],
                             sum(rep["slice_s"])) for rep in traced_reps]
    out = {name: _summary([values[name] for values in per_rep],
                          layer_unit(name))
           for name in per_rep[0]}
    traced_wall = statistics.median(sum(r["slice_s"]) for r in traced_reps)
    if reps:
        plain_wall = statistics.median(sum(r["slice_s"]) for r in reps)
        out["trace.overhead_ratio"] = {
            "value": traced_wall / plain_wall - 1, "unit": "fraction",
            "n": len(traced_reps)}
    return out


def _print_report(name: str, report: dict) -> None:
    print(f"== {name}: {report['attempted']} reps attempted, "
          f"{report['failed']} failed, failed_ratio "
          f"{report['failed_ratio']:.3f}")
    for metric, entry in report.get("metrics", {}).items():
        spread = ""
        if "q1" in entry:
            spread = f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g})"
        elif "rep_q1" in entry:
            spread = (f"  (per-rep q1 {entry['rep_q1']:.6g},"
                      f" q3 {entry['rep_q3']:.6g})")
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']:<16}"
              f" n={entry['n']}{spread}")


def regen_golden(driver: Driver, workloads: dict) -> None:
    table = {}
    for smoke in (False, True):
        driver.smoke = smoke
        section = table["smoke" if smoke else "full"] = {}
        for workload in workloads.values():
            entries = section[workload.name] = {}
            for seed in GOLDEN_SEEDS if workload.seeded else (0,):
                driver.started = time.monotonic()
                report = driver.spawn(workload.name, seed, "oracle")
                if report is None or not report["halted"]:
                    raise SystemExit(f"{workload.name}: oracle run failed")
                entries[str(seed)] = report["digest"]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end CMS benchmark (see module docstring).")
    parser.add_argument("--workload",
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full report here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the test")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute the oracle digests and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: the CMS sources ({SRC / 'repro'}) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    driver = Driver(args.smoke)
    if args.regen_golden:
        regen_golden(driver, WORKLOADS)
        return 0
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = bool(args.trace)
    reports = {}
    for name in names:
        reports[name] = driver.measure(WORKLOADS[name], args.seed,
                                       args.seconds, traced)
        _print_report(name, reports[name])
    if not any("metrics" in report for report in reports.values()):
        print("run.py: no rep produced measurements", file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "trace": traced,
                       "smoke": args.smoke, "workloads": reports},
                      handle, indent=2)
    metrics = {}
    for name, report in reports.items():
        prefix = "" if args.workload else f"{name}."
        for metric, entry in report.get("metrics", {}).items():
            metrics[prefix + metric] = {"value": entry["value"],
                                        "unit": entry["unit"]}
    attempted = sum(report["attempted"] for report in reports.values())
    failed = sum(report["failed"] for report in reports.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
