"""§3.6.3: the cost of self-checking translations.

Paper: "we ran simulations of our benchmark suite normally, and with all
translations forced to be self-checking.  Self-checking adds a mean of
83% to the code size (ranging from 58% to 100%), and a mean of 51% to
the molecules executed (ranging from 11% to 124%)."

Shape claims: forcing self-checking inflates both emitted code size and
executed molecules by a material fraction, with the per-workload spread
the paper describes.
"""

from __future__ import annotations

from dataclasses import replace

from common import BASELINE, geomean_excess, print_table, run_cached

WORKLOADS = [
    "eqntott", "compress", "tomcatv", "ora", "alvinn", "gcc",
    "cpumark", "crafty", "dos_boot", "os2_boot",
]


def _code_size(result) -> int:
    return max(1, result.system.stats.molecules_translated)


def _collect():
    forced = replace(BASELINE, force_self_check=True)
    rows = {}
    for name in WORKLOADS:
        base = run_cached(name, BASELINE)
        checked = run_cached(name, forced)
        assert base.console_output == checked.console_output, name
        size_overhead = (
            _code_size(checked) / _code_size(base) - 1.0
        )
        exec_overhead = checked.degradation_vs(base)
        rows[name] = (size_overhead, exec_overhead)
    return rows


def test_selfcheck_overhead(benchmark):
    rows = benchmark.pedantic(_collect, rounds=1, iterations=1)
    table = [
        (name, f"code size +{size * 100:6.1f}%   molecules "
               f"+{molecules * 100:6.1f}%")
        for name, (size, molecules) in rows.items()
    ]
    size_mean = geomean_excess([size for size, _m in rows.values()])
    exec_mean = geomean_excess([m for _s, m in rows.values()])
    table.append(("mean",
                  f"code size +{size_mean * 100:6.1f}%   molecules "
                  f"+{exec_mean * 100:6.1f}%"))
    print_table("Self-checking translations (§3.6.3, all forced)", table,
                footer="paper: +83% code size (58..100%), "
                       "+51% molecules (11..124%)")

    # Code size inflates materially on every workload.
    for name, (size, _m) in rows.items():
        assert size > 0.25, f"{name}: code-size overhead only {size:.2f}"
    assert 0.4 < size_mean < 1.6, f"size mean out of band: {size_mean:.2f}"
    # Executed molecules inflate materially in the mean, with spread.
    assert exec_mean > 0.10, f"molecule mean too small: {exec_mean:.2f}"
    execs = [m for _s, m in rows.values()]
    assert max(execs) > 2 * max(0.01, min(execs)), "no per-workload spread"
