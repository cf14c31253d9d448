"""§3.6.5: translation groups on the BLT-driver workload.

Paper: the Windows/9X device-independent BLT driver rewrites one routine
among up to 33 versions; translation groups keep the retired versions
and reactivate them when their bytes reappear, "so it is desirable to
have the old translation available when an old version reappears".
"""

from __future__ import annotations

from dataclasses import replace

from common import BASELINE, print_table, run_cached


def _collect():
    with_groups = run_cached("blt_driver", BASELINE)
    without_groups = run_cached(
        "blt_driver", replace(BASELINE, translation_groups=False)
    )
    assert with_groups.console_output == without_groups.console_output
    return with_groups, without_groups


def test_translation_groups_reactivate_versions(benchmark):
    with_groups, without_groups = benchmark.pedantic(_collect, rounds=1,
                                                     iterations=1)
    groups = with_groups.system.groups
    stats_with = with_groups.system.stats
    stats_without = without_groups.system.stats
    print_table(
        "BLT driver: translation groups (§3.6.5)",
        [("versions retired", str(groups.retired)),
         ("reactivations", str(stats_with.group_reactivations)),
         ("translations (groups on)", str(stats_with.translations_made)),
         ("translations (groups off)",
          str(stats_without.translations_made)),
         ("molecule-equivalents (on)", str(with_groups.total_molecules)),
         ("molecule-equivalents (off)",
          str(without_groups.total_molecules))],
        footer="paper: up to 33 versions observed in the Win9x BLT driver",
    )
    assert stats_with.group_reactivations >= 4, "groups barely reactivated"
    assert stats_with.translations_made < stats_without.translations_made
    assert with_groups.total_molecules < without_groups.total_molecules


def test_groups_work_across_version_counts(benchmark):
    """Groups reactivate versions whatever the rotation size."""
    def _run():
        from repro.workloads.games import blt_driver
        from repro.workloads.base import run_workload

        few = run_workload(blt_driver(scale=1, versions=3), BASELINE)
        many = run_workload(blt_driver(scale=1, versions=8), BASELINE)
        assert few.system.stats.group_reactivations >= 1
        assert many.system.stats.group_reactivations >= 1

    benchmark.pedantic(_run, rounds=1, iterations=1)
