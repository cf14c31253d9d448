"""Workload-suite tests: every synthetic benchmark must halt and print
the same checksum under full CMS as under the pure interpreter.

For interrupt-driven workloads (the boots) architectural loop counters
legitimately differ between engines — asynchronous interrupt delivery
points are not architecturally specified — so the oracle is the printed
checksum, which each workload computes from deterministic data only.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.cms.config import CMSConfig
from repro.workloads import ALL_WORKLOADS, get_workload, run_workload
from repro.workloads.base import Workload
from repro.workloads.games import blt_driver, quake_demo2

FAST = CMSConfig(translation_threshold=6)


def reference_output(workload: Workload) -> str:
    result = run_workload(workload, CMSConfig().interpreter_only())
    assert result.halted, f"{workload.name}: reference did not halt"
    assert result.console_output.strip(), \
        f"{workload.name}: no checksum printed"
    return result.console_output


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_workload_checksum_matches_reference(name):
    workload = ALL_WORKLOADS[name]
    expected = reference_output(workload)
    result = run_workload(workload, FAST)
    assert result.halted, f"{name}: CMS run did not halt"
    assert result.console_output == expected, (
        f"{name}: checksum diverged "
        f"(ref {expected!r}, cms {result.console_output!r})"
    )
    # The workload must actually exercise the translator.
    assert result.system.stats.translations_made >= 1


@pytest.mark.parametrize("name", ["win98_boot", "tomcatv", "quake_demo2"])
def test_workloads_correct_without_reordering(name):
    workload = ALL_WORKLOADS[name]
    expected = reference_output(workload)
    config = CMSConfig(translation_threshold=6, reorder_memory=False,
                       control_speculation=False)
    result = run_workload(workload, config)
    assert result.console_output == expected


@pytest.mark.parametrize("name", ["win95_boot", "compress", "blt_driver"])
def test_workloads_correct_without_alias_hw(name):
    workload = ALL_WORKLOADS[name]
    expected = reference_output(workload)
    config = CMSConfig(translation_threshold=6, use_alias_hw=False)
    result = run_workload(workload, config)
    assert result.console_output == expected


@pytest.mark.parametrize("name", ["win98_boot", "quake_demo2"])
def test_workloads_correct_without_fine_grain(name):
    workload = ALL_WORKLOADS[name]
    expected = reference_output(workload)
    config = CMSConfig(translation_threshold=6,
                       fine_grain_protection=False)
    result = run_workload(workload, config)
    assert result.console_output == expected


class TestWorkloadPhenomena:
    def test_boots_generate_protection_faults(self):
        result = run_workload(ALL_WORKLOADS["win98_boot"], FAST)
        assert result.system.protection.protection_faults >= 1

    def test_boots_deliver_timer_interrupts(self):
        result = run_workload(ALL_WORKLOADS["dos_boot"], FAST)
        assert result.system.stats.interrupts_delivered >= 3

    def test_boot_dma_traffic(self):
        result = run_workload(ALL_WORKLOADS["winnt_boot"], FAST)
        assert result.system.machine.dma.transfers_completed >= 3

    def test_paging_boots_enable_paging(self):
        result = run_workload(ALL_WORKLOADS["linux_boot"], FAST)
        assert result.system.machine.mmu.translations > 0

    def test_quake_produces_frames(self):
        result = run_workload(ALL_WORKLOADS["quake_demo2"], FAST)
        assert result.frames >= 10
        assert result.system.machine.framebuffer.pixel_writes > 1000

    def test_quake_uses_smc_machinery(self):
        result = run_workload(ALL_WORKLOADS["quake_demo2"], FAST)
        stats = result.system.stats
        assert stats.smc_invalidations >= 1 or stats.protection_faults >= 1

    def test_blt_driver_reactivates_versions(self):
        result = run_workload(ALL_WORKLOADS["blt_driver"], FAST)
        assert result.system.groups.retired >= 2
        assert result.system.stats.group_reactivations >= 1

    def test_mmio_sites_learned_in_boots(self):
        result = run_workload(ALL_WORKLOADS["os2_boot"], FAST)
        assert len(result.system.profile.mmio_sites) >= 1

    def test_scaling_increases_work(self):
        small = run_workload(quake_demo2(frames=6),
                             CMSConfig().interpreter_only())
        large = run_workload(quake_demo2(frames=12),
                             CMSConfig().interpreter_only())
        assert large.guest_instructions > small.guest_instructions

    def test_blt_version_count_parameter(self):
        workload = blt_driver(scale=1, versions=4)
        expected = reference_output(workload)
        result = run_workload(workload, FAST)
        assert result.console_output == expected


def test_boot_source_is_the_same_in_every_process():
    """A boot workload assembles the same program whatever the
    interpreter's string-hash salt (``PYTHONHASHSEED``)."""
    script = ("import hashlib; from repro.workloads import get_workload; "
              "print(hashlib.sha256(get_workload('dos_boot').source"
              ".encode()).hexdigest())")
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       repro.__file__)))
        digests.add(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(digests) == 1
