"""Unit tests for the adaptive retranslation controller."""

from __future__ import annotations

import pytest

from repro.cms.config import CMSConfig
from repro.cms.retranslation import MIN_REGION, AdaptiveController
from repro.host.faults import HostFault, HostFaultKind

from test_tcache import make_translation


def make_controller(**config_overrides) -> AdaptiveController:
    from dataclasses import replace

    config = replace(CMSConfig(), **config_overrides)
    return AdaptiveController(config)


def fault(kind: HostFaultKind, site: int = 0x1010) -> HostFault:
    return HostFault(kind=kind, guest_addr=site)


class TestBasePolicy:
    def test_base_reflects_config(self):
        controller = make_controller(reorder_memory=False,
                                     max_region_instructions=64)
        policy = controller.base_policy()
        assert not policy.reorder_memory
        assert policy.max_instructions == 64

    def test_force_self_check_propagates(self):
        controller = make_controller(force_self_check=True)
        assert controller.base_policy().self_check

    def test_policy_for_unknown_entry_is_base(self):
        controller = make_controller()
        assert controller.policy_for(0x9999) == controller.base_policy()

    def test_policy_for_follows_every_accumulated_change(self):
        # policy_for memoizes the base merge per entry; every way the
        # accumulated policy changes must show in the next answer.
        controller = make_controller(max_region_instructions=64)
        base = controller.base_policy()
        controller.observe_code(0x1000, "digest-a")
        controller.set_policy(0x1000, base.with_(self_check=True))
        first = controller.policy_for(0x1000)
        assert first.self_check and first.max_instructions == 64
        assert controller.policy_for(0x1000) is first
        controller.set_policy(0x1000, base.with_(
            stop_addrs=frozenset({0x1004})))
        second = controller.policy_for(0x1000)
        assert second.self_check and 0x1004 in second.stop_addrs
        controller.observe_code(0x1000, "digest-b")  # new code: reset
        third = controller.policy_for(0x1000)
        assert third.self_check and not third.stop_addrs
        controller.prune(set(), set())
        assert controller.policy_for(0x1000) == base


class TestEscalation:
    def test_below_threshold_no_action(self):
        controller = make_controller(fault_threshold=3)
        t = make_translation()
        for _ in range(2):
            assert controller.note_fault(
                t, fault(HostFaultKind.ALIAS_VIOLATION), None
            ) is None

    def test_alias_ladder(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        # Stage 1: pin the faulting site.
        policy = controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
        assert 0x1010 in policy.no_reorder_addrs
        assert policy.reorder_memory
        # Stage 2+: narrow the region.
        policy = controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
        assert policy.max_instructions < CMSConfig().max_region_instructions
        # Keep narrowing until the floor, then disable reordering.
        for _ in range(10):
            policy = controller.note_fault(
                t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
            if policy is None:
                break
        final = controller.policy_for(t.entry_eip)
        assert final.max_instructions == MIN_REGION
        assert not final.reorder_memory

    def test_spec_mmio_fences_site(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        policy = controller.note_fault(
            t, fault(HostFaultKind.SPEC_MMIO, 0x1020), None)
        assert 0x1020 in policy.io_fence_addrs

    def test_genuine_guest_fault_narrows_then_pins(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        policy = None
        for _ in range(12):
            new = controller.note_fault(
                t, fault(HostFaultKind.GUEST_FAULT, 0x1010), True)
            policy = new or policy
        assert policy.max_instructions == MIN_REGION
        assert 0x1010 in policy.stop_addrs

    def test_speculative_guest_fault_pins_load(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        policy = controller.note_fault(
            t, fault(HostFaultKind.GUEST_FAULT, 0x1010), False)
        assert 0x1010 in policy.no_reorder_addrs
        policy = controller.note_fault(
            t, fault(HostFaultKind.GUEST_FAULT, 0x1010), False)
        assert not policy.control_speculation

    def test_storebuf_overflow_shrinks_commit_interval(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        policy = controller.note_fault(
            t, fault(HostFaultKind.STOREBUF_OVERFLOW), None)
        assert policy.commit_interval < CMSConfig().commit_interval

    def test_protection_faults_not_handled_here(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        assert controller.note_fault(
            t, fault(HostFaultKind.PROTECTION), None) is None

    def test_disabled_adaptation_never_escalates(self):
        controller = make_controller(adaptive_retranslation=False,
                                     fault_threshold=1)
        t = make_translation()
        for _ in range(10):
            assert controller.note_fault(
                t, fault(HostFaultKind.ALIAS_VIOLATION), None) is None

    def test_counters_are_per_site(self):
        controller = make_controller(fault_threshold=2)
        t = make_translation()
        assert controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None) is None
        assert controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1020), None) is None
        # Second fault at the first site crosses its own threshold.
        policy = controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
        assert policy is not None
        assert 0x1010 in policy.no_reorder_addrs
        assert 0x1020 not in policy.no_reorder_addrs


class TestAccumulation:
    def test_set_policy_merges(self):
        controller = make_controller()
        base = controller.policy_for(0x1000)
        controller.set_policy(0x1000, base.with_(self_check=True))
        controller.set_policy(
            0x1000, base.with_(no_reorder_addrs=frozenset({0x1010})))
        accumulated = controller.policy_for(0x1000)
        assert accumulated.self_check
        assert 0x1010 in accumulated.no_reorder_addrs

    def test_policies_monotone_under_escalation(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        seen = [controller.policy_for(t.entry_eip)]
        kinds = [HostFaultKind.ALIAS_VIOLATION, HostFaultKind.SPEC_MMIO,
                 HostFaultKind.STOREBUF_OVERFLOW]
        for i in range(9):
            controller.note_fault(
                t, fault(kinds[i % 3], 0x1010 + i), None)
            seen.append(controller.policy_for(t.entry_eip))
        for earlier, later in zip(seen, seen[1:]):
            merged = earlier.merge(later)
            assert merged == later, "escalation must only tighten"


class TestCodeIdentity:
    """PR 5: a region's accumulated policy is tied to a code identity;
    loading *different* code at the same address drops version-specific
    escalations (no stale stop/no-reorder pins against new code) while
    keeping the address's SMC shape."""

    def test_first_observation_only_records(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
        controller.observe_code(t.entry_eip, "digest-a")
        assert controller.code_resets == 0
        assert 0x1010 in controller.policy_for(t.entry_eip).no_reorder_addrs

    def test_same_digest_is_a_noop(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        controller.observe_code(t.entry_eip, "digest-a")
        controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
        controller.observe_code(t.entry_eip, "digest-a")
        assert controller.code_resets == 0
        assert 0x1010 in controller.policy_for(t.entry_eip).no_reorder_addrs

    def test_new_identity_drops_version_specific_escalations(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        controller.observe_code(t.entry_eip, "digest-a")
        controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
        controller.note_fault(
            t, fault(HostFaultKind.SPEC_MMIO, 0x1020), None)
        controller.observe_code(t.entry_eip, "digest-b")
        assert controller.code_resets == 1
        assert controller.policy_for(t.entry_eip) == \
            controller.base_policy()
        # Per-site fault counters restarted with the new code too.
        assert controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None
        ) is not None  # threshold 1: first fault escalates again

    def test_new_identity_keeps_smc_shape(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        base = controller.base_policy()
        controller.observe_code(t.entry_eip, "digest-a")
        controller.set_policy(t.entry_eip, base.with_(
            self_check=True, self_revalidate=True,
            stylized_imm_addrs=frozenset({0x1014})))
        controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
        controller.observe_code(t.entry_eip, "digest-b")
        kept = controller.policy_for(t.entry_eip)
        assert kept.self_check and kept.self_revalidate
        assert 0x1014 in kept.stylized_imm_addrs
        assert not kept.no_reorder_addrs  # version-specific: dropped

    def test_monotone_within_one_identity(self):
        controller = make_controller(fault_threshold=1)
        t = make_translation()
        controller.observe_code(t.entry_eip, "digest-b")
        seen = [controller.policy_for(t.entry_eip)]
        for i in range(4):
            controller.note_fault(
                t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010 + i), None)
            controller.observe_code(t.entry_eip, "digest-b")
            seen.append(controller.policy_for(t.entry_eip))
        for earlier, later in zip(seen, seen[1:]):
            assert earlier.merge(later) == later


class TestPruneAndState:
    """PR 5: controller state is bounded by live regions, and survives
    a snapshot round trip via export/import with monotone merging."""

    def test_prune_drops_dead_keeps_live(self):
        controller = make_controller(fault_threshold=1)
        live = make_translation(entry=0x1000)
        dead = make_translation(entry=0x2000)
        for t in (live, dead):
            controller.observe_code(t.entry_eip, "digest")
            controller.note_fault(
                t, fault(HostFaultKind.ALIAS_VIOLATION, t.entry_eip + 0x10),
                None)
        removed = controller.prune({0x1000}, {0x1000})
        assert removed > 0
        assert controller.pruned == removed
        assert controller.policy_entries() == {0x1000}
        assert controller.site_fault_entries() <= {0x1000}
        assert controller.policy_for(0x2000) == controller.base_policy()
        assert 0x1010 in controller.policy_for(0x1000).no_reorder_addrs

    def test_prune_site_faults_more_aggressively(self):
        controller = make_controller(fault_threshold=3)
        t = make_translation(entry=0x3000)
        controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x3010), None)
        controller.set_policy(
            0x3000, controller.base_policy().with_(self_check=True))
        # Policy stays (entry in live_policy_entries, e.g. a hot
        # anchor); the partial fault count goes (not resident).
        controller.prune({0x3000}, set())
        assert 0x3000 in controller.policy_entries()
        assert controller.site_fault_entries() == set()

    def test_export_import_roundtrip(self):
        controller = make_controller(fault_threshold=2)
        t = make_translation(entry=0x1000)
        controller.observe_code(0x1000, "digest-a")
        controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
        controller.note_fault(
            t, fault(HostFaultKind.ALIAS_VIOLATION, 0x1010), None)
        state = controller.export_state()
        fresh = make_controller(fault_threshold=2)
        fresh.import_state(state)
        assert fresh.policy_for(0x1000) == controller.policy_for(0x1000)
        assert fresh._code_ids == controller._code_ids
        assert dict(fresh._site_faults) == {
            k: v for k, v in controller._site_faults.items() if v > 0}

    def test_import_merges_monotone(self):
        exporter = make_controller()
        exporter.set_policy(0x1000, exporter.base_policy().with_(
            no_reorder_addrs=frozenset({0x1010})))
        state = exporter.export_state()
        importer = make_controller()
        importer.set_policy(0x1000, importer.base_policy().with_(
            self_check=True, max_instructions=MIN_REGION))
        importer.import_state(state)
        merged = importer.policy_for(0x1000)
        assert merged.self_check  # local escalation survives
        assert merged.max_instructions == MIN_REGION
        assert 0x1010 in merged.no_reorder_addrs  # imported pin merged in
