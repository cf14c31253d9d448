"""Failure containment, the degradation ladder, and the self-audit.

Three layers of coverage:

* unit tests drive :class:`DegradationManager` directly with a fake
  guest clock (full ladder descent, probation backoff, tier clamps,
  and a hypothesis property that any fault sequence converges back to
  the floor tier once the faults stop);
* system tests sabotage a live :class:`CodeMorphingSystem` (crashing
  translator, chaos injection, mid-run eviction) and assert the guest
  outcome still matches the pure-interpreter reference;
* auditor tests corrupt each invariant the :class:`RuntimeAuditor`
  guards and check one audit pass repairs it (and a second finds
  nothing).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CMSConfig, CMSStats, CodeMorphingSystem, Machine
from repro.cache.tcache import TranslationCache
from repro.cms.degrade import DegradationManager, Tier
from repro.translator import TranslationError
from repro.translator.policies import TranslationPolicy

from conftest import run_cms
from test_tcache import make_translation

FAST = CMSConfig(translation_threshold=4)

# Manager tests use a tiny ladder so every transition is reachable in a
# handful of calls.
LADDER = replace(FAST, storm_window=100, storm_threshold=3,
                 quarantine_probation=4, ladder_promote_clean=2)

LOOP = """
start:
    mov esp, 0x8000
    mov esi, 0
    mov ecx, 0
body:
    add esi, 3
    xor esi, 0x5A
    rol esi, 1
    inc ecx
    cmp ecx, 400
    jne body
    cli
    hlt
"""

CALL_HEAVY = """
start:
    mov esp, 0x8000
    mov esi, 0
    mov ecx, 0
outer:
    call work_a
    call work_b
    inc ecx
    cmp ecx, 150
    jne outer
    cli
    hlt
work_a:
    add esi, 3
    rol esi, 1
    ret
work_b:
    xor esi, 0x5A
    add esi, 0x9E3779B9
    ret
"""


def make_manager(config=LADDER):
    """A manager with a settable clock; returns (manager, stats, now)."""
    now = [0]
    stats = CMSStats()
    manager = DegradationManager(config, stats, clock=lambda: now[0])
    return manager, stats, now


def run_vs_reference(source, config, sabotage=None,
                     max_instructions=5_000_000):
    """Run ``source`` under ``config`` (optionally sabotaged) and assert
    exact architectural equivalence with the pure interpreter."""
    machine = Machine()
    entry = machine.load_source(source)
    system = CodeMorphingSystem(machine, config)
    if sabotage is not None:
        sabotage(system)
    result = system.run(entry, max_instructions=max_instructions)

    ref_machine = Machine()
    ref_entry = ref_machine.load_source(source)
    ref_system = CodeMorphingSystem(ref_machine, config.interpreter_only())
    ref_result = ref_system.run(ref_entry,
                                max_instructions=max_instructions)
    assert ref_result.halted, "reference run did not halt"
    assert result.halted, "CMS run did not halt"
    assert result.console_output == ref_result.console_output
    assert system.state.snapshot() == ref_system.state.snapshot()
    assert machine.ram.read_bytes(0, machine.ram.size) == \
        ref_machine.ram.read_bytes(0, ref_machine.ram.size)
    return system


# ----------------------------------------------------------------------
# The ladder (unit)
# ----------------------------------------------------------------------


class TestLadder:
    def test_full_descent_and_reexpansion(self):
        """A storming region walks every rung down to interpret-only,
        sits out its probation, and climbs all the way back up."""
        manager, stats, now = make_manager()
        entry = 0x4000
        # Nine events inside one window: three storms, three demotions.
        for expected in (Tier.CONSERVATIVE, Tier.NO_REORDER,
                         Tier.INTERP_ONLY):
            for _ in range(LADDER.storm_threshold):
                manager.note_degrade_event(entry, "test-storm")
            assert manager.tier_of(entry) is expected
        assert stats.storm_demotions == 3
        assert stats.quarantines == 1
        assert entry in manager.quarantined_regions()

        # Probation: 4 consultations; the first three refuse.
        refusals = 0
        while not manager.allow_translation(entry):
            refusals += 1
        assert refusals == LADDER.quarantine_probation - 1
        assert manager.tier_of(entry) is Tier.NO_REORDER
        assert stats.quarantine_readmissions == 1

        # Clean dispatches climb the rest of the way (deeper rungs need
        # proportionally longer streaks).
        for _ in range(LADDER.ladder_promote_clean * 2):
            manager.note_clean_dispatch(entry)
        assert manager.tier_of(entry) is Tier.CONSERVATIVE
        for _ in range(LADDER.ladder_promote_clean):
            manager.note_clean_dispatch(entry)
        assert manager.tier_of(entry) is Tier.AGGRESSIVE
        assert stats.ladder_promotions == 2

    def test_spread_out_events_do_not_storm(self):
        manager, stats, now = make_manager()
        for _ in range(20):
            now[0] += LADDER.storm_window + 1  # each event expires alone
            manager.note_degrade_event(0x4000, "sporadic")
        assert manager.tier_of(0x4000) is Tier.AGGRESSIVE
        assert stats.storm_demotions == 0

    def test_quarantine_backoff_doubles(self):
        manager, _stats, _now = make_manager()
        entry = 0x4000
        base = LADDER.quarantine_probation
        for strike in range(4):
            manager.quarantine(entry, "again")
            assert manager.regions()[entry].probation == base * 2 ** strike
            while not manager.allow_translation(entry):
                pass
        # The exponent is capped so probation stays bounded.
        for _ in range(40):
            manager.quarantine(entry, "again")
        assert manager.regions()[entry].probation == \
            base * 2 ** DegradationManager.MAX_BACKOFF_DOUBLINGS

    def test_clamp_per_tier(self):
        manager, _stats, _now = make_manager()
        policy = TranslationPolicy()
        entry = 0x4000
        assert manager.clamp(entry, policy) is policy  # AGGRESSIVE: no-op

        manager._health(entry).tier = Tier.CONSERVATIVE
        clamped = manager.clamp(entry, policy)
        assert not clamped.control_speculation
        assert clamped.max_instructions <= 32
        assert clamped.commit_interval <= 8
        assert clamped.reorder_memory  # memory dials survive this rung

        manager._health(entry).tier = Tier.NO_REORDER
        clamped = manager.clamp(entry, policy)
        assert not clamped.reorder_memory
        assert not clamped.use_alias_hw
        assert clamped.max_instructions <= 16
        assert clamped.commit_interval <= 4

    def test_clamp_never_relaxes_the_policy(self):
        manager, _stats, _now = make_manager()
        tight = TranslationPolicy(max_instructions=2, commit_interval=1,
                                  reorder_memory=False)
        manager._health(0x4000).tier = Tier.CONSERVATIVE
        clamped = manager.clamp(0x4000, tight)
        assert clamped.max_instructions == 2
        assert clamped.commit_interval == 1
        assert not clamped.reorder_memory

    def test_tier_floor_respected(self):
        manager, _stats, _now = make_manager(
            replace(LADDER, degrade_tier_floor=int(Tier.NO_REORDER)))
        entry = 0x4000
        assert manager.tier_of(entry) is Tier.NO_REORDER  # unknown region
        for _ in range(100):
            manager.note_clean_dispatch(entry)
        assert manager.tier_of(entry) is Tier.NO_REORDER  # never above floor

    def test_containment_disabled_is_inert(self):
        manager, stats, _now = make_manager(
            replace(LADDER, failure_containment=False))
        for _ in range(50):
            manager.note_degrade_event(0x4000, "storm")
        assert manager.tier_of(0x4000) is Tier.AGGRESSIVE
        assert stats.storm_demotions == 0

    def test_demotion_fires_callback(self):
        manager, _stats, _now = make_manager()
        demoted = []
        manager.on_demote = demoted.append
        for _ in range(LADDER.storm_threshold):
            manager.note_degrade_event(0x4000, "storm")
        assert demoted == [0x4000]

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(
        st.tuples(st.sampled_from(["fault", "clean", "allow"]),
                  st.integers(min_value=0, max_value=50)),
        max_size=120))
    def test_any_fault_sequence_converges(self, steps):
        """Whatever interleaving of faults, clean dispatches, and
        translation attempts a region sees, the ladder state stays
        well-formed — and once the faults stop, the region always
        converges back to the floor tier."""
        manager, _stats, now = make_manager()
        entry = 0x4000
        for kind, advance in steps:
            now[0] += advance
            if kind == "fault":
                manager.note_degrade_event(entry, "fuzz")
            elif kind == "clean":
                manager.note_clean_dispatch(entry)
            else:
                manager.allow_translation(entry)
            tier = manager.tier_of(entry)
            assert Tier.AGGRESSIVE <= tier <= Tier.INTERP_ONLY
            health = manager.regions().get(entry)
            if health is not None and health.tier >= Tier.INTERP_ONLY:
                assert health.probation >= 0
        # Recovery: probation is bounded by the backoff cap and climbing
        # needs a bounded clean streak, so this terminates comfortably.
        for _ in range(20_000):
            if manager.tier_of(entry) is Tier.AGGRESSIVE:
                break
            now[0] += 1
            if manager.allow_translation(entry):
                manager.note_clean_dispatch(entry)
        assert manager.tier_of(entry) is Tier.AGGRESSIVE


# ----------------------------------------------------------------------
# Containment (system)
# ----------------------------------------------------------------------


class TestContainment:
    def test_translator_crash_contained_and_region_readmitted(self):
        """An internal translator crash never reaches the guest: the
        region is quarantined, later re-admitted, and retranslated."""
        config = replace(FAST, quarantine_probation=5,
                         ladder_promote_clean=4)
        failures = {"count": 0}

        def sabotage(system):
            inner = system.translator.translate

            def flaky(entry_eip, policy):
                # Crash every translation until the first quarantined
                # region has served its probation and been re-admitted;
                # from then on the translator is healthy again.
                if system.stats.quarantine_readmissions == 0:
                    failures["count"] += 1
                    raise RuntimeError("synthetic translator crash")
                return inner(entry_eip, policy)

            system.translator.translate = flaky

        system = run_vs_reference(LOOP, config, sabotage)
        stats = system.stats
        assert failures["count"] >= 1, "the sabotage never triggered"
        assert stats.contained_errors == failures["count"]
        assert stats.quarantines >= 1
        assert stats.quarantine_readmissions >= 1
        assert stats.translations_made >= 1  # recovered to translated code
        report = system.health_report()
        assert not report.healthy
        assert any("synthetic translator crash" in line
                   for line in report.incidents)
        assert "contained errors" in report.describe()
        assert system.auditor.audit() == []  # containment left no damage

    def test_containment_disabled_propagates(self):
        config = replace(FAST, failure_containment=False)
        machine = Machine()
        entry = machine.load_source(LOOP)
        system = CodeMorphingSystem(machine, config)

        def crash(entry_eip, policy):
            raise RuntimeError("synthetic translator crash")

        system.translator.translate = crash
        with pytest.raises(RuntimeError, match="synthetic"):
            system.run(entry)

    def test_chaos_run_matches_reference(self):
        config = replace(FAST, chaos_rate=0.1, chaos_seed=1234)
        system = run_vs_reference(CALL_HEAVY, config)
        stats = system.stats
        assert stats.chaos_injected > 0, "chaos never fired at this seed"
        # Every injection is contained exactly once — none escape, none
        # are double-counted.
        assert stats.contained_errors == stats.chaos_injected

    @pytest.mark.parametrize("floor", [0, 1, 2])
    def test_equivalence_at_every_tier(self, floor):
        config = replace(FAST, degrade_tier_floor=floor,
                         ladder_promote_clean=4)
        system = run_vs_reference(CALL_HEAVY, config)
        if floor > 0:
            # The floor really bit: translations exist and carry clamps.
            assert system.stats.translations_made >= 1
            for translation in system.tcache.translations():
                assert not translation.policy.control_speculation

    def test_equivalence_fully_quarantined(self):
        """Tier 3 everywhere: translation permanently refused."""

        def pin(system):
            system.degrade.allow_translation = lambda eip: False

        system = run_vs_reference(CALL_HEAVY, FAST, pin)
        assert system.stats.translations_made == 0
        assert system.stats.interp_instructions > 0


# ----------------------------------------------------------------------
# Self-audit repairs
# ----------------------------------------------------------------------


@pytest.fixture
def live_system():
    system, result = run_cms(CALL_HEAVY, FAST)
    assert result.halted
    assert len(system.tcache) >= 2
    return system


class TestAuditor:
    def test_clean_system_audits_clean(self, live_system):
        runs_before = live_system.stats.audit_runs
        assert live_system.auditor.audit() == []
        assert live_system.stats.audit_runs == runs_before + 1
        assert live_system.stats.audit_repairs == 0

    def test_repairs_entry_index_alias(self, live_system):
        tcache = live_system.tcache
        victim = tcache.translations()[0]
        alias = victim.entry_eip + 0x100000
        tcache._by_entry[alias] = victim
        findings = live_system.auditor.audit()
        assert any("aliased" in f for f in findings)
        assert tcache.lookup(alias) is None
        assert tcache.lookup(victim.entry_eip) is victim  # true key intact
        assert live_system.auditor.audit() == []

    def test_repairs_invalid_resident(self, live_system):
        tcache = live_system.tcache
        victim = tcache.translations()[0]
        victim.valid = False  # simulate a missed invalidation
        findings = live_system.auditor.audit()
        assert any("invalid" in f for f in findings)
        assert tcache.lookup(victim.entry_eip) is None
        assert live_system.auditor.audit() == []

    def test_repairs_page_index(self, live_system):
        tcache = live_system.tcache
        victim = tcache.translations()[0]
        page = next(iter(victim.pages()))
        tcache._by_page[page].discard(victim)  # drop a required entry
        stray = make_translation(entry=0x9000)
        stray.valid = False
        tcache._by_page.setdefault(500, set()).add(stray)  # non-resident
        tcache._by_page.setdefault(501, set()).add(victim)  # non-covering
        findings = live_system.auditor.audit()
        assert any("missing from page" in f for f in findings)
        assert any("non-resident" in f for f in findings)
        assert any("non-covering" in f for f in findings)
        assert victim in tcache.translations_on_page(page)
        assert 500 not in tcache._by_page and 501 not in tcache._by_page
        assert live_system.auditor.audit() == []

    def test_repairs_dangling_chain(self, live_system):
        source = live_system.tcache.translations()[0]
        atom = source.exit_atoms[0]
        dead = make_translation(entry=0x7777)
        dead.valid = False
        atom.chained_translation = dead
        dead.incoming_chains.append(atom)
        findings = live_system.auditor.audit()
        assert any("chained to dead" in f for f in findings)
        assert atom.chained_translation is None
        assert live_system.auditor.audit() == []

    def test_repairs_stale_incoming_backpointer(self, live_system):
        target = live_system.tcache.translations()[0]
        stray = make_translation(entry=0x8888)  # its exit chains nowhere
        target.incoming_chains.append(stray.exit_atoms[0])
        findings = live_system.auditor.audit()
        assert any("stale incoming" in f for f in findings)
        assert stray.exit_atoms[0] not in target.incoming_chains
        assert live_system.auditor.audit() == []

    def test_repairs_resident_and_retired_duplicate(self, live_system):
        victim = live_system.tcache.translations()[0]
        live_system.groups.retire(victim)  # retired while still resident
        findings = live_system.auditor.audit()
        assert any("both resident and" in f for f in findings)
        assert live_system.groups.versions(victim.entry_eip) == 0
        assert live_system.auditor.audit() == []

    def test_repairs_stale_protection_mask(self, live_system):
        protection = live_system.protection
        victim = live_system.tcache.translations()[0]
        page = next(iter(victim.pages()))
        expected = protection.page_mask(page)
        assert expected != 0
        protection.set_page_mask(page, 0)  # lose the protection
        findings = live_system.auditor.audit()
        assert any("protection mask stale" in f for f in findings)
        assert protection.page_mask(page) == expected
        assert live_system.auditor.audit() == []


# ----------------------------------------------------------------------
# Retranslation-failure and eviction regressions (PR 3 satellites)
# ----------------------------------------------------------------------


def find_chained_target(system):
    for translation in system.tcache.translations():
        live = [atom for atom in translation.incoming_chains
                if atom.chained_translation is translation]
        if live:
            return translation, live
    return None, []


class TestFailurePaths:
    def test_retranslate_failure_removes_and_unchains(self, live_system):
        """A TranslationError during retranslation must leave no route
        back into the dead translation: not via the tcache, not via a
        chain patch, not via stale page protection."""
        target, atoms = find_chained_target(live_system)
        assert target is not None, "no chained pair formed"

        def refuse(entry_eip, policy):
            raise TranslationError("region became untranslatable")

        live_system.translator.translate = refuse
        live_system._retranslate(target,
                                 live_system.controller.policy_for(
                                     target.entry_eip))
        assert not target.valid
        assert live_system.tcache.lookup(target.entry_eip) is None
        assert all(atom.chained_translation is not target for atom in atoms)
        assert not target.incoming_chains
        assert live_system.auditor.audit() == []  # protection rebuilt too

    def test_retranslate_internal_error_contained(self, live_system):
        target, atoms = find_chained_target(live_system)
        assert target is not None

        def crash(entry_eip, policy):
            raise RuntimeError("optimizer bug")

        live_system.translator.translate = crash
        live_system._retranslate(target,
                                 live_system.controller.policy_for(
                                     target.entry_eip))
        assert live_system.stats.contained_errors == 1
        assert target.entry_eip in live_system.degrade.quarantined_regions()
        assert live_system.tcache.lookup(target.entry_eip) is None
        assert all(atom.chained_translation is not target for atom in atoms)
        assert live_system.auditor.audit() == []

    def test_evict_cold_reverts_incoming_chains(self):
        cache = TranslationCache(capacity_molecules=100)
        hot = make_translation(entry=0x1000, molecules=8)
        hot.entries = 50
        cold = make_translation(entry=0x2000, molecules=8)
        cache.insert(hot)
        cache.insert(cold)
        cache.chain(hot, hot.exit_atoms[0], cold)
        victims = cache.evict_cold(fraction=0.9)
        assert cold in victims and not cold.valid
        assert cache.lookup(0x1000) is hot
        assert hot.exit_atoms[0].chained_translation is None
        assert not cold.incoming_chains

    def test_flush_reverts_incoming_chains(self):
        cache = TranslationCache()
        a = make_translation(entry=0x1000)
        b = make_translation(entry=0x2000)
        cache.insert(a)
        cache.insert(b)
        cache.chain(a, a.exit_atoms[0], b)
        cache.flush()
        assert a.exit_atoms[0].chained_translation is None
        assert not b.incoming_chains

    def test_dispatch_after_mid_run_eviction(self):
        """Chain A→B, evict B mid-run, keep dispatching A: the exit must
        fall back to the dispatcher instead of entering dead code, and
        the guest outcome must not change."""
        # Small dispatch fuel keeps the dispatcher in the loop (chained
        # translations otherwise run the whole program in a handful of
        # dispatches and the audit interval never elapses).
        config = replace(FAST, audit_interval=5, dispatch_fuel_molecules=150)
        machine = Machine()
        entry = machine.load_source(CALL_HEAVY)
        system = CodeMorphingSystem(machine, config)
        surgery = {"atoms": None}
        real_audit = system.auditor.audit

        def audit_and_evict():
            if surgery["atoms"] is None:
                target, atoms = find_chained_target(system)
                if target is not None:
                    system.tcache.invalidate_translation(target)
                    for page in target.pages():
                        system.smc.recompute_page(page)
                    assert all(a.chained_translation is None for a in atoms)
                    surgery["atoms"] = atoms
            return real_audit()

        system.auditor.audit = audit_and_evict
        result = system.run(entry)
        assert result.halted
        assert surgery["atoms"], "no live chain existed at audit time"
        assert system.stats.audit_repairs == 0  # eviction was coherent

        ref_machine = Machine()
        ref_entry = ref_machine.load_source(CALL_HEAVY)
        ref_system = CodeMorphingSystem(ref_machine,
                                        config.interpreter_only())
        ref_result = ref_system.run(ref_entry)
        assert ref_result.halted
        assert result.console_output == ref_result.console_output
        assert system.state.snapshot() == ref_system.state.snapshot()


# ----------------------------------------------------------------------
# Chaos campaign plumbing
# ----------------------------------------------------------------------


class TestChaosMatrix:
    def test_chaos_matrix_arms_every_variant(self):
        from repro.fuzz import chaos_matrix, default_matrix

        base = default_matrix()
        armed = chaos_matrix(base, rate=0.05, seed=3)
        assert len(armed) == len(base)
        assert all(v.name.endswith("+chaos") for v in armed)
        assert all(v.config.chaos_rate == 0.05 for v in armed)
        assert len({v.config.chaos_seed for v in armed}) == len(armed)

    def test_dropping_a_variant_keeps_every_other_chaos_seed(self):
        """A variant's chaos stream follows its name, not its position,
        so the same campaign seed still replays an old chaos failure
        after the matrix changes."""
        from repro.fuzz import chaos_matrix, default_matrix

        base = default_matrix()
        seeds = {v.name: v.config.chaos_seed
                 for v in chaos_matrix(base, rate=0.05, seed=3)}
        for dropped in range(len(base)):
            rest = base[:dropped] + base[dropped + 1:]
            for variant in chaos_matrix(rest, rate=0.05, seed=3):
                assert variant.config.chaos_seed == seeds[variant.name], (
                    f"dropping {base[dropped].name} moved {variant.name}")

    @pytest.mark.fuzz
    def test_chaos_campaign_smoke(self):
        from repro.fuzz import chaos_matrix, default_matrix, run_campaign

        variants = chaos_matrix(default_matrix(), rate=0.05, seed=5)
        result = run_campaign(budget=18, seed=5, variants=variants)
        assert result.ok, "\n".join(m.describe()
                                    for m in result.mismatches)


# ----------------------------------------------------------------------
# Eviction residency and controller lifetime (PR 5 satellites)
# ----------------------------------------------------------------------


class TestEvictionResidency:
    def test_evict_cold_drops_group_residency(self):
        """A cold-evicted region must not leak its parked group
        versions: the system's on_evict hook drops the whole group when
        the entry is no longer resident."""
        system, result = run_cms(CALL_HEAVY, FAST)
        assert result.halted
        # Park a retired version for a resident entry, plus one for an
        # entry the cache has already forgotten.
        resident_entry = system.tcache.translations()[0].entry_eip
        system.groups.retire(make_translation(entry=resident_entry))
        system.groups.retire(make_translation(entry=0xDEAD0))
        victims = system.tcache.evict_cold(fraction=1.0)
        assert victims
        for translation in victims:
            assert system.tcache.lookup(translation.entry_eip) is None
            assert not system.groups.has_group(translation.entry_eip)
        # Only the evicted regions' groups were touched.
        assert system.groups.has_group(0xDEAD0)

    def test_eviction_survivors_keep_groups(self):
        system, result = run_cms(CALL_HEAVY, FAST)
        assert result.halted
        survivor = max(system.tcache.translations(),
                       key=lambda t: t.entries)
        survivor.entries += 1_000_000  # decisively hot
        system.groups.retire(make_translation(entry=survivor.entry_eip))
        system.tcache.evict_cold(fraction=0.5)
        assert system.tcache.lookup(survivor.entry_eip) is survivor
        assert system.groups.has_group(survivor.entry_eip)


class TestControllerAudit:
    def test_audit_prunes_dead_controller_keys(self, live_system):
        dead = 0xBAD00
        assert live_system.tcache.lookup(dead) is None
        live_system.controller.set_policy(
            dead, live_system.controller.base_policy().with_(
                self_check=True))
        pruned_before = live_system.stats.controller_pruned
        findings = live_system.auditor.audit()
        assert findings == []  # housekeeping, not a repair
        assert live_system.stats.audit_repairs == 0
        assert live_system.stats.controller_pruned > pruned_before
        assert dead not in live_system.controller.policy_entries()

    def test_audit_keeps_live_controller_keys(self, live_system):
        entry = live_system.tcache.translations()[0].entry_eip
        live_system.controller.set_policy(
            entry, live_system.controller.base_policy().with_(
                self_check=True))
        live_system.auditor.audit()
        assert entry in live_system.controller.policy_entries()
        assert live_system.controller.policy_for(entry).self_check

    def test_flush_prunes_but_keeps_hot_anchors(self):
        system, result = run_cms(CALL_HEAVY, FAST)
        assert result.halted
        hot = max(system.profile.anchor_counts,
                  key=system.profile.anchor_counts.get)
        system.controller.set_policy(
            hot, system.controller.base_policy().with_(self_check=True))
        system.tcache.flush()
        # The hot anchor's policy survives the flush-triggered prune —
        # the region will re-translate and must not bounce (§3).
        assert hot in system.controller.policy_entries()
