"""Translator orchestrator: the full pipeline for one region.

Decode/select -> lower -> optimize -> schedule -> generate, with the
fallback ladder the paper implies: if code generation fails (e.g. the
temp pool is exhausted on a pathological trace), retry with CSE off and
then with progressively smaller regions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.tcache import Translation, compute_range_digests
from repro.interp.profile import ExecutionProfile
from repro.translator.codegen import CodegenError, CodeGenerator
from repro.translator.frontend import Frontend, FrontendError
from repro.translator.optimize import optimize
from repro.translator.policies import TranslationPolicy
from repro.translator.region import (IdentityFetcher, Region, RegionEnd,
                                     RegionSelector)
from repro.translator.schedule import Scheduler
from repro.translator.traces import TraceBuilder


class TranslationError(Exception):
    """The region could not be translated at any fallback level."""


@dataclass
class TranslatorStats:
    translations: int = 0
    guest_instructions: int = 0
    molecules_emitted: int = 0
    modeled_cycles: int = 0
    fallback_retries: int = 0
    speculated_loads: int = 0
    hoisted_over_exits: int = 0
    traces_formed: int = 0  # translations spanning > 1 block
    trace_blocks: int = 0  # blocks chained into those traces


class Translator:
    """Builds translations from hot guest code."""

    def __init__(self, machine, profile: ExecutionProfile,
                 alias_entries: int = 8,
                 trace_min_reach: float = 0.35) -> None:
        self.machine = machine
        self.profile = profile
        self.alias_entries = alias_entries
        self.trace_min_reach = trace_min_reach
        self.stats = TranslatorStats()

    def translate(self, entry_eip: int, policy: TranslationPolicy,
                  unroll_baseline: Translation | None = None
                  ) -> Translation | None:
        """Translate the region at ``entry_eip``; None if untranslatable.

        ``unroll_baseline`` is the resident single-block translation of
        the same region, when the caller has one (the hot-loop promotion
        path always does): the unroll judge then compares against its
        codegen numbers directly instead of re-running the pipeline on a
        freshly built single body, halving the real cost of a promotion.
        """
        selector = RegionSelector(IdentityFetcher(self.machine),
                                  self.profile)
        builder = TraceBuilder(selector, self.profile,
                               min_reach=self.trace_min_reach)
        attempt_policy = policy
        for attempt in range(6):
            region = builder.build(entry_eip, attempt_policy)
            if region is None:
                return None
            effective = self._learn_mmio(region, attempt_policy)
            try:
                translation = self._pipeline(region, effective,
                                             enable_cse=attempt == 0)
            except (CodegenError, FrontendError):
                self.stats.fallback_retries += 1
                attempt_policy = attempt_policy.with_(
                    max_instructions=max(
                        8, attempt_policy.max_instructions // 2),
                    max_blocks=max(1, attempt_policy.max_blocks // 2),
                )
                continue
            if region.num_blocks > 1 and region.end is RegionEnd.LOOP:
                translation = self._judge_unroll(
                    builder, entry_eip, attempt_policy, effective,
                    translation, enable_cse=attempt == 0,
                    baseline=unroll_baseline)
            self.stats.translations += 1
            self.stats.guest_instructions += translation.guest_instr_count
            self.stats.molecules_emitted += translation.num_molecules
            self.stats.modeled_cycles += translation.modeled_cycles
            if translation.trace_blocks > 1:
                self.stats.traces_formed += 1
                self.stats.trace_blocks += translation.trace_blocks
            return translation
        raise TranslationError(f"cannot translate region at {entry_eip:#x}")

    def _judge_unroll(self, builder: TraceBuilder, entry_eip: int,
                      policy: TranslationPolicy,
                      effective: TranslationPolicy,
                      unrolled: Translation,
                      enable_cse: bool,
                      baseline: Translation | None = None) -> Translation:
        """Keep an unrolled loop trace only if it schedules denser.

        The cost model is the arbiter of region growth: the unroll is
        accepted when its *molecules per guest instruction* are strictly
        lower than the single body's — i.e. the scheduler packed enough
        work across the peeled iterations to pay for the per-copy side
        exits and mid-trace commits.  Modeled cycles alone are not
        enough: a serial dependence chain unrolls with better latency
        hiding but an identical (or worse) molecule count, and molecule
        count is what drives both the paper's mol/instr metric and
        execution time here.  If the
        unroll loses, the single-body translation (already built as the
        comparison baseline) is returned instead.  If the single body
        cannot be rebuilt (it just translated as part of the unroll, so
        it should), the unroll stands.

        Both sides go through the full pipeline so the comparison is
        codegen-to-codegen: generated molecule counts include the
        prologue/epilogue molecules scheduler cycle counts miss, and
        comparing across the two layers would bias the test against
        whichever side paid codegen's fixed overhead.

        A resident single-block ``baseline`` (the translation being
        promoted) already carries those codegen numbers, so when one is
        supplied and the unroll wins against it the single pipeline run
        is skipped entirely; a rejected unroll still rebuilds the single
        body fresh (the caller is replacing the resident either way).
        """
        if (baseline is not None and baseline.trace_blocks == 1
                and unrolled.num_molecules * baseline.guest_instr_count
                < baseline.num_molecules * unrolled.guest_instr_count):
            return unrolled
        single = builder.build(entry_eip, policy.with_(max_blocks=1))
        if single is None:
            return unrolled
        base_policy = effective.with_(max_blocks=1)
        try:
            single_t = self._pipeline(single, base_policy,
                                      enable_cse=enable_cse)
        except (CodegenError, FrontendError):
            return unrolled
        # Cross-multiplied per-instruction comparison, no float rounding.
        if (unrolled.num_molecules * single_t.guest_instr_count
                < single_t.num_molecules * unrolled.guest_instr_count):
            return unrolled
        return single_t

    def _learn_mmio(self, region: Region,
                    policy: TranslationPolicy) -> TranslationPolicy:
        """Pre-fence instructions the profile observed touching MMIO.

        Paper §2: the interpreter collects memory-mapped I/O data, so
        most MMIO sites are known before the first translation and never
        need to take a speculation fault at all.
        """
        known = {
            instr.addr
            for instr in region.instrs
            if self.profile.is_mmio_site(instr.addr)
        }
        if not known:
            return policy
        return policy.with_(io_fence_addrs=policy.io_fence_addrs
                            | frozenset(known))

    def _pipeline(self, region: Region, policy: TranslationPolicy,
                  enable_cse: bool) -> Translation:
        trace = Frontend(policy).lower(region)
        optimize(trace, enable_cse=enable_cse)
        schedule = Scheduler(policy, self.alias_entries).schedule(trace)
        self.stats.speculated_loads += schedule.speculated_loads
        self.stats.hoisted_over_exits += schedule.hoisted_over_exits
        snapshot = self._snapshot(region)
        translation = CodeGenerator(policy).generate(region, trace, schedule,
                                                     snapshot)
        # Digest capture at translation time: the persistent-snapshot
        # loader revalidates these against guest RAM (§3.6.2 across runs).
        translation.range_digests = compute_range_digests(
            translation.code_ranges, translation.code_snapshot)
        return translation

    def _snapshot(self, region: Region) -> bytes:
        chunks = []
        for start, length in region.code_ranges():
            chunks.append(self.machine.bus.read_code_bytes(start, length))
        return b"".join(chunks)
