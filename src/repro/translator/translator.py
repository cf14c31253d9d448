"""Translator orchestrator: the full pipeline for one region.

Decode/select -> lower -> optimize -> schedule -> generate, with the
fallback ladder the paper implies: if code generation fails (e.g. the
temp pool is exhausted on a pathological trace), retry with CSE off and
then with progressively smaller regions.
"""

from __future__ import annotations

from repro.cache.tcache import Translation, compute_range_digests
from repro.interp.profile import ExecutionProfile
from repro.translator.codegen import CodegenError, CodeGenerator
from repro.translator.frontend import Frontend, FrontendError
from repro.translator.optimize import optimize
from repro.translator.policies import TranslationPolicy
from repro.translator.region import IdentityFetcher, Region, RegionSelector
from repro.translator.schedule import Scheduler


class TranslationError(Exception):
    """The region could not be translated at any fallback level."""


class Translator:
    """Builds translations from hot guest code."""

    def __init__(self, machine, profile: ExecutionProfile,
                 alias_entries: int = 8) -> None:
        self.machine = machine
        self.profile = profile
        self.alias_entries = alias_entries

    def translate(self, entry_eip: int,
                  policy: TranslationPolicy) -> Translation | None:
        """Translate the region at ``entry_eip``; None if untranslatable."""
        selector = RegionSelector(IdentityFetcher(self.machine),
                                  self.profile)
        attempt_policy = policy
        for attempt in range(6):
            region = selector.select(entry_eip, attempt_policy)
            if region is None:
                return None
            effective = self._learn_mmio(region, attempt_policy)
            try:
                return self._pipeline(region, effective,
                                      enable_cse=attempt == 0)
            except (CodegenError, FrontendError):
                attempt_policy = attempt_policy.with_(
                    max_instructions=max(
                        8, attempt_policy.max_instructions // 2),
                )
        raise TranslationError(f"cannot translate region at {entry_eip:#x}")

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
