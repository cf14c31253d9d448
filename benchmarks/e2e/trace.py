"""Outside-in layer tracer: spans around each CMS layer's public calls.

``Tracer.install`` wraps, before the guest starts, the calls the
dispatcher makes into each layer.  The slice (``run_slice``) is the
root span.  Spans nest on one stack and aggregate in memory per layer;
a layer's self time is its span time minus its child spans, and what is
left of the root is ``dispatch`` self time.  So the self times of all
layers sum to the traced slice wall time, less only the wrappers' own
bookkeeping outside the root clock reads.

Nothing under ``src/`` knows about the tracer: instance attributes are
replaced on the system's own objects, and the translator stages and the
JIT compiler are replaced where the translator and the JIT look them up
(class attributes and module globals).  Each rep is its own process, so
the class-level patches never outlive the traced rep.
"""

from __future__ import annotations

import time

ROOT = "dispatch"

# (owner attribute path on the system, method names, layer)
_INSTANCE_SPANS = (
    ("interpreter", ("step",), "interp"),
    ("translator", ("translate",), "translator"),
    ("", ("_retranslate",), "retranslation"),
    ("jit", ("run",), "jit.exec"),
    ("cpu", ("run",), "cpu.vliw"),
    ("cpu", ("rollback",), "cpu.rollback"),
    ("cpu", ("protection_service",), "smc.inline"),
    ("smc", ("on_protection_fault", "on_self_check_fail",
             "on_prologue_success", "try_group_reactivation"), "smc.service"),
    ("smc", ("protect_translation", "recompute_page"), "smc.protect"),
    ("controller", ("observe_code",), "controller"),
    ("auditor", ("audit",), "audit"),
    ("tcache", ("lookup", "insert", "remove", "invalidate_translation",
                "invalidate_page", "evict_cold", "flush", "chain",
                "chain_indirect", "unchain_incoming"), "tcache"),
    ("machine.mmu", ("translate", "translate_range", "probe"), "mmu"),
    ("machine.bus", ("read", "write", "read_code_bytes"), "bus"),
)


class Tracer:
    """Per-layer span aggregates for one traced rep."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        # Child time accumulated by each open span; the bottom entry
        # collects root spans and is never popped.
        self._child = [0.0]
        self._patched_classes = False

    def _span(self, layer: str, fn):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        for table in (calls, self_s, total_s):
            table.setdefault(layer, 0)
        stack = self._child
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                child = stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - child
                total_s[layer] += elapsed
                stack[-1] += elapsed

        return wrapped

    def install(self, system) -> None:
        """Wrap ``system``'s layers (and, once, the shared stages)."""
        system.run_slice = self._span(ROOT, system.run_slice)
        for path, names, layer in _INSTANCE_SPANS:
            owner = system
            for part in filter(None, path.split(".")):
                owner = getattr(owner, part)
            if owner is None:  # e.g. template JIT off
                continue
            for name in names:
                setattr(owner, name, self._span(layer, getattr(owner, name)))
        if not self._patched_classes:
            self._patch_stages()
            self._patched_classes = True

    def _patch_stages(self) -> None:
        from repro.host import jit
        from repro.translator import translator
        from repro.translator.codegen import CodeGenerator
        from repro.translator.frontend import Frontend
        from repro.translator.schedule import Scheduler

        Frontend.lower = self._span("translator.frontend", Frontend.lower)
        translator.optimize = self._span("translator.optimize",
                                         translator.optimize)
        Scheduler.schedule = self._span("translator.schedule",
                                        Scheduler.schedule)
        CodeGenerator.generate = self._span("translator.codegen",
                                            CodeGenerator.generate)
        jit.compile_translation = self._span("jit.compile",
                                             jit.compile_translation)

    def layers(self) -> dict:
        """``{layer: {"calls", "self_s", "total_s"}}`` for the report."""
        return {layer: {"calls": self.calls[layer],
                        "self_s": self.self_s[layer],
                        "total_s": self.total_s[layer]}
                for layer in self.calls}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: dict, counters: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced rep (see README.md's table).

    ``layers`` is ``Tracer.layers()``, ``counters`` the rep's
    deterministic counters, ``wall_s`` its traced slice wall time.
    """
    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def total_s(layer):
        return layers.get(layer, {}).get("total_s", 0.0)

    c = counters
    stages = ("frontend", "optimize", "schedule", "codegen")
    translator_s = self_s("translator") + sum(
        self_s(f"translator.{stage}") for stage in stages)
    compile_calls = c.get("jit_compiles", 0) + c.get("jit_compile_failures", 0)
    bailouts = sum(value for key, value in c.items()
                   if key.startswith("jit_bailouts."))
    faults = sum(value for key, value in c.items()
                 if key.startswith("faults."))
    icache_lookups = c.get("icache_hits", 0) + c.get("icache_misses", 0)
    mmu_lookups = c.get("mmu_translations", 0) + c.get("mmu_probes", 0)
    dispatch_entries = c.get("dispatches", 0) + c.get("chains_followed", 0)
    unattributed = wall_s - sum(entry["self_s"] for entry in layers.values())
    out = {
        "interp.calls": calls("interp"),
        "interp.self_s": self_s("interp"),
        "interp.share": _ratio(self_s("interp"), wall_s),
        "isa.decode_hit_ratio": _ratio(c.get("icache_hits", 0),
                                       icache_lookups),
        "isa.decode_invalidations": c.get("icache_invalidations", 0),
        "translator.calls": calls("translator"),
        "translator.self_s": self_s("translator"),
        "translator.share": _ratio(translator_s, wall_s),
        "translator.yield_ratio": _ratio(c.get("translations_made", 0),
                                         calls("translator")),
        "retranslation.calls": calls("retranslation"),
        "retranslation.s": total_s("retranslation"),
        "retranslation.retranslate_ratio": _ratio(
            c.get("retranslations", 0), c.get("translations_made", 0)),
        "jit.compile_calls": calls("jit.compile"),
        "jit.compile_s": self_s("jit.compile"),
        "jit.compile_ok_ratio": _ratio(c.get("jit_compiles", 0),
                                       compile_calls),
        "jit.exec_calls": calls("jit.exec"),
        "jit.exec_self_s": self_s("jit.exec"),
        "jit.bailout_ratio": _ratio(bailouts, c.get("jit_dispatches", 0)),
        "cpu.vliw_calls": calls("cpu.vliw"),
        "cpu.vliw_self_s": self_s("cpu.vliw"),
        "cpu.rollback_calls": calls("cpu.rollback"),
        "cpu.rollback_s": self_s("cpu.rollback"),
        "cpu.host_molecules": c.get("host_molecules", 0),
        "dispatch.calls": c.get("dispatches", 0),
        "dispatch.self_s": self_s(ROOT),
        "dispatch.chain_ratio": _ratio(c.get("chains_followed", 0),
                                       dispatch_entries),
        "dispatch.rollback_ratio": _ratio(c.get("rollbacks", 0),
                                          c.get("dispatches", 0)),
        "dispatch.faults": faults,
        "tcache.calls": calls("tcache"),
        "tcache.s": self_s("tcache"),
        "tcache.translations": c.get("translations_made", 0),
        "tcache.resident": c.get("tcache_resident", 0),
        "smc.inline_calls": calls("smc.inline"),
        "smc.inline_s": self_s("smc.inline"),
        "smc.service_calls": calls("smc.service"),
        "smc.service_s": self_s("smc.service"),
        "smc.protect_calls": calls("smc.protect"),
        "smc.protect_s": self_s("smc.protect"),
        "smc.invalidations": c.get("smc_invalidations", 0),
        "smc.revalidation_pass_ratio": _ratio(
            c.get("revalidations_passed", 0),
            c.get("revalidations_armed", 0)),
        "smc.group_reactivations": c.get("group_reactivations", 0),
        "controller.self_s": self_s("controller"),
        "mmu.calls": calls("mmu"),
        "mmu.self_s": self_s("mmu"),
        "mmu.tlb_hit_ratio": _ratio(c.get("mmu_tlb_hits", 0), mmu_lookups),
        "mmu.walks": c.get("mmu_walks", 0),
        "mmu.probe_walks_saved": c.get("mmu_probe_walks_saved", 0),
        "bus.calls": calls("bus"),
        "bus.self_s": self_s("bus"),
        "audit.calls": calls("audit"),
        "audit.s": self_s("audit"),
        "degrade.contained_errors": c.get("contained_errors", 0),
        "degrade.quarantines": c.get("quarantines", 0),
        "trace.unattributed_s": unattributed,
    }
    for stage in stages:
        out[f"translator.{stage}_s"] = self_s(f"translator.{stage}")
    return out
