"""Translation policies: the dials of adaptive retranslation.

Paper §3: "For frequently recurring speculative faults, we retranslate
with more conservative policies that are likely to eliminate the sort of
fault encountered ... The new translation keeps track of the policies
used, so that if another problem arises requiring different conservative
policies, CMS will add them to the existing ones to avoid bouncing
between translations with incomparable policies."

A ``TranslationPolicy`` is therefore *monotone*: the adaptive controller
only ever tightens it (clears speculation bits, adds addresses to the
per-instruction conservative sets, shrinks the region).  ``merge``
implements the paper's add-don't-bounce rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TranslationPolicy:
    """Immutable translation-time policy for one region."""

    # Global speculation dials (also forced off by experiment configs).
    reorder_memory: bool = True  # hoist loads over stores (§3.4/§3.5)
    use_alias_hw: bool = True  # hardware-checked reordering (§3.5)
    control_speculation: bool = True  # hoist loads over side exits (§3.2)

    # Region shaping.
    max_instructions: int = 200  # paper: regions of up to 200 instrs
    commit_interval: int = 24  # guest instrs between mid-trace commits

    # Self-modifying-code strategies (§3.6).
    self_check: bool = False  # verify code bytes on every entry (§3.6.3)
    self_revalidate: bool = False  # prologue-on-demand checking (§3.6.2)
    group_enabled: bool = True  # keep retired versions around (§3.6.5)

    # Per-guest-instruction conservatism, accumulated by the controller.
    no_reorder_addrs: frozenset[int] = frozenset()  # never reorder these
    io_fence_addrs: frozenset[int] = frozenset()  # treat as MMIO, fence
    stylized_imm_addrs: frozenset[int] = frozenset()  # reload imm at runtime
    stop_addrs: frozenset[int] = frozenset()  # regions never include these
    # (an address that is both hot and in stop_addrs becomes the paper's
    # "zero-instruction translation that simply calls the interpreter")

    def merge(self, other: "TranslationPolicy") -> "TranslationPolicy":
        """Combine two policies, keeping the more conservative choice."""
        return TranslationPolicy(
            reorder_memory=self.reorder_memory and other.reorder_memory,
            use_alias_hw=self.use_alias_hw and other.use_alias_hw,
            control_speculation=(
                self.control_speculation and other.control_speculation
            ),
            max_instructions=min(self.max_instructions,
                                 other.max_instructions),
            commit_interval=min(self.commit_interval, other.commit_interval),
            self_check=self.self_check or other.self_check,
            self_revalidate=self.self_revalidate or other.self_revalidate,
            group_enabled=self.group_enabled and other.group_enabled,
            no_reorder_addrs=self.no_reorder_addrs | other.no_reorder_addrs,
            io_fence_addrs=self.io_fence_addrs | other.io_fence_addrs,
            stylized_imm_addrs=(
                self.stylized_imm_addrs | other.stylized_imm_addrs
            ),
            stop_addrs=self.stop_addrs | other.stop_addrs,
        )

    def with_(self, **changes) -> "TranslationPolicy":
        """Return a copy with ``changes`` applied."""
        return replace(self, **changes)

    def describe(self) -> str:
        parts = []
        if not self.reorder_memory:
            parts.append("no-reorder")
        if not self.use_alias_hw:
            parts.append("no-alias-hw")
        if not self.control_speculation:
            parts.append("no-control-spec")
        if self.max_instructions != 200:
            parts.append(f"max={self.max_instructions}")
        if self.self_check:
            parts.append("self-check")
        if self.self_revalidate:
            parts.append("self-revalidate")
        if self.no_reorder_addrs:
            parts.append(f"no-reorder@{len(self.no_reorder_addrs)}")
        if self.io_fence_addrs:
            parts.append(f"io-fence@{len(self.io_fence_addrs)}")
        if self.stylized_imm_addrs:
            parts.append(f"stylized@{len(self.stylized_imm_addrs)}")
        return ",".join(parts) if parts else "default"
