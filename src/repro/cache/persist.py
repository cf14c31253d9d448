"""Persistent translation-cache snapshots (warm start).

Every run of this CMS pays the full Figure-1 cold start — interpret,
profile, translate — even when the guest image is byte-identical to the
last run.  The paper's own answer to "is this translation still valid
for these bytes?" is the §3.6.2 self-revalidating prologue; this module
generalizes that check into a load-time validity test for translations
persisted across runs.

A snapshot is a single versioned JSON file holding:

* every live translation — resident tcache entries *and* retired
  translation-group versions (§3.6.5) — with molecules, policies,
  labels, covered code ranges, and per-range sha256 digests of the
  guest bytes each translation implements;
* the :class:`~repro.cms.retranslation.AdaptiveController`'s
  accumulated per-region policies, per-site fault counters, and
  code-identity map (monotone learning survives the restart);
* the interpreter's execution profile (anchor counts, branch bias,
  observed-MMIO and page-table-store sites), so warm regions stay
  above threshold;
* a digest of the semantically relevant ``CMSConfig`` dials, so a
  snapshot taken under a different speculation/SMC dial set is
  rejected whole — never partially applied — when
  ``snapshot_strict_config`` is set.

What is deliberately *not* persisted: chain patches (re-established
lazily by the dispatcher, exactly like after a flush), armed prologues,
and all runtime statistics.  On load every resident translation is
revalidated §3.6.2-style — its recorded source-byte digests are checked
against current guest RAM, and mismatches are dropped (their pages left
under normal SMC protection) rather than trusted.  Group versions skip
the load-time check: their activation path (`match`/`match_current`)
already byte-compares against live memory, so a stale version can never
be reactivated.

The file layout is ``{"format", "version", "checksum", "payload"}``
where ``checksum`` is the sha256 of the canonical payload encoding;
corrupted or truncated files fail the checksum (or the JSON parse) and
raise :class:`SnapshotError` before anything is applied.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

from repro.cache.tcache import (Translation, compute_range_digests,
                                digest_bytes)
from repro.host.atoms import AluOp, Atom, AtomKind
from repro.host.molecule import Molecule, Slot
from repro.translator.policies import TranslationPolicy

SNAPSHOT_FORMAT = "repro-cms-snapshot"
SNAPSHOT_VERSION = 3

#: CMSConfig fields that never affect what a translation computes or
#: whether it is valid: run-local observability, host-speed dials,
#: chaos injection, and the snapshot dials themselves.
_CONFIG_EXCLUDE = frozenset({
    "snapshot_path", "snapshot_save", "snapshot_strict_config",
    "obs_enabled", "obs_jsonl_path",
    "decode_cache", "template_jit",
    "chaos_rate", "chaos_seed", "chaos_tenant",
})

#: Atom fields that are chain state (dispatcher-owned, re-established
#: lazily) and must never be serialized.
_ATOM_SKIP = frozenset({"chained_translation", "chained_guard"})

#: Policy fields holding address sets (encoded as sorted lists).
_POLICY_SETS = frozenset({
    "no_reorder_addrs", "io_fence_addrs", "stylized_imm_addrs",
    "stop_addrs",
})


class SnapshotError(Exception):
    """The snapshot file is unusable: corrupt, truncated, the wrong
    format/version, or (under strict config) from a different dial set.
    Nothing has been applied when this is raised."""


# ----------------------------------------------------------------------
# Config identity
# ----------------------------------------------------------------------


def config_fingerprint(config) -> dict:
    """The semantically relevant dials, as a JSON-friendly mapping."""
    out = {}
    for f in fields(config):
        if f.name in _CONFIG_EXCLUDE:
            continue
        value = getattr(config, f.name)
        if f.name == "cost":
            value = {cf.name: getattr(value, cf.name)
                     for cf in fields(value)}
        out[f.name] = value
    return out


def config_digest(config) -> str:
    return digest_bytes(_canonical(config_fingerprint(config)))


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

_ATOM_DEFAULTS = {f.name: f.default for f in fields(Atom)
                  if f.name not in ("kind",)}


def _encode_atom(atom: Atom) -> dict:
    out: dict = {"kind": atom.kind.name}
    for name, default in _ATOM_DEFAULTS.items():
        if name in _ATOM_SKIP:
            continue
        value = getattr(atom, name)
        if value == default:
            continue
        if name == "aluop":
            value = value.name
        out[name] = value
    return out


def _decode_atom(data: dict) -> Atom:
    kwargs = dict(data)
    kind = AtomKind[kwargs.pop("kind")]
    if "aluop" in kwargs:
        kwargs["aluop"] = AluOp[kwargs["aluop"]]
    return Atom(kind=kind, **kwargs)


def _encode_molecule(molecule: Molecule) -> dict:
    return {
        "atoms": [_encode_atom(atom) for atom in molecule.atoms],
        "slots": [slot.value for slot in molecule.slots],
        "label": molecule.label,
    }


def _decode_molecule(data: dict) -> Molecule:
    return Molecule(
        atoms=[_decode_atom(a) for a in data["atoms"]],
        slots=[Slot(s) for s in data["slots"]],
        label=data["label"],
    )


def encode_policy(policy: TranslationPolicy) -> dict:
    out = {}
    for f in fields(policy):
        value = getattr(policy, f.name)
        if f.name in _POLICY_SETS:
            value = sorted(value)
        out[f.name] = value
    return out


def decode_policy(data: dict) -> TranslationPolicy:
    kwargs = dict(data)
    for name in _POLICY_SETS:
        kwargs[name] = frozenset(kwargs[name])
    return TranslationPolicy(**kwargs)


def encode_translation(translation: Translation) -> dict:
    """Serialize one translation.

    Chain patches, armed prologues, and runtime statistics are
    deliberately omitted; the entry label is reset so a reloaded
    translation always enters at its body, like a freshly made one.
    """
    position = {}
    for mol_index, molecule in enumerate(translation.molecules):
        for atom_index, atom in enumerate(molecule.atoms):
            position[id(atom)] = (mol_index, atom_index)
    exit_refs = []
    for atom in translation.exit_atoms:
        ref = position.get(id(atom))
        if ref is None:
            raise SnapshotError(
                f"exit atom of T{translation.id} not found in its own "
                f"molecules")
        exit_refs.append(list(ref))
    digests = translation.range_digests or compute_range_digests(
        translation.code_ranges, translation.code_snapshot)
    return {
        "entry_eip": translation.entry_eip,
        "guest_instr_count": translation.guest_instr_count,
        "code_ranges": [list(r) for r in translation.code_ranges],
        "code_snapshot": translation.code_snapshot.hex(),
        "range_digests": list(digests),
        "policy": encode_policy(translation.policy),
        "labels": dict(translation.labels),
        "prologue_label": translation.prologue_label,
        "molecules": [_encode_molecule(m) for m in translation.molecules],
        "exit_atoms": exit_refs,
        "modeled_cycles": translation.modeled_cycles,
    }


def decode_translation(data: dict) -> Translation:
    molecules = [_decode_molecule(m) for m in data["molecules"]]
    exit_atoms = []
    for mol_index, atom_index in data["exit_atoms"]:
        exit_atoms.append(molecules[mol_index].atoms[atom_index])
    return Translation(
        entry_eip=data["entry_eip"],
        molecules=molecules,
        labels={str(k): v for k, v in data["labels"].items()},
        entry_label="body",
        policy=decode_policy(data["policy"]),
        code_ranges=[tuple(r) for r in data["code_ranges"]],
        code_snapshot=bytes.fromhex(data["code_snapshot"]),
        guest_instr_count=data["guest_instr_count"],
        exit_atoms=exit_atoms,
        prologue_label=data["prologue_label"],
        range_digests=tuple(data["range_digests"]),
        modeled_cycles=data.get("modeled_cycles", 0),
    )


# ----------------------------------------------------------------------
# Snapshot assembly
# ----------------------------------------------------------------------


def build_payload(system) -> dict:
    """Assemble the snapshot payload from a live CMS instance."""
    translations: list[dict] = []
    resident: list[int] = []
    for translation in sorted(system.tcache.translations(),
                              key=lambda t: t.entry_eip):
        resident.append(len(translations))
        translations.append(encode_translation(translation))
    groups: dict[str, list[int]] = {}
    versions = system.groups.export_versions()
    for entry in sorted(versions):
        indexes = []
        for translation in versions[entry]:  # oldest -> newest (MRU last)
            indexes.append(len(translations))
            translations.append(encode_translation(translation))
        groups[str(entry)] = indexes
    profile = system.profile
    payload = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "config_digest": config_digest(system.config),
        "config": config_fingerprint(system.config),
        "translations": translations,
        "resident": resident,
        "groups": groups,
        "controller": system.controller.export_state(),
        "profile": {
            "anchor_counts": {str(k): v for k, v
                              in profile.anchor_counts.items() if v},
            "branch_bias": {str(k): [b.taken, b.not_taken]
                            for k, b in profile.branch_bias.items()},
            "mmio_sites": sorted(profile.mmio_sites),
            "pt_store_sites": sorted(profile.pt_store_sites),
        },
    }
    if system.obs is not None:
        # Session record for offline `repro-cms top/health --snapshot`;
        # absent when the run had observability off (those snapshots
        # still warm-start fine, they just carry no profile tables).
        payload["obs"] = {
            "hotspots": system.obs.hotspots.snapshot(),
            "phases": system.obs.phases.snapshot(),
        }
        payload["stats"] = system.stats.as_dict(system.config.cost)
    return payload


def write_snapshot_file(path: str, payload: dict) -> None:
    encoded = _canonical(payload)
    document = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "checksum": digest_bytes(encoded),
        "payload": payload,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True,
                  separators=(",", ":"))
        handle.write("\n")
    os.replace(tmp, path)


def read_snapshot_file(path: str) -> dict:
    """Parse and integrity-check a snapshot file; return the payload.

    Raises :class:`SnapshotError` on any corruption, truncation, or
    format/version mismatch — the caller never sees a partial payload.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot: {error}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise SnapshotError(f"snapshot is not valid JSON: {error}") \
            from None
    if not isinstance(document, dict):
        raise SnapshotError("snapshot is not a JSON object")
    if document.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"not a {SNAPSHOT_FORMAT} file "
            f"(format={document.get('format')!r})")
    if document.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {document.get('version')!r} != "
            f"supported version {SNAPSHOT_VERSION}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload missing")
    if document.get("checksum") != digest_bytes(_canonical(payload)):
        raise SnapshotError("snapshot checksum mismatch (corrupt file)")
    return payload


# ----------------------------------------------------------------------
# Save / load against a live system
# ----------------------------------------------------------------------


@dataclass
class SnapshotLoadReport:
    """What one load did (and dropped)."""

    path: str
    loaded: int = 0  # resident translations re-registered
    dropped: int = 0  # resident translations failing revalidation
    group_versions: int = 0  # retired versions re-parked in groups
    dropped_entries: list[int] = field(default_factory=list)
    config_matched: bool = True

    def describe(self) -> str:
        lines = [
            f"snapshot             {self.path}",
            f"translations loaded  {self.loaded:>8}",
            f"revalidation drops   {self.dropped:>8}",
            f"group versions       {self.group_versions:>8}",
            f"config matched       {str(self.config_matched):>8}",
        ]
        if self.dropped_entries:
            addrs = ", ".join(f"{a:#x}" for a in self.dropped_entries[:8])
            lines.append(f"dropped at           {addrs}")
        return "\n".join(lines)


def save_snapshot(system, path: str) -> dict:
    """Serialize ``system`` to ``path``; returns the written payload."""
    payload = build_payload(system)
    write_snapshot_file(path, payload)
    return payload


def load_snapshot(system, path: str) -> SnapshotLoadReport:
    """Load a snapshot into a freshly constructed system.

    The whole file is validated first; config mismatches under
    ``snapshot_strict_config`` reject the snapshot before anything is
    applied.  Each resident translation is then revalidated against
    current guest RAM and re-registered through the exact sequence a
    fresh translation uses (tcache insert, fine-grain protection, page
    recompute) — or dropped, leaving its pages under normal SMC
    protection.
    """
    payload = read_snapshot_file(path)
    report = SnapshotLoadReport(path=path)
    mine = config_digest(system.config)
    theirs = payload.get("config_digest")
    report.config_matched = (theirs == mine)
    if not report.config_matched and system.config.snapshot_strict_config:
        raise SnapshotError(
            "snapshot was taken under a different configuration "
            f"(digest {theirs!r} != {mine!r}); rejected whole "
            "(snapshot_strict_config)")
    try:
        _apply_payload(system, payload, report)
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise SnapshotError(
            f"malformed snapshot payload: {type(error).__name__}: "
            f"{error}") from None
    return report


def _apply_payload(system, payload: dict,
                   report: SnapshotLoadReport) -> None:
    # Decode everything before touching the system so a malformed
    # payload can never leave a half-applied state behind.
    translations = [decode_translation(t)
                    for t in payload["translations"]]
    resident = [translations[i] for i in payload["resident"]]
    groups = {int(entry): [translations[i] for i in indexes]
              for entry, indexes in payload["groups"].items()}
    profile_data = payload["profile"]
    controller_state = payload["controller"]

    profile = system.profile
    for key, value in profile_data["anchor_counts"].items():
        profile.anchor_counts[int(key)] += int(value)
    for key, (taken, not_taken) in profile_data["branch_bias"].items():
        bias = profile.branch_bias.get(int(key))
        if bias is None:
            from repro.interp.profile import BranchBias

            bias = profile.branch_bias[int(key)] = BranchBias()
        bias.taken += int(taken)
        bias.not_taken += int(not_taken)
    profile.mmio_sites.update(int(a) for a in profile_data["mmio_sites"])
    # Absent from snapshots written before the table existed.
    profile.pt_store_sites.update(
        int(a) for a in profile_data.get("pt_store_sites", ()))

    system.controller.import_state(controller_state)

    for translation in resident:
        if revalidate_translation(system, translation):
            system.register_loaded_translation(translation)
            report.loaded += 1
        else:
            # Stale bytes: drop the translation and leave its pages
            # under whatever protection the *surviving* translations
            # need (it was never registered, so nothing to undo).
            system.note_snapshot_drop(translation.entry_eip)
            report.dropped += 1
            report.dropped_entries.append(translation.entry_eip)
    for entry in sorted(groups):
        for translation in groups[entry]:  # oldest first keeps MRU order
            # No load-time check: group activation (`match_current`)
            # byte-compares against live memory, so a stale version can
            # never be reactivated.
            translation.valid = False
            system.groups.retire(translation)
            system.stats.snapshot_group_versions += 1
            report.group_versions += 1


def revalidate_translation(system, translation: Translation) -> bool:
    """§3.6.2-style load-time check: recorded digests vs guest RAM.

    Public: the fleet's shared translation service runs this same check
    on every cross-tenant import, so a shared entry is trusted only
    against the *importing* tenant's current code bytes.
    """
    from repro.isa.exceptions import GuestException

    digests = translation.range_digests
    if len(digests) != len(translation.code_ranges):
        return False
    for (start, length), recorded in zip(translation.code_ranges,
                                         digests):
        try:
            current = system.machine.bus.read_code_bytes(start, length)
        except GuestException:
            return False
        if digest_bytes(current) != recorded:
            return False
    return True


# ----------------------------------------------------------------------
# Inspection (no system required)
# ----------------------------------------------------------------------


def inspect_snapshot(path: str) -> dict:
    """Summarize a snapshot file for ``repro-cms snapshot inspect``."""
    payload = read_snapshot_file(path)
    translations = payload["translations"]
    resident = payload["resident"]
    group_versions = sum(len(v) for v in payload["groups"].values())
    entries = sorted(translations[i]["entry_eip"] for i in resident)
    return {
        "path": path,
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "config_digest": payload["config_digest"],
        "translations": len(translations),
        "resident": len(resident),
        "group_entries": len(payload["groups"]),
        "group_versions": group_versions,
        "controller_policies": len(payload["controller"]["policies"]),
        "profile_anchors": len(payload["profile"]["anchor_counts"]),
        "resident_entries": entries,
        "has_obs": "obs" in payload,
    }
