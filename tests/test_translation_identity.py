"""Translation identity: the translator's output, pinned per translation.

Runs a fixed set of guest programs under the full CMS and records a
sha256 over every translation the translator returns, in production
order, at the moment it is returned.  The golden file
(``tests/golden/translation_identity.json``) holds those digests, so
any change to what the pipeline emits -- a molecule, an atom field, a
scheduler tie-break, a label, a digest, a policy -- fails here, while a
change that only makes the pipeline faster passes.

The program set reaches every translator path the digests must cover;
``test_program_reaches_its_paths`` asserts that it still does:

* self-checking translations, self-revalidation prologues and
  translation groups (the guest-jit scenario);
* stylized immediates (quake_demo2: under the default config the
  guest-jit scenario never adopts them);
* identity-mapped fetch and page-table-store stops (the paging
  scenario);
* I/O fences (dos_boot);
* loop regions that iterate in-cache (compress at scale 1);
* flat one-shot code (the e2e cold-flat generator at its smoke size);
* indirect exits (every program's ``ret``).

Regenerate the golden only on purpose, when translator output is meant
to change::

    PYTHONPATH=src python tests/test_translation_identity.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cms.config import CMSConfig
from repro.cms.system import CodeMorphingSystem
from repro.host.atoms import Atom, AtomKind
from repro.machine import Machine
from repro.scenarios import matrix
from repro.scenarios.runner import _build_machine
from repro.translator.policies import TranslationPolicy
from repro.workloads.apps import APP_FACTORIES
from repro.workloads.games import GAME_FACTORIES
from repro.workloads.registry import get_workload

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "translation_identity.json"
E2E_WORKLOADS = HERE.parent / "benchmarks" / "e2e" / "workloads.py"

SCENARIO_SEED = 0
GUEST_JIT_BUDGET = 20_000
PAGING_BUDGET = 40_000  # the e2e paging-os size
COLD_FLAT_PROCEDURES = 60  # the e2e cold-flat smoke size

# Every atom field except the dispatcher's runtime chaining state.
_ATOM_FIELDS = tuple(f.name for f in dataclasses.fields(Atom)
                     if not f.name.startswith("chained_"))
# Every policy field; the address sets are hashed sorted.
_POLICY_FIELDS = tuple(f.name for f in dataclasses.fields(TranslationPolicy))


def fingerprint(translation) -> str:
    """sha256 over one translation's translator-produced output."""
    digest = hashlib.sha256()

    def put(value) -> None:
        digest.update(repr(value).encode())
        digest.update(b"\n")

    position = {}
    for m, molecule in enumerate(translation.molecules):
        put((molecule.label, tuple(slot.name for slot in molecule.slots)))
        for a, atom in enumerate(molecule.atoms):
            position[id(atom)] = (m, a)
            put(tuple(getattr(atom, name) for name in _ATOM_FIELDS))
    policy = translation.policy
    put((
        translation.entry_eip,
        sorted(translation.labels.items()),
        translation.entry_label,
        translation.prologue_label,
        [position.get(id(atom)) for atom in translation.exit_atoms],
        translation.code_ranges,
        translation.guest_instr_count,
        translation.modeled_cycles,
        translation.range_digests,
        [sorted(value) if isinstance(value, frozenset) else value
         for value in (getattr(policy, name) for name in _POLICY_FIELDS)],
    ))
    return digest.hexdigest()


def _load_e2e_workloads():
    spec = importlib.util.spec_from_file_location("e2e_workloads",
                                                  E2E_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def _scenario(name: str, budget: int):
    prog = matrix.get(name).build(budget, SCENARIO_SEED)
    machine, entry = _build_machine(prog, SCENARIO_SEED)
    return machine, entry, prog.max_instructions


def _workload(workload):
    machine, entry = workload.build_machine()
    return machine, entry, workload.max_instructions


def _cold_flat():
    source = _load_e2e_workloads().cold_flat_source(COLD_FLAT_PROCEDURES,
                                                    SCENARIO_SEED)
    machine = Machine()
    return machine, machine.load_source(source), 50_000_000


PROGRAMS = {
    "guest-jit": lambda: _scenario("guest-jit", GUEST_JIT_BUDGET),
    "paging": lambda: _scenario("paging", PAGING_BUDGET),
    "quake_demo2": lambda: _workload(GAME_FACTORIES["quake_demo2"](1)),
    "dos_boot": lambda: _workload(get_workload("dos_boot")),
    "compress": lambda: _workload(APP_FACTORIES["compress"](1)),
    "cold-flat": _cold_flat,
}


# Translator paths each program must reach (see the module docstring).
REACHES = {
    "guest-jit": {"self-check", "prologue", "groups", "indirect exits"},
    "paging": {"identity fetch", "page-table-store stops"},
    "quake_demo2": {"stylized immediates"},
    "dos_boot": {"I/O fences"},
    "compress": {"loop regions"},
    "cold-flat": {"indirect exits"},
}


def _paths_of(translation) -> set[str]:
    policy = translation.policy
    paths = set()
    if policy.self_check:
        paths.add("self-check")
    if translation.prologue_label is not None:
        paths.add("prologue")
    if policy.stylized_imm_addrs:
        paths.add("stylized immediates")
    if policy.io_fence_addrs:
        paths.add("I/O fences")
    if any(atom.exit_target is None for atom in translation.exit_atoms):
        paths.add("indirect exits")
    if any(atom.kind is AtomKind.BR for molecule in translation.molecules
           for atom in molecule.atoms):
        paths.add("loop regions")  # the back edge branches in-cache
    return paths


@dataclasses.dataclass
class Recording:
    """What one program's CMS run translated, and the paths it took."""

    digests: list[str]
    entries: list[int]
    paths: set[str]


def record(name: str) -> Recording:
    """Run one program under the default CMS, fingerprinting each
    translation the translator returns."""
    machine, entry, limit = PROGRAMS[name]()
    system = CodeMorphingSystem(machine, CMSConfig())
    translator = system.translator
    inner = translator.translate
    out = Recording([], [], set())

    def recording_translate(*args, **kwargs):
        translation = inner(*args, **kwargs)
        if translation is not None:
            out.digests.append(fingerprint(translation))
            out.entries.append(translation.entry_eip)
            out.paths |= _paths_of(translation)
        return translation

    translator.translate = recording_translate
    result = system.run(entry, max_instructions=limit)
    assert result.halted, f"{name} did not halt"
    if system.stats.group_reactivations:
        out.paths.add("groups")
    if machine.mmu.probes:  # region selection's identity checks
        out.paths.add("identity fetch")
    if system.profile.pt_store_sites:
        out.paths.add("page-table-store stops")
    return out


@lru_cache(maxsize=None)
def _recorded(name: str) -> Recording:
    return record(name)


def _golden() -> dict[str, list[str]]:
    return json.loads(GOLDEN.read_text())["programs"]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_translations_match_golden(name):
    expected = _golden()[name]
    recording = _recorded(name)
    for index, (want, got) in enumerate(zip(expected, recording.digests)):
        assert got == want, (
            f"{name}: translation #{index} (entry "
            f"{recording.entries[index]:#x}) differs from the golden")
    assert len(recording.digests) == len(expected), (
        f"{name}: {len(recording.digests)} translations, "
        f"golden has {len(expected)}")


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_reaches_its_paths(name):
    """Each translator path the digests must cover is exercised."""
    missing = REACHES[name] - _recorded(name).paths
    assert not missing, f"{name} no longer reaches {sorted(missing)}"


def regenerate() -> None:
    programs = {name: record(name).digests for name in sorted(PROGRAMS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"programs": programs}, indent=1) + "\n")
    for name, digests in programs.items():
        print(f"{name}: {len(digests)} translations")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    regenerate()
