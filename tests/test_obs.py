"""Tests for the observability layer.

Unit coverage for the four pillars (metrics registry, phase profiler,
hot-spot profiler, JSONL telemetry) plus system tests pinning the two
properties the layer promises: the deterministic core is unaffected by
turning observability on (identical molecule counts and output), and
everything emitted is schema-versioned and machine-readable.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import run_cms
from repro import CMSConfig
from repro.obs import (
    SCHEMA_VERSION,
    HistogramMetric,
    HotSpotProfiler,
    MetricsRegistry,
    ObservationBus,
    PhaseProfiler,
    TelemetrySink,
    read_jsonl,
)

HOT_LOOP = """
start:
    mov esi, 0
    mov ecx, 0
loop:
    mov eax, ecx
    imul eax, 13
    xor esi, eax
    inc ecx
    cmp ecx, 400
    jne loop
    cli
    hlt
"""

FAST = CMSConfig(translation_threshold=4)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        hist = HistogramMetric("h", (1, 2, 4))
        for value, bucket in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2)]:
            hist.reset()
            hist.observe(value)
            assert hist.counts[bucket] == 1, (value, hist.counts)

    def test_overflow_bucket(self):
        hist = HistogramMetric("h", (1, 2, 4))
        hist.observe(5)
        hist.observe(1_000_000)
        assert hist.counts == [0, 0, 0, 2]
        assert len(hist.counts) == len(hist.bounds) + 1

    def test_aggregates(self):
        hist = HistogramMetric("h", (10,))
        for value in (3, 7, 20):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 30
        assert hist.min_seen == 3
        assert hist.max_seen == 20

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            HistogramMetric("h", (2, 1))
        with pytest.raises(ValueError):
            HistogramMetric("h", (1, 1))
        with pytest.raises(ValueError):
            HistogramMetric("h", ())

    def test_reset_clears_everything(self):
        hist = HistogramMetric("h", (1, 2))
        hist.observe(3)
        hist.reset()
        assert hist.counts == [0, 0, 0]
        assert hist.count == 0
        assert hist.total == 0
        assert hist.min_seen is None
        assert hist.max_seen is None


class TestMetricsRegistry:
    def test_metrics_are_created_once(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.inc(3)
        assert registry.counter("a") is counter
        assert registry.counter("a").value == 3
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_shape(self):
        registry = MetricsRegistry(histogram_buckets=(1, 2))
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2)
        snap = registry.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a", "z"]  # sorted
        assert snap["counters"] == {"a": 2, "z": 1}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["bounds"] == [1, 2]
        assert snap["histograms"]["h"]["counts"] == [0, 1, 0]

    def test_set_counters_with_prefix(self):
        registry = MetricsRegistry()
        registry.set_counters({"x": 7, "y": 8}, prefix="stats.")
        assert registry.counter("stats.x").value == 7
        assert registry.counter("stats.y").value == 8

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry(histogram_buckets=(4,))
        registry.counter("c").inc()
        registry.histogram("h").observe(9)
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 0}
        assert snap["histograms"]["h"]["counts"] == [0, 0]
        assert snap["histograms"]["h"]["bounds"] == [4]  # shape kept


# ----------------------------------------------------------------------
# Phase profiler
# ----------------------------------------------------------------------


class TestPhaseProfiler:
    def test_nesting_splits_self_and_inclusive_time(self):
        now = [0.0]
        prof = PhaseProfiler(clock=lambda: now[0])
        with prof.phase("outer"):
            now[0] += 1.0
            with prof.phase("inner"):
                now[0] += 2.0
            now[0] += 3.0
        stats = {stat.name: stat for stat in prof.stats()}
        assert stats["outer"].seconds == pytest.approx(6.0)
        assert stats["outer"].self_seconds == pytest.approx(4.0)
        assert stats["outer/inner"].seconds == pytest.approx(2.0)
        assert stats["outer/inner"].self_seconds == pytest.approx(2.0)
        assert stats["outer"].calls == 1
        assert stats["outer/inner"].calls == 1

    def test_same_name_under_different_parents_is_distinct(self):
        now = [0.0]
        prof = PhaseProfiler(clock=lambda: now[0])
        with prof.phase("a"):
            with prof.phase("work"):
                now[0] += 1.0
        with prof.phase("b"):
            with prof.phase("work"):
                now[0] += 2.0
        snap = prof.snapshot()
        assert snap["a/work"]["seconds"] == pytest.approx(1.0)
        assert snap["b/work"]["seconds"] == pytest.approx(2.0)

    def test_reentry_accumulates_calls(self):
        now = [0.0]
        prof = PhaseProfiler(clock=lambda: now[0])
        for _ in range(3):
            with prof.phase("p"):
                now[0] += 1.0
        (stat,) = prof.stats()
        assert stat.calls == 3
        assert stat.seconds == pytest.approx(3.0)

    def test_stats_order_outermost_first(self):
        now = [0.0]
        prof = PhaseProfiler(clock=lambda: now[0])
        with prof.phase("top"):
            with prof.phase("child"):
                now[0] += 1.0
        names = [stat.name for stat in prof.stats()]
        assert names == ["top", "top/child"]
        assert "child" in prof.describe()

    def test_reset(self):
        prof = PhaseProfiler(clock=lambda: 0.0)
        with prof.phase("p"):
            pass
        prof.reset()
        assert prof.stats() == []


# ----------------------------------------------------------------------
# Hot-spot profiler
# ----------------------------------------------------------------------


# A translation as the profiler sees it: its lifetime executed molecules.
Ran = namedtuple("Ran", "id entry_eip executions_molecules")


class TestHotSpots:
    def test_top_ranks_by_requested_key(self):
        prof = HotSpotProfiler()
        prof.note_dispatch(0x100, instructions=10)
        prof.note_executed([Ran(1, 0x100, 50)])
        prof.note_dispatch(0x200, instructions=90)
        prof.note_executed([Ran(2, 0x200, 20)])
        prof.note_fault(0x100)
        by_instr = prof.top(sort="instructions")
        assert [r.entry_eip for r in by_instr] == [0x200, 0x100]
        by_mols = prof.top(sort="molecules")
        assert [r.entry_eip for r in by_mols] == [0x100, 0x200]
        by_faults = prof.top(sort="faults")
        assert by_faults[0].entry_eip == 0x100

    def test_bad_sort_key_raises(self):
        with pytest.raises(ValueError):
            HotSpotProfiler().top(sort="bogus")

    def test_interp_pool_and_snapshot(self):
        prof = HotSpotProfiler()
        prof.note_interp(5)
        prof.note_interp()
        prof.note_dispatch(0x300, instructions=1)
        prof.note_executed([Ran(3, 0x300, 2)])
        prof.note_translation(0x300)
        snap = prof.snapshot()
        assert snap["interp_instructions"] == 6
        assert snap["regions"][0]["entry_eip"] == 0x300
        assert snap["regions"][0]["translations"] == 1


# ----------------------------------------------------------------------
# Telemetry sink
# ----------------------------------------------------------------------


class TestTelemetry:
    def test_schema_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetrySink(path, source="test") as sink:
            sink.emit("alpha", {"x": 1})
            sink.emit("beta", {"y": [1, 2]})
            sink.record(SimpleNamespace(value="fault"), eip=0x42, detail="d")
        records = read_jsonl(path)
        assert [r["kind"] for r in records] == ["alpha", "beta", "event"]
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert all(r["v"] == SCHEMA_VERSION for r in records)
        assert all(r["source"] == "test" for r in records)
        assert records[0]["x"] == 1
        assert records[1]["y"] == [1, 2]
        assert records[2] == {
            "v": SCHEMA_VERSION,
            "kind": "event",
            "seq": 3,
            "source": "test",
            "event": "fault",
            "eip": 0x42,
            "detail": "d",
        }

    def test_rotation_bounds_file_count_and_size(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = TelemetrySink(path, max_bytes=256, max_files=3, source="r")
        for index in range(100):
            sink.emit("tick", {"index": index})
        sink.close()
        generations = sorted(p.name for p in tmp_path.iterdir())
        assert generations == ["t.jsonl", "t.jsonl.1", "t.jsonl.2"]
        for name in generations:
            assert (tmp_path / name).stat().st_size <= 256
        # The newest records are in the active file, in order.
        latest = read_jsonl(path)
        assert latest[-1]["index"] == 99
        seqs = [r["seq"] for r in latest]
        assert seqs == sorted(seqs)


# ----------------------------------------------------------------------
# Observation bus
# ----------------------------------------------------------------------


class _RecordingSink:
    def __init__(self):
        self.calls = []

    def record(self, event, eip=None, detail=""):
        self.calls.append((event, eip, detail))


class TestBus:
    def test_fan_out_and_removal(self):
        bus = ObservationBus()
        first, second = _RecordingSink(), _RecordingSink()
        bus.add_sink(first)
        bus.add_sink(second)
        bus.record("ev", eip=1, detail="x")
        bus.remove_sink(second)
        bus.record("ev2")
        assert first.calls == [("ev", 1, "x"), ("ev2", None, "")]
        assert second.calls == [("ev", 1, "x")]


# ----------------------------------------------------------------------
# System: observability must not perturb the deterministic core
# ----------------------------------------------------------------------


class TestSystemIntegration:
    def test_obs_off_and_on_are_molecule_identical(self, monkeypatch):
        # Each leg starts from an empty template code cache: the cache
        # is process-wide, so the second leg would otherwise reuse the
        # code the first compiled and count ``jit_code_cache_hits``.
        from repro.host import jit

        monkeypatch.setattr(jit, "_CODE_CACHE", {})
        off_system, off_result = run_cms(HOT_LOOP, FAST)
        monkeypatch.setattr(jit, "_CODE_CACHE", {})
        on_system, on_result = run_cms(
            HOT_LOOP, replace(FAST, obs_enabled=True)
        )
        assert off_result.halted and on_result.halted
        assert on_result.console_output == off_result.console_output
        assert (
            on_system.stats.as_dict(FAST.cost)
            == off_system.stats.as_dict(FAST.cost)
        )
        assert off_system.obs is None
        assert on_system.obs is not None

    def test_chained_translations_are_credited_their_own_molecules(self):
        # dos_boot chains its boot loops: a dispatch entered at one
        # region runs on into others.  Each region earns the molecules
        # its own translations executed, and each dispatch is counted
        # once, for the region the dispatcher entered.
        from repro import CodeMorphingSystem
        from repro.workloads import get_workload

        workload = get_workload("dos_boot")
        machine, entry = workload.build_machine()
        system = CodeMorphingSystem(machine, CMSConfig(obs_enabled=True))
        result = system.run(entry, max_instructions=workload.max_instructions)
        assert result.halted
        assert system.stats.chains_followed > 0
        regions = system.obs.hotspots.top(10_000)
        molecules = sum(r.molecules for r in regions)
        assert molecules == system.cpu.molecules_executed
        assert sum(r.dispatches for r in regions) == system.stats.dispatches
        resident = {t.entry_eip: t for t in system.tcache.translations()}
        checked = 0
        for region in regions:
            translation = resident.get(region.entry_eip)
            if translation is None or region.translations != 1:
                continue
            executed = translation.executions_molecules
            assert region.molecules == executed, hex(region.entry_eip)
            checked += 1
        assert checked >= 5

    def test_obs_on_attributes_the_hot_region(self):
        system, result = run_cms(HOT_LOOP, replace(FAST, obs_enabled=True))
        assert result.halted
        assert system.stats.translations_made >= 1
        regions = system.obs.hotspots.top()
        assert regions, "hot loop produced no region profile"
        total_attributed = sum(r.instructions for r in regions)
        assert total_attributed > 0
        dispatch_hist = system.obs.registry.histogram(
            "dispatch.guest_instructions"
        )
        assert dispatch_hist.count == sum(r.dispatches for r in regions)
        phases = system.obs.phases.snapshot()
        assert "execute" in phases
        assert "interpret" in phases

    def test_every_timed_phase_appears(self):
        # One paging run reaches every row of the phase table
        # (obs/core.py ``_TIMED``); a dropped row leaves its node out.
        from repro import CodeMorphingSystem, Machine
        from repro.scenarios.matrix import get
        from repro.scenarios.runner import seed_disk

        prog = get("paging").build(30_000, 0)
        machine = Machine()
        seed_disk(machine, prog, 0)
        entry = machine.load_source(prog.source)
        system = CodeMorphingSystem(machine, CMSConfig(obs_enabled=True))
        system.run(entry, max_instructions=prog.max_instructions)
        system.health_report()
        phases = system.obs.phases.snapshot()
        for path in (
            "interpret",
            "translate",
            "execute",
            "execute/jit-compile",
            "execute/smc-service",
            "fault-service",
            "fault-service/translate",
            "fault-service/smc-service",
            "rollback",
            "audit",
        ):
            assert path in phases, path
        # Both engines run under the one ``execute`` phase.
        assert not any("jit-execute" in path for path in phases)

    def test_run_summary_telemetry(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        config = replace(FAST, obs_enabled=True, obs_jsonl_path=path)
        system, result = run_cms(HOT_LOOP, config)
        assert result.halted
        records = read_jsonl(path)
        assert all(r["v"] == SCHEMA_VERSION for r in records)
        summaries = [r for r in records if r["kind"] == "run-summary"]
        assert len(summaries) == 1
        summary = summaries[0]
        counters = summary["metrics"]["counters"]
        assert counters["stats.translations_made"] == (
            system.stats.translations_made
        )
        # Event totals are the ``stats.*`` counters; the events
        # themselves stream as ``event`` records.
        assert not any(name.startswith("events.") for name in counters)
        events = [r["event"] for r in records if r["kind"] == "event"]
        assert (
            events.count("translate") + events.count("retranslate")
            == system.stats.translations_made
        )
        assert summary["hotspots"]["regions"]
        assert summary["run"]["halted"] is True
