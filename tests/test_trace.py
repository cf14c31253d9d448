"""Tests for the CMS event trace."""

from __future__ import annotations

from repro import CMSConfig
from repro.cms.trace import Event, EventTrace

from conftest import run_cms


class TestEventTraceUnit:
    def test_record_and_filter(self):
        trace = EventTrace()
        trace.record(Event.TRANSLATE, 0x1000, "default")
        trace.record(Event.FAULT, 0x1004, "ALIAS_VIOLATION")
        trace.record(Event.TRANSLATE, 0x2000)
        assert len(trace) == 3
        assert len(trace.records(Event.TRANSLATE)) == 2
        assert trace.records(eip=0x1004)[0].event is Event.FAULT

    def test_bounded_capacity(self):
        trace = EventTrace(capacity=4)
        for i in range(10):
            trace.record(Event.TRANSLATE, i)
        assert len(trace) == 4
        assert [r.eip for r in trace.records(Event.TRANSLATE)] == \
            [6, 7, 8, 9]
        assert trace.last(4)[0].sequence == 7

    def test_windowed_counts_drop_evicted_kinds(self):
        trace = EventTrace(capacity=2)
        trace.record(Event.FAULT, 0x10)
        trace.record(Event.TRANSLATE, 0x20)
        trace.record(Event.TRANSLATE, 0x30)  # evicts the FAULT record
        assert trace.records(Event.FAULT) == []
        assert len(trace.records(Event.TRANSLATE)) == 2

    def test_disabled_records_nothing(self):
        trace = EventTrace(enabled=False)
        trace.record(Event.TRANSLATE, 0x1000)
        assert len(trace) == 0

    def test_dump_format(self):
        trace = EventTrace()
        trace.record(Event.ROLLBACK, 0x1234, "PROTECTION")
        text = trace.dump()
        assert "rollback" in text and "0x1234" in text

    def test_sequence_of(self):
        trace = EventTrace()
        trace.record(Event.TRANSLATE, 1)
        trace.record(Event.FAULT, 1)
        trace.record(Event.RETRANSLATE, 1)
        order = trace.sequence_of(Event.TRANSLATE, Event.RETRANSLATE)
        assert order == [Event.TRANSLATE, Event.RETRANSLATE]


class TestRuntimeTracing:
    def test_translation_events_recorded(self):
        system, _ = run_cms("""
        start:
            mov ecx, 0
        loop:
            inc ecx
            cmp ecx, 200
            jne loop
            cli
            hlt
        """, CMSConfig(translation_threshold=4))
        translates = system.trace.records(Event.TRANSLATE)
        assert translates, "no TRANSLATE events recorded"
        assert len(translates) == system.stats.translations_made

    def test_fault_and_escalation_sequence(self):
        from repro.workloads import run_workload
        from repro.workloads.apps import alias_stress

        result = run_workload(alias_stress(),
                              CMSConfig(translation_threshold=6,
                                        fault_threshold=2))
        trace = result.system.trace
        assert trace.records(Event.FAULT)
        assert trace.records(Event.ROLLBACK)
        assert trace.records(Event.POLICY_ESCALATE)
        # Escalation follows faults in time.
        order = trace.sequence_of(Event.FAULT, Event.POLICY_ESCALATE)
        assert order.index(Event.FAULT) < order.index(Event.POLICY_ESCALATE)

    def test_smc_events_recorded(self):
        from repro.workloads import run_workload
        from repro.workloads.games import quake_demo2

        result = run_workload(quake_demo2(frames=20),
                              CMSConfig(translation_threshold=6,
                                        fault_threshold=2))
        trace = result.system.trace
        assert trace.records(Event.SMC_INVALIDATE)
        assert trace.records(Event.TRANSLATE)

    def test_interrupt_rollbacks_traced(self):
        from repro.workloads import get_workload, run_workload

        result = run_workload(get_workload("dos_boot"),
                              CMSConfig(translation_threshold=6))
        trace = result.system.trace
        # The timer phase forces interrupt exits from translations.
        assert trace.records(Event.INTERRUPT)
