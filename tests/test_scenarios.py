"""Adversarial scenario matrix: differential, deterministic, contained.

Tier-1 runs every scenario class differentially at a small budget —
the same checks the CI ``scenarios`` lane runs at its bigger budget —
plus the record-determinism and chaos-containment contracts the
runner documents.  The full-budget soak is marked ``slow``.
"""

from __future__ import annotations

import pytest

from repro.scenarios.matrix import SCENARIOS, get, names
from repro.scenarios.runner import (
    all_passed,
    record_fingerprint,
    run_matrix,
    run_scenario,
)

BUDGET = 9_000
SEED = 11


@pytest.fixture(scope="module")
def matrix_report():
    return run_matrix(BUDGET, SEED)


class TestMatrix:
    def test_names_unique_and_resolvable(self):
        assert len(set(names())) == len(SCENARIOS) == 5
        for scenario in SCENARIOS:
            assert get(scenario.name) is scenario
        with pytest.raises(KeyError):
            get("no-such-scenario")

    @pytest.mark.parametrize("name", [s.name for s in SCENARIOS])
    def test_differentially_clean(self, matrix_report, name):
        record = matrix_report["scenarios"][name]
        assert record["pass"], record["diffs"]

    def test_all_passed_summary(self, matrix_report):
        assert all_passed(matrix_report)

    @pytest.mark.parametrize("name", [s.name for s in SCENARIOS])
    def test_scenarios_do_real_work(self, matrix_report, name):
        counters = matrix_report["scenarios"][name]["counters"]
        assert counters["guest_instructions"] > BUDGET // 3
        assert counters["translations_made"] > 0

    def test_adversarial_pressure_recorded(self, matrix_report):
        records = matrix_report["scenarios"]
        # the storm really storms ...
        assert records["irq-storm"]["counters"]["interrupts_delivered"] > 10
        # ... and the SMC classes really self-modify.
        for name in ("task-switch", "guest-jit", "soak"):
            assert records[name]["counters"]["smc_invalidations"] > 0

    def test_dispatch_quantiles_present(self, matrix_report):
        for record in matrix_report["scenarios"].values():
            dispatch = record["dispatch"]
            assert dispatch["count"] > 0
            assert 0 < dispatch["p50_instructions"] \
                <= dispatch["p99_instructions"]

    def test_paging_pressure_recorded(self, matrix_report):
        record = matrix_report["scenarios"]["paging"]
        counters = record["counters"]
        mmu = record["mmu"]
        # Demand faults and write-protect flips really deliver #PF ...
        assert counters["guest_exceptions_delivered"] > 10
        # ... at least one of them precisely out of translated code,
        assert counters["rollbacks"] > 0
        # ... page-table mutations sever chains into remapped pages,
        assert counters["mapping_unchains"] > 0
        # ... and the guest's page-table stores were learned by the
        # interpreter before translation, so none reached the live-PT
        # store interlock (which tests/test_paging_coherency.py fires).
        assert counters.get("faults.MMU_MUTATION", 0) == 0
        assert _paging_pt_store_sites() > 0
        # The MMU section reflects real paging traffic: architectural
        # walks, CMS mapping probes, and a TLB that absorbs some of
        # the probe-walk cost.
        assert mmu["faults"] > 10
        assert mmu["probes"] > 0
        assert mmu["tlb_invalidations"] > 0
        assert mmu["probe_walks_saved"] > 0
        assert mmu["probe_walks"] + mmu["probe_walks_saved"] == \
            mmu["probes"]

    def test_health_sweeps_ran(self, matrix_report):
        soak = matrix_report["scenarios"]["soak"]
        assert soak["sweeps"] >= 1
        assert soak["health"]["audit_runs"] >= 1
        assert soak["health"]["healthy"]


def _paging_pt_store_sites() -> int:
    """Page-table store sites the paging scenario's CMS leg learned."""
    from repro.cms.config import CMSConfig
    from repro.cms.system import CodeMorphingSystem
    from repro.scenarios.runner import _build_machine

    prog = get("paging").build(BUDGET, SEED)
    machine, entry = _build_machine(prog, SEED)
    system = CodeMorphingSystem(machine, CMSConfig())
    system.run(entry, max_instructions=prog.max_instructions)
    return len(system.profile.pt_store_sites)


class TestDeterminism:
    def test_same_seed_twice_is_byte_identical(self):
        scenario = get("guest-jit")
        first = run_scenario(scenario, BUDGET, SEED)
        second = run_scenario(scenario, BUDGET, SEED)
        assert record_fingerprint(first) == record_fingerprint(second)

    def test_fingerprint_ignores_host_timing(self):
        record = run_scenario(get("irq-storm"), BUDGET, SEED)
        fingerprint = record_fingerprint(record)
        record["timing"]["cms_seconds"] = 1e9
        assert record_fingerprint(record) == fingerprint
        assert "interp_seconds" not in fingerprint

    def test_different_seed_changes_the_record(self):
        scenario = get("irq-storm")  # seeded disk + NIC payload folds
        assert record_fingerprint(run_scenario(scenario, BUDGET, 1)) != \
            record_fingerprint(run_scenario(scenario, BUDGET, 2))


class TestFleetHosted:
    def test_paging_guests_under_the_supervisor(self):
        from repro.scenarios.fleet import run_scenario_fleet

        report = run_scenario_fleet("paging", tenants=2, budget=6_000,
                                    seed=SEED)
        assert report.ok, report.divergences
        assert report.uncontained == 0
        assert all(row["state"] == "done" for row in report.tenant_rows)


class TestChaosContainment:
    def test_scenario_under_chaos_stays_equivalent(self):
        record = run_scenario(get("irq-storm"), BUDGET, SEED,
                              chaos_rate=0.02, chaos_seed=3)
        assert record["pass"], record["diffs"]
        assert record["health"]["chaos_injected"] > 0
        assert record["health"]["contained_errors"] >= \
            record["health"]["chaos_injected"]


@pytest.mark.slow
class TestFullBudget:
    def test_soak_full_budget(self):
        record = run_scenario(get("soak"), 120_000, SEED)
        assert record["pass"], record["diffs"]
        assert record["sweeps"] >= 5
