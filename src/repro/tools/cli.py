"""``repro-cms`` — command-line front end.

Subcommands::

    repro-cms list                       # available workloads
    repro-cms run  <workload>            # run under full CMS, print stats
    repro-cms compare <workload>         # run under contrasting configs
    repro-cms disasm <workload>          # disassemble the guest program
    repro-cms translations <workload>    # dump translated molecules
    repro-cms trace <workload>           # dump the CMS event trace
    repro-cms top <workload>             # per-region hot-spot profile
    repro-cms health [workloads...]      # self-audit + health report
                                         # (also installed as repro-health)
    repro-cms health --fleet             # aggregate multi-tenant health
    repro-cms snapshot <action> <path>   # save/load/inspect warm-start
                                         # snapshots (PR 5)
    repro-cms fleet run [workloads...]   # serve N workloads under the
                                         # fault-isolated fleet supervisor
    repro-cms fleet campaign             # seeded fleet chaos campaign
                                         # (kill / corrupt / storm modes)
    repro-cms scenario list              # adversarial scenario matrix
    repro-cms scenario run [names...]    # run scenarios differentially,
                                         # print/emit pass+perf records
    repro-cms scenario fleet [names...]  # host one scenario guest per
                                         # tenant under the supervisor

``top`` and ``health`` also accept ``--session PATH`` (a JSONL
telemetry file) or ``--snapshot PATH`` (a warm-start snapshot) to
report offline; inputs produced with ``obs_enabled=False`` yield a
clear diagnostic and exit status 2 instead of an empty table.

Configuration toggles (for ``run``/``trace``/``translations``):
``--no-reorder``, ``--no-alias-hw``, ``--no-fine-grain``,
``--no-revalidation``, ``--no-groups``, ``--force-self-check``,
``--no-adaptive``, ``--threshold N``, ``--interp-only``.
Warm start: ``--snapshot-path PATH`` (load), ``--snapshot-save``
(write back at shutdown), ``--no-strict-snapshot``.
Observability: ``--obs`` enables the metrics/phase/hot-spot layer,
``--obs-jsonl PATH`` additionally streams JSONL telemetry (implies
``--obs``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.cms.config import CMSConfig
from repro.obs.hotspots import SORT_KEYS
from repro.workloads import get_workload, run_workload, workload_names


def config_from_args(args: argparse.Namespace) -> CMSConfig:
    config = CMSConfig()
    overrides = {}
    if getattr(args, "threshold", None) is not None:
        overrides["translation_threshold"] = args.threshold
    if getattr(args, "no_reorder", False):
        overrides["reorder_memory"] = False
        overrides["control_speculation"] = False
    if getattr(args, "no_alias_hw", False):
        overrides["use_alias_hw"] = False
    if getattr(args, "no_fine_grain", False):
        overrides["fine_grain_protection"] = False
    if getattr(args, "no_revalidation", False):
        overrides["self_revalidation"] = False
    if getattr(args, "no_groups", False):
        overrides["translation_groups"] = False
    if getattr(args, "force_self_check", False):
        overrides["force_self_check"] = True
    if getattr(args, "no_adaptive", False):
        overrides["adaptive_retranslation"] = False
    if getattr(args, "obs", False):
        overrides["obs_enabled"] = True
    if getattr(args, "obs_jsonl", None):
        overrides["obs_enabled"] = True
        overrides["obs_jsonl_path"] = args.obs_jsonl
    if getattr(args, "snapshot_path", None):
        overrides["snapshot_path"] = args.snapshot_path
    if getattr(args, "snapshot_save", False):
        overrides["snapshot_save"] = True
    if getattr(args, "no_strict_snapshot", False):
        overrides["snapshot_strict_config"] = False
    config = replace(config, **overrides)
    if getattr(args, "interp_only", False):
        config = config.interpreter_only()
    return config


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=int, default=None,
                        help="translation threshold")
    for flag in ("no-reorder", "no-alias-hw", "no-fine-grain",
                 "no-revalidation", "no-groups", "force-self-check",
                 "no-adaptive", "interp-only"):
        parser.add_argument(f"--{flag}", action="store_true")
    parser.add_argument("--obs", action="store_true",
                        help="enable the observability layer")
    parser.add_argument("--obs-jsonl", metavar="PATH", default=None,
                        help="stream JSONL telemetry to PATH "
                             "(implies --obs)")
    parser.add_argument("--snapshot-path", metavar="PATH", default=None,
                        help="warm-start from this snapshot when it "
                             "exists (translations revalidate against "
                             "guest RAM at load)")
    parser.add_argument("--snapshot-save", action="store_true",
                        help="write the snapshot back at shutdown "
                             "(needs --snapshot-path)")
    parser.add_argument("--no-strict-snapshot", action="store_true",
                        help="accept snapshots taken under a different "
                             "configuration")


def cmd_list(args: argparse.Namespace) -> int:
    from repro.workloads import ALL_WORKLOADS

    print(f"{'name':<16} {'category':<8} description")
    for name in workload_names():
        workload = ALL_WORKLOADS[name]
        print(f"{name:<16} {workload.category:<8} {workload.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    config = config_from_args(args)
    result = run_workload(workload, config)
    print(f"workload  : {workload.name} ({workload.description})")
    if result.system.snapshot_error is not None:
        print(f"snapshot  : cold start ({result.system.snapshot_error})")
    elif result.system.snapshot_report is not None:
        report = result.system.snapshot_report
        print(f"snapshot  : warm start, {report.loaded} loaded, "
              f"{report.dropped} dropped, "
              f"{report.group_versions} group versions")
    print(f"halted    : {result.halted}")
    print(f"output    : {result.console_output.strip()!r}")
    print(f"mol/instr : {result.mpx:.2f}")
    if result.frames:
        print(f"frames    : {result.frames}")
    print()
    print(result.system.stats.summary(config.cost))
    if result.system.obs is not None:
        print()
        print(result.system.obs.phases.describe())
    return 0


def _print_hotspot_table(hotspots: dict, count: int, sort: str) -> None:
    """Render a ``HotSpotProfiler.snapshot()``-shaped mapping."""
    regions = sorted(hotspots.get("regions", []),
                     key=lambda r: -r.get(sort, r.get("instructions", 0)))
    print(f"{'entry':>10} {'instructions':>13} {'molecules':>11} "
          f"{'dispatches':>10} {'faults':>7} {'trans':>6}")
    for region in regions[:count]:
        print(f"{region['entry_eip']:>#10x} {region['instructions']:>13} "
              f"{region['molecules']:>11} {region['dispatches']:>10} "
              f"{region['faults']:>7} {region['translations']:>6}")
    interp = hotspots.get("interp_instructions", 0)
    print(f"{'(interp)':>10} {interp:>13} {'-':>11} {'-':>10} {'-':>7} "
          f"{'-':>6}")


def _no_obs_data(what: str) -> int:
    """Satellite 3: a clear diagnosis instead of a traceback/empty
    table when the input was produced with observability off."""
    print(f"error: {what} carries no observability data — it was "
          f"produced with obs_enabled=False.\n"
          f"Re-run the workload with --obs (or --obs-jsonl PATH, or "
          f"snapshot-save under --obs) to record per-region profiles.",
          file=sys.stderr)
    return 2


def _top_offline(args: argparse.Namespace) -> int:
    """`repro-cms top` against a saved session or snapshot file."""
    if args.snapshot:
        from repro.cache.persist import SnapshotError, read_snapshot_file

        try:
            payload = read_snapshot_file(args.snapshot)
        except SnapshotError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        obs = payload.get("obs")
        if not obs or not obs.get("hotspots", {}).get("regions"):
            return _no_obs_data(f"snapshot {args.snapshot}")
        print(f"snapshot  : {args.snapshot}")
        _print_hotspot_table(obs["hotspots"], args.count, args.sort)
        return 0
    from repro.obs.telemetry import read_jsonl

    try:
        records = read_jsonl(args.session)
    except OSError as error:
        print(f"error: cannot read session: {error}", file=sys.stderr)
        return 2
    summaries = [r for r in records if r.get("kind") == "run-summary"]
    if not summaries or not summaries[-1].get("hotspots", {}).get("regions"):
        return _no_obs_data(f"session {args.session}")
    print(f"session   : {args.session}")
    _print_hotspot_table(summaries[-1]["hotspots"], args.count, args.sort)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Per-region hot-spot ranking (runs with observability forced on)."""
    from repro.cms.degrade import Tier
    from repro.cms.system import CodeMorphingSystem

    if args.session or args.snapshot:
        return _top_offline(args)
    if args.workload is None:
        print("error: a workload name, --session PATH, or "
              "--snapshot PATH is required", file=sys.stderr)
        return 2
    workload = get_workload(args.workload)
    config = config_from_args(args)
    config = replace(config, obs_enabled=True)
    machine, entry = workload.build_machine()
    system = CodeMorphingSystem(machine, config)
    result = system.run(entry, max_instructions=workload.max_instructions)
    obs = system.obs
    print(f"workload  : {workload.name} ({workload.description})")
    print(f"halted    : {result.halted}  "
          f"guest instructions: {result.guest_instructions}")
    print()
    print(f"top {args.count} regions by {args.sort}:")
    print(f"{'entry':>10} {'instructions':>13} {'molecules':>11} "
          f"{'dispatches':>10} {'faults':>7} {'trans':>6} {'jit':>4} tier")
    for region in obs.hotspots.top(args.count, args.sort):
        tier = system.degrade.tier_of(region.entry_eip)
        # "yes" = a template-JIT function is resident for the region's
        # current translation; "cold" = it runs on the simulated VLIW
        # until it crosses the compile threshold (host/jit.py);
        # "-" = VLIW-only (dial off, degraded tier, uncompilable, or
        # the translation was invalidated).
        resident = system.tcache.lookup(region.entry_eip)
        jit = "-"
        if resident is not None and resident.host_code is not None:
            jit = "yes"
        elif resident is not None and config.template_jit and \
                tier is Tier.AGGRESSIVE and system.jit.is_cold(resident):
            jit = "cold"
        print(f"{region.entry_eip:>#10x} {region.instructions:>13} "
              f"{region.molecules:>11} {region.dispatches:>10} "
              f"{region.faults:>7} {region.translations:>6} {jit:>4} "
              f"{tier.name}")
    print(f"{'(interp)':>10} {obs.hotspots.interp_instructions:>13} "
          f"{'-':>11} {'-':>10} {'-':>7} {'-':>6} {'-':>4} "
          f"untranslated pool")
    print()
    print(obs.phases.describe())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    base = CMSConfig()
    variants = {
        "baseline": base,
        "no reordering": replace(base, reorder_memory=False,
                                 control_speculation=False),
        "no alias hw": replace(base, use_alias_hw=False),
        "no fine-grain": replace(base, fine_grain_protection=False),
        "forced self-check": replace(base, force_self_check=True),
        "interpreter only": base.interpreter_only(),
    }
    baseline = None
    print(f"{'configuration':<20} {'molecules':>12} {'mol/instr':>10} "
          f"{'vs baseline':>12}")
    for label, config in variants.items():
        result = run_workload(workload, config)
        if baseline is None:
            baseline = result
        else:
            assert result.console_output == baseline.console_output, (
                f"{label}: output diverged"
            )
        delta = result.degradation_vs(baseline)
        print(f"{label:<20} {result.total_molecules:>12} "
              f"{result.mpx:>10.2f} {delta:>+11.1%}")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    from repro.isa.disasm import disassemble_text

    workload = get_workload(args.workload)
    machine, entry = workload.build_machine()
    start = args.addr if args.addr is not None else entry
    print(disassemble_text(machine, start, count=args.count))
    return 0


def cmd_translations(args: argparse.Namespace) -> int:
    from repro.cms.system import CodeMorphingSystem

    workload = get_workload(args.workload)
    machine, entry = workload.build_machine()
    system = CodeMorphingSystem(machine, config_from_args(args))
    system.run(entry, max_instructions=workload.max_instructions)
    translations = sorted(system.tcache.translations(),
                          key=lambda t: -t.executions_molecules)
    for translation in translations[: args.count]:
        print(f"== {translation.describe()}  entries={translation.entries}"
              f"  molecules-executed={translation.executions_molecules}")
        for index, molecule in enumerate(translation.molecules):
            label = "/".join(k for k, v in translation.labels.items()
                             if v == index)
            print(f"  {index:4d} {label:>9} {molecule}")
        print()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.cms.system import CodeMorphingSystem

    workload = get_workload(args.workload)
    machine, entry = workload.build_machine()
    system = CodeMorphingSystem(machine, config_from_args(args))
    system.run(entry, max_instructions=workload.max_instructions)
    print(system.trace.dump(args.count))
    print()
    print(system.stats.summary(system.config.cost))
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Save, load-check, or inspect a warm-start snapshot."""
    from repro.cache.persist import SnapshotError, inspect_snapshot

    if args.action == "inspect":
        try:
            info = inspect_snapshot(args.path)
        except SnapshotError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"snapshot             {info['path']}")
        print(f"format               {info['format']} "
              f"v{info['version']}")
        print(f"config digest        {info['config_digest'][:16]}…")
        print(f"translations         {info['translations']:>8} "
              f"({info['resident']} resident, "
              f"{info['group_versions']} group versions in "
              f"{info['group_entries']} groups)")
        print(f"controller policies  {info['controller_policies']:>8}")
        print(f"profile anchors      {info['profile_anchors']:>8}")
        print(f"observability data   {'yes' if info['has_obs'] else 'no':>8}")
        entries = ", ".join(f"{e:#x}" for e in info["resident_entries"][:8])
        if entries:
            print(f"resident entries     {entries}")
        return 0

    if args.workload is None:
        print(f"error: `snapshot {args.action}` needs a workload name",
              file=sys.stderr)
        return 2
    from repro.cms.system import CodeMorphingSystem

    workload = get_workload(args.workload)
    config = config_from_args(args)
    if args.action == "save":
        config = replace(config, snapshot_path=args.path,
                         snapshot_save=True)
        result = run_workload(workload, config)
        print(f"ran {workload.name}: halted={result.halted}, "
              f"{result.guest_instructions} guest instructions")
        print(f"snapshot written to {args.path}")
        return 0
    # load: construct the system (which loads + revalidates) and report.
    config = replace(config, snapshot_path=args.path)
    machine, _ = workload.build_machine()
    system = CodeMorphingSystem(machine, config)
    if system.snapshot_error is not None:
        print(f"error: {system.snapshot_error}", file=sys.stderr)
        return 2
    if system.snapshot_report is None:
        print(f"error: no snapshot at {args.path}", file=sys.stderr)
        return 2
    print(system.snapshot_report.describe())
    return 0


# ----------------------------------------------------------------------
# repro-health — run workloads, self-audit the runtime, report health
# ----------------------------------------------------------------------

# A representative default slice: a boot (paging, interrupts), a
# self-modifying game (SMC ladder), and an alias-heavy app (speculation
# recovery) — the three ways CMS state usually goes wrong.
DEFAULT_HEALTH_WORKLOADS = ("dos_boot", "quake_demo2", "alias_stress")


def _fleet_specs(names: list[str], config: CMSConfig) -> list:
    """Build one TenantSpec per named workload."""
    from repro.fleet import TenantSpec

    specs = []
    for tenant_id, name in enumerate(names):
        workload = get_workload(name)
        specs.append(TenantSpec(
            tenant_id=tenant_id,
            source=workload.source,
            name=workload.name,
            max_instructions=workload.max_instructions,
            config=config,
            machine_config=workload.machine_config,
        ))
    return specs


def _fleet_health_offline(args: argparse.Namespace) -> int:
    """`repro-cms health --fleet --session PATH`: report from the
    fleet-health records a supervisor run streamed to JSONL."""
    from repro.obs.telemetry import read_jsonl

    try:
        records = read_jsonl(args.session)
    except OSError as error:
        print(f"error: cannot read session: {error}", file=sys.stderr)
        return 2
    reports = [r for r in records if r.get("kind") == "fleet-health"]
    if not reports:
        return _no_obs_data(f"session {args.session} (no fleet-health "
                            f"records)")
    latest = reports[-1]
    healthy = bool(latest.get("healthy"))
    print(f"session   : {args.session} "
          f"({len(reports)} fleet-health records, showing latest)")
    print(f"status               "
          f"{'HEALTHY' if healthy else 'DEGRADED'}")
    print(f"rounds               {latest.get('rounds', 0):>8}")
    share = latest.get("share", {}) or {}
    print(f"shared cache         {share.get('published', 0):>8} "
          f"published, {share.get('imported', 0)} imported "
          f"(hit rate {share.get('hit_rate', 0.0):.2f})")
    print(f"negative cache       {latest.get('negative_cache', 0):>8}")
    print(f"uncontained errors   {latest.get('uncontained', 0):>8}")
    for row in latest.get("tenants", []):
        print(f"  tenant {row.get('tenant')} ({row.get('name')}): "
              f"{row.get('state')} restarts={row.get('restarts', 0)} "
              f"quarantines={row.get('quarantines', 0)} "
              f"contained={row.get('contained_errors', 0)}")
    return 0 if healthy else 1


def _health_fleet_live(args: argparse.Namespace,
                       config: CMSConfig) -> int:
    """`repro-cms health --fleet`: serve the health workloads as
    isolated tenants and print the aggregate fleet report."""
    from repro.fleet import FleetConfig, FleetSupervisor

    names = (workload_names() if args.all
             else (args.workloads or list(DEFAULT_HEALTH_WORKLOADS)))
    config = replace(config, obs_jsonl_path=None)
    fleet = FleetConfig(
        slice_guest_instructions=20_000,
        telemetry_path=getattr(args, "obs_jsonl", None),
    )
    supervisor = FleetSupervisor(_fleet_specs(names, config), fleet)
    result = supervisor.run()
    print(result.health.describe())
    print()
    print(f"aggregate guest instructions: "
          f"{result.total_guest_instructions}")
    return 0 if result.health.healthy else 1


def _health_offline(args: argparse.Namespace) -> int:
    """`repro-cms health` against a saved session or snapshot file."""
    if getattr(args, "fleet", False) and getattr(args, "session", None):
        return _fleet_health_offline(args)
    if getattr(args, "snapshot", None):
        from repro.cache.persist import SnapshotError, read_snapshot_file

        try:
            payload = read_snapshot_file(args.snapshot)
        except SnapshotError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        stats = payload.get("stats")
        if not stats:
            return _no_obs_data(f"snapshot {args.snapshot}")
        print(f"snapshot  : {args.snapshot}")
        contained = stats.get("contained_errors", 0)
        repairs = stats.get("audit_repairs", 0)
        healthy = contained == 0 and repairs == 0
        print(f"status               "
              f"{'HEALTHY' if healthy else 'CONTAINED'}")
        for key in ("contained_errors", "quarantines", "storm_demotions",
                    "audit_runs", "audit_repairs", "controller_pruned",
                    "snapshot_translations_loaded",
                    "snapshot_translations_dropped"):
            print(f"{key:<30} {stats.get(key, 0):>8}")
        return 0 if healthy else 1
    from repro.obs.telemetry import read_jsonl

    try:
        records = read_jsonl(args.session)
    except OSError as error:
        print(f"error: cannot read session: {error}", file=sys.stderr)
        return 2
    reports = [r for r in records if r.get("kind") == "health"]
    if not reports:
        return _no_obs_data(f"session {args.session}")
    unhealthy = 0
    for report in reports:
        healthy = (report.get("contained_errors", 0) == 0
                   and report.get("audit_repairs", 0) == 0)
        unhealthy += 0 if healthy else 1
        print(f"health record seq={report.get('seq')}: "
              f"{'HEALTHY' if healthy else 'CONTAINED'} "
              f"(contained={report.get('contained_errors', 0)}, "
              f"repairs={report.get('audit_repairs', 0)}, "
              f"quarantines={report.get('quarantines', 0)})")
    print(f"{len(reports) - unhealthy}/{len(reports)} health records clean")
    return 0 if unhealthy == 0 else 1


def cmd_health(args: argparse.Namespace) -> int:
    from repro.cms.system import CodeMorphingSystem

    if getattr(args, "session", None) or getattr(args, "snapshot", None):
        return _health_offline(args)
    config = config_from_args(args)
    if getattr(args, "fleet", False):
        return _health_fleet_live(args, config)
    overrides = {}
    if args.chaos_rate > 0.0:
        overrides["chaos_rate"] = args.chaos_rate
        overrides["chaos_seed"] = args.chaos_seed
    if args.audit_interval is not None:
        overrides["audit_interval"] = args.audit_interval
    if overrides:
        config = replace(config, **overrides)
    names = (workload_names() if args.all
             else (args.workloads or list(DEFAULT_HEALTH_WORKLOADS)))
    unhealthy = []
    for name in names:
        workload = get_workload(name)
        machine, entry = workload.build_machine()
        system = CodeMorphingSystem(machine, config)
        result = system.run(entry,
                            max_instructions=workload.max_instructions)
        report = system.health_report()
        print(f"== {name}: halted={result.halted} "
              f"({result.guest_instructions} guest instructions)")
        print(report.describe())
        print()
        if not report.healthy:
            unhealthy.append(name)
    if unhealthy:
        verdict = ("contained (expected under chaos injection)"
                   if args.chaos_rate > 0.0 else "NOT healthy")
        print(f"{len(unhealthy)}/{len(names)} workloads {verdict}: "
              f"{', '.join(unhealthy)}")
        return 0 if args.chaos_rate > 0.0 else 1
    print(f"all {len(names)} workloads healthy")
    return 0


def build_health_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-health",
        description="Run workloads under CMS, self-audit the runtime "
                    "invariants, and print a health report",
    )
    add_health_flags(parser)
    add_config_flags(parser)
    return parser


def add_health_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workloads", nargs="*",
                        help="workload names (default: "
                             f"{', '.join(DEFAULT_HEALTH_WORKLOADS)})")
    parser.add_argument("--all", action="store_true",
                        help="audit every registered workload")
    parser.add_argument("--chaos-rate", type=float, default=0.0,
                        help="inject internal translator failures at "
                             "this rate (demonstrates containment)")
    parser.add_argument("--chaos-seed", type=int, default=0)
    parser.add_argument("--audit-interval", type=int, default=None,
                        help="dispatches between periodic self-audits "
                             "(default: CMSConfig.audit_interval)")
    parser.add_argument("--session", metavar="PATH", default=None,
                        help="report from a saved JSONL telemetry "
                             "session instead of running")
    parser.add_argument("--snapshot", metavar="PATH", default=None,
                        help="report from a warm-start snapshot file "
                             "instead of running")
    parser.add_argument("--fleet", action="store_true",
                        help="serve the workloads as isolated tenants "
                             "under the fleet supervisor and report "
                             "aggregate fleet health (with --session: "
                             "read fleet-health telemetry records)")


def health_main(argv: list[str] | None = None) -> int:
    return cmd_health(build_health_parser().parse_args(argv))


# ----------------------------------------------------------------------
# repro-cms fleet — multi-tenant serving and the fleet chaos campaign
# ----------------------------------------------------------------------


def cmd_fleet(args: argparse.Namespace) -> int:
    if args.action == "campaign":
        return _fleet_campaign(args)
    return _fleet_run(args)


def _fleet_run(args: argparse.Namespace) -> int:
    """Serve named workloads as fault-isolated tenants to completion."""
    from repro.fleet import FleetConfig, FleetSupervisor

    names = args.workloads or list(DEFAULT_HEALTH_WORKLOADS)
    # The supervisor owns the telemetry file; tenants keep their
    # in-memory metrics but never write to the shared JSONL.
    config = replace(config_from_args(args), obs_jsonl_path=None)
    fleet = FleetConfig(
        slice_guest_instructions=args.slice,
        slice_wall_budget=args.wall_budget,
        snapshot_dir=args.snapshot_dir,
        share_translations=not args.no_share,
        telemetry_path=args.obs_jsonl,
        park_policy=args.park_policy,
    )
    supervisor = FleetSupervisor(_fleet_specs(names, config), fleet)
    result = supervisor.run()
    print(result.health.describe())
    print()
    print(f"rounds               {result.rounds:>8}")
    print(f"guest instructions   {result.total_guest_instructions:>8}")
    print(f"wall seconds         {result.wall_seconds:>8.3f}  "
          f"(aggregate {result.aggregate_ips():,.0f} IPS)")
    print(f"slice p50/p99        {result.latency_us.quantile(0.5):>8.0f}"
          f" / {result.latency_us.quantile(0.99):.0f} µs")
    return 0 if result.health.healthy else 1


def _fleet_campaign(args: argparse.Namespace) -> int:
    """The CI fleet lane: seeded kill/corrupt/storm trials, every
    tenant differentially checked against its solo interpreter run."""
    from repro.fleet.chaos import run_fleet_campaign

    progress = [0]

    def on_trial(report):
        progress[0] += 1
        if not args.quiet and progress[0] % 10 == 0:
            print(f"... trial {progress[0]} (seed {report.seed}, "
                  f"mode {report.mode})")

    result = run_fleet_campaign(
        trials=args.trials, seed=args.seed, tenants=args.tenants,
        max_instructions=args.max_instructions,
        inject_every=args.inject_every, on_trial=on_trial,
    )
    print(f"fleet campaign: {result.trials} trials "
          f"({result.kills} kills, {result.corruptions} corruptions, "
          f"{result.storms} storms; {result.injected_trials} with "
          f"device-fault injection)")
    print(f"  {result.restarts} snapshot restarts, "
          f"{result.poisoned} poisoned entries, "
          f"{result.imported} cross-tenant imports")
    print(f"  {len(result.contaminations)} cross-tenant contaminations, "
          f"{result.uncontained} uncontained exceptions")
    if args.obs_jsonl:
        from repro.obs import TelemetrySink

        with TelemetrySink(args.obs_jsonl, source="fleet") as sink:
            sink.emit("fleet-campaign", {
                "trials": result.trials,
                "seed": args.seed,
                "kills": result.kills,
                "corruptions": result.corruptions,
                "storms": result.storms,
                "restarts": result.restarts,
                "poisoned": result.poisoned,
                "imported": result.imported,
                "contaminations": len(result.contaminations),
                "uncontained": result.uncontained,
            })
    for contamination in result.contaminations:
        print(f"  CONTAMINATION: {contamination}")
    return 0 if result.ok else 1


def add_fleet_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action", choices=("run", "campaign"))
    parser.add_argument("workloads", nargs="*",
                        help="workload names for `run` (default: "
                             f"{', '.join(DEFAULT_HEALTH_WORKLOADS)})")
    parser.add_argument("--slice", type=int, default=20_000,
                        help="guest instructions per tenant slice")
    parser.add_argument("--wall-budget", type=float, default=0.0,
                        help="host-wall seconds per slice before the "
                             "watchdog preempts (0 disables)")
    parser.add_argument("--snapshot-dir", default=None,
                        help="directory for per-tenant last-good "
                             "warm snapshots")
    parser.add_argument("--no-share", action="store_true",
                        help="disable the shared translation service")
    parser.add_argument("--park-policy", choices=("park", "evict"),
                        default="park")
    parser.add_argument("--trials", type=int, default=100,
                        help="campaign trials (default 100)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tenants", type=int, default=3,
                        help="tenants per campaign trial")
    parser.add_argument("--max-instructions", type=int, default=400_000)
    parser.add_argument("--inject-every", type=int, default=4,
                        help="every Nth trial adds asynchronous "
                             "interrupt/DMA injection (0 disables)")
    parser.add_argument("--quiet", action="store_true")
    # --obs-jsonl comes from add_config_flags; the fleet run routes it
    # to the supervisor's sink rather than per-tenant sinks.


# ----------------------------------------------------------------------
# repro-cms scenario — the adversarial guest scenario matrix
# ----------------------------------------------------------------------


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios.matrix import SCENARIOS

    if args.action == "list":
        print(f"{'name':<14} {'pinned':<7} description")
        for scenario in SCENARIOS:
            pinned = "yes" if scenario.pin_interrupts else "no"
            print(f"{scenario.name:<14} {pinned:<7} "
                  f"{scenario.description}")
        return 0

    import json

    if args.action == "fleet":
        from repro.scenarios.fleet import run_scenario_fleet

        names = args.scenarios or ["paging"]
        clean = True
        for name in names:
            report = run_scenario_fleet(
                name, tenants=args.tenants, budget=args.budget,
                seed=args.seed, config=config_from_args(args))
            print(f"== fleet:{name} x{report.tenants}: "
                  f"{'PASS' if report.ok else 'FAIL'}")
            print(f"   rounds {report.rounds}"
                  f"  restarts {report.restarts}"
                  f"  shared imports {report.imported_translations}"
                  f"  uncontained {report.uncontained}")
            for diff in report.divergences:
                print(f"   DIFF {diff}")
            clean = clean and report.ok
        if clean:
            print("all fleet-hosted scenarios differentially clean")
            return 0
        print("FLEET SCENARIO DIVERGENCE — see DIFF lines above",
              file=sys.stderr)
        return 1

    from repro.scenarios.runner import all_passed, run_matrix

    report = run_matrix(
        args.budget, args.seed, names=args.scenarios or None,
        config=config_from_args(args),
        chaos_rate=args.chaos_rate, chaos_seed=args.chaos_seed,
    )
    for name, record in report["scenarios"].items():
        counters = record["counters"]
        dispatch = record["dispatch"]
        print(f"== {name} ({record['title']}): "
              f"{'PASS' if record['pass'] else 'FAIL'}")
        print(f"   instructions {counters.get('guest_instructions', 0):>9}"
              f"  molecules {counters.get('total_molecules', 0):>11}"
              f"  smc invalidations "
              f"{counters.get('smc_invalidations', 0)}")
        print(f"   dispatch p50/p99 {dispatch['p50_instructions']:.1f}/"
              f"{dispatch['p99_instructions']:.1f} instr"
              f"  audit sweeps {record['sweeps']}"
              f"  speedup {record['timing']['speedup']:.2f}x")
        for diff in record["diffs"]:
            print(f"   DIFF {diff}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    if all_passed(report):
        print("all scenarios differentially clean")
        return 0
    print("SCENARIO DIVERGENCE — see DIFF lines above", file=sys.stderr)
    return 1


def add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action", choices=("list", "run", "fleet"))
    parser.add_argument("scenarios", nargs="*",
                        help="scenario names for `run`/`fleet` "
                             "(default: whole matrix / paging)")
    parser.add_argument("--tenants", type=int, default=3,
                        help="tenant count for `fleet` (default 3)")
    parser.add_argument("--budget", type=int, default=120_000,
                        help="guest-instruction sizing budget per "
                             "scenario (default 120000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the BENCH_scenarios report here")
    parser.add_argument("--chaos-rate", type=float, default=0.0,
                        help="inject internal translator failures into "
                             "the CMS leg (containment must hold)")
    parser.add_argument("--chaos-seed", type=int, default=0)


# ----------------------------------------------------------------------
# repro-fuzz — the differential fuzzing campaign driver
# ----------------------------------------------------------------------


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Differential fuzzing: interpreter vs CMS across the "
                    "configuration dial matrix",
    )
    parser.add_argument("--budget", type=int, default=200,
                        help="(program, variant) trials to spend "
                             "(default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--max-instructions", type=int, default=400_000,
                        help="per-run guest instruction cap")
    parser.add_argument("--inject-every", type=int, default=4,
                        help="every Nth program carries asynchronous "
                             "interrupt/DMA injection (0 disables)")
    parser.add_argument("--variants", default=None,
                        help="comma-separated dial variant names "
                             "(default: full matrix)")
    parser.add_argument("--chaos", action="store_true",
                        help="chaos mode: deterministically inject "
                             "internal translator failures into every "
                             "CMS variant; the containment layer must "
                             "keep outcomes identical to the reference")
    parser.add_argument("--chaos-rate", type=float, default=0.02,
                        help="per-operation injection probability in "
                             "chaos mode (default 0.02)")
    parser.add_argument("--corpus-dir", default="tests/corpus",
                        help="where shrunk reproducers are written")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report mismatches without shrinking")
    parser.add_argument("--list-variants", action="store_true",
                        help="print the dial matrix and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-program progress")
    parser.add_argument("--obs-jsonl", metavar="PATH", default=None,
                        help="append a campaign-summary telemetry "
                             "record to PATH")
    return parser


def fuzz_main(argv: list[str] | None = None) -> int:
    from pathlib import Path

    from repro.fuzz import (chaos_matrix, default_matrix,
                            entry_from_program, run_campaign,
                            run_differential, shrink_program, variant_by_name,
                            write_entry)

    args = build_fuzz_parser().parse_args(argv)
    matrix = default_matrix()
    if args.list_variants:
        for variant in matrix:
            print(variant.name)
        return 0
    if args.variants:
        matrix = tuple(variant_by_name(name.strip())
                       for name in args.variants.split(","))
    systems = []
    cms_factory = None
    if args.chaos:
        matrix = chaos_matrix(matrix, args.chaos_rate, args.seed)
        cms_factory = systems.append  # health accounting after the run

    progress = [0]

    def on_program(program):
        progress[0] += 1
        if not args.quiet and progress[0] % 10 == 0:
            print(f"... program {progress[0]} (seed {program.seed})")

    result = run_campaign(
        budget=args.budget, seed=args.seed, variants=matrix,
        inject_every=args.inject_every,
        max_instructions=args.max_instructions,
        on_program=on_program,
        cms_factory=cms_factory,
    )
    print(f"campaign: {result.trials} trials over {result.programs} "
          f"programs ({result.injected_programs} with fault injection), "
          f"{len(result.mismatches)} mismatches")
    if args.obs_jsonl:
        from repro.obs import TelemetrySink

        with TelemetrySink(args.obs_jsonl, source="fuzz") as sink:
            sink.emit("fuzz-campaign", {
                "budget": args.budget,
                "seed": args.seed,
                "trials": result.trials,
                "programs": result.programs,
                "injected_programs": result.injected_programs,
                "mismatches": len(result.mismatches),
                "chaos": bool(args.chaos),
            })
    if args.chaos:
        injected = sum(s.chaos.injected for s in systems
                       if s.chaos is not None)
        contained = sum(s.stats.contained_errors for s in systems)
        quarantines = sum(s.stats.quarantines for s in systems)
        readmitted = sum(s.stats.quarantine_readmissions for s in systems)
        print(f"chaos: {injected} injected faults, {contained} contained "
              f"incidents, {quarantines} quarantines "
              f"({readmitted} re-admitted), 0 uncontained exceptions")
    if result.ok:
        return 0

    for mismatch in result.mismatches:
        print()
        print(mismatch.describe())
        if args.no_shrink:
            continue
        variant = mismatch.variant

        def is_failing(candidate):
            return any(m.variant.name == variant.name for m in
                       run_differential(candidate, (variant,),
                                        args.max_instructions))

        shrunk = shrink_program(mismatch.program, is_failing)
        print(f"shrunk to {shrunk.body_instruction_count()} body "
              f"instructions, {shrunk.iterations} iterations")
        entry = entry_from_program(
            f"fuzz_seed{shrunk.seed}_{variant.name}", shrunk,
            variant=variant.name,
        )
        path = write_entry(Path(args.corpus_dir), entry)
        print(f"reproducer written to {path}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cms",
        description="Transmeta Code Morphing Software reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(func=cmd_list)

    run_parser = sub.add_parser("run", help="run a workload")
    run_parser.add_argument("workload")
    add_config_flags(run_parser)
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser("compare",
                                    help="compare configurations")
    compare_parser.add_argument("workload")
    compare_parser.set_defaults(func=cmd_compare)

    disasm_parser = sub.add_parser("disasm", help="disassemble guest code")
    disasm_parser.add_argument("workload")
    disasm_parser.add_argument("--addr", type=lambda v: int(v, 0),
                               default=None)
    disasm_parser.add_argument("--count", type=int, default=32)
    disasm_parser.set_defaults(func=cmd_disasm)

    trans_parser = sub.add_parser("translations",
                                  help="dump hot translations")
    trans_parser.add_argument("workload")
    trans_parser.add_argument("--count", type=int, default=3)
    add_config_flags(trans_parser)
    trans_parser.set_defaults(func=cmd_translations)

    trace_parser = sub.add_parser("trace", help="dump the event trace")
    trace_parser.add_argument("workload")
    trace_parser.add_argument("--count", type=int, default=60)
    add_config_flags(trace_parser)
    trace_parser.set_defaults(func=cmd_trace)

    top_parser = sub.add_parser(
        "top", help="per-region hot-spot profile (forces --obs)")
    top_parser.add_argument("workload", nargs="?", default=None)
    top_parser.add_argument("--count", type=int, default=10)
    top_parser.add_argument("--sort", default="instructions",
                            choices=list(SORT_KEYS))
    top_parser.add_argument("--session", metavar="PATH", default=None,
                            help="rank regions from a saved JSONL "
                                 "telemetry session instead of running")
    top_parser.add_argument("--snapshot", metavar="PATH", default=None,
                            help="rank regions from a warm-start "
                                 "snapshot file instead of running")
    add_config_flags(top_parser)
    top_parser.set_defaults(func=cmd_top)

    snapshot_parser = sub.add_parser(
        "snapshot", help="save / load-check / inspect warm-start "
                         "snapshots")
    snapshot_parser.add_argument("action",
                                 choices=("save", "load", "inspect"))
    snapshot_parser.add_argument("path", help="snapshot file")
    snapshot_parser.add_argument("workload", nargs="?", default=None,
                                 help="workload (required for "
                                      "save/load)")
    add_config_flags(snapshot_parser)
    snapshot_parser.set_defaults(func=cmd_snapshot)

    health_parser = sub.add_parser(
        "health", help="self-audit the runtime and report health")
    add_health_flags(health_parser)
    add_config_flags(health_parser)
    health_parser.set_defaults(func=cmd_health)

    fleet_parser = sub.add_parser(
        "fleet", help="multi-tenant serving under the fault-isolated "
                      "fleet supervisor / seeded fleet chaos campaign")
    add_fleet_flags(fleet_parser)
    add_config_flags(fleet_parser)
    fleet_parser.set_defaults(func=cmd_fleet)

    scenario_parser = sub.add_parser(
        "scenario", help="adversarial guest scenario matrix: run each "
                         "class differentially and report pass + perf")
    add_scenario_flags(scenario_parser)
    add_config_flags(scenario_parser)
    scenario_parser.set_defaults(func=cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
