"""Command-line interface.

Usage::

    python -m repro list
    python -m repro run --benchmark RD --design Throughput-Effective
    python -m repro compare --benchmark RD --designs TB-DOR,CP-CR-4VC
    python -m repro area
    python -m repro power --benchmark RD --design Throughput-Effective
    python -m repro sweep --design TB-DOR --rates 0.01,0.03,0.05
    python -m repro explore --preset figure2 --jobs 4 --out results/figure2
    python -m repro explore --preset power --out results/power
    python -m repro run --benchmark RD --trace --sample-interval 100 \
        --telemetry-out out/rd
    python -m repro report out/rd --heatmaps

The CLI is a thin veneer over the public API; everything it prints can be
obtained programmatically (see examples/).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from .area.chip import design_noc_area, throughput_effectiveness
from .core.builder import NAMED_DESIGNS, checked_variant, design_by_name
from .experiments import compare_designs, load_latency_curves
from .noc.traffic import named_pattern_factory
from .obs import log as obs_log
from .parallel import log_progress
from .system.accelerator import build_chip, perfect_chip
from .telemetry import (COMPONENTS, TelemetryHub, TelemetrySpec, read_jsonl,
                        render_summary_heatmaps)
from .workloads.profiles import PROFILES, profile


def _design(name: str):
    """Design lookup that turns the unknown-name KeyError (which carries
    the did-you-mean hint) into a clean CLI error instead of a traceback."""
    try:
        return design_by_name(name)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None


def _cmd_list(_args) -> int:
    print("network designs:")
    for name, design in sorted(NAMED_DESIGNS.items()):
        parts = [design.placement, design.routing,
                 f"{design.channel_width}B"]
        if design.half_routers:
            parts.append("half-routers")
        if design.double_network:
            parts.append(f"double({design.slice_mode})")
        if design.mc_inject_ports > 1:
            parts.append(f"{design.mc_inject_ports} inj ports")
        print(f"  {name:26s} {' · '.join(parts)}")
    print("\nbenchmarks (Table I):")
    for p in PROFILES:
        print(f"  {p.abbr:4s} [{p.expected_group}] {p.name}")
    return 0


def _print_result(result) -> None:
    print(f"benchmark           {result.benchmark}")
    print(f"network             {result.network}")
    print(f"IPC                 {result.ipc:.2f} (scalar/core clock)")
    print(f"accepted traffic    "
          f"{result.accepted_bytes_per_cycle_per_node:.2f} B/cycle/node")
    print(f"MC injection rate   {result.mc_injection_rate_flits:.3f} "
          f"flits/cycle/MC")
    print(f"MC reply stall      {result.mc_stall_fraction:.1%}")
    print(f"packet latency      {result.mean_packet_latency:.1f} cycles "
          f"(network {result.mean_network_latency:.1f})")
    print(f"DRAM row hits       {result.dram_row_hit_rate:.1%}  "
          f"efficiency {result.dram_efficiency:.1%}")
    print(f"L1 / L2 hit rate    {result.l1_hit_rate:.1%} / "
          f"{result.l2_hit_rate:.1%}")
    if result.latency_max:
        print(f"latency tail        p50 {result.latency_p50:.0f} / "
              f"p95 {result.latency_p95:.0f} / "
              f"p99 {result.latency_p99:.0f} cycles "
              f"(max {result.latency_max:.0f})")


def _telemetry_spec(args) -> Optional[TelemetrySpec]:
    """Fold --trace / --sample-interval / --telemetry-out into a spec."""
    spec = TelemetrySpec(trace=args.trace,
                         sample_interval=args.sample_interval,
                         out_dir=args.telemetry_out)
    return spec if spec.enabled else None


def _task_telemetry(args) -> Optional[TelemetrySpec]:
    """Telemetry spec for task-based commands (compare/sweep), where the
    simulations run in worker processes and artifacts on disk are the only
    way to get the data back."""
    spec = _telemetry_spec(args)
    if spec is not None and spec.out_dir is None:
        raise SystemExit("--telemetry-out DIR is required with --trace/"
                         "--sample-interval here: tasks run in worker "
                         "processes and write their artifacts there")
    return spec


def _print_decomposition(trace: dict) -> None:
    """Figure 11's per-class latency decomposition from per-hop traces.
    Components telescope: they sum exactly to the mean packet latency."""
    print(f"\nlatency decomposition ({trace['traced_packets']} packets "
          f"traced, {trace['retained_traces']} full traces retained)")
    widths = {c: max(len(c), 7) for c in COMPONENTS}
    head = " ".join(f"{c:>{widths[c]}s}" for c in COMPONENTS)
    print(f"  {'class':8s} {'packets':>8s} {'latency':>8s} {head}")
    for name, agg in trace["per_class"].items():
        comps = agg["mean_components"]
        row = " ".join(f"{comps[c]:{widths[c]}.1f}" for c in COMPONENTS)
        print(f"  {name:8s} {agg['packets']:8d} "
              f"{agg['mean_latency']:8.1f} {row}")
        total = agg["mean_latency"]
        if total:
            queued = comps["queue"]
            print(f"  {'':8s} queued {queued:.1f} ({queued / total:.0%})  "
                  f"in-network {total - queued:.1f} "
                  f"({(total - queued) / total:.0%})")


def _print_telemetry(hub: TelemetryHub) -> None:
    """Post-run telemetry block for the `run` command."""
    print()
    print(hub.profiler.format())
    if hub.tracer is not None:
        _print_decomposition(hub.tracer.summary())
    if hub.spec.out_dir is not None:
        written = hub.write_artifacts()
        print()
        for name, path in sorted(written.items()):
            print(f"wrote {name:12s} {path}")


def _apply_checks(design, args):
    """Fold the --check / --watchdog-cycles flags into a design."""
    if not (args.check or args.watchdog_cycles):
        return design
    return checked_variant(
        design,
        check_interval=args.check_interval if args.check else 0,
        watchdog_cycles=args.watchdog_cycles)


def _cmd_run(args) -> int:
    prof = profile(args.benchmark.upper())
    if args.design.lower() == "perfect":
        if args.watchdog_cycles:
            print("note: --watchdog-cycles ignored for the perfect network "
                  "(no flow control to watch)", file=sys.stderr)
        chip = perfect_chip(prof, seed=args.seed)
        if args.check:
            # No flit/credit/VC state to audit: the chip's request
            # conservation audit, at the same cadence.
            chip.enable_checks(args.check_interval)
    else:
        design = _apply_checks(_design(args.design), args)
        chip = build_chip(prof, design=design, seed=args.seed)
    spec = _telemetry_spec(args)
    hub = None
    if spec is not None:
        hub = TelemetryHub(spec)
        hub.attach_chip(chip)
    result = chip.run(warmup=args.warmup, measure=args.measure)
    _print_result(result)
    if args.check:
        problems = chip.audit()
        if problems:
            print("invariant audit FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print("invariant audit       clean (end state)")
    if hub is not None:
        _print_telemetry(hub)
    return 0


def _cmd_compare(args) -> int:
    prof = profile(args.benchmark.upper())
    names = [n.strip() for n in args.designs.split(",")]
    telemetry = _task_telemetry(args)
    comparison = compare_designs(
        [_apply_checks(_design(n), args) for n in names],
        profiles=[prof],
        warmup=args.warmup, measure=args.measure, seed=args.seed,
        jobs=args.jobs, cache=args.cache,
        progress=log_progress if args.progress else None,
        telemetry=telemetry)
    base = comparison.results[names[0]][prof.abbr]
    print(f"{'design':26s} {'IPC':>8s} {'speedup':>8s} {'IPC/mm2':>9s}")
    for name in names:
        result = comparison.results[name][prof.abbr]
        area = design_noc_area(design_by_name(name)).total_chip
        te = throughput_effectiveness(result.ipc, area)
        print(f"{name:26s} {result.ipc:8.2f} "
              f"{result.ipc / base.ipc - 1:+8.1%} {te:9.4f}")
    if telemetry is not None:
        print(f"telemetry artifacts under {telemetry.out_dir} "
              f"(one directory per task; see `repro report`)")
    return 0


def _cmd_area(args) -> int:
    names = ([args.design] if args.design
             else sorted(NAMED_DESIGNS))
    print(f"{'design':26s} {'routers':>8s} {'links':>7s} {'NoC %':>7s} "
          f"{'chip mm2':>9s}")
    for name in names:
        a = design_noc_area(_design(name))
        print(f"{name:26s} {a.router_sum:8.2f} {a.link_sum:7.2f} "
              f"{a.overhead_fraction:7.2%} {a.total_chip:9.2f}")
    return 0


def _cmd_power(args) -> int:
    """Per-component NoC power for one design on one benchmark, priced
    across technology nodes (`repro power`)."""
    from .power import ActivityCounts, design_power
    from .power.tech import tech_node

    try:
        nodes = [int(n) for n in args.nodes.split(",")]
        for nm in nodes:
            tech_node(nm)
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    prof = profile(args.benchmark.upper())
    design = _design(args.design)
    chip = build_chip(prof, design=design, seed=args.seed)
    result = chip.run(warmup=args.warmup, measure=args.measure)
    activity = ActivityCounts.from_result(result)
    reports = {nm: design_power(design, activity, node=nm,
                                ipc=result.ipc) for nm in nodes}

    base = reports[nodes[0]]
    print(f"benchmark           {result.benchmark}")
    print(f"design              {design.name}")
    print(f"IPC                 {result.ipc:.2f}  over "
          f"{activity.cycles} icnt cycles")
    print(f"activity            {activity.crossbar_traversals} crossbar · "
          f"{activity.buffer_reads} rd · {activity.buffer_writes} wr · "
          f"{activity.link_flit_hops} link hops")
    print(f"\ncomponent breakdown at {base.tech_nm} nm "
          f"({base.frequency_ghz:.3f} GHz):")
    total = base.total_w
    for label, watts in (("crossbar", base.crossbar_w),
                         ("buffers", base.buffer_w),
                         ("allocators", base.allocator_w),
                         ("links", base.link_w),
                         ("leakage (routers)", base.leak_routers_w),
                         ("leakage (links)", base.leak_links_w)):
        share = watts / total if total else 0.0
        print(f"  {label:18s} {watts * 1e3:8.2f} mW  {share:6.1%}")
    print(f"  {'total':18s} {total * 1e3:8.2f} mW")
    print(f"\n{'node':>5s} {'GHz':>6s} {'dynamic':>9s} {'leakage':>9s} "
          f"{'total':>9s} {'pJ/flit':>8s} {'IPC/W':>8s}")
    for nm in nodes:
        r = reports[nm]
        ipw = f"{r.ipc_per_watt:8.1f}" if r.ipc_per_watt else f"{'-':>8s}"
        print(f"{nm:4d}n {r.frequency_ghz:6.3f} "
              f"{r.dynamic_w * 1e3:7.2f}mW {r.leakage_w * 1e3:7.2f}mW "
              f"{r.total_w * 1e3:7.2f}mW {r.energy_per_flit_pj:8.1f} "
              f"{ipw}")
    return 0


def _cmd_sweep(args) -> int:
    design = _apply_checks(_design(args.design), args)
    rates = [float(r) for r in args.rates.split(",")]
    pattern_name = "hotspot" if args.hotspot else "uniform"
    factory = named_pattern_factory(pattern_name)
    telemetry = _task_telemetry(args)
    (curve,) = load_latency_curves(
        [design], rates, factory, pattern_name=pattern_name,
        warmup=args.warmup, measure=args.measure, seed=args.seed,
        jobs=args.jobs, progress=log_progress if args.progress else None,
        telemetry=telemetry)
    print(f"open-loop sweep of {design.name} ({pattern_name} many-to-few)")
    print(f"{'rate':>8s} {'latency':>9s} {'p99':>8s} {'accepted':>9s} "
          f"{'saturated':>10s}")
    for point in curve.points:
        latency = ("inf" if point.mean_latency == float("inf")
                   else f"{point.mean_latency:.1f}")
        p99 = f"{point.latency_p99:.0f}" if point.packets_measured else "-"
        print(f"{point.offered_rate:8.3f} {latency:>9s} {p99:>8s} "
              f"{point.accepted_flits_per_cycle:9.2f} "
              f"{'yes' if point.saturated else 'no':>10s}")
    if telemetry is not None:
        print(f"telemetry artifacts under {telemetry.out_dir} "
              f"(one directory per task; see `repro report`)")
    return 0


def _cmd_explore(args) -> int:
    """Design-space exploration (`repro explore --preset figure2`)."""
    from . import dse
    try:
        spec = dse.preset(args.preset)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)

    raw = spec.space.size()
    print(f"exploring preset '{spec.name}': {raw} raw points, "
          f"mix {','.join(spec.mix)}, seed {spec.seed} "
          f"({spec.seed_policy})")
    result = dse.explore(spec, jobs=args.jobs, cache=args.cache,
                         progress=log_progress if args.progress else None)

    if result.rejected:
        rules: dict = {}
        for point in result.rejected:
            for violation in point["violations"]:
                rules[violation["rule"]] = rules.get(violation["rule"],
                                                     0) + 1
        hist = "  ".join(f"{rule} x{n}" for rule, n in sorted(
            rules.items(), key=lambda kv: (-kv[1], kv[0])))
        print(f"rejected {len(result.rejected)} illegal points up front: "
              f"{hist}")
    host = result.host or {}
    for stage in host.get("stages", []):
        print(f"  {stage['stage']:8s} {stage['evaluated']:3d} -> "
              f"{stage['kept']:3d} kept   {stage['tasks']} tasks "
              f"({stage['executed']} run, {stage['cached']} cached, "
              f"{stage['seconds']:.1f}s)")

    base_node = result.tech_nodes[0]
    print(f"\n{'rank':>4s} {'design':26s} {'fidelity':9s} {'HM IPC':>8s} "
          f"{'NoC mm2':>8s} {'chip mm2':>9s} {'IPC/mm2':>8s} "
          f"{'NoC mW':>7s} {'IPC/W':>7s} {'Pareto':>7s}")
    for rank, name in enumerate(result.ranking, start=1):
        c = result[name]
        hm = f"{c.hm_ipc:8.1f}" if c.hm_ipc is not None else f"{'-':>8s}"
        te = (f"{c.throughput_effectiveness:8.4f}"
              if c.throughput_effectiveness is not None else f"{'-':>8s}")
        mw = (f"{c.noc_power_w * 1e3:7.1f}"
              if c.noc_power_w is not None else f"{'-':>7s}")
        ipw = (f"{c.ipc_per_watt:7.1f}"
               if c.ipc_per_watt is not None else f"{'-':>7s}")
        mark = ("*" if c.on_frontier else "") + \
            ("W" if c.on_frontier3d and not c.on_frontier else "")
        print(f"{rank:4d} {name:26s} {c.fidelity:9s} {hm} "
              f"{c.noc_area_mm2:8.2f} {c.chip_area_mm2:9.1f} {te} "
              f"{mw} {ipw} {mark:>7s}")
    print(f"\nPareto frontier (HM IPC vs NoC mm2): "
          f"{', '.join(result.frontier) or '(none)'}")
    print(f"Pareto frontier (IPC, mm2, W @ {base_node} nm): "
          f"{', '.join(result.frontier3d) or '(none)'}")
    if len(result.tech_nodes) > 1:
        print(f"technology sweep: "
              f"{', '.join(f'{n} nm' for n in result.tech_nodes)} "
              f"(see tech_nodes.csv with --out)")

    if args.out:
        written = result.write_artifacts(args.out)
        for name in sorted(written):
            print(f"wrote {name:17s} {written[name]}")
    return 0


def _cmd_report(args) -> int:
    """Offline view of a telemetry artifact directory."""
    root = Path(args.dir)
    summary_path = root / "summary.json"
    if not summary_path.is_file():
        print(f"error: no summary.json under {root} — point `report` at "
              f"one task's telemetry directory", file=sys.stderr)
        return 1
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    print(f"telemetry report: {root}")
    host = summary.get("host", {})
    if host.get("simulated_cycles"):
        print(f"host: {host['simulated_cycles']} cycles in "
              f"{host['wall_seconds']:.2f}s "
              f"({host['cycles_per_second']:.0f} cycles/s)")
    for net in summary.get("networks", []):
        lat, netlat = net["latency"], net["network_latency"]
        print(f"\nnetwork {net['name']}: {net['cycles']} cycles, "
              f"{net['mesh'][0]}x{net['mesh'][1]} mesh")
        print(f"  latency   p50 {lat['p50']:.0f}  p95 {lat['p95']:.0f}  "
              f"p99 {lat['p99']:.0f}  max {lat['max']:.0f}  "
              f"({lat['count']} packets)")
        print(f"  network   p50 {netlat['p50']:.0f}  "
              f"p95 {netlat['p95']:.0f}  p99 {netlat['p99']:.0f}  "
              f"max {netlat['max']:.0f}")
        activity = net.get("activity")
        if activity:
            print(f"  activity  {activity['crossbar_traversals']} "
                  f"crossbar · {activity['buffer_reads']} rd · "
                  f"{activity['buffer_writes']} wr · "
                  f"{activity['link_flit_hops']} link hops  "
                  f"(power-model counters; price with `repro power`)")
    trace = summary.get("trace")
    if trace and trace.get("per_class"):
        _print_decomposition(trace)
        routes = trace.get("per_route", [])[:args.routes]
        if routes:
            print("\nhottest routes (by packets)")
            print(f"  {'src':>6s} {'dest':>6s} {'class':8s} "
                  f"{'packets':>8s} {'latency':>8s} {'hops':>5s}")
            for r in routes:
                print(f"  {r['src']:>6s} {r['dest']:>6s} {r['class']:8s} "
                      f"{r['packets']:8d} {r['mean_latency']:8.1f} "
                      f"{r['mean_hops']:5.1f}")
    samples_path = root / "samples.jsonl"
    if samples_path.is_file():
        header, rows = read_jsonl(samples_path)
        net_rows = [r for r in rows if r.get("kind") == "network"]
        chip_rows = [r for r in rows if r.get("kind") == "chip"]
        print(f"\nsamples: {len(rows)} rows, every "
              f"{header.get('interval')} cycles")
        if net_rows:
            peak = max(net_rows, key=lambda r: r["link_util_peak"])
            print(f"  peak link utilization   {peak['link_util_peak']:.3f} "
                  f"flits/cycle at cycle {peak['cycle']} "
                  f"[{peak['network']}]")
            busy = max(net_rows, key=lambda r: r["buffer_occupancy"])
            print(f"  peak buffer occupancy   {busy['buffer_occupancy']} "
                  f"flits at cycle {busy['cycle']} [{busy['network']}]")
        if chip_rows:
            m = max(chip_rows, key=lambda r: r["mshr_occupancy"])
            print(f"  peak MSHR occupancy     {m['mshr_occupancy']} "
                  f"at cycle {m['cycle']}")
            g = max(chip_rows, key=lambda r: r["mc_gated"])
            if g["mc_gated"]:
                print(f"  peak gated MCs          {g['mc_gated']} "
                      f"at cycle {g['cycle']}")
    if args.heatmaps:
        for net in summary.get("networks", []):
            print()
            print(render_summary_heatmaps(net))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Throughput-effective NoC reproduction (MICRO 2010)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list designs and benchmarks")

    def sim_args(p):
        p.add_argument("--warmup", type=int, default=500)
        p.add_argument("--measure", type=int, default=1500)
        p.add_argument("--seed", type=int, default=11)
        check_args(p)
        telemetry_args(p)

    def check_args(p):
        p.add_argument("--check", action="store_true",
                       help="audit flit/credit/VC invariants while "
                            "simulating (read-only; results unchanged)")
        p.add_argument("--check-interval", type=int, default=64,
                       metavar="N", help="cycles between audits "
                       "(with --check; default 64)")
        p.add_argument("--watchdog-cycles", type=int, default=0,
                       metavar="K",
                       help="raise with a full state dump if no flit "
                            "moves for K non-idle cycles (0 = off)")

    def telemetry_args(p):
        p.add_argument("--trace", action="store_true",
                       help="record per-hop packet traces and latency "
                            "decomposition (read-only; results unchanged)")
        p.add_argument("--sample-interval", type=int, default=0,
                       metavar="N",
                       help="snapshot buffer/link/MSHR/DRAM state every "
                            "N cycles (0 = off)")
        p.add_argument("--telemetry-out", default=None, metavar="DIR",
                       help="write trace.jsonl / samples.jsonl+csv / "
                            "heatmaps.txt / summary.json under DIR")

    run = sub.add_parser("run", help="closed-loop run of one benchmark")
    run.add_argument("--benchmark", required=True)
    run.add_argument("--design", default="TB-DOR",
                     help="design name or 'perfect'")
    sim_args(run)

    def positive_int(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
        return value

    def parallel_args(p):
        p.add_argument("--jobs", type=positive_int, default=None,
                       help="worker processes (default: REPRO_JOBS or 1)")
        p.add_argument("--progress", action="store_true",
                       help="print per-task wall-clock progress to stderr")

    cmp_ = sub.add_parser("compare", help="compare designs on one benchmark")
    cmp_.add_argument("--benchmark", required=True)
    cmp_.add_argument("--designs", required=True,
                      help="comma-separated design names (first = baseline)")
    cmp_.add_argument("--cache", default=None, metavar="DIR",
                      help="on-disk result cache directory")
    sim_args(cmp_)
    parallel_args(cmp_)

    area = sub.add_parser("area", help="area model (Table VI)")
    area.add_argument("--design")

    power = sub.add_parser(
        "power", help="per-component NoC power across technology nodes")
    power.add_argument("--benchmark", required=True)
    power.add_argument("--design", default="TB-DOR")
    power.add_argument("--nodes", default="65,45,32,22", metavar="NM,...",
                       help="technology nodes to price, first = breakdown "
                            "node (default 65,45,32,22)")
    power.add_argument("--warmup", type=int, default=500)
    power.add_argument("--measure", type=int, default=1500)
    power.add_argument("--seed", type=int, default=11)

    sweep = sub.add_parser("sweep", help="open-loop load-latency sweep")
    sweep.add_argument("--design", default="TB-DOR")
    sweep.add_argument("--rates", default="0.005,0.02,0.04,0.06")
    sweep.add_argument("--hotspot", action="store_true")
    sweep.add_argument("--warmup", type=int, default=800)
    sweep.add_argument("--measure", type=int, default=2500)
    sweep.add_argument("--seed", type=int, default=7)
    check_args(sweep)
    telemetry_args(sweep)
    parallel_args(sweep)

    explore = sub.add_parser(
        "explore", help="design-space exploration (screen/halve/confirm)")
    explore.add_argument("--preset", default="smoke",
                         help="figure2 | smoke | extended | power "
                              "(default: smoke)")
    explore.add_argument("--out", default=None, metavar="DIR",
                         help="write exploration.json / candidates.csv / "
                              "frontier.csv / tech_nodes.csv / host.json "
                              "under DIR")
    explore.add_argument("--cache", default=None, metavar="DIR",
                         help="on-disk result cache directory")
    explore.add_argument("--seed", type=int, default=None,
                         help="override the preset's base seed")
    parallel_args(explore)

    report = sub.add_parser(
        "report", help="inspect a telemetry artifact directory")
    report.add_argument("dir", help="directory holding summary.json "
                        "(written by --telemetry-out)")
    report.add_argument("--routes", type=int, default=5, metavar="N",
                        help="show the N hottest routes (default 5)")
    report.add_argument("--heatmaps", action="store_true",
                        help="re-render link/node heatmaps from the "
                             "summary")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "area": _cmd_area,
    "power": _cmd_power,
    "sweep": _cmd_sweep,
    "explore": _cmd_explore,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        obs_log.log_format()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
