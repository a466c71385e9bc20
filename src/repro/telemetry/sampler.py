"""Time-series sampling of NoC and memory-system state.

Every ``interval`` cycles the sampler snapshots, per attached network:
per-router buffer occupancy, per-channel link utilization (flits moved in
the window, not cumulative), source-queue depth, and the in-flight /
source-queued packet split; and, when attached to a closed-loop chip:
per-core MSHR occupancy, per-MC input-queue depth, reply backlog, the
instantaneous gated/stall state, and windowed DRAM row-hit rate.

Rows are plain dicts (columnar-friendly: scalar columns plus sparse
``"x,y"``-keyed maps) exported as JSONL and CSV by the hub.  Sampling is
read-only and runs outside the per-cycle hot path — the hub's ``on_cycle``
does one modulo check per cycle when enabled and nothing at all when not.
"""

from __future__ import annotations

from typing import Dict, List

from .export import coord_key, link_key


class TimeSeriesSampler:
    """Snapshots simulation state at a fixed cycle interval."""

    def __init__(self, interval: int) -> None:
        if interval < 1:
            raise ValueError("sample interval must be >= 1 cycle")
        self.interval = interval
        self.rows: List[dict] = []
        self._networks: List[object] = []
        self._chip = None
        #: id(channel) -> flits_carried at the previous sample.
        self._prev_carried: Dict[int, int] = {}
        #: id(mc) -> (row_hits, row_misses) at the previous sample.
        self._prev_rows: Dict[int, tuple] = {}

    # -- wiring --------------------------------------------------------------

    def attach_network(self, network) -> None:
        """Attach one physical :class:`~repro.noc.network.MeshNetwork`."""
        self._networks.append(network)

    def attach_chip(self, chip) -> None:
        """Attach a closed-loop :class:`~repro.system.accelerator.\
Accelerator` for memory-system columns."""
        self._chip = chip

    # -- sampling ------------------------------------------------------------

    def sample(self, cycle: int) -> None:
        """Record one row per attached network (plus one chip row)."""
        for net in self._networks:
            self.rows.append(self._network_row(net, cycle))
        if self._chip is not None:
            self.rows.append(self._chip_row(self._chip, cycle))

    def _network_row(self, net, cycle: int) -> dict:
        router_occupancy = {}
        vc_occupancy: Dict[str, int] = {}
        for coord, router in net.routers.items():
            if router.occupancy:
                router_occupancy[coord_key(coord)] = router.occupancy
            for vcs in router.in_ports.values():
                for vc_idx, state in enumerate(vcs):
                    n = len(state.buffer)
                    if n:
                        label = net.vc_config.describe_vc(vc_idx)
                        vc_occupancy[label] = vc_occupancy.get(label, 0) + n
        link_util = {}
        peak = 0.0
        for channel in net.channels:
            key = id(channel)
            prev = self._prev_carried.get(key, 0)
            moved = channel.flits_carried - prev
            self._prev_carried[key] = channel.flits_carried
            if moved:
                util = moved / self.interval
                link = link_key(channel.src_router.coord,
                                channel.dst_router.coord)
                link_util[link] = util
                if util > peak:
                    peak = util
        source_occupancy = {
            coord_key(coord): occ
            for coord, occ in sorted(net._source_occupancy.items())
            if occ
        }
        stats = net.stats
        return {
            "kind": "network",
            "cycle": cycle,
            "network": net.name,
            "buffer_occupancy": sum(router_occupancy.values()),
            "source_queue_flits": net._source_flits,
            "packets_in_flight": stats.packets_in_flight,
            "packets_source_queued": stats.packets_source_queued,
            "link_util_peak": peak,
            "link_util_mean": (sum(link_util.values()) / len(net.channels)
                               if net.channels else 0.0),
            "router_occupancy": router_occupancy,
            "vc_occupancy": vc_occupancy,
            "source_occupancy": source_occupancy,
            "link_utilization": link_util,
        }

    def _chip_row(self, chip, cycle: int) -> dict:
        mshr_total = 0
        mshr_by_core = {}
        for core in chip.cores:
            occ = core.mshrs.occupancy
            mshr_total += occ
            if occ:
                mshr_by_core[coord_key(core.coord)] = occ
        mc_rows = {}
        gated = 0
        row_hits_window = 0
        row_total_window = 0
        for mc in chip.mcs:
            key = id(mc)
            hits, misses = mc.dram.row_hits, mc.dram.row_misses
            prev_hits, prev_misses = self._prev_rows.get(key, (0, 0))
            self._prev_rows[key] = (hits, misses)
            row_hits_window += hits - prev_hits
            row_total_window += (hits - prev_hits) + (misses - prev_misses)
            if mc.gated:
                gated += 1
            mc_rows[coord_key(mc.coord)] = {
                "input_queue": mc.input_queue_depth,
                "reply_backlog": mc.reply_backlog_depth,
                "gated": mc.gated,
                "blocked_cycles": mc.blocked_cycles,
                "dram_queue": mc.dram.queue_occupancy,
            }
        return {
            "kind": "chip",
            "cycle": cycle,
            "mshr_occupancy": mshr_total,
            "mc_gated": gated,
            "dram_row_hit_rate_window": (
                row_hits_window / row_total_window
                if row_total_window else 0.0),
            "mshr_by_core": mshr_by_core,
            "mc": mc_rows,
        }
