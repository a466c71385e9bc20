"""The compiled core cluster: every SIMT core of one chip, stepped in C.

An :class:`~repro.system.accelerator.Accelerator` starts a
:class:`CoreCluster` at its first ``step`` (never at construction: a
chip that is built and dropped unstepped allocates nothing here).  The
cluster keeps every core's state in flat C arrays (``_core_kernel.c``),
a line-for-line port of ``SimtCore.step`` with ``_issue_global`` and its
stall memo, ``SimtCore.on_reply``, the round-robin warp scheduler, the
L1 (``SetAssociativeCache``), the MSHR file (``MshrFile``) and
``SyntheticKernel.next_instruction`` with every warp's address stream
and MT19937 generator.  ``SimtCore`` and ``SyntheticKernel`` stay the
bit-identity oracle behind ``REPRO_REFERENCE_STEPPER=1`` and
``use_reference_stepper()``; tests/test_stepper_equivalence.py compares
the two.

Ownership.  The cluster owns, per warp, ``ready_at``, ``pending_loads``,
``retired``, ``finished``, the instruction not yet issued and the stall
memo; per core, the scheduler pointer, the issue-busy time, ``wake`` and
the counters; the L1 tags with LRU clocks and dirty bits; the MSHR
entries with their waiters; and each warp's stream (generator state,
recent-line ring, grid-stride cursor, the core's region).  On a mesh
Python keeps the ``Packet`` objects, the ``outbound`` deques and the
network; the MCs and DRAM run in the same extension, owned by
:mod:`repro.mem.nodes`.  The chip owns the cluster; the network's reply
handlers hold it weakly, so a dropped chip frees the kernel state at
once.

Each interconnect cycle makes one kernel call, :meth:`CoreCluster.step`,
that runs every due core through all of that cycle's core ticks and
returns the new read requests in issue order; Python builds each packet
exactly as ``SimtCore._send_read_request`` does.  Each reply makes one
more (MSHR complete, L1 fill, waiter release), and Python builds the
write-back packet it returns, if any.

On an ideal network the extension steps the network too
(:mod:`repro.noc.ideal`), and :meth:`CoreCluster.route` hands it the
requests: the kernel routes each one as ``AddressMap`` does into a record
on its core's outbound FIFO, which the network drains, and the network
delivers replies into the cluster without Python; ``step`` and
``finished`` are then the kernel's own calls, and no packet is built.

Seeding.  The streams draw from CPython's MT19937, ported to C together
with ``random()``, ``_randbelow`` and ``randint``.  Each warp's
generator is seeded in C from its ``derive_seed`` value at the warp's
first instruction, as the reference does; the seed values themselves
are computed in Python when the cluster starts, by ``derive_seeds``,
which hashes the labels' shared prefix once.

Readers see objects.  Reading ``Accelerator.cores`` first exports the
counters, wake, issue-busy time, scheduler pointer, warps and MSHR
entries (and, on an ideal network, the outbound FIFO as packets) into
the ``SimtCore`` objects, if the cluster has stepped or taken a reply
since the last export, so an edit made to the objects after an export is
what the next reader sees.  L1 lines, the instruction not yet issued and
stream state are not exported.  :meth:`CoreCluster.counters` reads the
sums a measurement needs without an export.

Build.  :data:`KERNEL` builds, caches and loads the extension through
the package's shared loader (:mod:`repro.native`).  If it cannot be
built or loaded, chips run the reference (the Python cores, MCs and
DRAM channels) and one warning is logged.
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import partial
from pathlib import Path
from typing import List, Optional

from ..mem.mshr import MshrEntry
from ..native import CompiledKernel
from ..parallel import derive_seeds
from ..workloads.generator import SyntheticKernel
from .core import MemoryToken, SimtCore
from .instruction import InstrKind, WarpInstruction

#: State layout version (mirrors ``_core_kernel.c``).
LAYOUT = 4

KERNEL = CompiledKernel(Path(__file__).with_name("_core_kernel.c"),
                        "_core_kernel", LAYOUT, "core",
                        event="gpu.kernel_unavailable",
                        fallback="chips run the reference Python cores, "
                        "MCs and DRAM channels")

#: The kernel's instruction kinds, by code.
KINDS = (InstrKind.ALU, InstrKind.SHARED, InstrKind.GLOBAL_LOAD,
         InstrKind.GLOBAL_STORE)

#: Programs a cluster has taken over: their streams live in that
#: cluster, so a second chip sharing one must run the reference.
_CLAIMED: "weakref.WeakSet[SyntheticKernel]" = weakref.WeakSet()


class CoreCluster:
    """The cores of one chip on the compiled kernel."""

    def __init__(self, module, cores: List[SimtCore],
                 program: SyntheticKernel) -> None:
        self._cores = cores
        core = cores[0]
        config = core.config
        profile = program.profile
        nwarps = len(core.warps)
        l1 = core.l1.config
        simd_full = profile.simd_efficiency >= 1.0
        # SyntheticKernel._sample_active_threads' and _sample_divergence's
        # bounds, which depend only on the profile.
        mean = 32 * profile.simd_efficiency
        act_lo, act_hi = ((32, 32) if simd_full else
                          (max(1, int(mean * 0.5)),
                           min(32, int(mean * 1.5) + 1)))
        div_hi = 2 * profile.divergence - 1 if profile.divergence > 1 else 0
        ipw = program.instructions_per_warp
        seed = program.seed
        self._c = module.new(
            (len(cores), nwarps, config.alu_latency, config.shared_latency,
             config.l1_hit_latency, config.store_latency,
             config.issue_interval, l1.num_sets, l1.associativity,
             l1.line_bytes, core.mshrs.num_entries, core.mshrs.max_merged),
            (int(simd_full), act_lo, act_hi, div_hi, program.reuse_window,
             profile.footprint_lines * profile.warps_per_core,
             profile.warps_per_core, -1 if ipw is None else ipw),
            (profile.mem_fraction, profile.shared_fraction,
             profile.store_fraction, profile.reuse, profile.streaming),
            derive_seeds(seed, (profile.abbr,),
                         [(c.coord.x, c.coord.y, w)
                          for c in cores for w in range(nwarps)]),
            derive_seeds(seed, (profile.abbr,),
                         [(core_id, "region")
                          for core_id in range(len(cores))]))
        #: ``counters()``: retired instructions, L1 hits and L1 accesses
        #: summed over every core.
        self.counters = self._c.counters
        #: Builds the packet a record of an ideal network stands for, once
        #: :meth:`route` has handed the requests to one; None before.
        self.packet = None

    @property
    def stale(self) -> bool:
        """True once the kernel state may differ from the objects'."""
        return self._c.stale

    def route(self, packet) -> None:
        """Hand the requests to the ideal network the kernel now steps
        (``_core_kernel.c``'s ``ideal``): ``step`` and ``finished`` become
        the kernel's, and exports build packets with ``packet``."""
        self.packet = packet
        self.step = self._c.step
        self.finished = self._c.finished

    # -- per cycle ---------------------------------------------------------------

    def step(self, first_cycle: int, ticks: int) -> None:
        """Core cycles ``first_cycle .. first_cycle + ticks - 1``: every
        due core steps, and its read requests enter ``outbound``."""
        requests = self._c.step(first_cycle, ticks)
        if requests:
            cores = self._cores
            for index, line, cycle in requests:
                cores[index]._send_read_request(line, cycle)

    def on_reply(self, index: int, packet, cycle: int) -> None:
        """Reply-network ejection handler of core ``index``."""
        token = packet.payload
        if not isinstance(token, MemoryToken):
            raise TypeError("reply payload is not a MemoryToken")
        writeback = self._c.reply(index, token.line_addr, cycle)
        if writeback >= 0:
            self._cores[index]._send_write_request(writeback, cycle)

    def finished(self) -> bool:
        """``SimtCore.finished`` over every core, without an export."""
        return self._c.finished() and not any(
            core.outbound for core in self._cores)

    # -- readers -----------------------------------------------------------------

    def export(self) -> None:
        """Write the kernel state into the ``SimtCore`` objects."""
        packet = self.packet
        for index, core in enumerate(self._cores):
            (core.retired_scalar, core.issued_instructions,
             core.structural_stalls, core.global_loads, core.global_stores,
             core.wake, core._issue_busy_until, core.scheduler._pointer,
             core.l1.hits, core.l1.misses, core.mshrs.allocations,
             core.mshrs.merges, warps, entries,
             outbound) = self._c.export(index)
            for warp, (ready_at, pending, retired, finished) in zip(
                    core.warps, warps):
                warp.ready_at = ready_at
                warp.pending_loads = pending
                warp.retired = retired
                warp.finished = finished
            core.mshrs._entries = {
                line: MshrEntry(line, [
                    (None, True) if waiter < 0
                    else (core.warps[waiter], False)
                    for waiter in waiters], issued)
                for line, issued, waiters in entries}
            if packet is not None:
                core.outbound = deque(map(packet, outbound))
        self._c.stale = False

    def next_instruction(self, index: int,
                         warp_id: int) -> Optional[WarpInstruction]:
        """Draw warp ``warp_id`` of core ``index``'s next instruction
        without issuing it, as ``SyntheticKernel.next_instruction``
        would (for tests; it replaces any instruction not yet issued)."""
        drawn = self._c.next_instruction(index, warp_id)
        if drawn is None:
            return None
        kind, lines, active = drawn
        return WarpInstruction(KINDS[kind], lines, active)


def start(chip) -> Optional[CoreCluster]:
    """A cluster for ``chip``'s cores, with their reply handlers moved to
    it; None when the chip must run the reference (the Python cores, MCs
    and DRAM channels, each stepped every tick): the kernel is
    unavailable, or the program is not a fresh ``SyntheticKernel``."""
    program = chip.kernel
    if (type(program) is not SyntheticKernel or program in _CLAIMED
            or program._streams or program._issued or program._regions
            or program.profile.footprint_lines
            * program.profile.warps_per_core >= 1 << 32):
        return None
    module = KERNEL.load()
    if module is None:
        return None
    cores = chip._cores
    cluster = CoreCluster(module, cores, program)
    _CLAIMED.add(program)
    # The network holds the cluster weakly: the chip owns it, and a
    # dropped chip frees the kernel state at once.
    ref = weakref.ref(cluster)
    for index, core in enumerate(cores):
        chip.network.set_ejection_handler(core.node,
                                          partial(_on_reply, ref, index))
    return cluster


def _on_reply(ref, index: int, packet, cycle: int) -> None:
    ref().on_reply(index, packet, cycle)
