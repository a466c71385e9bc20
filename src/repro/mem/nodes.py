"""The compiled memory side: every MC node of one chip, stepped in C.

An :class:`~repro.system.accelerator.Accelerator` starts its
:class:`MemoryNodes` at its first ``step``, together with the core
cluster (:mod:`repro.gpu.cluster`) and only when the cluster starts, so
a chip runs all of its chip side compiled or all of it in Python.  The
state lives in the chip-side extension (``gpu/_core_kernel.c``, the
``Memory`` object), a line-for-line port of ``MemoryController`` (the
ejection handler ``on_packet``, ``icnt_step`` with its reply drain, input
processing with its L2 probe and write-back drain, ``_dram_done``), the
L2 bank (the L1's ``SetAssociativeCache`` code) and ``GddrChannel``
(``enqueue``, FR-FCFS issue, bank timing, completion), plus two idle
gates of its own: the MC idle tick and the channel's ``next_event``.
``MemoryController`` and ``GddrChannel``, which the reference chip loop
steps on every tick, stay the bit-identity oracle behind
``REPRO_REFERENCE_STEPPER=1``, ``use_reference_stepper()`` and the
no-compiler fallback; tests/test_stepper_equivalence.py compares the
two.

Ownership.  The kernel owns, per MC, the counters, the input pipeline
(ready cycle, request packet), the reply backlog, the write-backs, the
L2 lines with their LRU clock and dirty bits, and the channel: counters,
clock, ``next_event``, banks, bus and activate times, and the queued and
in-flight requests.  On a mesh it holds the request and reply packets
by reference, each MC's node id and ``inject`` callable, and the reply
factory, so it takes part in cycle collection; Python keeps the
``Packet`` objects themselves and the network.  The chip owns the
kernel; the network's request handlers hold it weakly, so a dropped
chip frees it at once.

Each interconnect cycle makes one kernel call, after ``network.step``:
every MC in index order (drain replies, process input, drain
write-backs, or the idle tick), then, for each memory-clock tick of the
cycle, every channel in index order (its step, or the idle tick before
its ``next_event``).  The kernel calls Python only where the reference
offers or builds a packet: ``inject(reply, cycle)``, the MC's own
callable, so the network sees the same calls in the same order
(refused attempts and the RNG draws of CR and ROMM admission included),
and :func:`_reply`, which builds the packet ``_send_reply`` builds, at
the same point (an L2 hit, or a DRAM read's completion) and with the
same ``created`` cycle, so packet ids follow the reference too.  An
exception from either propagates, and the reply, or the request it was
for, stays queued.  Each arriving request is one more call, through the
MC's ejection handler, which checks the packet before anything is
queued.

On an ideal network (:mod:`repro.noc.ideal`) the extension steps the
network too, and the memory side calls no Python: requests arrive from
the network's step as records, a reply is a record made where
``_send_reply`` builds its packet, and the reply drain hands each one to
the network, which accepts it, instead of calling ``inject``.

The reference's L2 re-probe is reproduced: a read that misses while the
DRAM queue is full stays at the head of the input pipeline, probes the
L2 again every cycle and counts a miss each time.  It inflates the L2
miss count, and fixing it moves results (ROADMAP item 1).

Readers see objects.  Reading ``Accelerator.mcs`` first exports, if the
kernel has stepped or taken a request since the last export, every MC's
counters, input pipeline as (ready, packet) pairs, reply backlog,
write-backs, ``_icnt_cycle`` and L2 hits and misses, and every channel's
counters, clock, ``next_event``, bus and activate times, banks, and
queued and in-flight requests as ``DramRequest`` objects carrying their
packets (built from the records on an ideal network).  L2 lines are not
exported; :meth:`MemoryNodes.counters` reads the sums a measurement needs
without an export.
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import partial
from typing import List

from ..noc.packet import TrafficClass, read_reply
from .controller import McConfig, MemoryController
from .dram import DramRequest


def _reply(node, request, cycle):
    """The reply ``MemoryController._send_reply`` builds for ``request``."""
    return read_reply(node, request.src, created=cycle,
                      payload=request.payload)


class MemoryNodes:
    """The MC nodes of one chip on the compiled kernel."""

    def __init__(self, module, mcs: List[MemoryController],
                 config: McConfig) -> None:
        dram = config.dram
        self._mcs = mcs
        self._c = module.memory(
            (config.l2_size_bytes, config.l2_line_bytes,
             config.l2_associativity, config.l2_latency,
             config.requests_per_cycle, config.reply_backlog_limit),
            (dram.tCL, dram.tRP, dram.tRC, dram.tRAS, dram.tRCD, dram.tRRD,
             dram.bytes_per_cycle, dram.num_banks, dram.row_bytes,
             dram.queue_capacity),
            [mc.node for mc in mcs], [mc.inject for mc in mcs], _reply,
            TrafficClass.REQUEST)
        #: ``step(cycle, first_mclk, ticks)``: one interconnect cycle of
        #: every MC, then memory cycles ``first_mclk`` onwards.
        self.step = self._c.step
        #: ``idle()``: ``MemoryController.idle`` over every MC.
        self.idle = self._c.idle
        #: ``counters()``: blocked cycles, cycles, DRAM busy and pending
        #: cycles, row hits, row accesses, L2 hits and L2 accesses summed
        #: over every MC.
        self.counters = self._c.counters
        #: Builds the packet a record stands for, on an ideal network
        #: (``noc/ideal.py``); None on a mesh.
        self.packet = None

    @property
    def stale(self) -> bool:
        """True once the kernel state may differ from the objects'."""
        return self._c.stale

    def export(self) -> None:
        """Write the kernel state into the ``MemoryController`` and
        ``GddrChannel`` objects."""
        packet = self.packet
        for mc, state in zip(self._mcs, self._c.export()):
            (mc.cycles, mc.blocked_cycles, mc.requests_received, mc.reads,
             mc.writes, mc.replies_sent, mc.max_queue_depth, mc._icnt_cycle,
             mc.l2.hits, mc.l2.misses, pending, replies, writebacks,
             channel) = state
            if packet is not None:
                pending = [(ready, packet(r)) for ready, r in pending]
                replies = map(packet, replies)
            mc._input = deque(pending)
            mc._replies = deque(replies)
            mc._writebacks = deque(writebacks)
            dram = mc.dram
            (dram.requests_serviced, dram.row_hits, dram.row_misses,
             dram.data_busy_cycles, dram.pending_cycles, dram.now,
             dram.next_event, dram._next_completion, dram._bus_free_at,
             dram._last_activate_any, banks, queue, flight) = channel
            for bank, (open_row, busy_until, last_activate) in zip(
                    dram._banks, banks):
                bank.open_row = open_row
                bank.busy_until = busy_until
                bank.last_activate = last_activate
            dram._queue = [DramRequest(*request) for request in queue]
            dram._in_flight = [DramRequest(*request) for request in flight]
            if packet is not None:
                for request in dram._queue + dram._in_flight:
                    if request.payload is not None:
                        request.payload = packet(request.payload)


def start(chip, module) -> MemoryNodes:
    """The memory side of ``chip`` on ``module``, with the MCs' request
    handlers moved to it."""
    memory = MemoryNodes(module, chip._mcs, chip.config.mc)
    # The network holds the kernel weakly: the chip owns it, and a
    # dropped chip frees it at once.
    ref = weakref.ref(memory._c)
    for index, mc in enumerate(chip._mcs):
        chip.network.set_ejection_handler(mc.node,
                                          partial(_on_request, ref, index))
    return memory


def _on_request(ref, index: int, packet, cycle: int) -> None:
    ref().request(index, packet, cycle)
