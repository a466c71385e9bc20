"""Tests for the SIMT core: issue, memory path, MSHR pressure, fills."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gpu.core import CoreConfig, MemoryToken, SimtCore
from repro.gpu.instruction import ALU, SHARED, load, store
from repro.mem.mshr import MshrFile
from repro.noc.packet import TrafficClass, read_reply
from repro.noc.topology import Coord

CORE = Coord(2, 2)
MC = Coord(1, 0)


class ScriptedProgram:
    """Feeds a fixed per-warp instruction list, then finishes."""

    def __init__(self, script):
        self.script = script
        self.cursor = {}

    def next_instruction(self, core, warp_id):
        i = self.cursor.get(warp_id, 0)
        if i >= len(self.script):
            return None
        self.cursor[warp_id] = i + 1
        item = self.script[i]
        return item(warp_id) if callable(item) else item


def route(line_addr):
    return MC, line_addr


def make_core(script, num_warps=1, **config_kwargs):
    config = CoreConfig(**config_kwargs)
    return SimtCore(CORE, config, ScriptedProgram(script), route,
                    num_warps=num_warps)


def reply_for(core, packet):
    """Build the read reply a MC would send for a request packet."""
    return read_reply(MC, CORE, payload=packet.payload)


class TestIssue:
    def test_alu_retires_32_threads(self):
        core = make_core([ALU])
        core.step(1)
        assert core.retired_scalar == 32
        assert core.issued_instructions == 1

    def test_issue_interval_four_cycles(self):
        core = make_core([ALU] * 10, num_warps=8, alu_latency=1)
        for cycle in range(1, 9):
            core.step(cycle)
        # One warp instruction per 4 cycles (8-wide SIMD, 32 threads).
        assert core.issued_instructions == 2

    def test_alu_latency_blocks_warp(self):
        core = make_core([ALU, ALU], num_warps=1, alu_latency=16)
        core.step(1)
        for cycle in range(2, 16):
            core.step(cycle)
        assert core.issued_instructions == 1
        core.step(17)
        assert core.issued_instructions == 2

    def test_shared_instruction_no_traffic(self):
        core = make_core([SHARED])
        core.step(1)
        assert core.retired_scalar == 32
        assert not core.outbound

    def test_finished_program(self):
        core = make_core([ALU], num_warps=1)
        core.step(1)
        for cycle in range(2, 40):
            core.step(cycle)
        assert core.finished


class TestLoads:
    def test_load_miss_sends_request_and_blocks(self):
        core = make_core([load([0x1000]), ALU])
        core.step(1)
        assert len(core.outbound) == 1
        packet = core.outbound[0]
        assert packet.dest == MC
        assert packet.size_bytes == 8
        assert isinstance(packet.payload, MemoryToken)
        # Warp blocked: no further issue.
        for cycle in range(2, 30):
            core.step(cycle)
        assert core.issued_instructions == 1

    def test_reply_unblocks_warp(self):
        core = make_core([load([0x1000]), ALU])
        core.step(1)
        packet = core.outbound.popleft()
        core.on_reply(reply_for(core, packet), 10)
        core.step(11)
        assert core.issued_instructions == 2

    def test_fill_makes_later_access_hit(self):
        core = make_core([load([0x1000]), load([0x1000])],
                         l1_hit_latency=2)
        core.step(1)
        packet = core.outbound.popleft()
        core.on_reply(reply_for(core, packet), 5)
        core.step(6)            # issue second load: L1 hit
        assert not core.outbound
        assert core.l1.hits >= 1

    def test_divergent_load_counts_lines(self):
        lines = [0x1000 + i * 64 for i in range(8)]
        core = make_core([load(lines)])
        core.step(1)
        assert len(core.outbound) == 8

    def test_duplicate_lines_deduped(self):
        core = make_core([load([0x1000, 0x1000, 0x1040])])
        core.step(1)
        assert len(core.outbound) == 2

    def test_mshr_merge_no_duplicate_request(self):
        core = make_core([load([0x1000]), load([0x1000])], num_warps=2,
                         l1_hit_latency=1)
        core.step(1)        # warp 0 misses
        core.step(5)        # warp 1 same line: merge
        assert len(core.outbound) == 1
        assert core.mshrs.merges == 1


class TestStores:
    def test_store_miss_requests_line_but_does_not_block(self):
        core = make_core([store([0x2000]), ALU], store_latency=1)
        core.step(1)
        assert len(core.outbound) == 1
        core.step(5)
        assert core.issued_instructions == 2   # warp kept running

    def test_store_fill_marks_dirty_and_evicts_later(self):
        core = make_core([store([0x2000])], l1_size_bytes=128,
                         l1_associativity=2)
        core.step(1)
        packet = core.outbound.popleft()
        core.on_reply(reply_for(core, packet), 5)
        assert core.l1.contains(0x2000)
        # Fill conflicting lines to force a dirty eviction.
        sets = core.l1.config.num_sets
        span = sets * 64
        for i, line in enumerate([0x2000 + span, 0x2000 + 2 * span]):
            token = MemoryToken(CORE, line, line)
            core.mshrs.allocate(line, (None, False))
            core.on_reply(read_reply(MC, CORE, payload=token), 10 + i)
        writes = [p for p in core.outbound if p.size_bytes == 64]
        assert len(writes) == 1      # the dirty 0x2000 line written back


class TestStructuralStalls:
    def test_mshr_full_stalls_warp(self):
        # Each warp loads its own line, so no merging can hide the limit.
        core = make_core([lambda w: load([0x1000 + w * 64])],
                         num_warps=4, mshr_entries=2)
        for cycle in range(1, 30):
            core.step(cycle)
        assert len(core.outbound) == 2         # only 2 MSHRs available
        assert core.structural_stalls > 0

    def test_stalled_instruction_retries_after_fill(self):
        core = make_core([lambda w: load([0x1000 + w * 64])],
                         num_warps=2, mshr_entries=1)
        for cycle in range(1, 10):
            core.step(cycle)
        assert len(core.outbound) == 1
        packet = core.outbound.popleft()
        core.on_reply(reply_for(core, packet), 20)
        for cycle in range(21, 40):
            core.step(cycle)
        assert len(core.outbound) == 1          # the stalled one went out


#: Twelve lines over a 4-set, 2-way L1 (so fills evict) and a 4-entry MSHR
#: file with a merge limit of 2: small enough that random sequences hit
#: every stall reason.
MEMO_LINES = [0x1000 + i * 64 for i in range(12)]
MEMO_OPS = st.one_of(
    # A new instruction, or the warp's stalled one retried.
    st.tuples(st.just("issue"), st.integers(0, 3),
              st.lists(st.sampled_from(MEMO_LINES), min_size=1,
                       max_size=4),
              st.booleans()),
    st.tuples(st.just("reply"), st.integers(0, 7)),
    # An entry freed without a fill: only the MSHR file changes.
    st.tuples(st.just("release"), st.integers(0, 7)),
    # Only the L1 changes: a fill, an invalidation, or a fill of every
    # line of a warp's stalled instruction.
    st.tuples(st.sampled_from(("fill", "invalidate")),
              st.sampled_from(MEMO_LINES)),
    st.tuples(st.just("fill_stalled"), st.integers(0, 3)),
)
#: A warp stalls on a full MSHR file, one change frees room for it, and
#: it retries: the retry must issue.
UNSTALL_AFTER = [("issue", 0, MEMO_LINES[:4], False),
                 ("issue", 1, MEMO_LINES[4:5], False)]


def recomputed_verdict(core, instr):
    """The structural check of a global instruction, recomputed from the
    raw L1 sets and MSHR entries: every distinct line either hits, merges
    into an entry below the merge limit, or takes a free entry."""
    present = set().union(*core.l1._sets)
    mshrs = core.mshrs
    outstanding = set(mshrs.outstanding_lines())
    misses = [line for line in dict.fromkeys(instr.line_addrs)
              if line not in present]
    new = [line for line in misses if line not in outstanding]
    if len(outstanding) + len(new) > mshrs.num_entries:
        return False
    return all(len(mshrs.lookup(line).waiters) < mshrs.max_merged
               for line in misses if line in outstanding)


class TestRetryMemo:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(MEMO_OPS, max_size=60))
    @example(UNSTALL_AFTER + [("release", 0)] + UNSTALL_AFTER[1:])
    @example(UNSTALL_AFTER + [("fill_stalled", 1)] + UNSTALL_AFTER[1:])
    def test_verdicts_match_recomputed_check(self, ops):
        """Random issue attempts (a stalled warp retries its instruction,
        as ``step`` does), replies, and L1 or MSHR changes made directly
        (fills, invalidations, an entry freed without a fill): every
        verdict equals the recomputed check, so a memoized retry never
        answers for state that changed."""
        core = make_core([], num_warps=4, l1_size_bytes=512,
                         l1_associativity=2)
        core.mshrs = MshrFile(4, max_merged=2)
        stalled = [None] * 4
        for cycle, op in enumerate(ops, start=1):
            outstanding = core.mshrs.outstanding_lines()
            if op[0] == "issue":
                _, warp_id, lines, is_store = op
                instr = stalled[warp_id] or (
                    store(lines) if is_store else load(lines))
                expected = recomputed_verdict(core, instr)
                assert core._issue_global(core.warps[warp_id], instr,
                                          cycle) == expected
                stalled[warp_id] = None if expected else instr
            elif op[0] == "reply" and outstanding:
                line = outstanding[op[1] % len(outstanding)]
                core.on_reply(read_reply(MC, CORE, payload=MemoryToken(
                    CORE, line, line)), cycle)
            elif op[0] == "fill":
                core.l1.fill(op[1])
            elif op[0] == "fill_stalled" and stalled[op[1]]:
                for line in stalled[op[1]].line_addrs:
                    core.l1.fill(line)
            elif op[0] == "invalidate":
                core.l1.invalidate(op[1])
            elif op[0] == "release" and outstanding:
                core.mshrs.complete(outstanding[op[1] % len(outstanding)])

    def test_stalled_retry_keeps_its_side_effects(self):
        """A retry answered by the memo still counts a stall, re-arms the
        warp and the core for the next cycle and leaves the instruction
        stalled."""
        core = make_core([lambda w: load([0x1000 + w * 64])],
                         num_warps=2, mshr_entries=1, l1_hit_latency=1)
        core.step(1)                       # warp 0 takes the only MSHR
        core.step(5)                       # warp 1 stalls
        assert core.structural_stalls == 1
        for cycle in (6, 7):
            core.step(cycle)               # memo: nothing changed
            assert core.structural_stalls == cycle - 4
            assert core.warps[1].ready_at == cycle + 1
            assert core.wake == cycle + 1
            assert core.scheduler._pointer == 0
            assert core._stalled[1] is not None
        packet = core.outbound.popleft()
        core.on_reply(reply_for(core, packet), 8)
        core.step(8)                       # warp 0 finishes
        core.step(9)                       # the MSHR is free: warp 1 issues
        assert core._stalled[1] is None and len(core.outbound) == 1
        assert core.structural_stalls == 3


class TestValidation:
    def test_bad_warp_count(self):
        with pytest.raises(ValueError):
            make_core([ALU], num_warps=0)
        with pytest.raises(ValueError):
            make_core([ALU], num_warps=64)

    def test_reply_requires_token(self):
        core = make_core([ALU])
        with pytest.raises(TypeError):
            core.on_reply(read_reply(MC, CORE, payload="x"), 0)

    def test_ipc(self):
        core = make_core([ALU])
        core.step(1)
        assert core.ipc(32) == 1.0
        assert core.ipc(0) == 0.0
