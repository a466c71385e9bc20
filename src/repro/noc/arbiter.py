"""Round-robin arbiters and the separable (iSLIP-style) switch allocator.

The baseline router uses an iSLIP allocator (Table III).  We implement a
single-iteration separable input-first allocator with the iSLIP pointer
update rule: a round-robin pointer only advances past a requester when that
requester is granted, which gives the allocator its fairness and
desynchronization properties.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple


class RoundRobinArbiter:
    """Round-robin arbiter over an arbitrary, stable set of client keys."""

    def __init__(self, clients: Sequence[Hashable]) -> None:
        self._clients: List[Hashable] = list(clients)
        self._pointer = 0

    @property
    def clients(self) -> Sequence[Hashable]:
        return tuple(self._clients)

    def arbitrate(self, requests: Iterable[Hashable],
                  advance: bool = True) -> Optional[Hashable]:
        """Grant one of ``requests``.

        ``requests`` must be a subset of the client set.  With ``advance``
        (the iSLIP rule) the pointer moves one past the winner.
        """
        request_set = set(requests)
        if not request_set:
            return None
        n = len(self._clients)
        for offset in range(n):
            candidate = self._clients[(self._pointer + offset) % n]
            if candidate in request_set:
                if advance:
                    self._pointer = (self._pointer + offset + 1) % n
                return candidate
        raise ValueError(f"requests {request_set!r} not among clients")


class SeparableAllocator:
    """Single-iteration input-first separable allocator.

    Stage 1 (input arbitration): each input port picks one of its requesting
    VCs.  Stage 2 (output arbitration): each output port picks one winning
    input among the stage-1 survivors that target it.  Pointers follow the
    iSLIP update rule: they advance only on a stage-2 grant, so an input VC
    that won stage 1 but lost stage 2 keeps priority.

    The allocator keeps its pointer state in flat arrays indexed by port
    position.  ``allocate`` is the general dict-keyed API the reference
    ``Router.step`` uses; ``allocate_fast`` is the position-indexed hot path
    of the batched core's contended grants — both drive the same pointers,
    so they are interchangeable mid-run.
    """

    def __init__(self, input_ports: Sequence[Hashable],
                 vcs_per_input: int,
                 output_ports: Sequence[Hashable]) -> None:
        self._inputs: Tuple[Hashable, ...] = tuple(input_ports)
        self._outputs: Tuple[Hashable, ...] = tuple(output_ports)
        self._in_index: Dict[Hashable, int] = {
            port: i for i, port in enumerate(self._inputs)}
        self._out_index: Dict[Hashable, int] = {
            port: i for i, port in enumerate(self._outputs)}
        self._num_vcs = vcs_per_input
        self._num_inputs = len(self._inputs)
        #: iSLIP pointers: per input over VC indices, per output over
        #: input-port positions.
        self._in_ptr: List[int] = [0] * self._num_inputs
        self._out_ptr: List[int] = [0] * len(self._outputs)
        # Reused scratch for allocate_fast (cleared after every call).
        self._s1_vc: List[int] = [0] * self._num_inputs
        self._contenders: List[int] = [0] * len(self._outputs)
        self._out_seen: List[int] = []

    def allocate(
        self,
        requests: Dict[Hashable, Dict[int, Hashable]],
    ) -> List[Tuple[Hashable, int, Hashable]]:
        """Allocate the crossbar for one cycle.

        ``requests`` maps input port -> {vc index -> requested output port}.
        Returns a list of (input port, vc, output port) grants such that each
        input port and each output port appears at most once.
        """
        num_vcs = self._num_vcs
        # Stage 1: per-input VC selection (do not advance pointers yet; the
        # iSLIP rule updates pointers only on a full grant).
        stage1: Dict[int, Tuple[int, Hashable]] = {}
        for in_port, vc_requests in requests.items():
            if not vc_requests:
                continue
            i = self._in_index[in_port]
            ptr = self._in_ptr[i]
            for offset in range(num_vcs):
                vc = (ptr + offset) % num_vcs
                if vc in vc_requests:
                    stage1[i] = (vc, vc_requests[vc])
                    break
            else:
                raise ValueError(
                    f"requests {set(vc_requests)!r} not among clients")

        # Stage 2: per-output arbitration among stage-1 survivors.
        by_output: Dict[Hashable, List[int]] = {}
        for i, (_vc, out_port) in stage1.items():
            by_output.setdefault(out_port, []).append(i)

        grants: List[Tuple[Hashable, int, Hashable]] = []
        n_in = self._num_inputs
        for out_port, contenders in by_output.items():
            o = self._out_index[out_port]
            ptr = self._out_ptr[o]
            winner = -1
            for offset in range(n_in):
                i = (ptr + offset) % n_in
                if i in contenders:
                    winner = i
                    break
            if winner < 0:
                continue
            self._out_ptr[o] = (winner + 1) % n_in
            vc, _ = stage1[winner]
            # Advance the winner's input pointer past the granted VC.
            self._in_ptr[winner] = (vc + 1) % num_vcs
            grants.append((self._inputs[winner], vc, out_port))
        return grants

    def allocate_fast(
        self,
        active: List[int],
        req_masks: List[int],
        req_outs: List[List[int]],
        grants: List[Tuple[int, int, int]],
    ) -> None:
        """Position-indexed allocation (same pointers as ``allocate``).

        ``active`` lists requesting input positions, ``req_masks[i]`` is a
        bitmask of requesting VCs for input ``i``, ``req_outs[i][vc]`` is the
        requested output position.  Grants ``(in_pos, vc, out_pos)`` are
        appended to the caller-owned ``grants`` list.
        """
        num_vcs = self._num_vcs
        n_in = self._num_inputs
        if len(active) == 1:
            # Uncontended input: stage 1 picks its first requesting VC
            # at/after the pointer, stage 2 grants the lone contender.
            # Same pointer updates as the general path below.
            i = active[0]
            mask = req_masks[i]
            if mask & (mask - 1):
                ptr = self._in_ptr[i]
                for offset in range(num_vcs):
                    vc = (ptr + offset) % num_vcs
                    if mask >> vc & 1:
                        break
            else:
                vc = mask.bit_length() - 1
            out = req_outs[i][vc]
            self._out_ptr[out] = (i + 1) % n_in
            self._in_ptr[i] = (vc + 1) % num_vcs
            grants.append((i, vc, out))
            return
        s1_vc = self._s1_vc
        contenders = self._contenders
        out_seen = self._out_seen
        # Stage 1: first requesting VC at/after the input pointer.
        for i in active:
            mask = req_masks[i]
            ptr = self._in_ptr[i]
            for offset in range(num_vcs):
                vc = (ptr + offset) % num_vcs
                if mask >> vc & 1:
                    s1_vc[i] = vc
                    out = req_outs[i][vc]
                    if not contenders[out]:
                        out_seen.append(out)
                    contenders[out] |= 1 << i
                    break
        # Stage 2: per contended output (first-appearance order, matching
        # the setdefault grouping in ``allocate``), first contending input
        # at/after the output pointer.
        for out in out_seen:
            cmask = contenders[out]
            contenders[out] = 0
            ptr = self._out_ptr[out]
            for offset in range(n_in):
                i = (ptr + offset) % n_in
                if cmask >> i & 1:
                    self._out_ptr[out] = (i + 1) % n_in
                    vc = s1_vc[i]
                    self._in_ptr[i] = (vc + 1) % num_vcs
                    grants.append((i, vc, out))
                    break
        del out_seen[:]
