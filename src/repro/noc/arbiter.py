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
    position; the compiled kernel ports ``allocate`` and keeps the same
    pointers (exported back here when the network's objects are read).
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
