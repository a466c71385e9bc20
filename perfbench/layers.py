"""Per-layer tracing for the benchmark, installed from outside ``src/``.

A :class:`Tracer` wraps each layer's public methods at class (or module)
level for the duration of a traced pass and restores the originals after.
Nothing under ``src/`` changes, and the wrappers only read state, so a
traced run produces the same results as an untraced one (the benchmark
checks this by digest).

Two kinds of record are kept, both in memory until the run ends:

* Per-cycle layers (router steps, channel delivery, core steps, ...) run
  10^5-10^6 times per point, so they get no per-call span.  Each keeps an
  exact call count, inclusive and self time as integer nanoseconds, and
  one outcome count (productive calls, accepted injections, idle steps).
  Self time is inclusive time minus the time of the timed calls nested in
  it, tracked with one shared stack of child-time accumulators.
* Per-point spans.  Each simulation point is one span identified by its
  label, bounded by ``run_tasks`` progress reports, with child spans for
  build, simulate and serialize and the per-cycle counters the point
  added.

Wrappers must be installed before any system is built: the builders bind
some methods once (ejection handlers, single-slice ``try_inject``), and a
binding taken before installation would bypass the wrapper.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

# Accumulator slots: [calls, inclusive ns, self ns, outcome count].
CALLS, NS, SELF_NS, OUTCOME = range(4)


class Tracer:
    """Class-level timing wrappers plus per-point spans for one process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        #: Child-time accumulators of the open timed calls; the bottom
        #: entry collects the top-level calls of a pass.
        self.stack: List[int] = [0]
        self.acc: Dict[str, List[int]] = {}
        #: Work the ratios divide by, summed at the end of each simulate
        #: span: core-cycles x cores, DRAM cycles x channels, and network
        #: cycles x routers.
        self.capacity = {"core": 0, "dram": 0, "router": 0}
        self.points: List[dict] = []
        self._point: Optional[dict] = None
        self._mark: Dict[str, List[int]] = {}
        self._depth: Dict[str, int] = {}
        self._patches: List[tuple] = []

    # -- accumulators ---------------------------------------------------------

    def _slot(self, layer: str) -> List[int]:
        return self.acc.setdefault(layer, [0, 0, 0, 0])

    def reset(self) -> None:
        """Zero every record in place (the wrappers hold the lists)."""
        for slot in self.acc.values():
            slot[:] = [0, 0, 0, 0]
        self.stack[:] = [0]
        for key in self.capacity:
            self.capacity[key] = 0
        for key in self._depth:
            self._depth[key] = 0
        self.points = []
        self._point = None

    def snapshot(self) -> Dict[str, List[int]]:
        return {layer: list(slot) for layer, slot in self.acc.items()}

    # -- wrapper factories ----------------------------------------------------

    def cycle_layer(self, layer: str, fn: Callable,
                    outcome: Optional[str] = None) -> Callable:
        """Wrap a per-cycle method: count, inclusive and self time, and
        optionally an outcome count.  ``outcome`` is ``"truthy"`` (the
        call returned True, a non-empty list or a non-zero count) or
        ``"idle"`` (the network was idle on entry).  The variants are
        written out in full because they run up to 10^6 times a pass, and
        a per-call dispatch on the outcome would add to the overhead."""
        slot = self._slot(layer)
        stack = self.stack
        clock = self.clock

        if outcome is None:
            def wrapper(*args, **kwargs):
                start = clock()
                stack.append(0)
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - child
                return result
        elif outcome == "truthy":
            def wrapper(*args, **kwargs):
                start = clock()
                stack.append(0)
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - child
                if result:
                    slot[3] += 1
                return result
        elif outcome == "idle":
            def wrapper(net, *args, **kwargs):
                if net.idle:
                    slot[3] += 1
                start = clock()
                stack.append(0)
                result = fn(net, *args, **kwargs)
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - child
                return result
        else:
            raise ValueError(f"unknown outcome {outcome!r}")
        return wrapper

    def span_layer(self, layer: str, fn: Callable,
                   span: Optional[str] = None,
                   after: Optional[Callable] = None) -> Callable:
        """Wrap a per-point call (build, simulate, run_tasks).

        Only the outermost call of a layer counts, so ``perfect_chip``
        calling ``build_chip`` calling ``build`` is one build.  ``span``
        names the child span recorded under the open point; ``after`` is
        called with the wrapped call's first argument once it returns.
        """
        slot = self._slot(layer)
        self._depth.setdefault(layer, 0)
        depth = self._depth
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] += 1
            start = clock()
            stack.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
            end = clock()
            elapsed = end - start
            child = stack.pop()
            stack[-1] += elapsed
            slot[0] += 1
            slot[1] += elapsed
            slot[2] += elapsed - child
            if span is not None and self._point is not None:
                self._point["children"].append(
                    {"name": span, "start_ns": start, "end_ns": end})
            if after is not None:
                after(args[0])
            return result
        return wrapper

    def span_only(self, fn: Callable, span: str) -> Callable:
        """Record a child span of the open point and nothing else, so its
        time stays in the caller's self time (serialization is part of
        ``parallel.self_s``)."""
        clock = self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            if self._point is not None:
                self._point["children"].append(
                    {"name": span, "start_ns": start, "end_ns": clock()})
            return result
        return wrapper

    # -- installation ---------------------------------------------------------

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer.  Imports ``repro`` lazily so the benchmark can
        pin its import path first."""
        from repro import experiments, parallel
        from repro.core import builder
        from repro.gpu.core import SimtCore
        from repro.mem.controller import MemoryController
        from repro.mem.dram import GddrChannel
        from repro.noc.batched import BatchedCore
        from repro.noc.channel import Channel
        from repro.noc.network import MeshNetwork
        from repro.noc.openloop import LoadLatencyPoint, OpenLoopRunner
        from repro.noc.router import Router
        from repro.system import accelerator
        from repro.system.accelerator import Accelerator, SimulationResult

        if self._patches:
            raise RuntimeError("tracer already installed")
        run_tasks = self.span_layer("parallel.run_tasks",
                                    parallel.run_tasks)
        self.patch(parallel, "run_tasks", self._bracket_points(run_tasks))
        self.patch(experiments, "run_tasks", parallel.run_tasks)
        for owner, attr in ((accelerator, "build_chip"),
                            (accelerator, "perfect_chip"),
                            (accelerator, "build"), (builder, "build")):
            self.patch(owner, attr, self.span_layer(
                "build", vars(owner)[attr], span="build"))
        self.patch(Accelerator, "run", self.span_layer(
            "chip.run", Accelerator.run, span="simulate",
            after=self._chip_capacity))
        self.patch(OpenLoopRunner, "run", self.span_layer(
            "openloop.run", OpenLoopRunner.run, span="simulate",
            after=self._runner_capacity))
        for cls in (SimulationResult, LoadLatencyPoint):
            self.patch(cls, "to_json", self.span_only(cls.to_json,
                                                      "serialize"))
        for owner, attr, layer, outcome in (
                (Accelerator, "step", "chip.step", None),
                (SimtCore, "step", "gpu.core_step", None),
                (SimtCore, "on_reply", "gpu.on_reply", None),
                (MemoryController, "icnt_step", "mem.mc_icnt_step", None),
                (MemoryController, "on_packet", "mem.on_packet", None),
                (GddrChannel, "step", "mem.dram_step", None),
                (MeshNetwork, "step", "noc.step", "idle"),
                (MeshNetwork, "try_inject", "noc.try_inject", "truthy"),
                (Router, "step", "noc.router_step", "truthy"),
                (Channel, "deliver", "noc.channel_deliver", "truthy"),
                (BatchedCore, "sweep", "noc.batched_sweep", None)):
            self.patch(owner, attr, self.cycle_layer(
                layer, vars(owner)[attr], outcome))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- per-point spans ------------------------------------------------------

    def _bracket_points(self, run_tasks: Callable) -> Callable:
        """Open a point span when ``run_tasks`` starts and drop the empty
        one left open after its last progress report."""
        def wrapper(*args, **kwargs):
            self._open_point()
            try:
                return run_tasks(*args, **kwargs)
            finally:
                self._point = None
        return wrapper

    def _open_point(self) -> None:
        self._point = {"start_ns": self.clock(), "children": []}
        self._mark = self.snapshot()

    def progress(self, report) -> None:
        """``run_tasks`` progress callback: close the current point span
        under the task's label and open the next one."""
        point = self._point
        if point is None:
            return
        point["id"] = report.label
        point["end_ns"] = self.clock()
        point["layers"] = {
            layer: [now - before for now, before in
                    zip(slot, self._mark.get(layer, [0, 0, 0, 0]))]
            for layer, slot in self.acc.items()
            if slot != self._mark.get(layer, [0, 0, 0, 0])}
        self.points.append(point)
        self._open_point()

    # -- capacity for the ratios ---------------------------------------------

    def _chip_capacity(self, chip) -> None:
        self.capacity["core"] += chip.core_cycle * len(chip.cores)
        self.capacity["dram"] += chip.dram_cycle * len(chip.mcs)
        self._network_capacity(chip.network)

    def _runner_capacity(self, runner) -> None:
        self._network_capacity(runner.network)

    def _network_capacity(self, system) -> None:
        for net in getattr(system, "networks", ()):
            self.capacity["router"] += net.cycle * len(net.routers)


# -----------------------------------------------------------------------------
# Derived per-layer metrics
# -----------------------------------------------------------------------------

#: (metric name, unit) in report order; BENCHMARK.json lists the same set.
LAYER_METRICS = (
    ("build.calls", "count"), ("build.s", "s"),
    ("parallel.run_tasks.s", "s"), ("parallel.self_s", "s"),
    ("chip.run.s", "s"), ("chip.step.calls", "count"),
    ("chip.step.self_s", "s"),
    ("gpu.core_step.calls", "count"), ("gpu.core_step.s", "s"),
    ("gpu.core_step.wake_ratio", "ratio"),
    ("gpu.on_reply.calls", "count"), ("gpu.on_reply.s", "s"),
    ("mem.mc_icnt_step.calls", "count"), ("mem.mc_icnt_step.s", "s"),
    ("mem.on_packet.calls", "count"), ("mem.on_packet.s", "s"),
    ("mem.dram_step.calls", "count"), ("mem.dram_step.s", "s"),
    ("mem.dram_step.busy_ratio", "ratio"),
    ("noc.step.calls", "count"), ("noc.step.s", "s"),
    ("noc.step.self_s", "s"), ("noc.step.idle_ratio", "ratio"),
    ("noc.try_inject.calls", "count"), ("noc.try_inject.s", "s"),
    ("noc.try_inject.refused", "count"),
    ("noc.router_step.calls", "count"), ("noc.router_step.s", "s"),
    ("noc.router_step.wake_ratio", "ratio"),
    ("noc.router_step.productive_ratio", "ratio"),
    ("noc.channel_deliver.calls", "count"),
    ("noc.channel_deliver.s", "s"),
    ("noc.channel_deliver.productive_ratio", "ratio"),
    ("noc.batched_sweep.calls", "count"), ("noc.batched_sweep.s", "s"),
    ("openloop.run.s", "s"), ("openloop.self_s", "s"),
)

#: Layers whose self times partition a traced pass (with the untimed
#: residual), in the order the Amdahl table prints them.
TIMED_LAYERS = (
    "parallel.run_tasks", "build", "chip.run", "chip.step",
    "gpu.core_step", "gpu.on_reply", "mem.mc_icnt_step", "mem.on_packet",
    "mem.dram_step", "noc.step", "noc.try_inject", "noc.router_step",
    "noc.channel_deliver", "noc.batched_sweep", "openloop.run",
)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(acc: Dict[str, List[int]],
                  capacity: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metric values from one traced pass's records."""
    def get(layer: str) -> List[int]:
        return acc.get(layer, [0, 0, 0, 0])

    def seconds(ns: int) -> float:
        return ns * 1e-9

    out: Dict[str, float] = {}
    for layer in ("build", "gpu.core_step", "gpu.on_reply",
                  "mem.mc_icnt_step", "mem.on_packet", "mem.dram_step",
                  "noc.step", "noc.try_inject", "noc.router_step",
                  "noc.channel_deliver", "noc.batched_sweep"):
        out[f"{layer}.calls"] = get(layer)[CALLS]
        out[f"{layer}.s"] = seconds(get(layer)[NS])
    out["parallel.run_tasks.s"] = seconds(get("parallel.run_tasks")[NS])
    out["parallel.self_s"] = seconds(get("parallel.run_tasks")[SELF_NS])
    out["chip.run.s"] = seconds(get("chip.run")[NS])
    out["chip.step.calls"] = get("chip.step")[CALLS]
    out["chip.step.self_s"] = seconds(get("chip.step")[SELF_NS])
    out["gpu.core_step.wake_ratio"] = _ratio(get("gpu.core_step")[CALLS],
                                             capacity["core"])
    out["mem.dram_step.busy_ratio"] = _ratio(get("mem.dram_step")[CALLS],
                                             capacity["dram"])
    step = get("noc.step")
    out["noc.step.self_s"] = seconds(step[SELF_NS])
    out["noc.step.idle_ratio"] = _ratio(step[OUTCOME], step[CALLS])
    inject = get("noc.try_inject")
    out["noc.try_inject.refused"] = inject[CALLS] - inject[OUTCOME]
    router = get("noc.router_step")
    out["noc.router_step.wake_ratio"] = _ratio(router[CALLS],
                                               capacity["router"])
    out["noc.router_step.productive_ratio"] = _ratio(router[OUTCOME],
                                                     router[CALLS])
    channel = get("noc.channel_deliver")
    out["noc.channel_deliver.productive_ratio"] = _ratio(channel[OUTCOME],
                                                         channel[CALLS])
    out["openloop.run.s"] = seconds(get("openloop.run")[NS])
    out["openloop.self_s"] = seconds(get("openloop.run")[SELF_NS])
    return out


def exact_counts(acc: Dict[str, List[int]],
                 capacity: Dict[str, int]) -> Dict[str, int]:
    """Every integer count of a traced pass: per layer its calls and
    outcome count, plus the ratio denominators.  A deterministic simulator
    repeats these exactly, so any difference between passes or runs of
    one commit is a failure, not noise."""
    counts = {f"{layer}.calls": slot[CALLS]
              for layer, slot in sorted(acc.items())}
    counts.update({f"{layer}.outcome": slot[OUTCOME]
                   for layer, slot in sorted(acc.items())})
    counts.update({f"capacity.{key}": value
                   for key, value in sorted(capacity.items())})
    return counts


def amdahl_rows(acc: Dict[str, List[int]], wall_s: float) -> List[tuple]:
    """(layer, inclusive s, self s, self share, inclusive share) per timed
    layer plus the untimed residual; the self shares sum to 1."""
    rows = []
    timed_self = 0.0
    for layer in TIMED_LAYERS:
        slot = acc.get(layer, [0, 0, 0, 0])
        incl, self_s = slot[NS] * 1e-9, slot[SELF_NS] * 1e-9
        timed_self += self_s
        rows.append((layer, incl, self_s, _ratio(self_s, wall_s),
                     _ratio(incl, wall_s)))
    residual = wall_s - timed_self
    rows.append(("(untimed: API calls, result decoding)", residual, residual,
                 _ratio(residual, wall_s), _ratio(residual, wall_s)))
    return rows
