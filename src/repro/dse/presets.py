"""Canonical explorations: ``figure2``, ``smoke``, ``extended``, ``power``.

Every preset runs every legal candidate of its space closed-loop on its
whole mix, so each preset's frontier is the frontier of its space.

* ``figure2`` replays the paper's Figure 2 walk exactly: the seven named
  design points, full-window closed-loop runs on the representative
  nine-benchmark mix with the fixed seed the original
  ``examples/design_space_exploration.py`` used — so its throughput-
  effectiveness ordering is number-for-number the one the example printed.
* ``smoke`` is a tiny constrained space (placement × routing × VCs ×
  buffer depth) sized for CI: 9 legal candidates × 3 benchmarks at
  200/400-cycle windows, about a second serial.
* ``extended`` sweeps beyond the paper's points (routing algorithms,
  channel widths, double networks, MC injection ports): 512 raw points,
  176 legal after the constraint pass, each run on the nine-benchmark
  mix.  Run it with ``--jobs`` and a warm cache; it is never run
  implicitly.
* ``power`` is ``figure2`` with the full 65/45/32/22 nm technology sweep:
  the *same* simulations (same tasks, same seeds, shared cache entries),
  so its (IPC, mm²) numbers are bit-identical to ``figure2``, plus an
  analytic (IPC, mm², W) frontier and per-node power reports.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from ..power.tech import DEFAULT_NODES

from ..core.builder import (BASELINE, CP_CR, CP_DOR, DOUBLE_BW,
                            DOUBLE_CP_CR, ONE_CYCLE, THROUGHPUT_EFFECTIVE,
                            _did_you_mean)
from ..workloads.profiles import PROFILES, QUICK_MIX
from .engine import ExplorationSpec
from .space import Axis, SearchSpace

#: The paper's seven Figure 2 design points, in the head example's order.
FIGURE2_DESIGNS = (BASELINE, ONE_CYCLE, DOUBLE_BW, CP_DOR, CP_CR,
                   DOUBLE_CP_CR, THROUGHPUT_EFFECTIVE)

FULL_MIX: Tuple[str, ...] = tuple(p.abbr for p in PROFILES)

#: ``smoke``'s mix: one LL, one LH and one HH benchmark.  The name is
#: older than ``smoke`` (it was the halving rounds' mix) and stays because
#: perfbench's ``chip_mesh`` workload imports it.
ROUND_MIX: Tuple[str, ...] = ("RD", "HSP", "BLK")


def figure2() -> ExplorationSpec:
    """The paper's seven named designs, evaluated exactly as the original
    example did: one fixed seed, full 400/1000-cycle windows, the
    representative nine-benchmark mix."""
    return ExplorationSpec(
        name="figure2",
        space=SearchSpace(name="figure2", designs=FIGURE2_DESIGNS),
        mix=QUICK_MIX,
        warmup=400,
        measure=1000,
        seed=11,
        seed_policy="fixed",
    )


def smoke() -> ExplorationSpec:
    """Tiny constrained exploration for CI and the DSE benchmark: 17 raw
    points (16 axis combinations plus the named CP-CR-4VC), half of them
    rejected up front by ``cr-requires-half-routers``."""
    space = SearchSpace(
        name="smoke",
        axes=(
            Axis("placement", ("top_bottom", "checkerboard")),
            Axis("routing", ("dor", "cr")),
            Axis("vcs_per_class", (1, 2)),
            Axis("vc_buffer_depth", (4, 8)),
        ),
        designs=(CP_CR,),
    )
    return ExplorationSpec(
        name="smoke",
        space=space,
        mix=ROUND_MIX,
        warmup=200,
        measure=400,
        seed=11,
        seed_policy="derived",
    )


def extended() -> ExplorationSpec:
    """The space the paper argued about, beyond its seven points: 512 raw
    axis combinations (placement × routing × half-routers × width × VCs ×
    buffer depth × double network × MC injection ports), 176 of them
    legal after the constraint pass, each run on the nine-benchmark mix
    (1,584 tasks); budget minutes, not seconds, and use ``--jobs``."""
    space = SearchSpace(
        name="extended",
        axes=(
            Axis("placement", ("top_bottom", "checkerboard")),
            Axis("routing", ("dor", "dor_yx", "cr", "romm")),
            Axis("half_routers", (False, True)),
            Axis("channel_width", (16, 32)),
            Axis("vcs_per_class", (1, 2)),
            Axis("vc_buffer_depth", (4, 8)),
            Axis("double_network", (False, True)),
            Axis("mc_inject_ports", (1, 2)),
        ),
    )
    return ExplorationSpec(
        name="extended",
        space=space,
        mix=QUICK_MIX,
        warmup=400,
        measure=1000,
        seed=11,
        seed_policy="derived",
    )


def power() -> ExplorationSpec:
    """``figure2`` across the technology table: identical simulation
    tasks (so cache entries and every (IPC, mm²) number are shared
    bit-for-bit with ``figure2``) priced at all of 65/45/32/22 nm, with
    the (IPC, mm², W) frontier at the 65 nm base node."""
    return dataclasses.replace(figure2(), name="power",
                               tech_nodes=DEFAULT_NODES)


PRESETS: Dict[str, object] = {
    "figure2": figure2,
    "smoke": smoke,
    "extended": extended,
    "power": power,
}


def preset(name: str) -> ExplorationSpec:
    """Look up a preset by name; unknown names get a did-you-mean hint."""
    try:
        factory = PRESETS[name]
    except KeyError:
        hint = _did_you_mean(name, PRESETS)
        raise KeyError(f"unknown preset {name!r};{hint} known: "
                       f"{sorted(PRESETS)}") from None
    return factory()
