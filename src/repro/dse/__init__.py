"""Design-space exploration: constrained search, multi-fidelity
evaluation, and the Pareto frontier of throughput-effectiveness.

The paper's central artifact is a ranked design space (Figure 2); this
subsystem searches it instead of replaying seven hand-picked points:

* :mod:`repro.dse.space` — declarative :class:`SearchSpace` over
  :class:`~repro.core.builder.NetworkDesign` axes plus a mesh-size
  pseudo-axis, with the named constraint pass rejecting every illegal
  combination before any simulation;
* :mod:`repro.dse.engine` — the :func:`explore` fidelity ladder
  (open-loop screen → successive halving → full-mix confirm), fanned out
  through :mod:`repro.parallel` with deterministic seeds and the on-disk
  cache;
* :mod:`repro.dse.pareto` — exact two-objective (IPC, mm²) and
  three-objective (IPC, mm², W) frontiers with dominated-point
  bookkeeping;
* :mod:`repro.dse.result` — :class:`ExplorationResult` with pinned
  JSON/CSV artifact schemas;
* :mod:`repro.dse.presets` — ``figure2`` (the paper's walk,
  reproduced exactly), ``smoke`` (CI-sized), ``extended`` and ``power``
  (``figure2`` plus the 65/45/32/22 nm technology sweep).

Quickstart::

    from repro.dse import explore, preset

    result = explore(preset("figure2"), jobs=4, cache=True)
    print(result.ranking[0])          # "Throughput-Effective"
    result.write_artifacts("results/figure2")
"""

from .engine import (SEED_POLICIES, ExplorationSpec, FidelityLadder,
                     StageReport, explore)
from .pareto import (ParetoPoint, ParetoPoint3, ParetoResult, dominates,
                     dominates3, pareto_frontier, pareto_frontier3)
from .presets import (FIGURE2_DESIGNS, FULL_MIX, PRESETS, ROUND_MIX,
                      extended, figure2, power, preset, smoke)
from .result import (CSV_COLUMNS, NODE_CSV_COLUMNS, READABLE_SCHEMAS,
                     SCHEMA_VERSION, CandidateResult, ExplorationResult,
                     StageOutcome)
from .space import (MESH_AXIS, Axis, Candidate, RejectedPoint, SearchSpace,
                    design_label)

__all__ = [
    "Axis", "Candidate", "CandidateResult", "CSV_COLUMNS",
    "ExplorationResult", "ExplorationSpec", "FidelityLadder",
    "FIGURE2_DESIGNS", "FULL_MIX", "MESH_AXIS", "NODE_CSV_COLUMNS",
    "ParetoPoint", "ParetoPoint3", "ParetoResult", "PRESETS",
    "READABLE_SCHEMAS", "RejectedPoint", "ROUND_MIX", "SCHEMA_VERSION",
    "SearchSpace", "SEED_POLICIES", "StageOutcome", "StageReport",
    "design_label", "dominates", "dominates3", "explore", "extended",
    "figure2", "pareto_frontier", "pareto_frontier3", "power", "preset",
    "smoke",
]
