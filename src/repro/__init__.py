"""repro — reproduction of *Throughput-Effective On-Chip Networks for
Manycore Accelerators* (Bakhoda, Kim, Aamodt; MICRO 2010).

The package is organised as one subpackage per subsystem:

* :mod:`repro.noc` — cycle-level NoC substrate (mesh, VC wormhole routers,
  iSLIP allocation, DOR routing, ideal networks, open-loop harness).
* :mod:`repro.core` — the paper's contribution: checkerboard placement,
  half-routers, checkerboard routing, channel slicing, multi-port MC
  routers, and the named design points of the evaluation.
* :mod:`repro.mem` — caches, MSHRs, GDDR3 DRAM with FR-FCFS, MC nodes.
* :mod:`repro.gpu` — SIMT compute cores (warps, coalescing, L1).
* :mod:`repro.workloads` — the Table I benchmark suite as synthetic
  traffic-faithful kernels.
* :mod:`repro.system` — the closed-loop chip, clock domains, metrics and
  the bandwidth limit study.
* :mod:`repro.area` — ORION-calibrated area model and the
  throughput-effectiveness (IPC/mm²) metric.
* :mod:`repro.dse` — design-space exploration: constrained search over
  the design axes, closed-loop evaluation of every legal point, Pareto
  frontiers.

Quickstart::

    from repro.core import THROUGHPUT_EFFECTIVE
    from repro.system import build_chip
    from repro.workloads import profile

    chip = build_chip(profile("RD"), design=THROUGHPUT_EFFECTIVE)
    result = chip.run(warmup=1000, measure=3000)
    print(result.ipc)
"""

__version__ = "1.0.0"

from . import (area, core, dse, experiments, gpu, mem, noc, system,
               telemetry, workloads)

__all__ = ["area", "core", "dse", "experiments", "gpu", "mem", "noc",
           "system", "telemetry", "workloads",
           "__version__"]
