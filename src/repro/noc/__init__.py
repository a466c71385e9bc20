"""Cycle-level network-on-chip simulation substrate.

This package implements the Booksim-class NoC model the paper's evaluation
rests on: a 2D mesh of virtual-channel wormhole routers with credit-based
flow control, iSLIP-style separable switch allocation, dimension-ordered
routing, open-loop traffic generation, and the ideal-network models used by
the limit studies.
"""

from .arbiter import RoundRobinArbiter, SeparableAllocator
from .channel import Channel
from .histogram import StreamingHistogram, merge_histograms
from .ideal import BandwidthLimitedNetwork, PerfectNetwork
from .invariants import (DeadlockError, InvariantChecker,
                         InvariantViolation, audit_accelerator,
                         audit_network, audit_system, check_accelerator,
                         check_network, format_network_state,
                         format_system_state)
from .network import MeshNetwork, NocParams
from .openloop import LoadLatencyPoint, OpenLoopRunner
from .packet import (READ_REPLY_BYTES, READ_REQUEST_BYTES,
                     WRITE_REQUEST_BYTES, Flit, Packet, RouteGroup,
                     TrafficClass, read_reply, read_request, write_request)
from .router import (Router, RouterSpec, RoutingViolation,
                     full_connectivity, half_connectivity)
from .routing import DorXY, DorYX, RoutingAlgorithm, minimal_hops
from .stats import NetworkStats, merge_stats
from .topology import (Coord, Direction, Mesh, ejection_port,
                       injection_port, is_terminal_port)
from .traffic import (BernoulliInjector, DestinationPattern,
                      HotspotManyToFew, UniformManyToFew, UniformRandom)
from .vc import VcConfig, dedicated_vc_config, shared_vc_config

__all__ = [
    "BandwidthLimitedNetwork", "BernoulliInjector", "Channel", "Coord",
    "DeadlockError", "DestinationPattern", "Direction", "DorXY", "DorYX",
    "Flit", "HotspotManyToFew", "InvariantChecker", "InvariantViolation",
    "LoadLatencyPoint", "Mesh", "MeshNetwork",
    "NetworkStats", "NocParams", "OpenLoopRunner", "Packet",
    "PerfectNetwork", "READ_REPLY_BYTES", "READ_REQUEST_BYTES",
    "RouteGroup", "Router", "RouterSpec", "RoundRobinArbiter",
    "RoutingAlgorithm", "RoutingViolation", "SeparableAllocator",
    "StreamingHistogram", "TrafficClass", "UniformManyToFew",
    "UniformRandom", "VcConfig",
    "WRITE_REQUEST_BYTES", "audit_accelerator", "audit_network",
    "audit_system", "check_accelerator", "check_network",
    "dedicated_vc_config", "ejection_port", "format_network_state",
    "format_system_state", "full_connectivity", "half_connectivity",
    "injection_port", "is_terminal_port", "merge_histograms",
    "merge_stats", "minimal_hops",
    "read_reply", "read_request", "shared_vc_config", "write_request",
]
