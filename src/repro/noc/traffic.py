"""Synthetic open-loop traffic patterns.

The paper's open-loop evaluation (Figure 21) uses many-to-few-to-many
traffic: every compute node sends 1-flit read requests to the 8 MC nodes —
uniformly, or with a hotspot where 20 % of requests target one MC — and
each MC answers every request with a 4-flit read reply.
"""

from __future__ import annotations

import copy
import random
from typing import Callable, List, Optional, Sequence

from .topology import Coord

#: ``Random.choice(seq)`` is exactly ``seq[self._randbelow(len(seq))]``,
#: and ``_randbelow(n)`` is the rejection loop inlined below (draws
#: ``getrandbits(n.bit_length())`` until the value lands under ``n``).
#: Replicating it here — skipping the method binding and two wrapper
#: frames per draw — consumes the identical bits from the identical RNG
#: state, so traces stay bit-for-bit reproducible.  Pinned by
#: ``test_pick_matches_random_choice``-style draw-identity assertions.
_randbelow = random.Random._randbelow


class DestinationPattern:
    """Chooses a destination for each generated packet."""

    def pick(self, src: Coord, rng: random.Random) -> Coord:
        raise NotImplementedError

    def relabel(self, label: Callable[[Coord], int]) -> "DestinationPattern":
        """This pattern, drawing alike, over ``label(node)`` for each node
        (held in attributes as a ``Coord`` or a list of them)."""
        twin = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, Coord):
                setattr(twin, name, label(value))
            elif (isinstance(value, list) and value
                  and all(isinstance(node, Coord) for node in value)):
                setattr(twin, name, [label(node) for node in value])
        return twin


class UniformManyToFew(DestinationPattern):
    """Uniform-random choice over the memory-controller nodes."""

    def __init__(self, mc_nodes: Sequence[Coord]) -> None:
        if not mc_nodes:
            raise ValueError("need at least one MC node")
        self.mc_nodes = list(mc_nodes)
        self._n = len(self.mc_nodes)
        self._k = self._n.bit_length()

    def pick(self, src: Coord, rng: random.Random) -> Coord:
        if type(rng) is random.Random:
            n = self._n
            getrandbits = rng.getrandbits
            r = getrandbits(self._k)
            while r >= n:
                r = getrandbits(self._k)
            return self.mc_nodes[r]
        return rng.choice(self.mc_nodes)  # subclass / test double


class HotspotManyToFew(DestinationPattern):
    """Hotspot traffic: ``hotspot_fraction`` of requests go to one MC (the
    paper uses 20 % versus the uniform 1/8 = 12.5 %), the rest uniformly to
    the other MCs."""

    def __init__(self, mc_nodes: Sequence[Coord],
                 hotspot_fraction: float = 0.2,
                 hotspot: Optional[Coord] = None) -> None:
        if not 0.0 < hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be in (0, 1]")
        self.mc_nodes = list(mc_nodes)
        self.hotspot = hotspot if hotspot is not None else self.mc_nodes[0]
        if self.hotspot not in self.mc_nodes:
            raise ValueError("hotspot must be one of the MC nodes")
        self.hotspot_fraction = hotspot_fraction
        self._others = [m for m in self.mc_nodes if m != self.hotspot]

    def pick(self, src: Coord, rng: random.Random) -> Coord:
        if not self._others or rng.random() < self.hotspot_fraction:
            return self.hotspot
        return rng.choice(self._others)


class UniformRandom(DestinationPattern):
    """Uniform-random all-to-all over a node set (excluding the source);
    used for substrate validation rather than paper experiments."""

    def __init__(self, nodes: Sequence[Coord]) -> None:
        if len(nodes) < 2:
            raise ValueError("need at least two nodes")
        self.nodes = list(nodes)

    def pick(self, src: Coord, rng: random.Random) -> Coord:
        dest = rng.choice(self.nodes)
        while dest == src:
            dest = rng.choice(self.nodes)
        return dest


#: The destination patterns addressable by name, as ``repro sweep``
#: selects them (``hotspot`` pins the paper's 20 % fraction).  Every
#: factory here must stay picklable for process-pool fan-out.
NAMED_PATTERNS = ("uniform", "hotspot")


def named_pattern_factory(name: str):
    """Resolve a pattern name to its picklable factory; raises
    ``KeyError`` for unknown names."""
    if name == "uniform":
        return UniformManyToFew
    if name == "hotspot":
        import functools
        return functools.partial(HotspotManyToFew, hotspot_fraction=0.2)
    raise KeyError(f"unknown traffic pattern {name!r}; "
                   f"known: {list(NAMED_PATTERNS)}")


class BernoulliInjector:
    """Per-node Bernoulli injection process at a given packet rate."""

    def __init__(self, rate: float, rng: random.Random) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self.rate = rate
        self._rng = rng

    def fires(self) -> bool:
        return self._rng.random() < self.rate
