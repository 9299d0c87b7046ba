"""Mesh network-on-chip connecting the accelerator tiles (paper Fig. 8).

A ``k x k`` mesh of routers (one per tile) with dimension-ordered (X-Y)
routing.  The simulator uses it for inter-layer activation
redistribution: after a layer completes, its output tensor moves to the
tiles holding the next layer's weights.

The topology is grid arithmetic; routing, bandwidth and energy are
modelled explicitly:

* per-hop latency = router traversal (2 cycles) + link/bus transfer
  (Table IV),
* aggregate bandwidth = one word per link per cycle across the bisection,
* per-word-per-hop energy = router + bus energy per operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.peripherals import BUS, ROUTER, SYSTEM_CLOCK_HZ


@dataclass(frozen=True)
class NocTransfer:
    """Cost of moving a block of words across the mesh."""

    words: int
    avg_hops: float
    latency_s: float
    energy_j: float


class MeshNoc:
    """k x k mesh with X-Y routing."""

    def __init__(self, n_tiles: int = 16) -> None:
        side = int(math.isqrt(n_tiles))
        if side * side != n_tiles:
            raise ValueError(f"n_tiles={n_tiles} is not a perfect square")
        self.side = side
        self.n_tiles = n_tiles
        #: router coordinates ``(x, y)``, row-major
        self.nodes = [(x, y) for x in range(side) for y in range(side)]

    # -- routing ---------------------------------------------------------
    def xy_route(
        self, src: "tuple[int, int]", dst: "tuple[int, int]"
    ) -> "list[tuple[int, int]]":
        """Dimension-ordered route: X first, then Y."""
        for node in (src, dst):
            if len(node) != 2 or not all(0 <= c < self.side for c in node):
                raise ValueError(f"node {node} outside {self.side}x{self.side} mesh")
        path = [src]
        x, y = src
        while x != dst[0]:
            x += 1 if dst[0] > x else -1
            path.append((x, y))
        while y != dst[1]:
            y += 1 if dst[1] > y else -1
            path.append((x, y))
        return path

    def hops(self, src: "tuple[int, int]", dst: "tuple[int, int]") -> int:
        return len(self.xy_route(src, dst)) - 1

    def average_hops(self) -> float:
        """Mean X-Y hop count over all (src, dst) pairs (uniform traffic)."""
        nodes = self.nodes
        total = sum(self.hops(s, d) for s in nodes for d in nodes)
        return total / (len(nodes) ** 2)

    # -- cost model --------------------------------------------------------
    @property
    def link_bandwidth_words_per_s(self) -> float:
        return SYSTEM_CLOCK_HZ  # one word per link per cycle

    @property
    def n_links(self) -> int:
        """Bidirectional links between neighbouring routers."""
        return 2 * self.side * (self.side - 1)

    def transfer(self, words: int) -> NocTransfer:
        """Uniform redistribution of ``words`` across the mesh.

        Throughput-limited by the aggregate link capacity divided by the
        average path length; latency adds one average-path pipeline fill.
        """
        if words < 0:
            raise ValueError("words cannot be negative")
        avg_hops = self.average_hops()
        if words == 0:
            return NocTransfer(0, avg_hops, 0.0, 0.0)
        aggregate_bw = self.n_links * self.link_bandwidth_words_per_s
        stream_s = words * avg_hops / aggregate_bw
        fill_s = avg_hops * (ROUTER.latency_s + BUS.latency_s)
        energy = words * avg_hops * (
            ROUTER.energy_per_op_j() + BUS.energy_per_op_j()
        )
        return NocTransfer(
            words=words,
            avg_hops=avg_hops,
            latency_s=stream_s + fill_s,
            energy_j=energy,
        )
