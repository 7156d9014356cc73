"""Host-speed calibration for timings on a shared machine.

On a shared host the same interpreter-bound work can run 1.3-1.9 times
slower for seconds to a minute and more (measured on a 2-vCPU Intel Xeon
virtual machine, where process CPU time slows just as much as wall time).  The
benchmark therefore times a fixed kernel next to every operation and reports

    scaled = wall * (REF_SECONDS / kernel_seconds) ** ALPHA

so that a timing reads in seconds of the reference host in its fast state
and most of a slow spell cancels out.  The kernel slows more than buildctl
does (1.8x against 1.45x for ``check_spherical`` on S0*Heawood), hence the
exponent: over nine consecutive passes of the dim1 and links ladders on the
reference host, ALPHA = 0.65-0.8 minimised the spread of ladder sums (0.2 raw,
0.02-0.08 scaled).  The kernel uses nothing from buildctl, so no change to
buildctl can move it.
"""

from __future__ import annotations

import heapq
import time
from fractions import Fraction

# kernel time on the reference host (2-vCPU Intel Xeon virtual machine) in its fast state
REF_SECONDS = 0.0064
ALPHA = 0.7


def _kernel() -> Fraction:
    """Shortest paths with Fraction weights on a 7x7 grid: the same kind of
    interpreter work (allocation, rational arithmetic, heaps, dicts) as buildctl."""
    n = 7
    adj: dict[int, list] = {}
    edges = []
    for i in range(n * n):
        r, c = divmod(i, n)
        if c + 1 < n:
            edges.append((i, i + 1, Fraction(1 + (i * 7) % 5, 3 + i % 4)))
        if r + 1 < n:
            edges.append((i, i + n, Fraction(2 + (i * 3) % 7, 5 + i % 3)))
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    total = Fraction(0)
    for s in range(0, n * n, 6):
        dist = {s: Fraction(0)}
        heap = [(Fraction(0), s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += max(dist.values())
    return total


def kernel_seconds() -> float:
    """Fastest of three kernel runs: the host's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(wall: float, kernel: float) -> float:
    """``wall`` in reference-host seconds, given the kernel time around it."""
    return wall * (REF_SECONDS / kernel) ** ALPHA
