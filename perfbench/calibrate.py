"""A fixed amount of interpreter work that tracks how fast the host runs now.

The benchmark runs on a few cores of a shared host whose speed swings by
half for minutes at a time, so wall-clock throughput measured an hour apart
on the same code differs by more than any regression worth catching.
:func:`calibrate` times a fixed, deterministic loop of interpreted integer
arithmetic.  It imports nothing from the program, so no change to the
program can move it.  The measured process times it inside every untraced
pass (:class:`HostSampler`) and before and after every set-up probe, and
:func:`reference_seconds` rescales a wall time by the median of the
timings taken while it ran to what it would have been on a host where the
loop takes :data:`REFERENCE_KERNEL_S`.

Of the kernels tried (this loop; method calls; building small dicts; JSON
lines; struct unpacking with small objects; a mix of all of them), this
loop tracked a drifting host best: over a minute in which watch passes
slowed from 2.0 to 3.1 s, it cut their spread from 16% to 7% of the mean,
and it added the least noise of them when the host held steady.
"""

from __future__ import annotations

import statistics
import time

#: The loop's time on the reference host (a calm 2-vCPU x86-64 VM, CPython
#: 3.11): a "reference second" is a wall second on that host.
REFERENCE_KERNEL_S = 0.01


def kernel() -> int:
    """One fixed unit of work; returns a checksum so that it is all done."""
    total = 0
    for index in range(190_000):
        total += index & 7
    return total


def calibrate(repeats: int = 5) -> float:
    """The median wall time of ``repeats`` runs of :func:`kernel`, in seconds."""
    sampler = HostSampler()
    for _ in range(repeats):
        sampler.sample()
    return statistics.median(sampler.samples)


class HostSampler:
    """Times the kernel at points inside a measured pass, off the pass's clock.

    The host's speed changes within seconds, so samples taken between
    passes say little about the pass itself.  The measured process calls
    :meth:`sample` from its event sink (each verdict, each generated
    session), and reads time from :meth:`clock`, which leaves out the time
    spent sampling.  With ``enabled`` false nothing is sampled: traced
    passes time the event bus, and sampling would show up in it.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        if not self.enabled:
            return
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        """Seconds on a monotonic clock that stands still while sampling."""
        return time.perf_counter() - self.spent


def reference_seconds(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` measured while the kernel took ``kernel_s``, at reference speed."""
    return wall_s * REFERENCE_KERNEL_S / kernel_s
