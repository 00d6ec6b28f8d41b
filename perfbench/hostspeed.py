"""Host-speed samples taken inside a benchmark run.

On a shared host the CPU's speed changes from one second to the next
(another tenant's load on the same core slows the same code by up to
1.7x), so a run's wall time mixes the program's speed with the host's.
``start`` arms a timer that, every ``INTERVAL_S``, runs a fixed piece of
work (a "tick") in the run's own process and times it. The tick is a
pure-Python loop over a preallocated tuple whose arithmetic stays within
the interpreter's cached small integers: it allocates nothing, touches
a few cache lines and never calls the program, so its duration depends
on the host and hardly on what the program did before it. (A numpy
tick was tried and dropped: on the 1,500-sector workload it ran 2-3x
slower than on the others, with the host unchanged.) ``factor`` turns
the ticks of an interval into the host's slowdown against ``REF_TICK_S``,
the tick's duration inside a run on an uncontended host (about 40 us on
a 2-vCPU shared VM, x86-64, CPython 3; a contended second there takes
about 62 us). It averages the fastest three quarters of the ticks: a
tick that an interrupt or a context switch lands in says nothing about
the CPU's speed. The benchmark takes the ticks' own time out of a timing
and divides it by the factor of the interval it covers.

Ticks run between bytecodes of the main thread, so a long C call delays
the next one; the factor then describes the Python-level parts of the
interval.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
REF_TICK_S = 40e-6
_STEPS = (0,) * 1000

_samples: list[float] = []


def _on_alarm(signum, frame) -> None:
    t0 = time.perf_counter()
    x = 1
    for _ in _STEPS:
        x = (x * 3 + 1) & 63  # every value is a cached small int
    _samples.append(time.perf_counter() - t0)


def start() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def mark() -> int:
    """Index of the next sample; ``samples(a, b)`` is what came between two marks."""
    return len(_samples)


def samples(begin: int, end: int) -> list[float]:
    return _samples[begin:end]


def factor(ticks: list[float]) -> float | None:
    """The host's slowdown over the ticks: mean of the fastest 3/4 / REF_TICK_S."""
    if not ticks:
        return None
    kept = sorted(ticks)[:max(1, len(ticks) * 3 // 4)]
    return sum(kept) / len(kept) / REF_TICK_S
