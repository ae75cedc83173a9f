"""How fast the host runs Python at the moment: a fixed reference task.

The benchmark's host is a few virtual CPUs of a shared machine.  When other
tenants load it, the same fuzzing round runs up to 40% slower, in states
that last from milliseconds to minutes, while the wall-CPU gap stays small:
the program runs slower, it is not descheduled.  A run that timed only the
workload would measure that state as much as the program.

:func:`sample` times one fixed pure-Python task (object, dict, list, string
and sort work, under a millisecond) with the collector paused, so it leaves
the workload's collection schedule alone.  The in-process workloads take
one sample after every step, so the samples see the host in the states the
steps see; the grid's worker processes take theirs from a thread
(:func:`sample_forked_children`).  A time multiplied by the host factor,
``NOMINAL_S`` over the mean sample time around it, is *normalised*: the time
the same work takes when one reference task takes ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time

#: Seconds one reference task takes at the nominal host speed, about the
#: mean of the samples taken during rounds on a 2-vCPU virtual machine
#: (Intel Xeon, Python 3.11.7).  It only sets the scale: normalised times
#: compare with each other whatever it reads.
NOMINAL_S = 0.8e-3

#: Samples on each side of a step that set its host factor.
WINDOW = 3

#: Seconds between samples in a worker process (about 2% of a CPU).
WORKER_INTERVAL_S = 0.05

_KEYS = tuple(f"key{i:03d}" for i in range(61))


class _Item:
    __slots__ = ("name", "weight")

    def __init__(self, name: str, weight: int) -> None:
        self.name = name
        self.weight = weight


def _task() -> int:
    total = 0
    counts: dict[str, int] = {}
    for turn in range(16):
        items = [_Item(key, (i * 7 + turn) % 13) for i, key in enumerate(_KEYS)]
        for item in items:
            counts[item.name] = counts.get(item.name, 0) + item.weight
        picked = [item.name.upper() for item in items if item.weight & 1]
        total += len("/".join(picked)) + max(counts.values())
        items.sort(key=lambda item: (item.weight, item.name))
        total += items[0].weight
    return total


def sample(clock=time.perf_counter) -> float:
    """Seconds, by ``clock``, that one reference task takes now.

    The task's objects are all freed before it returns, so pausing the
    collector moves no collection of the workload's.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        _task()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float]) -> float:
    """Host factor for times taken while ``samples`` were."""
    return NOMINAL_S / statistics.fmean(samples)


def step_factors(samples: list[float]) -> list[float]:
    """Host factor of each step, where ``samples[i]`` was taken after step i.

    Step i's factor comes from the ``WINDOW`` samples before it and the
    ``WINDOW`` after it.
    """
    return [
        factor(samples[max(0, i - WINDOW):i + WINDOW])
        for i in range(len(samples))
    ]


def _sample_every(sink) -> None:
    while True:
        time.sleep(WORKER_INTERVAL_S)
        # Thread CPU time: a wait for a CPU the workers hold is not counted,
        # only how fast the task ran once it had one.
        sink(sample(time.thread_time))


def sample_forked_children(directory) -> None:
    """Take reference samples in every process forked from now on.

    Each child starts a daemon thread that samples every
    ``WORKER_INTERVAL_S`` and appends each sample, in seconds, as a line of
    ``directory/reference-<pid>.txt``, unbuffered, because a process pool
    ends its workers without running their exit handlers.  Fork hooks cannot
    be removed: call this once, in a process that ends with the work.
    """

    def start() -> None:
        path = os.path.join(directory, f"reference-{os.getpid()}.txt")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        threading.Thread(
            target=_sample_every,
            args=(lambda s: os.write(fd, f"{s!r}\n".encode()),),
            daemon=True,
        ).start()

    os.register_at_fork(after_in_child=start)


def forked_samples(directory) -> list[float]:
    """Every sample the forked children wrote to ``directory``."""
    samples = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("reference-"):
            with open(os.path.join(directory, name), encoding="ascii") as fh:
                samples.extend(float(line) for line in fh)
    return samples
