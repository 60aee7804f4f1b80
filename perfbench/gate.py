"""Correctness gate: a recording consumer wrapper and the checks on a run.

The recorder sits between the pipeline and the consumer it was given,
so it sees exactly what the consumer was handed. Per package it keeps
five scalars in flat arrays (kept small so that it barely shows in
``peak_mem_mb``): sequence number, size, oldest and newest timestamp,
and the run clock when the consumer finished. Latency is that clock
minus the oldest timestamp.
"""

from __future__ import annotations

from array import array

import numpy as np


class Recorder:
    """Consumer wrapper that records every delivered package.

    With ``deep`` it also checks timestamp order inside each package,
    an O(size) pass kept out of the timed passes.
    """

    def __init__(self, inner, deep: bool = False):
        self.inner = inner
        self.deep = deep
        self.seq = array("q")
        self.size = array("q")
        self.first = array("q")
        self.last = array("q")
        self.done_us = array("d")
        self.unordered = 0

    def process(self, package, clock):
        feedback = self.inner.process(package, clock)
        t = package.events["t"]
        self.done_us.append(clock.now_us)
        self.seq.append(package.seq)
        self.size.append(len(t))
        if len(t):
            self.first.append(t[0])
            self.last.append(t[-1])
            if self.deep and np.any(t[1:] < t[:-1]):
                self.unordered += 1
        else:
            self.first.append(0)
            self.last.append(0)
        return feedback

    def latencies_us(self) -> np.ndarray:
        """Completion on the run's clock minus each package's oldest event."""
        return np.asarray(self.done_us) - np.asarray(self.first)


def check(result, rec: Recorder) -> list[str]:
    """Every way the run broke the pipeline's contract; empty when sound."""
    problems = []
    if not result.conservation_holds():
        problems.append("event conservation identity does not hold")
    if result.residual_events:
        problems.append(f"{result.residual_events} events left in the buffer")
    seq = np.asarray(rec.seq)
    size = np.asarray(rec.size)
    first = np.asarray(rec.first)
    last = np.asarray(rec.last)
    if not np.array_equal(seq, np.arange(len(seq))):
        problems.append("delivered package seq is not 0, 1, 2, ...")
    if np.any(size < 1):
        problems.append("an empty package was delivered")
    if int(size.sum()) != result.packaged_events:
        problems.append(f"delivered sizes sum to {int(size.sum())}, run "
                        f"reports {result.packaged_events} packaged events")
    if np.any(last < first) or rec.unordered:
        problems.append("timestamps decrease inside a package")
    if np.any(first[1:] < last[:-1]):
        problems.append("timestamps decrease across packages")
    reported = [(m.seq, m.size) for m in result.metrics]
    if reported != list(zip(seq.tolist(), size.tolist())):
        problems.append("metrics rows do not match the delivered packages")
    return problems
