"""The benchmark's faulty-consumer check still reaches its fault: a
wrapper that raised before reordering anything would fail the pass and
so pass ``perfbench/test_smoke.py`` without the gate seeing a swap."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run as bench  # noqa: E402
from test_smoke import _SwapTwo  # noqa: E402


def test_swapped_packages_trip_the_gate_without_a_raise():
    asap, w = bench.load_package(), bench.WORKLOADS["small_packages"]
    events = w.generate(np.random.Generator(np.random.PCG64(5)), 0.1)
    run = bench.Bench(asap, w, 5)
    assert run.run(events, wrap=_SwapTwo) is None
    assert not [p for p in run.problems if p.startswith("pass raised")]
    assert "delivered package seq is not 0, 1, 2, ..." in run.problems
