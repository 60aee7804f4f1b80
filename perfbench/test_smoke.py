"""Smoke test of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Tiny versions of every workload must print every metric BENCHMARK.json
names, with its unit; the correctness gate must trip on a consumer
wrapper that drops or reorders a package; and the command must fail
without a result when the program's sources are absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02  # stream length factor: ~0.5 M events for the ramp


def _command(workload, trace, cwd=ROOT):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    out = _command(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    report = "\n".join(lines[:-1])
    for m in listed:
        assert f" {m['name']} " in report and m["unit"] in report


class _DropOne:
    """Hands one package to the consumer behind the recorder's back."""

    def __init__(self, rec, seq=50):
        self.rec = rec
        self.seq = seq

    def process(self, package, clock):
        if package.seq == self.seq:
            return self.rec.inner.process(package, clock)
        return self.rec.process(package, clock)


class _SwapTwo:
    """Delivers package ``seq`` after package ``seq + 1``."""

    def __init__(self, rec, seq=50):
        self.rec = rec
        self.seq = seq
        self.held = None

    def process(self, package, clock):
        if package.seq == self.seq:
            self.held = package
            from asap_stream.packager import ProcessingFeedback
            return ProcessingFeedback(package.seq, package.size,
                                      package.span_us, package.span_us)
        feedback = self.rec.process(package, clock)
        if self.held is not None:
            self.rec.process(self.held, clock)
            self.held = None
        return feedback


@pytest.fixture(scope="module")
def tiny_input():
    asap = bench.load_package()
    w = WORKLOADS["small_packages"]
    # 0.1 s of stream: past the controller's warm-up, ~3 k packages
    return asap, w, w.generate(np.random.Generator(np.random.PCG64(5)), 0.1)


def test_gate_passes_a_sound_run(tiny_input):
    asap, w, events = tiny_input
    run = bench.Bench(asap, w, 5)
    assert run.run(events, deep=True)
    assert run.ok and run.failed == 0


@pytest.mark.parametrize("fault", [_DropOne, _SwapTwo])
def test_gate_trips_on_a_faulty_consumer(tiny_input, fault):
    asap, w, events = tiny_input
    run = bench.Bench(asap, w, 5)
    assert run.run(events, wrap=fault) is None
    assert not run.ok
    assert run.failed == run.attempted == len(events)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = _command("small_packages", 0, cwd=bare)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare)
