"""Golden digests of virtual-mode metrics CSVs.

Each digest is the sha256 of the file ``asap run --scenario <scenario>
--seed 0`` writes, with the run's extra ``--set`` overrides. The bundled
scenarios pin the run's behaviour byte for byte; the overridden runs pin
what they leave idle: a jittered consumer (one draw per package, so
every ``proc_us`` differs), a buffer small enough that the drop-oldest
guard fires (non-zero ``drop_overflow``), and 1024-event chunks,
unfiltered and filtered, in which most packages span several of the
packager's appended batches, a ramp that falls through the discard
bound, and a small-package run whose reports settle and repeat. A
change that is meant to alter no behaviour (a refactor, a faster hot
path) must keep every digest. A change that alters behaviour on purpose
updates the digest here and says why in CHANGES.md.
"""

import hashlib

import pytest

from asap_stream.cli import main

GOLDEN_SHA256 = {
    "fig3": "47e6258ca41577f7c56235534bee6461fefca424c47aaa66002644f3919eea53",
    "fig4": "f4be3f966ac063c78beb1bdc8c9869f4ffd0c3c755eb069729dcb2cc425cf66b",
    "constant":
        "2699a875e420d80a298979c53a7917f2e7ea8708dda38e4bc2d9c1ffb5b6661c",
    # 463 packages, each with its own jitter draw
    "constant-jitter":
        "250907040b5f354ac5b5ff5dad7b87773e346173ba6dc009a4165f1c8571a33e",
    # 33 packages and 723279 overflow drops
    "constant-overflow":
        "a3ac2507e1cd9badf043e23f9c19b18586530ed376dd1859cbf44a8990c839f0",
    # 484 packages of about 2100 events, most of them spanning two or
    # three 1024-event chunks
    "constant-chunks":
        "04f08da518c4c5af1820cdfe70d3011cab2b2acc2bf83e89e29ce88d4a26efc5",
    # 809 packages and 694828 filter drops: packages spanning the kept
    # arrays of several chunks
    "constant-chunks-filtered":
        "116b4cd3a3bd5772c5b0b8572dfb5d83a4d01c116a52ed7b46a482f9c45addc2",
    # 863 packages and 6294622 filter drops on a ramp that falls through
    # the discard bound: the rate window's kept side counts on its own
    # while batches lose events, and takes the raw side's count again
    # once they are whole
    "ramp-down":
        "87fe4107fe07734c58d58dd0fdfb271c1e2aaa648ec7e6fc78805cf230b9618c",
    # 12794 packages of about 23 events (o = 20 µs, c = 100 ns): the
    # cost fit settles and most reports repeat one (size, proc) pair
    # between appends, so size control counts them without a fold
    "constant-small":
        "85efa1d6551008151ecb0c2490019c990f70e6f39cb0d1d5c2ad4f627bc8396a",
}

#: Runs that are not a bundled scenario as it stands: its name and the
#: overrides on top of it.
RUNS = {
    "constant-jitter": ("constant", ["--set", "consumer.jitter=0.2"]),
    "constant-overflow": ("constant",
                          ["--set", "pipeline.input_buffer_capacity=20000",
                           "--set", "consumer.c_ns=900"]),
    "constant-chunks": ("constant", ["--set", "source.chunk_events=1024"]),
    "constant-chunks-filtered": ("constant",
                                 ["--set", "source.chunk_events=1024",
                                  "--set", "gamma.a=3e5"]),
    "ramp-down": ("ramp", ["--set", "source.rate_start_evps=1e7",
                           "--set", "source.rate_end_evps=1e5",
                           "--set", "source.chunk_events=4096"]),
    "constant-small": ("constant", ["--set", "consumer.o_us=20",
                                    "--set", "consumer.c_ns=100",
                                    "--set", "packager.initial_size=23",
                                    "--set", "source.duration_s=0.3"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_metrics_csv_digest(name, tmp_path, capsys):
    scenario, overrides = RUNS.get(name, (name, []))
    out = tmp_path / f"{name}.csv"
    assert main(["run", "--scenario", scenario, "--seed", "0",
                 "--out", str(out), *overrides]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        GOLDEN_SHA256[name]
