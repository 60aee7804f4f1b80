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
    "fig3": "20919f5cf87c7ba3c0c693342e2d43080501b03ced91e539533f80e7cf912285",
    "fig4": "941f146086700c5e5f11a36a5941a71303923d0c9211804d643cff78d6601e53",
    "constant":
        "440d82516323a7478fb7c69e4f21c107492a8d4d9fe2a0103c2dd36ca12bc172",
    # 459 packages, each with its own jitter draw
    "constant-jitter":
        "d3602ae5c40f4dbc37c5b6359bda11ebe19019c2166c4ad8e38cf5f448d900fe",
    # 96 packages of about 9970 events and 94951 overflow drops
    "constant-overflow":
        "48065d355420127122f348f5e6f0ea6cd5e56446ad92c7829be71cf5c128a341",
    # 478 packages of about 2100 events, most of them spanning two or
    # three 1024-event chunks
    "constant-chunks":
        "aac71f2aa9eb4b9a94c7620ceb5ba2f603a62235f860f28ed69e37d8bbc3e10c",
    # 804 packages and 694828 filter drops: packages spanning the kept
    # arrays of several chunks
    "constant-chunks-filtered":
        "2815dc7c4071a5407d8598d5016cb2a99fff18c436aa20de507a9c1a691e7176",
    # 841 packages and 6294622 filter drops on a ramp that falls through
    # the discard bound: the rate window's kept side counts on its own
    # while batches lose events, and takes the raw side's count again
    # once they are whole
    "ramp-down":
        "58b0fbbe14a8b89227ca0e776428ad70ba3e95ef3f7ada16a649ad17ffd290ad",
    # 12994 packages of about 23 events (o = 20 µs, c = 100 ns): the
    # cost fit settles and most reports repeat one (size, proc) pair
    # between appends, so size control counts them without a fold
    "constant-small":
        "1e0d75f5ff9b9c5833ca1efd882fc7fa1b472c162be92501503dbff6c8b54c03",
}

#: Runs that are not a bundled scenario as it stands: its name and the
#: overrides on top of it.
RUNS = {
    "constant-jitter": ("constant", ["--set", "consumer.jitter=0.2"]),
    # room for 1.2 packages of N* = 10000 events (o = 1000 µs, c·R =
    # 0.9): drop-oldest admission fires
    "constant-overflow": ("constant",
                          ["--set", "pipeline.input_buffer_capacity=12000",
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
