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
    "fig3": "b67b4d7938365ad7c159bb199f3fd5c9dcc84ff2e7a88fca6fd6b20039d35fab",
    "fig4": "39f958ae3b0d993a04ae11ff99d883e724763b13db4d173e8ecc343971c866b8",
    "constant":
        "2123d16beaa986e2ae5c7e836871536b588de89e4a368880c688858c1284235c",
    # 458 packages, each with its own jitter draw
    "constant-jitter":
        "e76565cfe30436371998df76b171ab6ac477b64338edc0e58dcad5cfe99220c2",
    # 33 packages and 717038 overflow drops
    "constant-overflow":
        "429e73cccb3c9348057fd85faf2d163a80577e18ea2a86af8e00837b45852b17",
    # 478 packages of about 2100 events, most of them spanning two or
    # three 1024-event chunks
    "constant-chunks":
        "aac71f2aa9eb4b9a94c7620ceb5ba2f603a62235f860f28ed69e37d8bbc3e10c",
    # 804 packages and 694828 filter drops: packages spanning the kept
    # arrays of several chunks
    "constant-chunks-filtered":
        "2815dc7c4071a5407d8598d5016cb2a99fff18c436aa20de507a9c1a691e7176",
    # 850 packages and 6294622 filter drops on a ramp that falls through
    # the discard bound: the rate window's kept side counts on its own
    # while batches lose events, and takes the raw side's count again
    # once they are whole
    "ramp-down":
        "ce7880232be761e77664dbb0fb12506647bb7ccde1ff03e0bfab6d8ed4b293bf",
    # 12795 packages of about 23 events (o = 20 µs, c = 100 ns): the
    # cost fit settles and most reports repeat one (size, proc) pair
    # between appends, so size control counts them without a fold
    "constant-small":
        "4b8462d33b623641adca6617c694fdfa9f64dd833d7a5fbed81335cead12a66d",
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
