"""Golden digests of virtual-mode metrics CSVs.

Each digest is the sha256 of the file ``asap run --scenario <scenario>
--seed 0`` writes, with the run's extra ``--set`` overrides. The bundled
scenarios pin the run's behaviour byte for byte; the overridden runs pin
what they leave idle: a jittered consumer (one draw per package, so
every ``proc_us`` differs), a buffer small enough that the drop-oldest
guard fires (non-zero ``drop_overflow``), and 1024-event chunks,
unfiltered and filtered, in which most packages span several of the
packager's appended batches, a ramp that falls through the discard
bound, and a small-package run whose reports the cost fit predicts. A
change that is meant to alter no behaviour (a refactor, a faster hot
path) must keep every digest. A change that alters behaviour on purpose
updates the digest here and says why in CHANGES.md.
"""

import hashlib

import pytest

from asap_stream.cli import main

GOLDEN_SHA256 = {
    "fig3": "52b38c898894b06b9dd0435450b8f64b045569512ecbecd9b9f26c889ce06d4a",
    "fig4": "b5a337d9ce34bfe200d81b985dda39c08b27d14f127cd3b778e6742996f6ee8d",
    "constant":
        "c86a5d608c28aea5af754960cfc21d504009e8646cbbc360b4575ed3f710d1d3",
    # 458 packages, each with its own jitter draw
    "constant-jitter":
        "f4cd9c509290e102b2180a96a95c4388eb655852b769717ff23793a703900365",
    # 96 packages of about 9970 events and 86159 overflow drops
    "constant-overflow":
        "6d6b12977651dd606c84408fc2076662698eb9c6231ee60aa1eaddc8a01c3177",
    # 478 packages of about 2100 events, most of them spanning two or
    # three 1024-event chunks
    "constant-chunks":
        "8be0e464bdf62b8403354cac6d45fca562bbe26300feb8fe76b457f08c0fe93d",
    # 802 packages and 694828 filter drops: packages spanning the kept
    # arrays of several chunks
    "constant-chunks-filtered":
        "689958d50706013d461061889be51457e96d98fe321354f773a2271d94dd3a2f",
    # 504 packages and 6294622 filter drops on a ramp that falls through
    # the discard bound: the rate window's kept side counts on its own
    # while batches lose events, and takes the raw side's count again
    # once they are whole; the backlog of the overload drains in
    # packages that each span one timeout
    "ramp-down":
        "fcb3d64e7c554c733e173ab39e66b368db559b2b94d6b645cc47ad49bb142fd0",
    # 12185 packages of about 23 events (o = 20 µs, c = 100 ns): once
    # the cost fit is ready, almost every report is its prediction, so
    # size control counts it without a fold
    "constant-small":
        "cfd6c6ecf0f7ad4adf4936d0eb9251dbd12eb54ecd7dd7f30016520d1416eb09",
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
