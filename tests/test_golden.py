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
    "fig3": "0df44ddf2abe0cb6ca7cf2b4c89842db6417e23e55a9f637cf0b6b31e3ba2cfe",
    "fig4": "1d9cc512a401b1f26a92a27aa46923825fe05ac105a8b5efa640327760d2cbfc",
    "constant":
        "19416b30b202bda2007b09e0bdcb7209bd1f2e7e61f4903eee0d2e6c80411d94",
    # 454 packages, each with its own jitter draw
    "constant-jitter":
        "97402127360f1c4b10ce94c1b81434df2a49f86bc8bf7de437c328dc47b9559d",
    # 31 packages and 738633 overflow drops
    "constant-overflow":
        "7a5ef151a035c668910ba9b0db5be753d2b0d16c129e3a0d25933616267d553d",
    # 494 packages of about 2100 events, most of them spanning two or
    # three 1024-event chunks
    "constant-chunks":
        "b978265f3518eb10cebef80d14c920ddcaf11ebab73744f619214bca77242c85",
    # 813 packages and 694828 filter drops: packages spanning the kept
    # arrays of several chunks
    "constant-chunks-filtered":
        "68557a6e89fea4e5bdcd39cb4c354e0457ee2c49d1a895fd02ddfdaa04cfd258",
    # 796 packages and 6294622 filter drops on a ramp that falls through
    # the discard bound: the rate window's kept side counts on its own
    # while batches lose events, and takes the raw side's count again
    # once they are whole
    "ramp-down":
        "684d61e4b56c9ac1d704a6c4967ff4fb77af002b77c116309d96af863ebb2f8f",
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
