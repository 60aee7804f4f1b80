"""Synthetic event streams: constant-rate and ramped Poisson sources.

Generates two streams, prints their basic statistics, and shows the
CSV round trip. Everything is seeded, so reruns print the same numbers.
"""

import tempfile
from pathlib import Path

import numpy as np

from asap_stream import (ConstantRateSource, RampRateSource, read_events,
                         write_event_file)


def describe(name, events):
    duration_s = events["t"][-1] / 1e6
    print(f"{name}: {len(events)} events over {duration_s:.2f} s "
          f"(~{len(events) / duration_s:.3g} ev/s), "
          f"x in [{events['x'].min()}, {events['x'].max()}], "
          f"polarity balance {np.mean(events['p'] == 1):.3f}")


def main():
    constant = ConstantRateSource(rate_evps=1e5, duration_s=1.0,
                                  seed=42).events()
    describe("constant 1e5 ev/s", constant)

    ramp = RampRateSource(rate_start_evps=1e4, rate_end_evps=1e6,
                          duration_s=2.0, seed=42).events()
    describe("ramp 1e4 -> 1e6 ev/s", ramp)
    # the ramp packs most of its events into the fast half
    halfway = np.searchsorted(ramp["t"], 1_000_000)
    print(f"  first half holds {halfway / len(ramp):.1%} of the events")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        write_event_file(path, constant)
        back = read_events(path)
        print(f"CSV round trip: wrote {len(constant)}, read {len(back)}, "
              f"identical: {np.array_equal(constant, back)}")


if __name__ == "__main__":
    main()
