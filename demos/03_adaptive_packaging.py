"""Closed-loop package sizing against a known consumer cost model.

Drives the packager with a constant 1e6 ev/s stream and a synthetic
consumer costing o = 1 ms per package plus c = 0.5 us per event. The
size at which processing time equals package span is
N* = o / (1/R - c) = 2000 events; watch the target converge there from
a deliberately bad initial guess.
"""

import numpy as np

from asap_stream import (ConstantRateSource, EventPackage, Packager,
                         PackagerConfig, ProcessingFeedback,
                         SlidingRateEstimator, predict_size)


def main():
    print("closed-form fixed point:",
          predict_size(1e6, 1e-3, 5e-7, 1, 1_000_000), "events\n")

    packager = Packager(PackagerConfig(initial_size=100, timeout_us=100_000))
    # the arrival rate the size law solves for, over a 10 ms window
    rate = SlidingRateEstimator(window_us=10_000)
    stream = ConstantRateSource(1e6, 1.0, seed=0).events()

    print(f"{'package':>8} {'target':>7} {'size':>6} {'span_us':>8} "
          f"{'proc_us':>8} {'lag_us':>8}")
    pos = 0
    for seq in range(200):
        # feed just enough stream to complete the next package
        while (emission := packager.next_emission()) is None:
            if pos >= len(stream):
                return
            batch = stream[pos:pos + 500]
            packager.append(batch, rate_evps=rate.update(batch["t"]))
            pos += 500
        pkg: EventPackage = emission.package
        proc_us = 1000.0 + 0.5 * pkg.size  # the consumer's affine cost
        packager.update_target_size(ProcessingFeedback(
            package_seq=pkg.seq, size=pkg.size, span_us=pkg.span_us,
            processing_time_us=proc_us))
        if seq < 10 or seq % 25 == 0:
            print(f"{seq:>8} {packager.target_size:>7} {pkg.size:>6} "
                  f"{pkg.span_us:>8} {proc_us:>8.0f} "
                  f"{proc_us - pkg.span_us:>8.0f}")

    print("\nfinal target:", packager.target_size,
          "(fixed point 2000 plus the configured headroom)")


if __name__ == "__main__":
    main()
