"""Full pipeline on a ramping stream that crosses the discard bound.

Reproduces the characteristic trace of the adaptive scheme: while the
event rate is below a = 5e6 ev/s the filter keeps everything (gamma=1)
and package sizes grow with the rate; once the rate crosses the bound,
gamma drops so the filtered rate holds near a and the consumer keeps
up. Equivalent CLI run:

    asap run --scenario fig3 --out metrics.csv
"""

import numpy as np

from asap_stream import ConsumerConfig, PipelineConfig, RampRateSource, run


def main():
    config = PipelineConfig(consumer=ConsumerConfig(o_us=1000.0, c_ns=100.0))
    source = RampRateSource(1e5, 1e7, 5.0, seed=0)
    result = run(config, source)
    metrics = result.metrics

    print(f"{len(metrics)} packages; conservation holds:",
          result.conservation_holds())
    print(f"\n{'t_s':>5} {'rate_raw':>10} {'gamma':>7} {'size':>7} "
          f"{'lag_us':>9}")
    marks = np.searchsorted([m.clock_us for m in metrics],
                            np.arange(0.25e6, 5e6, 0.25e6))
    for i in marks:
        if i >= len(metrics):
            break
        m = metrics[i]
        print(f"{m.clock_us / 1e6:>5.2f} {m.rate_raw:>10.3g} {m.gamma:>7.3f} "
              f"{m.size:>7} {m.lag_us:>9.0f}")

    crossing = next(i for i, m in enumerate(metrics) if m.rate_raw >= 5e6)
    post = [m.rate_filtered for m in metrics[crossing + 50:]]
    print(f"\ngamma first dips below 1 at package {crossing}; afterwards the "
          f"filtered rate averages {np.mean(post):.3g} ev/s (bound 5e6)")
    print(f"total discarded by the filter: {result.dropped_by_filter} of "
          f"{result.source_events} events")


if __name__ == "__main__":
    main()
