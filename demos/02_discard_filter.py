"""The rate-adaptive discard filter in isolation.

Feeds a stream that jumps from 2e6 to 1e7 ev/s through the filter with
an upper bound a = 5e6 ev/s and prints how the keep-probability gamma
and the filtered rate react: gamma stays at 1 while the rate is below
the bound, then settles near a/rate = 0.5 so the filtered rate holds
at the bound.
"""

import numpy as np

from asap_stream import ConstantRateSource, GammaConfig, GammaFilter


def main():
    config = GammaConfig(a_evps=5e6, beta=0.25, rate_window_us=10_000)
    gfilter = GammaFilter(config, seed=0)

    slow = ConstantRateSource(2e6, 0.2, seed=1).events()
    fast = ConstantRateSource(1e7, 0.3, seed=2).events()
    fast["t"] += slow["t"][-1] + 1  # splice the overload after the calm phase
    stream = np.concatenate([slow, fast])

    print(f"{'t_ms':>6} {'rate_raw':>10} {'gamma':>7} {'rate_filtered':>14}")
    edges = np.searchsorted(stream["t"], np.arange(0, 500_001, 10_000))
    for i in range(len(edges) - 1):
        batch = stream[edges[i]:edges[i + 1]]
        if len(batch) == 0:
            continue
        gfilter.process(batch)
        # the rate window's kept side counts what the filter kept
        filtered = gfilter.window.fold_kept(gfilter.kept_t)
        if i % 5 == 0:
            print(f"{(i + 1) * 10:>6} {gfilter.rate_raw_evps:>10.3g} "
                  f"{gfilter.gamma:>7.3f} {filtered:>14.3g}")

    print(f"\nsteady state: gamma {gfilter.gamma:.3f} (expected a/rate = 0.5), "
          f"filtered rate {filtered:.3g} ev/s "
          f"(bound {config.a_evps:.3g})")


if __name__ == "__main__":
    main()
