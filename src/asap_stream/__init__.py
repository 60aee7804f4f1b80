"""Adaptive event packaging for event-camera streams.

Feeds an event-by-event consumer through variable-size event packages
whose size is closed-loop matched to the consumer's processing time,
with a rate-adaptive random discard filter capping the delivered event
rate under overload.
"""

from .errors import AsapError, ConfigurationError, EventFileError, OrderingError
from .events import (EVENT_DTYPE, DAVIS346, ArraySource, ConstantRateSource,
                     EventPackage, RampRateSource, SensorGeometry,
                     StreamSource, make_events, read_event_file,
                     read_events, write_event_file)
from .gamma import (GammaConfig, GammaFilter, SlidingRateEstimator,
                    apply_filter)
from .packager import AffineCostModel, Packager, PackagerConfig, predict_size
from .consumers import (ClusteringConsumer, SyntheticConsumer, VirtualClock,
                        WallClock)
from .pipeline import (ConsumerConfig, PackageMetrics, PipelineConfig,
                       RunResult, build_consumer, run, write_metrics_csv)

__version__ = "0.1.0"

__all__ = [
    "AsapError", "ConfigurationError", "EventFileError", "OrderingError",
    "EVENT_DTYPE", "DAVIS346", "ArraySource", "ConstantRateSource",
    "EventPackage", "RampRateSource", "SensorGeometry", "StreamSource",
    "make_events", "read_event_file", "read_events", "write_event_file",
    "GammaConfig", "GammaFilter", "SlidingRateEstimator", "apply_filter",
    "AffineCostModel", "Packager", "PackagerConfig", "predict_size",
    "ClusteringConsumer", "SyntheticConsumer", "VirtualClock", "WallClock",
    "ConsumerConfig", "PackageMetrics", "PipelineConfig", "RunResult",
    "build_consumer", "run", "write_metrics_csv",
]
