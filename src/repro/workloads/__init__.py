"""Workload generators for the evaluation (paper Section 9.1)."""

from . import adctr, iot
from .adctr import AdCTRConfig
from .febench import (FEBenchConfig, TRIP_INDEX, TRIP_SCHEMA, feature_sql,
                      generate_trips)
from .iot import IoTConfig
from .glq import (GLQConfig, GLQResult, GridGLQEngine, RouteResult,
                  SparkGLQEngine, generate_points, route_for_n)
from .microbench import (MicroBenchConfig, MicroBenchData,
                         build_feature_sql, generate)
from .rtp import OpenMLDBTopN, RTPConfig, generate_events
from .talkingdata import TalkingDataConfig, generate_clicks

__all__ = [
    "MicroBenchConfig", "MicroBenchData", "generate", "build_feature_sql",
    "TalkingDataConfig", "generate_clicks", "RTPConfig", "generate_events",
    "OpenMLDBTopN", "GLQConfig", "GLQResult", "RouteResult",
    "GridGLQEngine", "SparkGLQEngine", "generate_points", "route_for_n", "FEBenchConfig", "TRIP_SCHEMA", "TRIP_INDEX",
    "generate_trips", "feature_sql",
    "adctr", "AdCTRConfig", "iot", "IoTConfig",
]
