"""Map-reduce substrate (laptop-scale stand-in for DryadLINQ, App. C.3)."""

from repro.parallel.engine import (
    ItemFailure,
    MapReduceEngine,
    MapStats,
    ProcessEngine,
    SerialEngine,
    choose_start_method,
    default_engine,
    parallel_warm_cache,
)
from repro.parallel.partition import partition

__all__ = [
    "ItemFailure",
    "MapReduceEngine",
    "MapStats",
    "ProcessEngine",
    "SerialEngine",
    "choose_start_method",
    "default_engine",
    "parallel_warm_cache",
    "partition",
]
