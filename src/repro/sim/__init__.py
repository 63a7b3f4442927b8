"""Discrete-event simulation kernel (time unit: microseconds)."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Pipe, Resource, Store
from .rng import SeededRng, derive_seed
from .trace import TraceRecord, Tracer, chrome_trace_doc

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Pipe",
    "Process",
    "Resource",
    "SeededRng",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "chrome_trace_doc",
    "derive_seed",
]
