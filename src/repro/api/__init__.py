"""Unified public API: one registry, capability-aware sessions, fleet executor.

This package is the single dispatch seam of the reproduction.  Every
algorithm is described by an :class:`AlgorithmDescriptor` (callable +
streaming factory + capability flags) in one registry; the
:class:`Simplifier` session facade routes any workload shape through it:

- ``Simplifier(name, epsilon).run(trajectory)`` — batch,
- ``.open_stream()`` — push/finish streaming, auto-wrapping batch-only
  algorithms in :class:`BufferedBatchAdapter`,
- ``.run_many(trajectories, workers=N)`` — fleet-scale execution over
  node worker processes with per-trajectory error isolation.

The CLI, the experiment harness, the streaming hub and
:func:`repro.metrics.evaluate_fleet` all dispatch through here, and there is
no second registry: look algorithms up with :func:`get_descriptor` /
:func:`list_descriptors` and register new ones with
:func:`register_algorithm`.
"""

from .descriptors import (
    ERROR_METRICS,
    AlgorithmDescriptor,
    algorithm_names,
    get_descriptor,
    list_descriptors,
    register,
    register_algorithm,
    unregister_algorithm,
)
from . import builtin as _builtin  # noqa: F401  (side effect: registers built-ins)
from .adapters import BufferedBatchAdapter
from .session import Simplifier, StreamSession, open_raw_stream
from .executor import FleetError, FleetResult, run_many

__all__ = [
    "ERROR_METRICS",
    "AlgorithmDescriptor",
    "BufferedBatchAdapter",
    "FleetError",
    "FleetResult",
    "Simplifier",
    "StreamSession",
    "algorithm_names",
    "get_descriptor",
    "list_descriptors",
    "open_raw_stream",
    "register",
    "register_algorithm",
    "run_many",
    "unregister_algorithm",
]
