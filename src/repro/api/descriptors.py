"""First-class algorithm descriptors and the unified registry.

Every simplification algorithm in the package — batch baselines, the paper's
one-pass OPERB/OPERB-A family and anything a downstream user plugs in — is
described by one :class:`AlgorithmDescriptor` and registered in a single
registry.  The descriptor carries the capability flags the rest of the system
routes on:

``streaming``
    The algorithm has a native push/finish implementation and can consume a
    point stream without buffering it (``streaming_factory`` is set).
``one_pass``
    The algorithm touches each point exactly once with O(1) state — the
    paper's headline property.  ``one_pass`` implies ``streaming`` but not
    vice versa: FBQS is streaming yet buffers its open window.
``error_metric``
    Which deviation the error bound constrains: ``"perpendicular"``
    (distance to the segment line), ``"sed"`` (time-synchronised Euclidean
    distance) or ``"none"`` (not error bounded, e.g. uniform sampling).
``checkpointable``
    Instances produced by the streaming factory implement the
    ``snapshot()``/``restore(state)`` protocol, so live streams can be
    checkpointed to JSON and resumed byte-identically (the contract the
    :class:`repro.streaming.StreamHub` relies on).
``batched``
    Instances produced by the streaming factory implement the block-ingest
    protocol (``push_block_steps`` over
    :class:`repro.trajectory.PointBlock`), feeding SoA point blocks to the
    vectorized kernels instead of per-point Python.  Algorithms without it
    still accept blocks everywhere — sessions and the hub fall back to a
    correct per-point loop.
``accepted_kwargs`` / ``streaming_kwargs``
    The keyword arguments the batch callable / the streaming factory accept,
    validated eagerly so misconfiguration fails at construction time rather
    than deep inside a fleet run.

New algorithms are registered with the :func:`register_algorithm` decorator::

    @register_algorithm("my-algo", error_metric="perpendicular",
                        summary="my experimental simplifier")
    def my_algo(trajectory, epsilon):
        ...

and immediately become available to :class:`repro.api.Simplifier`, the CLI,
the experiment harness and the streaming hub.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..exceptions import InvalidParameterError, UnknownAlgorithmError
from ..trajectory.model import Trajectory
from ..trajectory.piecewise import PiecewiseRepresentation

__all__ = [
    "ERROR_METRICS",
    "AlgorithmDescriptor",
    "register_algorithm",
    "register",
    "unregister_algorithm",
    "get_descriptor",
    "list_descriptors",
    "algorithm_names",
]

BatchFunction = Callable[..., PiecewiseRepresentation]
StreamingFactory = Callable[..., object]

ERROR_METRICS = ("perpendicular", "sed", "none")
"""Valid values of :attr:`AlgorithmDescriptor.error_metric`."""


@dataclass(frozen=True, slots=True)
class AlgorithmDescriptor:
    """Complete description of one registered simplification algorithm.

    Attributes
    ----------
    name:
        Registry key, normalised to lower case (the paper's names: ``"dp"``,
        ``"operb-a"``, ...).
    batch:
        The batch callable ``(trajectory, epsilon, **kwargs) ->
        PiecewiseRepresentation``.
    streaming_factory:
        Optional factory ``(epsilon, **kwargs) -> push/finish simplifier``
        for algorithms with a native streaming implementation.
    one_pass:
        True when the algorithm touches each point exactly once with O(1)
        state (requires a streaming factory).
    checkpointable:
        True when the streaming factory's instances support
        ``snapshot()``/``restore(state)`` (requires a streaming factory).
        Batch-only algorithms are always checkpointable behind a
        :class:`repro.api.BufferedBatchAdapter`, which snapshots its buffer.
    batched:
        True when the streaming factory's instances support native block
        ingest (``push_block_steps``; requires a streaming
        factory).  Batch-only algorithms always ingest blocks natively
        behind the buffered adapter, which appends each block in O(1).
    pyramid:
        True when the streaming factory's instances support the segment
        re-ingest hook (``push_segment``) the epsilon-pyramid cascade uses
        *and* the algorithm's emissions are extent-faithful: every point a
        segment covers projects onto the segment's own span, so re-ingesting
        just the endpoints preserves the nesting error bound (requires a
        streaming factory).  The OPERB family qualifies (segments are fitted
        to the farthest absorbed projection); FBQS does not — its convex
        window accepts points whose witness feet land beyond the emitted
        endpoints, so a cascade built on endpoints alone can exceed the
        coarse bound.
    error_metric:
        One of :data:`ERROR_METRICS`.
    accepted_kwargs:
        Keyword arguments accepted by the batch callable beyond
        ``(trajectory, epsilon)``.
    streaming_kwargs:
        Keyword arguments accepted by the streaming factory beyond
        ``epsilon``.  Defaults to ``accepted_kwargs``.
    summary:
        One-line human-readable description (shown by ``repro-traj
        algorithms``).
    """

    name: str
    batch: BatchFunction
    streaming_factory: StreamingFactory | None = None
    one_pass: bool = False
    checkpointable: bool = False
    batched: bool = False
    pyramid: bool = False
    error_metric: str = "perpendicular"
    accepted_kwargs: frozenset[str] = field(default_factory=frozenset)
    streaming_kwargs: frozenset[str] | None = None
    summary: str = ""

    def __post_init__(self) -> None:
        normalized = self.name.strip().lower()
        if not normalized:
            raise InvalidParameterError("algorithm name must be a non-empty string")
        object.__setattr__(self, "name", normalized)
        object.__setattr__(self, "accepted_kwargs", frozenset(self.accepted_kwargs))
        if self.streaming_kwargs is None:
            object.__setattr__(self, "streaming_kwargs", self.accepted_kwargs)
        else:
            object.__setattr__(self, "streaming_kwargs", frozenset(self.streaming_kwargs))
        if self.error_metric not in ERROR_METRICS:
            raise InvalidParameterError(
                f"error_metric must be one of {ERROR_METRICS}, got {self.error_metric!r}"
            )
        if self.one_pass and self.streaming_factory is None:
            raise InvalidParameterError(
                f"algorithm {self.name!r} is flagged one_pass but has no streaming factory"
            )
        if self.checkpointable and self.streaming_factory is None:
            raise InvalidParameterError(
                f"algorithm {self.name!r} is flagged checkpointable but has no "
                f"streaming factory"
            )
        if self.batched and self.streaming_factory is None:
            raise InvalidParameterError(
                f"algorithm {self.name!r} is flagged batched but has no "
                f"streaming factory"
            )
        if self.pyramid and self.streaming_factory is None:
            raise InvalidParameterError(
                f"algorithm {self.name!r} is flagged pyramid but has no "
                f"streaming factory"
            )
        if self.pyramid and self.error_metric == "none":
            raise InvalidParameterError(
                f"algorithm {self.name!r} is flagged pyramid but is not "
                f"error bounded (error_metric='none')"
            )

    # ------------------------------------------------------------------ #
    # Capabilities
    # ------------------------------------------------------------------ #
    @property
    def streaming(self) -> bool:
        """Whether the algorithm has a native push/finish implementation."""
        return self.streaming_factory is not None

    @property
    def error_bounded(self) -> bool:
        """Whether the output respects an epsilon error bound at all."""
        return self.error_metric != "none"

    @property
    def snapshot_capable(self) -> bool:
        """Whether an ``open_stream`` session of this algorithm can snapshot.

        Native streaming algorithms must declare :attr:`checkpointable`;
        batch-only algorithms always qualify because the
        :class:`repro.api.BufferedBatchAdapter` wrapping them snapshots its
        buffer.
        """
        return self.checkpointable or not self.streaming

    @property
    def block_capable(self) -> bool:
        """Whether an ``open_stream`` session ingests blocks natively.

        Native streaming algorithms must declare :attr:`batched`; batch-only
        algorithms always qualify because the buffered adapter appends each
        block in O(1).  Sessions of algorithms without this flag still accept
        ``push_block`` through the generic per-point fallback.
        """
        return self.batched or not self.streaming

    @property
    def pyramid_capable(self) -> bool:
        """Whether the algorithm can serve as an epsilon-pyramid level.

        The cascade re-simplifies only the finer level's segment *endpoints*,
        so the nesting bound survives only when every covered point's witness
        stays within the span of the segment that covers it.  Two classes
        qualify:

        - native streamers that declare :attr:`pyramid` (the OPERB family —
          segments are fitted to the farthest absorbed projection, so nothing
          covered overhangs the emitted endpoints);
        - batch-only algorithms under the synchronised Euclidean distance
          (``dp-sed``, ``opw-tr`` behind the
          :class:`repro.api.BufferedBatchAdapter`) — a time-synchronised
          witness always interpolates *inside* its chord's time span, so the
          endpoint cascade composes exactly.

        Line-distance window algorithms (``fbqs``, ``opw``, ``bqs``) are
        excluded even though they are error bounded: they certify deviation
        against a segment's infinite line, so covered points may project
        beyond the endpoints and the cascaded coarse level can break its
        advertised bound (observed empirically on random walks).
        """
        return self.pyramid or (not self.streaming and self.error_metric == "sed")

    def capabilities(self) -> dict[str, object]:
        """Plain-dict capability summary (for reports and the CLI table)."""
        return {
            "name": self.name,
            "streaming": self.streaming,
            "one_pass": self.one_pass,
            "checkpointable": self.checkpointable,
            "batched": self.batched,
            "pyramid": self.pyramid,
            "error_metric": self.error_metric,
            "accepted_kwargs": sorted(self.accepted_kwargs),
            "streaming_kwargs": sorted(self.streaming_kwargs or ()),
            "summary": self.summary,
        }

    # ------------------------------------------------------------------ #
    # Validation and dispatch
    # ------------------------------------------------------------------ #
    def validate_kwargs(self, kwargs: Iterable[str], *, streaming: bool = False) -> None:
        """Reject keyword arguments the selected execution mode cannot take.

        Raises
        ------
        InvalidParameterError
            Naming the offending arguments and the accepted set, so fleet
            jobs fail fast at configuration time.
        """
        accepted = self.streaming_kwargs if streaming else self.accepted_kwargs
        unknown = sorted(set(kwargs) - set(accepted or ()))
        if unknown:
            mode = "streaming" if streaming else "batch"
            accepted_text = ", ".join(sorted(accepted or ())) or "(none)"
            raise InvalidParameterError(
                f"algorithm {self.name!r} does not accept {mode} option(s) "
                f"{', '.join(unknown)}; accepted: {accepted_text}"
            )

    def run(
        self, trajectory: Trajectory, epsilon: float, **kwargs: object
    ) -> PiecewiseRepresentation:
        """Validate ``kwargs`` and run the batch callable."""
        self.validate_kwargs(kwargs)
        return self.batch(trajectory, epsilon, **kwargs)

    def make_streaming(self, epsilon: float, **kwargs: object) -> object:
        """Validate ``kwargs`` and instantiate the native streaming simplifier.

        Raises
        ------
        InvalidParameterError
            If the algorithm has no streaming implementation (wrap it in a
            :class:`repro.api.BufferedBatchAdapter` instead).
        """
        if self.streaming_factory is None:
            raise InvalidParameterError(
                f"algorithm {self.name!r} has no native streaming implementation"
            )
        self.validate_kwargs(kwargs, streaming=True)
        return self.streaming_factory(epsilon, **kwargs)


# ---------------------------------------------------------------------- #
# The registry
# ---------------------------------------------------------------------- #
_REGISTRY: dict[str, AlgorithmDescriptor] = {}


def register(descriptor: AlgorithmDescriptor, *, replace: bool = False) -> AlgorithmDescriptor:
    """Add a descriptor to the registry.

    Raises
    ------
    InvalidParameterError
        If the name is already taken and ``replace`` is False.
    """
    if not replace and descriptor.name in _REGISTRY:
        raise InvalidParameterError(
            f"algorithm {descriptor.name!r} is already registered; "
            f"pass replace=True to override it"
        )
    _REGISTRY[descriptor.name] = descriptor
    return descriptor


def register_algorithm(
    name: str,
    *,
    streaming_factory: StreamingFactory | None = None,
    one_pass: bool = False,
    checkpointable: bool = False,
    batched: bool = False,
    pyramid: bool = False,
    error_metric: str = "perpendicular",
    accepted_kwargs: Iterable[str] = (),
    streaming_kwargs: Iterable[str] | None = None,
    summary: str = "",
    replace: bool = False,
) -> Callable[[BatchFunction], BatchFunction]:
    """Decorator registering a batch callable as an algorithm.

    The decorated function is returned unchanged, so it can still be called
    directly; the registry stores an :class:`AlgorithmDescriptor` built from
    the decorator arguments.
    """

    def decorator(function: BatchFunction) -> BatchFunction:
        doc_lines = (function.__doc__ or "").strip().splitlines()
        register(
            AlgorithmDescriptor(
                name=name,
                batch=function,
                streaming_factory=streaming_factory,
                one_pass=one_pass,
                checkpointable=checkpointable,
                batched=batched,
                pyramid=pyramid,
                error_metric=error_metric,
                accepted_kwargs=frozenset(accepted_kwargs),
                streaming_kwargs=None if streaming_kwargs is None else frozenset(streaming_kwargs),
                summary=summary or (doc_lines[0] if doc_lines else ""),
            ),
            replace=replace,
        )
        return function

    return decorator


def unregister_algorithm(name: str) -> None:
    """Remove an algorithm from the registry (mainly for tests and plugins)."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise UnknownAlgorithmError(
            f"cannot unregister unknown algorithm {name!r}; "
            f"available: {', '.join(algorithm_names())}"
        )
    del _REGISTRY[key]


def get_descriptor(name: str | AlgorithmDescriptor) -> AlgorithmDescriptor:
    """Look up a descriptor by (case-insensitive) name.

    Descriptor instances pass through unchanged so every API entry point can
    accept either form.

    Raises
    ------
    UnknownAlgorithmError
        If ``name`` is not registered.
    """
    if isinstance(name, AlgorithmDescriptor):
        return name
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; available: {', '.join(algorithm_names())}"
        )
    return _REGISTRY[key]


def list_descriptors() -> list[AlgorithmDescriptor]:
    """All registered descriptors, sorted by name."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def algorithm_names() -> list[str]:
    """Names of all registered algorithms, sorted alphabetically."""
    return sorted(_REGISTRY)
