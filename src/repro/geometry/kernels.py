"""Vectorized structure-of-arrays geometry kernels.

This module is the single home of the hot geometry primitives used by the
batch algorithms and the metrics:

* **PED** — perpendicular Euclidean distance of many points to the infinite
  line through a chord (:func:`ped_to_chord`) or to the closed segment
  (:func:`ped_to_segment`);
* **SED** — synchronised Euclidean distance of many points to a chord
  travelled at constant speed (:func:`sed_to_chord`);
* **anchored PED** — distance to the line through an anchor with a given
  direction, the form used by OPERB's fitting function
  (:func:`anchored_ped`);
* **angular range intersection** — overlap tests between arcs on the unit
  circle (:func:`angular_ranges_overlap`, :func:`angular_range_intersection`):
  the batched form of direction gates such as OPERB-A's patching condition 3
  (whose streaming path keeps its cheap two-line scalar check), for
  fleet-level analyses over many segment pairs at once.

Every array kernel has two implementations selected by a process-wide
*backend* flag: a NumPy structure-of-arrays implementation operating on whole
coordinate arrays at once, and a scalar per-point fallback that performs the
exact same floating-point operations with :mod:`math` one point at a time.
The scalar backend exists so results can be validated as (near) bit-identical
to the streaming one-point code paths, which always use the scalar point
kernels (:func:`ped_point_to_chord`, :func:`sed_point`,
:func:`anchored_ped_point`) regardless of the backend.

The flag is owned here (the geometry layer has no upward dependencies) and
re-exported by :mod:`repro.core.config` as the user-facing switch::

    from repro.core.config import kernel_backend

    with kernel_backend("scalar"):
        representation = douglas_peucker(trajectory, 40.0)

Reductions (:func:`max_ped_to_chord`, :func:`all_within_chord`, ...) are
fused into the kernels so the vectorized path performs a single NumPy pass
without materialising intermediate Python objects.

The *prefix kernels* (:func:`prefix_within_radius`,
:func:`operb_fitting_prefix`, :func:`chord_prefix_within`,
:func:`prediction_prefix_within`) power the block-based streaming ingest:
each answers "how many leading points of this block does the current
simplifier state absorb without changing?" in one array pass.  Their
floating-point operations are chosen to be *bit-identical* to the scalar
per-point streaming code (``sqrt(dx*dx + dy*dy)`` instead of ``hypot``,
cross/dot sign tests instead of ``atan2`` comparisons), which is what lets
``push_block_steps`` produce byte-identical segments and checkpoints to per-point
``push`` — the scalar backend of each prefix kernel performs the identical
per-point arithmetic and serves as the equivalence oracle.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from .angles import normalize_angle

__all__ = [
    "KERNEL_BACKENDS",
    "get_kernel_backend",
    "set_kernel_backend",
    "use_vectorized_kernels",
    "kernel_backend",
    "ped_point_to_chord",
    "ped_point_to_segment",
    "sed_point",
    "anchored_ped_point",
    "prediction_error_point",
    "radial_length_point",
    "rotation_sign_components",
    "zero_vector_rotation_sign",
    "ped_to_chord",
    "ped_to_segment",
    "sed_to_chord",
    "anchored_ped",
    "max_ped_to_chord",
    "max_sed_to_chord",
    "all_within_chord",
    "all_within_sed",
    "prefix_within_radius",
    "operb_fitting_prefix",
    "chord_prefix_within",
    "prediction_prefix_within",
    "quadrant_corner_screen",
    "direction_angles",
    "angular_ranges_overlap",
    "angular_range_intersection",
]

TWO_PI = 2.0 * math.pi

KERNEL_BACKENDS = ("vectorized", "scalar")
"""The recognised kernel backends, fastest first."""

_backend = "vectorized"


def get_kernel_backend() -> str:
    """The active kernel backend (``"vectorized"`` or ``"scalar"``)."""
    return _backend


def set_kernel_backend(backend: str) -> str:
    """Select the kernel backend process-wide; returns the previous backend."""
    global _backend
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; expected one of {KERNEL_BACKENDS}"
        )
    previous = _backend
    _backend = backend
    return previous


def use_vectorized_kernels() -> bool:
    """Whether the vectorized NumPy kernel implementations are active."""
    return _backend == "vectorized"


@contextmanager
def kernel_backend(backend: str) -> Iterator[str]:
    """Context manager scoping a kernel-backend selection.

    >>> with kernel_backend("scalar"):
    ...     distances = ped_to_chord(xs, ys, 0.0, 0.0, 1.0, 0.0)
    """
    previous = set_kernel_backend(backend)
    try:
        yield backend
    finally:
        set_kernel_backend(previous)


# ---------------------------------------------------------------------- #
# Scalar point kernels — the streaming one-point path
# ---------------------------------------------------------------------- #
def ped_point_to_chord(
    x: float, y: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """PED of one point to the infinite line through ``(a, b)``.

    Degenerates to the distance to ``a`` when the chord has zero length,
    matching the convention used throughout the package.
    """
    abx = bx - ax
    aby = by - ay
    norm = math.hypot(abx, aby)
    if norm == 0.0:
        return math.hypot(x - ax, y - ay)
    return abs(abx * (y - ay) - aby * (x - ax)) / norm


def ped_point_to_segment(
    x: float, y: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """PED of one point to the closed segment ``[a, b]``."""
    abx = bx - ax
    aby = by - ay
    apx = x - ax
    apy = y - ay
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(apx, apy)
    u = (apx * abx + apy * aby) / denom
    if u <= 0.0:
        return math.hypot(apx, apy)
    if u >= 1.0:
        return math.hypot(x - bx, y - by)
    return math.hypot(x - (ax + u * abx), y - (ay + u * aby))


def sed_point(
    x: float,
    y: float,
    t: float,
    ax: float,
    ay: float,
    at: float,
    bx: float,
    by: float,
    bt: float,
) -> float:
    """SED of one point w.r.t. the chord ``a -> b`` travelled at constant speed."""
    span = bt - at
    if span == 0.0:
        return math.hypot(x - ax, y - ay)
    ratio = (t - at) / span
    return math.hypot(x - (ax + (bx - ax) * ratio), y - (ay + (by - ay) * ratio))


def anchored_ped_point(x: float, y: float, ax: float, ay: float, theta: float) -> float:
    """PED of one point to the line through ``(ax, ay)`` with direction ``theta``.

    This is OPERB's fitting-function distance: the maintained segment is
    ``(Ps, |L|, L.theta)`` and the distance depends only on the anchor and
    the direction.
    """
    return abs(math.cos(theta) * (y - ay) - math.sin(theta) * (x - ax))


def radial_length_point(dx: float, dy: float) -> float:
    """Length of the vector ``(dx, dy)`` as ``sqrt(dx*dx + dy*dy)``.

    Deliberately *not* ``math.hypot``: NumPy's and libm's ``hypot`` may
    differ from CPython's in the last ulp, whereas ``sqrt`` of the explicit
    dot product performs the same IEEE operations scalar and vectorized.
    Every streaming radial-distance check routes through this form so the
    block kernels reproduce the per-point decisions bit for bit.
    """
    return math.sqrt(dx * dx + dy * dy)


def prediction_error_point(
    x: float, y: float, t: float, x0: float, y0: float, t0: float, vx: float, vy: float
) -> float:
    """Dead-reckoning prediction error of one fix.

    Distance between the observed position and the position linearly
    extrapolated from ``(x0, y0, t0)`` with velocity ``(vx, vy)``; uses the
    same operation order as the vectorized :func:`prediction_prefix_within`.
    """
    dt = t - t0
    ex = x - (x0 + vx * dt)
    ey = y - (y0 + vy * dt)
    return math.sqrt(ex * ex + ey * ey)


def zero_vector_rotation_sign(theta: float) -> int:
    """Rotation sign of a zero radial vector against direction ``theta``.

    A point that coincides with the anchor has the conventional direction
    ``0.0``; this replicates ``rotation_sign(0.0, theta)`` from the fitting
    layer without the upward import.
    """
    delta = normalize_angle(normalize_angle(0.0) - normalize_angle(theta))
    half_pi = 0.5 * math.pi
    if 0.0 <= delta <= half_pi or math.pi <= delta < 1.5 * math.pi:
        return 1
    return -1


def rotation_sign_components(
    cross: float, dot: float, dx: float, dy: float, theta: float
) -> int:
    """The fitting function's rotation sign from cross/dot components.

    ``cross``/``dot`` are the components of the radial vector ``(dx, dy)``
    perpendicular and parallel to the fitted direction ``theta``
    (``cross = cos(theta)*dy - sin(theta)*dx``, ``dot = cos(theta)*dx +
    sin(theta)*dy``).  Sign-testing them is equivalent to classifying the
    included angle ``delta = angle(R) - theta`` into the paper's quadrant
    rule (+1 for ``delta`` in ``[0, pi/2] U [pi, 3*pi/2)``), but avoids
    ``atan2`` entirely — which makes the decision bit-identical between the
    scalar streaming path and the vectorized block kernels.  A zero radial
    vector falls back to the ``angle(R) = 0`` convention.
    """
    if dx == 0.0 and dy == 0.0:
        return zero_vector_rotation_sign(theta)
    if dot > 0.0:
        return 1 if cross >= 0.0 else -1
    if dot < 0.0:
        return 1 if cross <= 0.0 else -1
    return 1 if cross > 0.0 else -1


# ---------------------------------------------------------------------- #
# Array kernels — vectorized with scalar fallback
# ---------------------------------------------------------------------- #
def _as_float_array(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def ped_to_chord(xs, ys, ax: float, ay: float, bx: float, by: float) -> np.ndarray:
    """PED of many points to the infinite line through ``(a, b)``."""
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    if use_vectorized_kernels():
        abx = bx - ax
        aby = by - ay
        norm = math.hypot(abx, aby)
        if norm == 0.0:
            return np.hypot(xs - ax, ys - ay)
        return np.abs(abx * (ys - ay) - aby * (xs - ax)) / norm
    return np.array(
        [ped_point_to_chord(float(x), float(y), ax, ay, bx, by) for x, y in zip(xs, ys)],
        dtype=float,
    )


def ped_to_segment(xs, ys, ax: float, ay: float, bx: float, by: float) -> np.ndarray:
    """PED of many points to the closed segment ``[a, b]``."""
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    if use_vectorized_kernels():
        abx = bx - ax
        aby = by - ay
        denom = abx * abx + aby * aby
        if denom == 0.0:
            return np.hypot(xs - ax, ys - ay)
        u = ((xs - ax) * abx + (ys - ay) * aby) / denom
        u = np.clip(u, 0.0, 1.0)
        return np.hypot(xs - (ax + u * abx), ys - (ay + u * aby))
    return np.array(
        [
            ped_point_to_segment(float(x), float(y), ax, ay, bx, by)
            for x, y in zip(xs, ys)
        ],
        dtype=float,
    )


def sed_to_chord(
    xs,
    ys,
    ts,
    ax: float,
    ay: float,
    at: float,
    bx: float,
    by: float,
    bt: float,
) -> np.ndarray:
    """SED of many points w.r.t. the chord ``a -> b`` travelled at constant speed."""
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    ts = _as_float_array(ts)
    if use_vectorized_kernels():
        span = bt - at
        if span == 0.0:
            return np.hypot(xs - ax, ys - ay)
        # A subnormal span overflows the ratio to inf, and inf * 0 chords
        # produce nan — exactly the IEEE results the scalar fallback yields
        # silently; silence numpy's chatter rather than diverge from it.
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = (ts - at) / span
            return np.hypot(xs - (ax + (bx - ax) * ratio), ys - (ay + (by - ay) * ratio))
    return np.array(
        [
            sed_point(float(x), float(y), float(t), ax, ay, at, bx, by, bt)
            for x, y, t in zip(xs, ys, ts)
        ],
        dtype=float,
    )


def anchored_ped(xs, ys, ax: float, ay: float, theta: float) -> np.ndarray:
    """PED of many points to the line through ``(ax, ay)`` with direction ``theta``."""
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    if use_vectorized_kernels():
        return np.abs(math.cos(theta) * (ys - ay) - math.sin(theta) * (xs - ax))
    return np.array(
        [anchored_ped_point(float(x), float(y), ax, ay, theta) for x, y in zip(xs, ys)],
        dtype=float,
    )


# ---------------------------------------------------------------------- #
# Fused reductions
# ---------------------------------------------------------------------- #
def max_ped_to_chord(
    xs, ys, ax: float, ay: float, bx: float, by: float
) -> tuple[float, int]:
    """Maximum PED to the chord and the (first) arg-max offset.

    Returns ``(0.0, -1)`` for empty inputs.  The arg-max ties resolve to the
    first occurrence in both backends, mirroring ``np.argmax``.
    """
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    if xs.size == 0:
        return 0.0, -1
    if use_vectorized_kernels():
        distances = ped_to_chord(xs, ys, ax, ay, bx, by)
        offset = int(np.argmax(distances))
        return float(distances[offset]), offset
    best = -math.inf
    best_offset = 0
    for offset in range(xs.shape[0]):
        d = ped_point_to_chord(float(xs[offset]), float(ys[offset]), ax, ay, bx, by)
        if d > best:
            best = d
            best_offset = offset
    return best, best_offset


def max_sed_to_chord(
    xs,
    ys,
    ts,
    ax: float,
    ay: float,
    at: float,
    bx: float,
    by: float,
    bt: float,
) -> tuple[float, int]:
    """Maximum SED to the chord and the (first) arg-max offset."""
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    ts = _as_float_array(ts)
    if xs.size == 0:
        return 0.0, -1
    if use_vectorized_kernels():
        distances = sed_to_chord(xs, ys, ts, ax, ay, at, bx, by, bt)
        offset = int(np.argmax(distances))
        return float(distances[offset]), offset
    best = -math.inf
    best_offset = 0
    for offset in range(xs.shape[0]):
        d = sed_point(
            float(xs[offset]), float(ys[offset]), float(ts[offset]), ax, ay, at, bx, by, bt
        )
        if d > best:
            best = d
            best_offset = offset
    return best, best_offset


def all_within_chord(
    xs, ys, ax: float, ay: float, bx: float, by: float, epsilon: float
) -> bool:
    """Whether every point's PED to the chord is at most ``epsilon``.

    The scalar backend short-circuits on the first violation (the behaviour
    of a per-point loop); the vectorized backend checks the whole array in
    one pass.  Both return the same boolean.
    """
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    if xs.size == 0:
        return True
    if use_vectorized_kernels():
        return bool(np.all(ped_to_chord(xs, ys, ax, ay, bx, by) <= epsilon))
    for offset in range(xs.shape[0]):
        if ped_point_to_chord(float(xs[offset]), float(ys[offset]), ax, ay, bx, by) > epsilon:
            return False
    return True


def all_within_sed(
    xs,
    ys,
    ts,
    ax: float,
    ay: float,
    at: float,
    bx: float,
    by: float,
    bt: float,
    epsilon: float,
) -> bool:
    """Whether every point's SED to the chord is at most ``epsilon``."""
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    ts = _as_float_array(ts)
    if xs.size == 0:
        return True
    if use_vectorized_kernels():
        return bool(np.all(sed_to_chord(xs, ys, ts, ax, ay, at, bx, by, bt) <= epsilon))
    for offset in range(xs.shape[0]):
        d = sed_point(
            float(xs[offset]), float(ys[offset]), float(ts[offset]), ax, ay, at, bx, by, bt
        )
        if d > epsilon:
            return False
    return True


# ---------------------------------------------------------------------- #
# Streaming prefix kernels — the block-ingest hot path
# ---------------------------------------------------------------------- #
BLOCK_LOOKAHEAD = 1024
"""Maximum points a prefix-kernel probe examines at once.

Array element cost is tiny next to the per-call dispatch overhead, so
probes look far ahead — but not unboundedly, or a run-poor stream would pay
O(block²) element work re-scanning the remainder after every boundary.
"""

BLOCK_MIN_RUN = 8
"""Run length at which one prefix-kernel call beats per-point Python.

Below this, NumPy's per-call overhead exceeds the scalar loop it replaces;
probes that find shorter runs trigger the scalar backoff.
"""

BLOCK_PROBE_BACKOFF_MAX = 256
"""Cap on the scalar backoff after repeated unprofitable probes.

On a run-poor stream (sparse sampling relative to epsilon) the block path
doubles its probe spacing up to this cap, bounding its overhead versus
per-point ingest to one wasted kernel call per this many points while still
rediscovering dense phases (e.g. GeoLife's walking legs) quickly.
"""


def _prefix_from_mask(blocked: np.ndarray) -> int:
    """Index of the first True in ``blocked``, or its length when all False."""
    if not blocked.any():
        return int(blocked.shape[0])
    return int(np.argmax(blocked))


def prefix_within_radius(xs, ys, ax: float, ay: float, radius: float) -> int:
    """Length of the leading run of points within ``radius`` of the anchor.

    The radial length is ``sqrt(dx*dx + dy*dy)`` (see
    :func:`radial_length_point`); a point at exactly ``radius`` counts as
    within.  This is OPERB's pre-direction phase: points this close to the
    anchor are absorbed without fixing a segment direction.
    """
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    if xs.size == 0:
        return 0
    if use_vectorized_kernels():
        dxs = xs - ax
        dys = ys - ay
        with np.errstate(over="ignore", invalid="ignore"):
            lengths = np.sqrt(dxs * dxs + dys * dys)
        return _prefix_from_mask(lengths > radius)
    for offset in range(xs.shape[0]):
        if radial_length_point(float(xs[offset]) - ax, float(ys[offset]) - ay) > radius:
            return offset
    return int(xs.shape[0])


def operb_fitting_prefix(
    xs,
    ys,
    ax: float,
    ay: float,
    theta: float,
    last_theta: float,
    length: float,
    epsilon: float,
    quarter_epsilon: float,
    half_epsilon: float,
    two_sided: bool,
    d_plus: float,
    d_minus: float,
) -> tuple[int, float, float]:
    """Longest inactive-absorbable prefix for OPERB's fitting state.

    A point of the prefix is absorbed when, against the fitted line
    ``(anchor, theta, length)``, it is (a) not active
    (``r_len - length <= quarter_epsilon``), (b) within the deviation budget
    (two-sided ``d+ + d- <= epsilon`` or plain ``d <= half_epsilon``), and
    (c) within ``epsilon`` of the last-active line ``last_theta``.  Returns
    ``(count, new_d_plus, new_d_minus)`` — the run length and the one-sided
    deviation maxima after recording every absorbed point.  The first point
    that fails any condition is *not* classified here; the caller replays it
    through the scalar ``observe`` (which performs the identical arithmetic)
    to decide active versus violation.
    """
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    if xs.size == 0:
        return 0, d_plus, d_minus
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    cos_l = math.cos(last_theta)
    sin_l = math.sin(last_theta)
    if use_vectorized_kernels():
        dxs = xs - ax
        dys = ys - ay
        with np.errstate(over="ignore", invalid="ignore"):
            r_len = np.sqrt(dxs * dxs + dys * dys)
            cross = cos_t * dys - sin_t * dxs
            dot = cos_t * dxs + sin_t * dys
            deviation = np.abs(cross)
            active = (r_len - length) > quarter_epsilon
            positive = np.where(
                dot > 0.0, cross >= 0.0, np.where(dot < 0.0, cross <= 0.0, cross > 0.0)
            )
            zero = (dxs == 0.0) & (dys == 0.0)
            if zero.any():
                positive = np.where(zero, zero_vector_rotation_sign(theta) > 0, positive)
            plus_run = np.maximum(
                np.maximum.accumulate(np.where(positive, deviation, -math.inf)), d_plus
            )
            minus_run = np.maximum(
                np.maximum.accumulate(np.where(positive, -math.inf, deviation)), d_minus
            )
            if two_sided:
                acceptable = (plus_run + minus_run) <= epsilon
            else:
                acceptable = deviation <= half_epsilon
            last_deviation = np.abs(cos_l * dys - sin_l * dxs)
            blocked = active | ~acceptable | (last_deviation > epsilon)
        count = _prefix_from_mask(blocked)
        if count == 0:
            return 0, d_plus, d_minus
        return count, float(plus_run[count - 1]), float(minus_run[count - 1])
    plus = d_plus
    minus = d_minus
    for offset in range(xs.shape[0]):
        dx = float(xs[offset]) - ax
        dy = float(ys[offset]) - ay
        r_len = radial_length_point(dx, dy)
        if (r_len - length) > quarter_epsilon:
            return offset, plus, minus
        cross = cos_t * dy - sin_t * dx
        deviation = abs(cross)
        sign = rotation_sign_components(cross, cos_t * dx + sin_t * dy, dx, dy, theta)
        if two_sided:
            candidate_plus = max(plus, deviation) if sign > 0 else plus
            candidate_minus = max(minus, deviation) if sign <= 0 else minus
            if candidate_plus + candidate_minus > epsilon:
                return offset, plus, minus
        elif deviation > half_epsilon:
            return offset, plus, minus
        if abs(cos_l * dy - sin_l * dx) > epsilon:
            return offset, plus, minus
        if sign > 0:
            if deviation > plus:
                plus = deviation
        elif deviation > minus:
            minus = deviation
    return int(xs.shape[0]), plus, minus


def chord_prefix_within(
    xs, ys, ax: float, ay: float, bx: float, by: float, epsilon: float
) -> int:
    """Length of the leading run whose PED to the chord is at most ``epsilon``.

    The absorption test of OPERB's optimisation 5: trailing points within
    ``epsilon`` of an already-finalised segment are absorbed into it.
    """
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    if xs.size == 0:
        return 0
    abx = bx - ax
    aby = by - ay
    norm = math.hypot(abx, aby)
    # A zero-length chord degenerates to the distance to its start point,
    # which the scalar oracle computes with math.hypot — np.hypot may differ
    # in the last ulp, so the degenerate case stays on the scalar loop.
    if use_vectorized_kernels() and norm != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            distances = np.abs(abx * (ys - ay) - aby * (xs - ax)) / norm
        return _prefix_from_mask(distances > epsilon)
    for offset in range(xs.shape[0]):
        if ped_point_to_chord(float(xs[offset]), float(ys[offset]), ax, ay, bx, by) > epsilon:
            return offset
    return int(xs.shape[0])


def prediction_prefix_within(
    xs,
    ys,
    ts,
    x0: float,
    y0: float,
    t0: float,
    vx: float,
    vy: float,
    epsilon: float,
) -> int:
    """Length of the leading run whose dead-reckoning error is within bound.

    Errors are measured against the position extrapolated from
    ``(x0, y0, t0)`` with velocity ``(vx, vy)`` — the sender-side prediction
    of the dead-reckoning scheme (see :func:`prediction_error_point`).
    """
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    ts = _as_float_array(ts)
    if xs.size == 0:
        return 0
    if use_vectorized_kernels():
        with np.errstate(over="ignore", invalid="ignore"):
            dts = ts - t0
            exs = xs - (x0 + vx * dts)
            eys = ys - (y0 + vy * dts)
            errors = np.sqrt(exs * exs + eys * eys)
        return _prefix_from_mask(errors > epsilon)
    for offset in range(xs.shape[0]):
        error = prediction_error_point(
            float(xs[offset]), float(ys[offset]), float(ts[offset]), x0, y0, t0, vx, vy
        )
        if error > epsilon:
            return offset
    return int(xs.shape[0])


def quadrant_corner_screen(
    xs,
    ys,
    ax: float,
    ay: float,
    bounds: "Sequence[tuple[float, float, float, float]]",
    epsilon: float,
) -> bool:
    """Conservative bulk-accept screen for FBQS's bounded-quadrant window.

    ``bounds`` holds the current ``(min_x, max_x, min_y, max_y)`` box of each
    of the four anchor quadrants (``+inf``/``-inf`` sentinels when empty, in
    the quadrant order of ``BoundedQuadrantWindow``).  The screen folds every
    candidate point into its quadrant's box — using exactly the quadrant
    assignment ``add`` would use — and checks whether the farthest box corner
    of any occupied quadrant stays within ``epsilon`` of the anchor.

    When it returns True, *every* candidate in the slice passes FBQS's exact
    per-point check: each significant vertex lies inside its quadrant's box,
    whose corners bound its distance to the anchor, which in turn bounds its
    PED to any candidate line through the anchor.  A False result is merely
    inconclusive — the caller replays the points through the exact scalar
    path — so the screen's own floating-point slop can never change a
    decision, only how much work takes the fast path.
    """
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    if use_vectorized_kernels() and xs.size > 1:
        dxs = xs - ax
        dys = ys - ay
        east = dxs >= 0.0
        north = dys >= 0.0
        masks = (east & north, ~east & north, ~east & ~north, east & ~north)
        worst = 0.0
        for mask, (min_x, max_x, min_y, max_y) in zip(masks, bounds):
            if mask.any():
                min_x = min(min_x, float(xs[mask].min()))
                max_x = max(max_x, float(xs[mask].max()))
                min_y = min(min_y, float(ys[mask].min()))
                max_y = max(max_y, float(ys[mask].max()))
            elif min_x > max_x:
                continue
            reach_x = max(abs(min_x - ax), abs(max_x - ax))
            reach_y = max(abs(min_y - ay), abs(max_y - ay))
            worst = max(worst, math.hypot(reach_x, reach_y))
        return worst <= epsilon
    boxes = [list(box) for box in bounds]
    for offset in range(xs.shape[0]):
        x = float(xs[offset])
        y = float(ys[offset])
        dx = x - ax
        dy = y - ay
        if dx >= 0.0 and dy >= 0.0:
            box = boxes[0]
        elif dx < 0.0 and dy >= 0.0:
            box = boxes[1]
        elif dx < 0.0 and dy < 0.0:
            box = boxes[2]
        else:
            box = boxes[3]
        box[0] = min(box[0], x)
        box[1] = max(box[1], x)
        box[2] = min(box[2], y)
        box[3] = max(box[3], y)
    worst = 0.0
    for min_x, max_x, min_y, max_y in boxes:
        if min_x > max_x:
            continue
        reach_x = max(abs(min_x - ax), abs(max_x - ax))
        reach_y = max(abs(min_y - ay), abs(max_y - ay))
        worst = max(worst, math.hypot(reach_x, reach_y))
    return worst <= epsilon


# ---------------------------------------------------------------------- #
# Angular kernels
# ---------------------------------------------------------------------- #
def direction_angles(dxs, dys) -> np.ndarray:
    """Directions of many vectors with the x-axis, normalized to ``[0, 2*pi)``.

    Zero vectors map to ``0.0`` by convention, matching
    :func:`repro.geometry.angles.angle_of`.
    """
    dxs = _as_float_array(dxs)
    dys = _as_float_array(dys)
    if use_vectorized_kernels():
        angles = np.arctan2(dys, dxs)
        angles = np.where(angles < 0.0, angles + TWO_PI, angles)
        # A tiny negative angle + 2*pi rounds to exactly 2*pi; fold it back
        # so the result stays in [0, 2*pi), as normalize_angle does.
        angles = np.where(angles >= TWO_PI, angles - TWO_PI, angles)
        return np.where((dxs == 0.0) & (dys == 0.0), 0.0, angles)
    out = np.empty(dxs.shape[0], dtype=float)
    for offset in range(dxs.shape[0]):
        dx = float(dxs[offset])
        dy = float(dys[offset])
        if dx == 0.0 and dy == 0.0:
            out[offset] = 0.0
            continue
        angle = math.atan2(dy, dx)
        if angle < 0.0:
            angle += TWO_PI
        if angle >= TWO_PI:
            angle -= TWO_PI
        out[offset] = angle
    return out


def _overlap_scalar(
    start_a: float, extent_a: float, start_b: float, extent_b: float
) -> bool:
    gap_ab = math.fmod(start_b - start_a, TWO_PI)
    if gap_ab < 0.0:
        gap_ab += TWO_PI
    if gap_ab <= extent_a:
        return True
    gap_ba = math.fmod(start_a - start_b, TWO_PI)
    if gap_ba < 0.0:
        gap_ba += TWO_PI
    return gap_ba <= extent_b


def angular_ranges_overlap(start_a, extent_a, start_b, extent_b):
    """Whether the arcs ``[start, start + extent]`` intersect on the circle.

    Arcs are described by a start direction (radians, any finite value) and a
    non-negative counter-clockwise ``extent`` in ``[0, 2*pi]``.  Accepts
    scalars or equal-length arrays (broadcast element-wise); returns a bool
    for scalar inputs and a boolean array otherwise.

    A zero-extent arc is a single direction, so
    ``angular_ranges_overlap(theta - w, 2 * w, phi, 0.0)`` expresses the
    turn-angle gate "``phi`` within ``w`` of ``theta``" (the batched form of
    OPERB-A's patching condition 3).
    """
    scalar_input = np.isscalar(start_a) and np.isscalar(start_b)
    start_a, extent_a, start_b, extent_b = np.broadcast_arrays(
        _as_float_array(start_a),
        _as_float_array(extent_a),
        _as_float_array(start_b),
        _as_float_array(extent_b),
    )
    if use_vectorized_kernels():
        gap_ab = np.mod(start_b - start_a, TWO_PI)
        gap_ba = np.mod(start_a - start_b, TWO_PI)
        overlap = (gap_ab <= extent_a) | (gap_ba <= extent_b)
    else:
        flat = [
            _overlap_scalar(
                float(start_a.flat[i]),
                float(extent_a.flat[i]),
                float(start_b.flat[i]),
                float(extent_b.flat[i]),
            )
            for i in range(start_a.size)
        ]
        overlap = np.array(flat, dtype=bool).reshape(start_a.shape)
    if scalar_input:
        return bool(overlap.reshape(-1)[0])
    return overlap


def angular_range_intersection(start_a, extent_a, start_b, extent_b):
    """Extent of the intersection of two arcs, element-wise.

    Returns the length (radians, ``>= 0``) of the overlap between the arcs
    ``[start_a, start_a + extent_a]`` and ``[start_b, start_b + extent_b]``;
    ``0.0`` where they only touch in a single direction and negative-free.
    When arcs intersect in two disjoint pieces (possible on a circle), the
    total overlapped length is returned.  Scalar inputs yield a float.
    """
    scalar_input = np.isscalar(start_a) and np.isscalar(start_b)
    start_a, extent_a, start_b, extent_b = np.broadcast_arrays(
        _as_float_array(start_a),
        _as_float_array(extent_a),
        _as_float_array(start_b),
        _as_float_array(extent_b),
    )
    gap_ab = np.mod(start_b - start_a, TWO_PI)
    gap_ba = np.mod(start_a - start_b, TWO_PI)
    # Overlap of B's start inside A, plus overlap of A's start inside B.
    piece_b_in_a = np.clip(np.minimum(extent_a - gap_ab, extent_b), 0.0, None)
    piece_a_in_b = np.clip(np.minimum(extent_b - gap_ba, extent_a), 0.0, None)
    # When the arcs start in the same direction the two pieces are the same
    # interval; count it once.
    same_start = gap_ab == 0.0
    total = np.where(
        same_start, np.minimum(extent_a, extent_b), piece_b_in_a + piece_a_in_b
    )
    total = np.minimum(total, np.minimum(extent_a, extent_b))
    if scalar_input:
        return float(total.reshape(-1)[0])
    return total
