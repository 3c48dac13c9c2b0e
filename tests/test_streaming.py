"""Unit tests for stream sessions, adapters, sinks and one-pass accounting."""

from __future__ import annotations

import io

import pytest

from repro import InvalidParameterError, Point, SimplificationError, UnknownAlgorithmError
from repro.api import Simplifier, get_descriptor, open_raw_stream
from repro.metrics import check_error_bound
from repro.streaming import (
    BufferedBatchAdapter,
    CollectingSink,
    CountingPointSource,
    CountingSimplifier,
    CsvSegmentSink,
    StatisticsSink,
)

NATIVE_STREAMING = ("operb", "raw-operb", "operb-a", "raw-operb-a", "fbqs", "dead-reckoning")


def open_raw(name: str, epsilon: float, **kwargs):
    """Raw push/finish simplifier by name (native or buffered adapter)."""
    return open_raw_stream(get_descriptor(name), epsilon, **kwargs)


def stream_into(sink, trajectory, epsilon: float, algorithm: str):
    """Push ``trajectory`` fix by fix through a fire-and-forget session.

    Every emitted segment goes straight to ``sink``; returns the counting
    wrapper (pushes, emissions) and the number emitted before ``finish``.
    """
    session = Simplifier(algorithm, epsilon).open_stream(keep_segments=False)
    counting = CountingSimplifier(session)
    for point in trajectory:
        for segment in counting.push(point):
            sink.accept(segment)
    before_finish = counting.segments_emitted
    for segment in counting.finish():
        sink.accept(segment)
    return counting, before_finish


class TestFactory:
    def test_streaming_algorithms_are_native(self):
        for name in NATIVE_STREAMING:
            simplifier = open_raw(name, 20.0)
            assert hasattr(simplifier, "push") and hasattr(simplifier, "finish")
            assert not isinstance(simplifier, BufferedBatchAdapter)

    def test_batch_algorithms_are_wrapped(self):
        adapter = open_raw("dp", 20.0)
        assert isinstance(adapter, BufferedBatchAdapter)

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithmError):
            open_raw("nope", 20.0)


class TestOnePassAccounting:
    def test_operb_touches_each_point_once(self, taxi_trajectory):
        source = CountingPointSource(taxi_trajectory)
        simplifier = open_raw("operb", 40.0)
        for point in source:
            simplifier.push(point)
        simplifier.finish()
        assert source.max_accesses == 1
        assert source.total_accesses == len(taxi_trajectory)

    def test_operb_distance_computations_linear(self, taxi_trajectory):
        simplifier = open_raw("operb", 40.0)
        for point in taxi_trajectory:
            simplifier.push(point)
        simplifier.finish()
        # O(1) work per point: at most a small constant number of distance
        # computations for each of the n points.
        assert simplifier.stats.distance_computations <= 4 * len(taxi_trajectory)

    def test_counting_simplifier_records_pushes(self, noisy_walk):
        counting = CountingSimplifier(open_raw("operb", 25.0))
        for point in noisy_walk:
            counting.push(point)
        counting.finish()
        assert counting.pushes == len(noisy_walk)
        assert counting.segments_emitted >= 1


class TestBufferedAdapter:
    def test_adapter_buffers_everything_until_finish(self, noisy_walk):
        adapter = BufferedBatchAdapter("dp", 25.0)
        for point in noisy_walk:
            assert adapter.push(point) == []
        assert adapter.buffered_points == len(noisy_walk)
        segments = adapter.finish()
        assert len(segments) >= 1

    def test_double_finish_raises(self, noisy_walk):
        adapter = BufferedBatchAdapter("dp", 25.0)
        for point in noisy_walk:
            adapter.push(point)
        adapter.finish()
        with pytest.raises(SimplificationError):
            adapter.finish()

    def test_push_after_finish_raises(self, two_points):
        adapter = BufferedBatchAdapter("dp", 25.0)
        for point in two_points:
            adapter.push(point)
        adapter.finish()
        with pytest.raises(SimplificationError):
            adapter.push(next(iter(two_points)))

    def test_kwargs_validated_at_construction(self):
        with pytest.raises(InvalidParameterError):
            BufferedBatchAdapter("dp", 25.0, bogus=True)

    def test_factory_validates_batch_fallback_kwargs_eagerly(self):
        with pytest.raises(InvalidParameterError):
            open_raw("dp", 25.0, bogus=True)


class TestSinks:
    def test_collecting_sink(self, noisy_walk):
        sink = CollectingSink(algorithm="operb")
        counting, _ = stream_into(sink, noisy_walk, 25.0, "operb")
        representation = sink.as_representation(len(noisy_walk))
        assert representation.n_segments == counting.segments_emitted
        expected = Simplifier("operb", 25.0).run(noisy_walk)
        assert representation.segments == expected.segments

    def test_csv_sink_writes_rows(self, noisy_walk):
        buffer = io.StringIO()
        with CsvSegmentSink(buffer) as sink:
            counting, _ = stream_into(sink, noisy_walk, 25.0, "operb")
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == counting.segments_emitted + 1

    def test_statistics_sink(self, noisy_walk):
        sink = StatisticsSink()
        counting, _ = stream_into(sink, noisy_walk, 25.0, "operb")
        assert sink.segments_received == counting.segments_emitted
        assert sink.points_covered >= counting.segments_emitted + 1
        assert sink.total_length > 0.0


class TestPipeline:
    """Source -> stream session -> sink, accounted by CountingSimplifier."""

    def test_pipeline_result_structure(self, taxi_trajectory):
        sink = CollectingSink(algorithm="operb")
        counting, _ = stream_into(sink, taxi_trajectory, 40.0, "operb")
        assert counting.pushes == len(taxi_trajectory)
        assert counting.inner.points_pushed == len(taxi_trajectory)
        representation = sink.as_representation(len(taxi_trajectory))
        assert representation.n_segments == counting.segments_emitted
        assert representation.source_size == len(taxi_trajectory)

    def test_streaming_emits_most_segments_before_finish(self, taxi_trajectory):
        counting, before_finish = stream_into(
            CollectingSink(), taxi_trajectory, 40.0, "operb"
        )
        # A one-pass algorithm emits continuously; only the trailing segment
        # or two wait for finish().
        assert counting.segments_emitted - before_finish <= 2
        assert before_finish >= counting.segments_emitted - 2

    def test_batch_adapter_emits_everything_at_finish(self, taxi_trajectory):
        counting, before_finish = stream_into(
            CollectingSink(), taxi_trajectory, 40.0, "dp"
        )
        assert before_finish == 0
        assert counting.segments_emitted > 0
        assert counting.max_segments_per_push == 0

    def test_pipeline_output_is_error_bounded(self, taxi_trajectory):
        sink = CollectingSink(algorithm="operb-a")
        stream_into(sink, taxi_trajectory, 40.0, "operb-a")
        representation = sink.as_representation(len(taxi_trajectory))
        assert check_error_bound(taxi_trajectory, representation, 40.0)


class TestStreamingEdgeCases:
    """Lifecycle and degenerate-stream behaviour of every native simplifier."""

    @pytest.mark.parametrize("name", NATIVE_STREAMING)
    def test_push_after_finish_raises(self, name):
        simplifier = open_raw(name, 20.0)
        simplifier.push(Point(0.0, 0.0, 0.0))
        simplifier.finish()
        with pytest.raises(SimplificationError):
            simplifier.push(Point(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("name", NATIVE_STREAMING)
    def test_empty_stream_finish_yields_nothing(self, name):
        simplifier = open_raw(name, 20.0)
        assert simplifier.finish() == []

    @pytest.mark.parametrize("name", NATIVE_STREAMING)
    def test_single_point_stream_yields_nothing(self, name):
        simplifier = open_raw(name, 20.0)
        assert simplifier.push(Point(3.0, 4.0, 0.0)) == []
        assert simplifier.finish() == []

    @pytest.mark.parametrize("name", NATIVE_STREAMING)
    def test_finish_after_finish_is_silent_for_native(self, name):
        # Native simplifiers treat a second finish() as a no-op flush (the
        # session layer is what enforces the strict single-finish lifecycle).
        simplifier = open_raw(name, 20.0)
        simplifier.push(Point(0.0, 0.0, 0.0))
        simplifier.finish()
        assert simplifier.finish() == []

    def test_counting_simplifier_zero_segment_run(self):
        counting = CountingSimplifier(open_raw("operb", 50.0))
        # Two nearby points: everything is absorbed, a single trailing
        # segment appears only at finish.
        assert counting.push(Point(0.0, 0.0, 0.0)) == []
        assert counting.push(Point(1.0, 0.0, 1.0)) == []
        assert counting.segments_emitted == 0
        assert counting.max_segments_per_push == 0
        counting.finish()
        assert counting.segments_emitted == 1

    def test_statistics_sink_zero_segment_run(self):
        sink = StatisticsSink()
        assert sink.segments_received == 0
        assert sink.points_covered == 0
        assert sink.anomalous_segments == 0
        assert sink.total_length == 0.0

    def test_collecting_sink_empty_representation(self):
        sink = CollectingSink(algorithm="operb")
        representation = sink.as_representation(0)
        assert representation.n_segments == 0
        assert representation.source_size == 0

    def test_max_backlog_of_buffered_adapter(self, noisy_walk):
        # The buffered adapter is the max-backlog extreme: nothing is emitted
        # until finish(), when the whole compressed stream arrives at once.
        counting = CountingSimplifier(open_raw("dp", 25.0))
        for point in noisy_walk:
            counting.push(point)
        assert counting.segments_emitted == 0
        assert counting.max_segments_per_push == 0
        emitted = counting.finish()
        assert len(emitted) == counting.segments_emitted
        assert counting.segments_emitted >= 1

    def test_one_pass_backlog_stays_bounded(self, noisy_walk):
        # A one-pass algorithm never releases a large burst on a single push.
        counting = CountingSimplifier(open_raw("operb", 25.0))
        for point in noisy_walk:
            counting.push(point)
        counting.finish()
        assert counting.max_segments_per_push <= 2
