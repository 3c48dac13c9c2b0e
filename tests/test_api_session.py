"""Tests for the Simplifier session facade and StreamSession lifecycle."""

from __future__ import annotations

import pytest

from repro import InvalidParameterError, Point, PointBlock, SimplificationError
from repro.api import (
    BufferedBatchAdapter,
    Simplifier,
    get_descriptor,
    register_algorithm,
    unregister_algorithm,
)


class TestConstruction:
    def test_requires_epsilon_for_error_bounded_algorithms(self):
        with pytest.raises(InvalidParameterError):
            Simplifier("operb")

    def test_epsilon_must_be_positive_finite(self):
        for bad in (-1.0, 0.0, float("inf"), float("nan")):
            with pytest.raises(InvalidParameterError):
                Simplifier("dp", bad)

    def test_uniform_needs_no_epsilon(self, straight_line):
        session = Simplifier("uniform", step=10)
        assert session.run(straight_line).n_segments == 10

    def test_unknown_options_rejected_eagerly(self):
        with pytest.raises(InvalidParameterError):
            Simplifier("dp", 25.0, bogus=True)

    def test_known_options_accepted(self, noisy_walk):
        session = Simplifier("dp", 25.0, use_sed=True)
        assert session.run(noisy_walk).algorithm == "dp-sed"

    def test_normalises_algorithm_name(self):
        assert Simplifier(" OPERB ", 40.0).algorithm == "operb"

    def test_capabilities_passthrough(self):
        assert Simplifier("operb", 40.0).capabilities() == get_descriptor("operb").capabilities()

    def test_repr_mentions_algorithm_and_epsilon(self):
        text = repr(Simplifier("operb-a", 40.0, gamma_max=1.0))
        assert "operb-a" in text and "40.0" in text and "gamma_max" in text


class TestBatchRun:
    @pytest.mark.parametrize("name", ["dp", "fbqs", "operb", "operb-a", "bqs", "opw"])
    def test_run_matches_direct_batch_call(self, noisy_walk, name):
        direct = get_descriptor(name).batch(noisy_walk, 25.0)
        via_session = Simplifier(name, 25.0).run(noisy_walk)
        assert via_session.segments == direct.segments

    def test_streaming_only_option_rejected_in_batch_mode(self, noisy_walk):
        session = Simplifier("operb", 25.0, opt_two_sided_deviation=False)
        with pytest.raises(InvalidParameterError):
            session.run(noisy_walk)


class TestStreamSession:
    def test_native_streaming_matches_batch(self, taxi_trajectory):
        session = Simplifier("operb", 40.0)
        stream = session.open_stream()
        assert not stream.buffering
        stream.feed(taxi_trajectory)
        representation = stream.result(len(taxi_trajectory))
        assert representation.segments == session.run(taxi_trajectory).segments
        assert representation.source_size == len(taxi_trajectory)

    def test_batch_algorithm_auto_wrapped(self, noisy_walk):
        stream = Simplifier("dp", 25.0).open_stream()
        assert stream.buffering
        assert isinstance(stream.native, BufferedBatchAdapter)
        assert stream.feed(noisy_walk) == []  # buffered, nothing early
        assert stream.finish()  # everything arrives at finish
        assert stream.result().n_segments >= 1

    def test_result_defaults_source_size_to_pushes(self, noisy_walk):
        stream = Simplifier("operb", 25.0).open_stream()
        stream.feed(noisy_walk)
        assert stream.result().source_size == len(noisy_walk)
        assert stream.points_pushed == len(noisy_walk)

    def test_double_finish_raises(self, noisy_walk):
        stream = Simplifier("operb", 25.0).open_stream()
        stream.feed(noisy_walk)
        stream.finish()
        with pytest.raises(SimplificationError):
            stream.finish()

    def test_push_after_finish_raises(self, noisy_walk):
        stream = Simplifier("operb", 25.0).open_stream()
        stream.feed(noisy_walk)
        stream.finish()
        with pytest.raises(SimplificationError):
            stream.push(next(iter(noisy_walk)))

    def test_context_manager_auto_finishes(self, noisy_walk):
        with Simplifier("operb", 25.0).open_stream() as stream:
            stream.feed(noisy_walk)
        assert stream.finished

    def test_delegates_native_attributes(self, noisy_walk):
        stream = Simplifier("operb", 25.0).open_stream()
        stream.feed(noisy_walk)
        stream.finish()
        # OPERBSimplifier exposes .stats; the session passes it through.
        assert stream.stats.distance_computations > 0

    def test_fire_and_forget_session_keeps_no_history(self, noisy_walk):
        stream = Simplifier("operb", 25.0).open_stream(keep_segments=False)
        emitted = stream.feed(noisy_walk)
        emitted += stream.finish()
        assert len(emitted) >= 1
        assert stream._segments == []  # O(1) session state
        with pytest.raises(SimplificationError):
            stream.result()

    def test_each_open_stream_is_fresh(self, two_points):
        session = Simplifier("dp", 25.0)
        first = session.open_stream()
        first.feed(two_points)
        first.finish()
        second = session.open_stream()
        assert not second.finished
        second.feed(two_points)
        assert second.finish() is not None


class FailsOnPush:
    """Streaming simplifier whose 26th push raises; emits every 10th point."""

    def __init__(self, epsilon):
        self.calls = 0

    def push(self, point):
        self.calls += 1
        if self.calls == 26:
            raise SimplificationError("injected failure on push 26")
        return [self.calls] if self.calls % 10 == 0 else []

    def finish(self):
        return []


class TestPointsPushedAfterFailure:
    @pytest.fixture
    def failing(self):
        register_algorithm(
            "fails-on-push-26",
            streaming_factory=FailsOnPush,
            streaming_kwargs=(),
            summary="test-only streaming algorithm that fails mid-stream",
        )(lambda trajectory, epsilon: None)
        yield "fails-on-push-26"
        unregister_algorithm("fails-on-push-26")

    @pytest.mark.parametrize("ingest", ["push", "iter_block", "push_block"])
    def test_counts_the_points_ingested_before_the_failure(self, failing, ingest):
        """Every ingest form reports the 25 points the simplifier accepted."""
        points = [Point(float(i), 0.0, float(i)) for i in range(40)]
        stream = Simplifier(failing, 10.0).open_stream()
        block = PointBlock.from_points(points)
        with pytest.raises(SimplificationError, match="injected"):
            if ingest == "push":
                stream.feed(points)
            elif ingest == "iter_block":
                for _ in stream.iter_block(block):
                    pass
            else:
                stream.push_block(block)
        assert stream.points_pushed == 25
