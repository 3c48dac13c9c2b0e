"""Wire-codec contract tests: explicit layouts, exact round-trips, no slack.

The wire module is what the node backend pushes through its sockets, so
its invariants are the transport half of the byte-identical
contract: every registered frame round-trips its payload bit for bit,
encoding is a pure function of the payload (same payload → same bytes),
and every malformed input fails loudly with :class:`WireFormatError`
instead of mis-decoding.
"""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Point
from repro.exceptions import WireFormatError
from repro.streaming import wire
from repro.streaming.wire import (
    FRAME_TYPES,
    POINT_BATCH_FORMATS,
    decode_frame,
    encode_frame,
    group_records,
    pack_frame,
    read_frame,
    register_frame,
)
from repro.trajectory import PointBlock
from repro.trajectory.piecewise import SegmentRecord

COMMON_SETTINGS = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def block(*triples):
    return PointBlock(
        np.array([p[0] for p in triples], dtype=float),
        np.array([p[1] for p in triples], dtype=float),
        np.array([p[2] for p in triples], dtype=float),
    )


def record(t0=0.0, t1=10.0, **overrides):
    fields = dict(
        start=Point(1.5, -2.25, t0),
        end=Point(3.0, 4.5, t1),
        first_index=0,
        last_index=7,
        point_count=8,
        covered_last_index=9,
        patched_start=False,
        patched_end=True,
    )
    fields.update(overrides)
    return SegmentRecord(**fields)


@st.composite
def point_batches(draw):
    n_devices = draw(st.integers(min_value=0, max_value=4))
    batch = []
    for index in range(n_devices):
        n_points = draw(st.integers(min_value=1, max_value=12))
        xs = draw(st.lists(finite, min_size=n_points, max_size=n_points))
        ys = draw(st.lists(finite, min_size=n_points, max_size=n_points))
        ts = draw(st.lists(finite, min_size=n_points, max_size=n_points))
        batch.append(
            (
                draw(st.integers(min_value=0, max_value=63)),
                f"device-{index}",
                PointBlock(
                    np.array(xs, dtype=float),
                    np.array(ys, dtype=float),
                    np.array(ts, dtype=float),
                ),
            )
        )
    return batch


HEADER_OF = {
    frame_type.name: struct.pack("<2sBB", wire.WIRE_MAGIC, wire.WIRE_VERSION, kind)
    for kind, frame_type in FRAME_TYPES.items()
}
"""A valid frame header for every registered kind, by frame name."""

SAMPLE_FRAMES = [
    encode_frame("json", {"index": 3, "secret": "ab", "nested": [1.5, None]}),
    encode_frame(
        "point-batch",
        [
            (0, "dev-α", block((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))),
            (5, "b", block((7.0, 8.0, 9.0))),
        ],
    ),
    encode_frame("segment-batch", ("level_segments", "dev-α", 2, [record(), record()])),
    encode_frame("blob", b"\x00\x01opaque"),
]
"""One valid frame per registered kind, the seeds of the mutation fuzz."""


def assert_batches_equal(left, right):
    assert len(left) == len(right)
    for (shard_a, device_a, block_a), (shard_b, device_b, block_b) in zip(left, right):
        assert shard_a == shard_b
        assert device_a == device_b
        np.testing.assert_array_equal(block_a.xs, block_b.xs)
        np.testing.assert_array_equal(block_a.ys, block_b.ys)
        np.testing.assert_array_equal(block_a.ts, block_b.ts)


class TestEnvelope:
    def test_round_trip_names_the_frame(self):
        body = encode_frame("json", {"ok": True})
        assert decode_frame(body) == ("json", {"ok": True})

    def test_unknown_frame_name_is_rejected(self):
        with pytest.raises(WireFormatError, match="unknown frame type"):
            encode_frame("no-such-frame", {})

    def test_truncated_header_is_rejected(self):
        with pytest.raises(WireFormatError, match="not even a header"):
            decode_frame(b"RW")

    def test_bad_magic_is_rejected(self):
        body = bytearray(encode_frame("json", None))
        body[0:2] = b"ZZ"
        with pytest.raises(WireFormatError, match="bad frame magic"):
            decode_frame(bytes(body))

    def test_future_version_is_rejected(self):
        body = bytearray(encode_frame("json", None))
        body[2] = wire.WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="unsupported wire version"):
            decode_frame(bytes(body))

    def test_unknown_kind_is_rejected(self):
        body = bytearray(encode_frame("json", None))
        body[3] = 0xEE
        with pytest.raises(WireFormatError, match="unknown frame kind"):
            decode_frame(bytes(body))

    def test_encoding_is_deterministic(self):
        payload = {"b": 2, "a": 1, "nested": {"z": [1.5, 2.5], "y": None}}
        assert encode_frame("json", payload) == encode_frame("json", payload)


class TestRegistry:
    def test_every_registered_kind_has_a_codec_pair(self):
        assert sorted(FRAME_TYPES) == [0x01, 0x02, 0x04, 0x05]  # 0x03 retired
        for frame_type in FRAME_TYPES.values():
            assert callable(frame_type.encode)
            assert callable(frame_type.decode)
            assert frame_type.encode.__name__.startswith("encode_")
            assert frame_type.decode.__name__.startswith("decode_")

    def test_duplicate_kind_is_rejected(self):
        with pytest.raises(WireFormatError, match="already registered"):
            register_frame(0x01, "json-clone", wire.encode_json, wire.decode_json)

    def test_duplicate_name_is_rejected(self):
        with pytest.raises(WireFormatError, match="already registered"):
            register_frame(0x7F, "json", wire.encode_json, wire.decode_json)

    def test_non_byte_kind_is_rejected(self):
        with pytest.raises(WireFormatError, match="byte value"):
            register_frame(0, "zero", wire.encode_json, wire.decode_json)
        with pytest.raises(WireFormatError, match="byte value"):
            register_frame(256, "wide", wire.encode_json, wire.decode_json)

    def test_hub_formats_map_onto_point_batch_frames(self):
        assert POINT_BATCH_FORMATS == {"columnar": "point-batch"}


class TestStreamFraming:
    def test_round_trip_over_a_byte_stream(self):
        bodies = [
            encode_frame("json", {"seq": i}) for i in range(3)
        ] + [encode_frame("blob", b"\x00\xff" * 10)]
        stream = io.BytesIO(b"".join(pack_frame(body) for body in bodies))
        for body in bodies:
            assert read_frame(stream) == body
        assert read_frame(stream) is None

    def test_clean_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_eof_inside_length_prefix_is_an_error(self):
        with pytest.raises(WireFormatError, match="length prefix"):
            read_frame(io.BytesIO(b"\x05\x00"))

    def test_eof_inside_body_is_an_error(self):
        frame = pack_frame(encode_frame("json", [1, 2, 3]))
        with pytest.raises(WireFormatError, match="stream ended inside a frame"):
            read_frame(io.BytesIO(frame[:-1]))

    def test_oversized_length_prefix_is_refused_before_the_body(self):
        forged = struct.pack("<I", wire.MAX_FRAME_BYTES + 1) + b"\x00" * 16
        stream = io.BytesIO(forged)
        with pytest.raises(WireFormatError, match="exceeds"):
            read_frame(stream)
        assert stream.tell() == 4  # the body was never read

    def test_frame_at_the_limit_is_accepted(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16)
        stream = io.BytesIO(pack_frame(b"x" * 16))
        assert read_frame(stream) == b"x" * 16

    def test_oversized_body_is_refused_at_pack_time(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16)
        with pytest.raises(WireFormatError, match="exceeds the 16-byte limit"):
            pack_frame(b"x" * 17)


class TestJsonFrame:
    def test_keys_are_sorted_on_the_wire(self):
        body = encode_frame("json", {"zeta": 1, "alpha": 2})
        payload = body[4:].decode("utf-8")
        assert payload == '{"alpha":2,"zeta":1}'

    def test_unencodable_payload_is_rejected(self):
        with pytest.raises(WireFormatError, match="not JSON-encodable"):
            encode_frame("json", object())

    def test_malformed_body_is_rejected(self):
        body = encode_frame("json", None)[:4] + b"{nope"
        with pytest.raises(WireFormatError, match="malformed json frame"):
            decode_frame(body)

    @pytest.mark.parametrize(
        "payload",
        [b"9" * 5_000, b"[" * 100_000],
        ids=["over-long-integer", "deep-nesting"],
    )
    def test_parser_limits_are_reported_as_malformed(self, payload):
        # The json parser raises ValueError past the integer-digit limit and
        # RecursionError on deep nesting; both must surface as WireFormatError.
        body = encode_frame("json", None)[:4] + payload
        with pytest.raises(WireFormatError, match="malformed json frame"):
            decode_frame(body)


class TestGroupRecords:
    def test_first_appearance_device_order_is_preserved(self):
        records = [
            (1, "b", Point(0.0, 0.0, 0.0)),
            (0, "a", Point(1.0, 1.0, 1.0)),
            (1, "b", Point(2.0, 2.0, 2.0)),
            (0, "a", Point(3.0, 3.0, 3.0)),
            (2, "c", Point(4.0, 4.0, 4.0)),
        ]
        grouped = group_records(records)
        assert [(shard, device) for shard, device, _ in grouped] == [
            (1, "b"),
            (0, "a"),
            (2, "c"),
        ]
        assert_batches_equal(
            grouped,
            [
                (1, "b", block((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))),
                (0, "a", block((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))),
                (2, "c", block((4.0, 4.0, 4.0),)),
            ],
        )

    def test_empty_input_groups_to_nothing(self):
        assert group_records([]) == []

    @settings(**COMMON_SETTINGS)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from(("alpha", "beta", "gamma")),
                st.tuples(finite, finite, finite),
            ),
            max_size=30,
        )
    )
    def test_grouping_preserves_arrival_order_per_device(self, raw):
        records = [
            (shard, device, Point(x, y, t)) for shard, device, (x, y, t) in raw
        ]
        grouped = group_records(records)
        seen_order = []
        for record_ in records:
            if record_[1] not in seen_order:
                seen_order.append(record_[1])
        assert [device for _, device, _ in grouped] == seen_order
        for _, device, soa in grouped:
            mine = [p for _, d, p in records if d == device]
            assert len(soa) == len(mine)
            np.testing.assert_array_equal(soa.xs, [p.x for p in mine])
            np.testing.assert_array_equal(soa.ts, [p.t for p in mine])


class TestPointBatchFrames:
    @settings(**COMMON_SETTINGS)
    @given(point_batches())
    def test_point_batch_round_trips_exactly(self, batch):
        name, decoded = decode_frame(encode_frame("point-batch", batch))
        assert name == "point-batch"
        assert_batches_equal(decoded, batch)

    def test_decoded_columns_are_writable_copies(self):
        batch = [(0, "dev", block((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))]
        _, decoded = decode_frame(encode_frame("point-batch", batch))
        decoded[0][2].xs[0] = 99.0  # must not raise: not a frozen wire view
        assert decoded[0][2].xs[0] == 99.0

    def test_empty_batch_round_trips(self):
        assert decode_frame(encode_frame("point-batch", [])) == ("point-batch", [])

    def test_truncated_column_is_rejected(self):
        body = encode_frame("point-batch", [(0, "d", block((1.0, 2.0, 3.0)))])
        with pytest.raises(WireFormatError, match="truncated inside"):
            decode_frame(body[:-4])

    def test_trailing_bytes_are_rejected(self):
        body = encode_frame("point-batch", [(0, "d", block((1.0, 2.0, 3.0)))])
        with pytest.raises(WireFormatError, match="trailing bytes"):
            decode_frame(body + b"\x00")

    def test_oversized_device_id_is_rejected(self):
        batch = [(0, "x" * 70_000, block((0.0, 0.0, 0.0)))]
        with pytest.raises(WireFormatError, match="device id too long"):
            encode_frame("point-batch", batch)

    def test_device_id_that_is_not_utf8_is_rejected(self):
        body = (
            HEADER_OF["point-batch"]
            + struct.pack("<I", 1)
            + struct.pack("<IHI", 0, 2, 1)
            + b"\xff\xfe"
            + b"\x00" * 24
        )
        with pytest.raises(WireFormatError, match="not valid utf-8"):
            decode_frame(body)


class TestSegmentBatchFrame:
    def test_round_trip_preserves_every_field(self):
        payload = (
            "level_segments",
            "device-α",
            3,
            [
                record(patched_start=True, patched_end=False),
                record(t0=10.0, t1=20.0, first_index=7, last_index=11,
                       point_count=5, covered_last_index=12),
            ],
        )
        name, decoded = decode_frame(encode_frame("segment-batch", payload))
        assert name == "segment-batch"
        assert decoded == payload

    def test_plain_segments_tag_round_trips_with_level_zero(self):
        payload = ("segments", "d", 0, [record()])
        assert decode_frame(encode_frame("segment-batch", payload))[1] == payload

    def test_unknown_event_kind_is_rejected_on_encode(self):
        with pytest.raises(WireFormatError, match="event kind"):
            encode_frame("segment-batch", ("bogus", "d", 0, []))

    def test_unknown_event_tag_is_rejected_on_decode(self):
        body = bytearray(encode_frame("segment-batch", ("segments", "d", 0, [])))
        body[4] = 9  # the tag byte, straight after the frame header
        with pytest.raises(WireFormatError, match="unknown segment-batch event tag"):
            decode_frame(bytes(body))

    def test_truncated_record_is_rejected(self):
        body = encode_frame("segment-batch", ("segments", "d", 0, [record()]))
        with pytest.raises(WireFormatError, match="truncated inside"):
            decode_frame(body[:-1])

    def test_trailing_bytes_are_rejected(self):
        body = encode_frame("segment-batch", ("segments", "d", 0, [record()]))
        with pytest.raises(WireFormatError, match="trailing bytes"):
            decode_frame(body + b"\x00")

    def test_device_id_that_is_not_utf8_is_rejected(self):
        body = HEADER_OF["segment-batch"] + struct.pack("<BHII", 0, 2, 0, 0) + b"\xff\xfe"
        with pytest.raises(WireFormatError, match="not valid utf-8"):
            decode_frame(body)


class TestBlobFrame:
    def test_bytes_pass_through_unchanged(self):
        payload = bytes(range(256))
        assert decode_frame(encode_frame("blob", payload)) == ("blob", payload)

    def test_memoryview_and_bytearray_are_accepted(self):
        assert decode_frame(encode_frame("blob", bytearray(b"ab")))[1] == b"ab"
        assert decode_frame(encode_frame("blob", memoryview(b"cd")))[1] == b"cd"

    def test_non_bytes_payload_is_rejected(self):
        with pytest.raises(WireFormatError, match="blob frames carry bytes"):
            encode_frame("blob", "not bytes")


class TestDecodeFuzz:
    """Every byte string behind a valid header either decodes or raises
    :class:`WireFormatError` — never another exception type."""

    @staticmethod
    def decode_or_wire_error(body: bytes) -> None:
        try:
            decode_frame(body)
        except WireFormatError:
            pass

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(sorted(HEADER_OF)), st.binary(max_size=96))
    def test_arbitrary_bodies_decode_or_raise_wire_errors(self, name, payload):
        self.decode_or_wire_error(HEADER_OF[name] + payload)

    @settings(deadline=None, max_examples=300)
    @given(
        st.sampled_from(SAMPLE_FRAMES),
        st.lists(st.tuples(st.integers(min_value=4), st.integers(0, 255)), max_size=4),
        st.integers(min_value=4),
    )
    def test_mutated_valid_frames_decode_or_raise_wire_errors(self, frame, flips, cut):
        body = bytearray(frame)
        for position, value in flips:
            body[4 + position % (len(body) - 4)] = value  # keep the header
        self.decode_or_wire_error(bytes(body[: max(4, cut % (len(body) + 1))]))
