"""Report wire codec: round-trip fidelity and malformed-buffer rejection.

The acceptance bar for the codec is exact: for every protocol, encode →
``to_bytes`` → ``from_bytes`` → aggregate must be bit-for-bit identical to
the in-memory ``run_streaming`` path (proven here as a protocol x executor
matrix), and corrupted, truncated or version-mismatched buffers must raise
clean :class:`WireFormatError`\\ s before touching an accumulator.
"""

from __future__ import annotations

import dataclasses
import io
import struct

import numpy as np
import pytest

from repro.core.exceptions import WireFormatError
from repro.execution import available_executors, make_executor
from repro.service import (
    WIRE_FORMAT_VERSION,
    AggregationSession,
    decode_reports,
    encode_reports,
    iter_report_frames,
    split_report_frames,
)
from repro.protocols.inp_ht import InpHTReports
from repro.protocols.inp_rr import InpRRReports

from .util import (
    ALL_PROTOCOLS,
    SEED,
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    forge_report_frame,
    pack_planes,
    small_dataset,
)

BATCH_SIZE = 24  # 96 records -> 4 batches


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def executors():
    cache = {}
    yield lambda name: cache.setdefault(name, make_executor(name, 2))
    for executor in cache.values():
        executor.close()


class TestFieldRoundTrip:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_every_field_survives_bit_for_bit(self, name, dataset):
        protocol = build(name)
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(3))
        decoded = type(reports).from_bytes(reports.to_bytes())
        assert type(decoded) is type(reports)
        for field in dataclasses.fields(reports):
            original = getattr(reports, field.name)
            restored = getattr(decoded, field.name)
            if isinstance(original, np.ndarray):
                assert restored.dtype == original.dtype
                np.testing.assert_array_equal(restored, original)
            else:
                assert restored == original
        assert decoded.num_users == reports.num_users

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_protocol_decode_reports_round_trip(self, name, dataset):
        protocol = build(name)
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(5))
        decoded = protocol.decode_reports(reports.to_bytes())
        assert type(decoded) is type(reports)

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_decoded_batches_do_not_pin_the_buffer(self, name, dataset):
        """Decoding reads views of the receive buffer but hands back owned
        arrays: the buffer can be overwritten and resized afterwards."""
        protocol = build(name)
        reports = protocol.encode_batch(dataset, rng=np.random.default_rng(3))
        buffer = bytearray(reports.to_bytes())
        view = memoryview(buffer)
        decoded = protocol.decode_reports(view, dataset.domain)
        view.release()
        buffer[:] = bytes(len(buffer))
        buffer.extend(b"resized")  # BufferError if any export were alive
        for field in dataclasses.fields(reports):
            original = getattr(reports, field.name)
            if isinstance(original, np.ndarray):
                np.testing.assert_array_equal(getattr(decoded, field.name), original)

    def test_empty_batch_round_trips(self, dataset):
        protocol = build("InpHT")
        reports = protocol.encode_batch(
            dataset.records[:0], rng=np.random.default_rng(0)
        )
        decoded = protocol.decode_reports(reports.to_bytes())
        assert decoded.num_users == 0


class TestWirePathMatchesRunStreaming:
    """Acceptance matrix: wire path == in-memory path, on every executor."""

    @pytest.fixture(scope="class")
    def baselines(self, dataset):
        tables = {}
        for name in ALL_PROTOCOLS:
            estimator = build(name).run_streaming(
                dataset,
                rng=np.random.default_rng(SEED),
                batch_size=BATCH_SIZE,
            )
            tables[name] = estimates_of(estimator)
        return tables

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_wire_aggregation_matches_run_streaming(
        self, name, executor_name, dataset, baselines, executors
    ):
        protocol = build(name)
        streamed = protocol.run_streaming(
            dataset,
            rng=np.random.default_rng(SEED),
            batch_size=BATCH_SIZE,
            shards=2,
            executor=executors(executor_name),
        )
        session = AggregationSession(protocol.spec(), dataset.domain)
        for frame in encode_frames(protocol, dataset, BATCH_SIZE):
            session.submit(frame)
        wire_estimates = estimates_of(session.snapshot())
        assert_estimates_equal(wire_estimates, estimates_of(streamed))
        assert_estimates_equal(wire_estimates, baselines[name])


class TestFraming:
    def test_iter_report_frames_splits_concatenated_stream(self, dataset):
        protocol = build("MargPS")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        stream = b"".join(frames)
        decoded = list(iter_report_frames(stream))
        assert len(decoded) == len(frames)
        assert sum(batch.num_users for batch in decoded) == dataset.size

    def test_iter_report_frames_accepts_binary_file(self, dataset):
        protocol = build("InpPS")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        decoded = list(iter_report_frames(io.BytesIO(b"".join(frames))))
        assert len(decoded) == len(frames)

    def test_split_report_frames_preserves_bytes(self, dataset):
        protocol = build("InpEM")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        assert list(split_report_frames(b"".join(frames))) == frames

    def test_decode_reports_rejects_trailing_data(self, dataset):
        protocol = build("InpHT")
        frame = encode_frames(protocol, dataset, None)[0]
        with pytest.raises(WireFormatError, match="trailing"):
            decode_reports(frame + b"\x00")

    def test_mixed_kind_stream_decodes_per_frame(self, dataset):
        first = build("InpHT")
        second = build("MargHT")
        stream = (
            encode_frames(first, dataset, None)[0]
            + encode_frames(second, dataset, None)[0]
        )
        kinds = [type(batch).__name__ for batch in iter_report_frames(stream)]
        assert kinds == ["InpHTReports", "MargHTReports"]


class TestMalformedBuffers:
    @pytest.fixture()
    def frame(self, dataset):
        protocol = build("InpHT")
        return protocol.encode_batch(
            dataset, rng=np.random.default_rng(7)
        ).to_bytes()

    def test_not_a_frame(self):
        with pytest.raises(WireFormatError, match="magic"):
            decode_reports(b"this is not a report frame at all")

    def test_empty_buffer(self):
        with pytest.raises(WireFormatError, match="truncated"):
            decode_reports(b"")

    def test_truncated_header(self, frame):
        with pytest.raises(WireFormatError, match="truncated"):
            decode_reports(frame[:10])

    def test_truncated_payload(self, frame):
        with pytest.raises(WireFormatError, match="truncated"):
            decode_reports(frame[:-20])

    def test_corrupted_payload(self, frame):
        """A flipped row count or word width no longer matches the bytes
        that follow: the layout check names the kind and refuses it."""
        payload_start = struct.calcsize("<4sHH") + len(b"InpHT") + 8
        for position in (payload_start, payload_start + 4, payload_start + 5):
            corrupted = bytearray(frame)
            corrupted[position] ^= 0xFF
            with pytest.raises(WireFormatError, match="InpHT report payload"):
                decode_reports(bytes(corrupted))

    def test_version_mismatch(self, frame):
        stale = bytearray(frame)
        struct.pack_into("<H", stale, 4, WIRE_FORMAT_VERSION + 7)
        with pytest.raises(WireFormatError, match="version"):
            decode_reports(bytes(stale))

    def test_unknown_kind(self, frame):
        header = struct.pack("<4sHH", b"RPRB", WIRE_FORMAT_VERSION, 5)
        payload = frame[struct.calcsize("<4sHH") + 5 :]
        with pytest.raises(WireFormatError, match="unknown report kind"):
            decode_reports(header + b"NoSuc" + payload)

    def test_wrong_kind_for_protocol(self, frame, dataset):
        other = build("MargPS")
        with pytest.raises(WireFormatError, match="expected 'MargPS'"):
            other.decode_reports(frame)

    def test_wrong_kind_for_class(self, frame):
        with pytest.raises(WireFormatError, match="expected 'InpRR'"):
            InpRRReports.from_bytes(frame)

    def test_missing_field_rejected(self):
        """A payload laid out for the choices field alone leaves the
        noisy_values layout entry reading data bytes: refused on length."""
        frame = forge_report_frame("InpHT", 3, [(2, (), bytes(2))])
        with pytest.raises(WireFormatError, match="corrupted"):
            decode_reports(frame)

    def test_extra_field_rejected(self):
        frame = forge_report_frame(
            "InpHT",
            3,
            [(2, (), bytes(2)), (1, (), pack_planes([1, 0, 1])), (1, (), b"\x00")],
        )
        with pytest.raises(WireFormatError, match="corrupted"):
            decode_reports(frame)

    def test_wrong_dtype_rejected(self):
        """A field declaring words its alphabet cannot hold — 64-bit float
        words for the sign field, 64-bit words for an index — is refused
        before any value is read."""
        floats = np.ones(3, dtype="<f8").tobytes()
        signs_as_floats = forge_report_frame(
            "InpHT", 3, [(2, (), bytes(2)), (64, (), floats)]
        )
        with pytest.raises(WireFormatError, match="sign alphabet takes 1..1 bits"):
            decode_reports(signs_as_floats)
        wide_index = forge_report_frame(
            "InpHT", 3, [(64, (), bytes(24)), (1, (), pack_planes([1, 0, 1]))]
        )
        with pytest.raises(WireFormatError, match="index alphabet takes"):
            decode_reports(wide_index)

    def test_per_user_row_mismatch_rejected(self):
        """Per-user fields share the frame's row count, so data sized for
        a different batch size fails the exact-length check."""
        frame = forge_report_frame(
            "InpHT", 3, [(2, (), bytes(2)), (1, (), pack_planes([1] * 9))]
        )
        with pytest.raises(WireFormatError, match="row count"):
            decode_reports(frame)

    def test_encode_rejects_row_mismatch(self):
        bad = InpHTReports(
            choices=np.zeros(3, dtype=np.int64),
            noisy_values=np.ones(4, dtype=np.float64),
        )
        with pytest.raises(WireFormatError, match="disagree on the batch"):
            bad.to_bytes()

    def test_encode_rejects_wrong_dtype(self):
        bad = InpHTReports(
            choices=np.zeros(3, dtype=np.int32),
            noisy_values=np.ones(3, dtype=np.float64),
        )
        with pytest.raises(WireFormatError, match="dtype"):
            bad.to_bytes()

    def test_unregistered_class_rejected(self):
        class Unregistered:
            pass

        with pytest.raises(WireFormatError, match="not registered"):
            encode_reports(Unregistered())

    def test_non_utf8_kind_rejected(self, frame):
        mangled = bytearray(frame)
        mangled[8] = 0xFF  # first kind byte -> invalid UTF-8 continuation
        with pytest.raises(WireFormatError, match="UTF-8"):
            decode_reports(bytes(mangled))

    def test_split_rejects_non_utf8_kind(self, frame):
        from repro.service import split_report_frames

        mangled = bytearray(frame)
        mangled[8] = 0xFF
        with pytest.raises(WireFormatError, match="UTF-8"):
            list(split_report_frames(bytes(mangled)))

    def test_split_rejects_bad_magic_mid_stream(self, frame):
        with pytest.raises(WireFormatError, match="magic"):
            list(split_report_frames(frame + b"garbage-between-frames" + frame))


class TestIncrementalStreamReading:
    def test_stream_frames_read_one_at_a_time(self, dataset):
        """The stream path never slurps the whole source: after the first
        frame is yielded, only that frame's bytes have been consumed."""
        protocol = build("InpPS")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        stream = io.BytesIO(b"".join(frames))
        iterator = split_report_frames(stream)
        first = next(iterator)
        assert first == frames[0]
        assert stream.tell() == len(frames[0])
        assert list(iterator) == frames[1:]

    def test_stream_with_partial_reads(self, dataset):
        """Sockets and pipes may return short reads; _read_exact loops."""

        class TricklingStream:
            def __init__(self, data):
                self._stream = io.BytesIO(data)

            def read(self, size=-1):
                return self._stream.read(min(size, 7) if size > 0 else size)

        protocol = build("InpHT")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        recovered = list(split_report_frames(TricklingStream(b"".join(frames))))
        assert recovered == frames

    def test_truncated_stream_raises(self, dataset):
        protocol = build("InpHT")
        frame = encode_frames(protocol, dataset, None)[0]
        with pytest.raises(WireFormatError, match="truncated"):
            list(split_report_frames(io.BytesIO(frame[:-9])))

    def test_stream_with_bad_magic_raises_before_reading_lengths(self):
        with pytest.raises(WireFormatError, match="magic"):
            list(split_report_frames(io.BytesIO(b"XXXXXXXXXXXXXXXXXX")))

    def test_forged_payload_length_rejected_without_slurping(self, dataset):
        """A corrupted u64 length field must error out instead of buffering
        the remaining stream (or allocating the declared size)."""
        import struct as struct_module

        from repro.protocols.wire import MAX_PAYLOAD_BYTES

        protocol = build("InpHT")
        frame = bytearray(encode_frames(protocol, dataset, None)[0])
        length_offset = struct_module.calcsize("<4sHH") + len(b"InpHT")
        struct_module.pack_into("<Q", frame, length_offset, MAX_PAYLOAD_BYTES + 1)

        class ExplodingTail(io.BytesIO):
            """Fails the test if the reader tries to read past the header."""

            def __init__(self, data, fence):
                super().__init__(data)
                self._fence = fence

            def read(self, size=-1):
                assert self.tell() < self._fence or size <= 0 or size < 2**20, (
                    "reader requested a giant payload read"
                )
                return super().read(size)

        fence = length_offset + 8
        with pytest.raises(WireFormatError, match="frame limit"):
            list(split_report_frames(ExplodingTail(bytes(frame), fence)))
        with pytest.raises(WireFormatError, match="frame limit"):
            decode_reports(bytes(frame))
