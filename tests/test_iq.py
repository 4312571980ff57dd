"""Frame model and the .iq / .iq.meta reader."""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occuscan import (
    ComplexFrame,
    OccuscanError,
    RecordingMeta,
    SampleDataError,
    read_meta,
)
from occuscan.iq import BLOCK_FRAMES, stream_recording
from conftest import make_frame, write_meta, write_recording


class TestComplexFrame:
    def test_valid_frame(self):
        f = make_frame([1 + 1j, 2 - 1j], rate=2e6, freq=837e6, t=12.5)
        assert len(f) == 2
        assert f.samples.dtype == np.complex128
        assert f.sample_rate_hz == 2e6
        assert f.capture_time == 12.5

    def test_samples_are_read_only(self):
        f = make_frame([1.0, 2.0])
        with pytest.raises((ValueError, RuntimeError)):
            f.samples[0] = 9.0

    def test_copies_input(self):
        src = np.array([1.0, 2.0], dtype=np.complex128)
        f = make_frame(src)
        src[0] = 99.0
        assert f.samples[0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_frame([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            make_frame(np.zeros((2, 2)))

    def test_rejects_nonfinite_naming_index(self):
        with pytest.raises(SampleDataError, match="index 2"):
            make_frame([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(SampleDataError, match="index 1"):
            make_frame([0.0, 1j * np.inf])

    def test_rejects_bad_rate_and_freq(self):
        with pytest.raises(ValueError):
            make_frame([1.0], rate=0.0)
        with pytest.raises(ValueError):
            make_frame([1.0], freq=-5.0)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^capture_time must be finite$"):
                make_frame([1.0], t=t)


class TestMeta:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "a.iq.meta"
        write_meta(p, 4096, 2.4e6, 2412e6, 1700000000.25)
        assert read_meta(p) == RecordingMeta(2.4e6, 2412e6, 1700000000.25, 4096)

    def test_unknown_keys_ignored_comments_skipped(self, tmp_path):
        p = tmp_path / "m"
        p.write_text(
            "# capture notes\n"
            "sample_rate_hz=1000.0\n"
            "gain_db=30\n"
            "center_freq_hz=5765000000.0\n"
            "start_time_unix=0.0\n"
            "num_samples=10\n"
        )
        m = read_meta(p)
        assert m.sample_rate_hz == 1000.0
        assert m.num_samples == 10

    def test_missing_key_is_error(self, tmp_path):
        p = tmp_path / "m"
        p.write_text("sample_rate_hz=1000.0\ncenter_freq_hz=1.0\nnum_samples=0\n")
        with pytest.raises(OccuscanError, match="start_time_unix"):
            read_meta(p)

    def test_duplicate_key_cites_lineno(self, tmp_path):
        p = tmp_path / "m"
        p.write_text("sample_rate_hz=1000.0\ncenter_freq_hz=1.0\nstart_time_unix=0.0\n"
                     "num_samples=1\ncenter_freq_hz=2.0\n")
        with pytest.raises(OccuscanError, match=":5: duplicate key 'center_freq_hz'$"):
            read_meta(p)

    def test_malformed_line_cites_lineno(self, tmp_path):
        p = tmp_path / "m"
        p.write_text("sample_rate_hz=1000.0\nwhat even is this\n")
        with pytest.raises(OccuscanError, match=":2:"):
            read_meta(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "m"
        p.write_text(
            "sample_rate_hz=fast\ncenter_freq_hz=1.0\n"
            "start_time_unix=0.0\nnum_samples=1\n"
        )
        with pytest.raises(OccuscanError,
                           match="bad value: could not convert string to float: 'fast'$"):
            read_meta(p)

    @pytest.mark.parametrize("start", ["nan", "inf", "-inf"])
    def test_start_time_must_be_finite(self, tmp_path, start):
        p = tmp_path / "m"
        p.write_text(f"sample_rate_hz=1.0\ncenter_freq_hz=1.0\n"
                     f"start_time_unix={start}\nnum_samples=1\n")
        with pytest.raises(OccuscanError, match="bad value: start_time_unix must be finite"):
            read_meta(p)


def _write_pair(tmp_path, payload: bytes, num_samples: int, rate=1e6, freq=100e6, start=0.0):
    iq = tmp_path / "cap.iq"
    meta = tmp_path / "cap.iq.meta"
    iq.write_bytes(payload)
    write_meta(meta, num_samples, rate, freq, start)
    return iq, meta


def _read(iq, meta, frame_len):
    """stream_recording's meta, every frame as one (frames x frame_len) array, and the
    discarded sample count; also checks that no block holds more than BLOCK_FRAMES frames
    and that each frame k comes with its capture time, start + k * frame_len / rate."""
    meta, discarded, pairs = stream_recording(iq, meta, frame_len)
    pairs = list(pairs)
    times, blocks = [t for t, _ in pairs], [b for _, b in pairs]
    assert all(1 <= len(b) <= BLOCK_FRAMES and len(t) == len(b) for t, b in zip(times, blocks))
    frames = np.concatenate([np.empty((0, frame_len), np.complex128), *blocks])
    k = np.arange(len(frames))
    np.testing.assert_array_equal(np.concatenate([np.empty(0), *times]),
                                  meta.start_time + k * frame_len / meta.sample_rate_hz)
    return meta, frames, discarded


class TestReadRecording:
    def test_byte_layout_oracle(self, tmp_path):
        # [1+1j, 2-1j] interleaves to little-endian f32: 1, 1, 2, -1
        payload = struct.pack("<4f", 1.0, 1.0, 2.0, -1.0)
        iq, meta = _write_pair(tmp_path, payload, 2)
        _, frames, discarded = _read(iq, meta, frame_len=2)
        assert discarded == 0
        np.testing.assert_array_equal(frames, [[1 + 1j, 2 - 1j]])

    def test_framing_8192_samples(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(2 * 8192).astype(np.float32)
        iq, meta = _write_pair(tmp_path, vals.tobytes(), 8192, rate=1e6, start=5.0)
        m, frames, discarded = _read(iq, meta, frame_len=1024)
        assert frames.shape == (8, 1024)
        assert discarded == 0
        # contiguous frames: frame k holds samples k * frame_len .. (k + 1) * frame_len - 1
        np.testing.assert_array_equal(frames.ravel(), vals[0::2] + 1j * vals[1::2].astype(float))
        assert (m.start_time, m.sample_rate_hz) == (5.0, 1e6)

    def test_short_capture_all_discarded(self, tmp_path):
        vals = np.zeros(2 * 1000, dtype=np.float32)
        iq, meta = _write_pair(tmp_path, vals.tobytes(), 1000)
        _, frames, discarded = _read(iq, meta, frame_len=1024)
        assert len(frames) == 0
        assert discarded == 1000

    def test_partial_trailing_frame_discarded(self, tmp_path):
        vals = np.ones(2 * 10, dtype=np.float32)
        iq, meta = _write_pair(tmp_path, vals.tobytes(), 10)
        _, frames, discarded = _read(iq, meta, frame_len=4)
        assert len(frames) == 2
        assert discarded == 2

    def test_empty_payload(self, tmp_path):
        iq, meta = _write_pair(tmp_path, b"", 0)
        _, frames, discarded = _read(iq, meta, frame_len=16)
        assert len(frames) == 0 and discarded == 0

    def test_truncated_payload(self, tmp_path):
        iq, meta = _write_pair(tmp_path, b"\x00" * 13, 1)
        with pytest.raises(OccuscanError, match="13 bytes"):
            _read(iq, meta, frame_len=1)

    def test_num_samples_mismatch(self, tmp_path):
        iq, meta = _write_pair(tmp_path, struct.pack("<4f", 0, 0, 0, 0), 7)
        with pytest.raises(OccuscanError, match="num_samples=7"):
            _read(iq, meta, frame_len=1)

    def test_payload_shrinks_while_read(self, tmp_path):
        iq, meta = _write_pair(tmp_path, b"\x00" * 8 * 6, 6)
        _, _, blocks = stream_recording(iq, meta, 2)  # the size checks pass here
        os.truncate(iq, 8 * 5)
        with pytest.raises(OccuscanError, match=r"cap\.iq: payload shrank while being read$"):
            next(blocks)

    def test_nonfinite_sample_names_index(self, tmp_path):
        payload = struct.pack("<6f", 0, 0, 1, float("nan"), 2, 2)
        iq, meta = _write_pair(tmp_path, payload, 3)
        with pytest.raises(SampleDataError, match="index 1"):
            _read(iq, meta, frame_len=1)

    def test_bad_frame_len(self, tmp_path):
        iq, meta = _write_pair(tmp_path, b"", 0)
        with pytest.raises(ValueError):
            _read(iq, meta, frame_len=0)

    def test_capture_times_across_blocks(self, tmp_path):
        # 70 frames of 4 samples: blocks of 32, 32 and 6 frames, plus 3 discarded samples
        iq, meta = _write_pair(tmp_path, b"\x00" * 8 * 283, 283, rate=3e3, start=1.7e9 + 0.25)
        _, _, blocks = stream_recording(iq, meta, 4)
        times = [t for t, _ in blocks]
        assert [len(t) for t in times] == [32, 32, 6]
        expected = [1.7e9 + 0.25 + k * 4 / 3e3 for k in range(70)]  # Python floats, one by one
        assert np.concatenate(times).tolist() == expected

    def test_last_capture_time_must_be_finite(self, tmp_path):
        # two frames at 1e-320 Hz: frame 1 starts at 4 / 1e-320 s, which overflows to inf
        iq, meta = _write_pair(tmp_path, b"\x00" * 8 * 9, 9, rate=1e-320, start=2.0)
        with pytest.raises(OccuscanError, match="capture times must be finite, but frame 1 "
                                                "would start at inf s"):
            stream_recording(iq, meta, 4)  # refused before any block is read
        # one frame starts at start_time_unix itself, whatever the rate
        m, frames, discarded = _read(iq, meta, frame_len=5)
        assert (len(frames), discarded, m.start_time) == (1, 4, 2.0)


class TestWriteRecording:
    """Recordings written as the tests write them (numpy's ``tofile`` of the samples as
    little-endian complex64, plus the four sidecar lines) read back bit-exactly."""

    def test_round_trip_three_frames(self, tmp_path):
        rng = np.random.default_rng(1)
        blocks = rng.standard_normal((3, 2, 4)).astype(np.float32)
        frames = [
            make_frame(
                blocks[k, 0].astype(np.float64) + 1j * blocks[k, 1].astype(np.float64),
                rate=1e3,
                freq=1e6,
                t=7.0 + k * 4 / 1e3,
            )
            for k in range(3)
        ]
        iq = tmp_path / "w.iq"
        meta = tmp_path / "w.iq.meta"
        write_recording(frames, iq, meta)
        m, back, discarded = _read(iq, meta, frame_len=4)
        assert discarded == 0
        np.testing.assert_array_equal(back, [f.samples for f in frames])
        assert (m.start_time, m.sample_rate_hz, m.center_freq_hz) == (7.0, 1e3, 1e6)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(width=32, allow_nan=False, allow_infinity=False),
            st.floats(width=32, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=32,
    )
)
def test_round_trip_property(tmp_path_factory, data):
    """Any float32-representable frame survives the payload bit-exactly."""
    tmp = tmp_path_factory.mktemp("rt")
    samples = np.array([re + 1j * im for re, im in data], dtype=np.complex128)
    frame = ComplexFrame(samples, 48e3, 900e6, 3.25)
    write_recording([frame], tmp / "f.iq", tmp / "f.iq.meta")
    _, back, discarded = _read(tmp / "f.iq", tmp / "f.iq.meta", frame_len=len(data))
    assert discarded == 0
    np.testing.assert_array_equal(back, [samples])
