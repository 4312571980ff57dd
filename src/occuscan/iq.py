"""Complex baseband frame model and raw IQ recording reader.

A recording is a pair of files, as an SDR capture chain writes them:

* ``<name>.iq`` — raw interleaved little-endian float32 pairs, I before Q.
* ``<name>.iq.meta`` — UTF-8 text sidecar, one ``key=value`` per line with
  keys ``sample_rate_hz``, ``center_freq_hz``, ``start_time_unix`` and
  ``num_samples``. Unknown keys are ignored; missing keys are errors.

occuscan only reads recordings. Frames hold samples as complex128 so
detector math runs in double precision; the payload is float32, so every
sample read converts exactly.

``stream_recording`` reads a payload in blocks of at most BLOCK_FRAMES (32)
frames, each with its frames' capture times, so memory does not grow with
the file: it holds one block and, while converting it, that block's float32
read, and drops a yielded block before it reads the next. Frame k is
captured at ``start_time_unix + k * frame_len / sample_rate_hz``; this
module is the only place that computes it, and a recording whose last
frame's time is not finite is refused before any block is read.

ComplexFrame is the type of the one-frame API. In every command, frames
travel as plain (frames x N) arrays, checked once: ``stream_recording``
checks every payload sample as it is read (one finiteness pass over each
block's float32 values; the first bad sample is looked for only when that
pass fails), and frames the program makes (``synth``) are checked by the
detector kernel's energy check alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import MetaFormatError, SampleDataError, TruncationError

# Frames per block, for streamed reading and for every detector-kernel call:
# large enough to amortize per-call overhead, small enough that a block's
# working set adds only a few MB of peak memory.
BLOCK_FRAMES = 32

_META_KEYS = ("sample_rate_hz", "center_freq_hz", "start_time_unix", "num_samples")


@dataclass(frozen=True)
class ComplexFrame:
    """One detection cycle of N complex baseband samples plus capture metadata.

    Immutable: the sample array is copied in and marked read-only, and every
    detector treats frames as values. ``capture_time`` is seconds since the
    UTC epoch.
    """

    samples: np.ndarray
    sample_rate_hz: float
    center_freq_hz: float
    capture_time: float = 0.0

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("frame needs a 1-D sample array of length >= 1")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            bad = int(np.flatnonzero(~(np.isfinite(arr.real) & np.isfinite(arr.imag)))[0])
            raise SampleDataError(f"non-finite sample at index {bad}")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be > 0")
        if not self.center_freq_hz > 0:
            raise ValueError("center_freq_hz must be > 0")
        if not math.isfinite(self.capture_time):
            raise ValueError("capture_time must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class RecordingMeta:
    """Sidecar metadata for one .iq payload file."""

    sample_rate_hz: float
    center_freq_hz: float
    start_time: float
    num_samples: int

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be > 0")
        if not math.isfinite(self.sample_rate_hz):  # every frame would share one capture time
            raise ValueError("sample_rate_hz must be finite")
        if not self.center_freq_hz > 0:
            raise ValueError("center_freq_hz must be > 0")
        if not math.isfinite(self.start_time):
            raise ValueError("start_time_unix must be finite")
        if self.num_samples < 0:
            raise ValueError("num_samples must be >= 0")


def read_meta(meta_path) -> RecordingMeta:
    """Parse a sidecar file. Raises MetaFormatError on malformed content."""
    values = {}
    with open(meta_path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()  # newlines already translated to "\n"
        except UnicodeDecodeError as exc:
            raise MetaFormatError(f"{meta_path}: {exc}") from exc
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MetaFormatError(f"{meta_path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key in values:
                raise MetaFormatError(f"{meta_path}:{lineno}: duplicate key {key!r}")
            values[key] = val
    missing = [k for k in _META_KEYS if k not in values]
    if missing:
        raise MetaFormatError(f"{meta_path}: missing keys: {', '.join(missing)}")
    try:
        return RecordingMeta(
            sample_rate_hz=float(values["sample_rate_hz"]),
            center_freq_hz=float(values["center_freq_hz"]),
            start_time=float(values["start_time_unix"]),
            num_samples=int(values["num_samples"]),
        )
    except ValueError as exc:
        raise MetaFormatError(f"{meta_path}: bad value: {exc}") from exc


def stream_recording(payload_path, meta_path, frame_len: int):
    """Open an .iq recording for reading in blocks: returns (meta, discarded, blocks).

    ``blocks`` yields (times, frames) pairs in capture order: frames a
    (<= BLOCK_FRAMES, frame_len) complex128 array, times its frames' capture
    times, frame k's ``start_time + k * frame_len / sample_rate_hz``. A
    trailing partial frame is discarded, not zero-padded (padding would bias
    the energy statistic downward); ``discarded`` is its sample count.

    Raises:
        MetaFormatError: malformed sidecar, num_samples disagrees with the payload,
            or the last frame's capture time is not finite.
        TruncationError: payload byte length not a multiple of 8.
        SampleDataError: from ``blocks``, on a NaN/Inf sample (discarded ones
            included); the message names its index in the recording.
    """
    if frame_len < 1:
        raise ValueError("frame_len must be >= 1")
    meta = read_meta(meta_path)
    size = os.path.getsize(payload_path)
    if size % 8 != 0:
        raise TruncationError(
            f"{payload_path}: {size} bytes is not a whole number of float32 I/Q pairs"
        )
    if size // 8 != meta.num_samples:
        raise MetaFormatError(
            f"{meta_path}: num_samples={meta.num_samples} but payload holds {size // 8} samples"
        )
    last = meta.num_samples // frame_len - 1  # times rise with k, so the last is the largest
    end = meta.start_time + last * frame_len / meta.sample_rate_hz
    if last >= 0 and not math.isfinite(end):
        raise MetaFormatError(f"{meta_path}: capture times must be finite, but frame {last} "
                              f"would start at {end!r} s (sample_rate_hz={meta.sample_rate_hz!r})")
    return meta, meta.num_samples % frame_len, _read_blocks(payload_path, meta, frame_len)


def _read_blocks(payload_path, meta: RecordingMeta, frame_len: int):
    n = meta.num_samples
    step = BLOCK_FRAMES * frame_len  # only the last read can end in a partial frame
    with open(payload_path, "rb") as fh:
        for start in range(0, n, step):
            raw = np.fromfile(fh, dtype="<c8", count=min(step, n - start))
            if raw.size != min(step, n - start):
                raise TruncationError(f"{payload_path}: payload shrank while being read")
            if not np.isfinite(raw.view("<f4")).all():
                bad = int(np.flatnonzero(~np.isfinite(raw))[0])
                raise SampleDataError(f"{payload_path}: non-finite sample at index {start + bad}")
            frames = raw.size // frame_len
            if frames:
                k = np.arange(start // frame_len, start // frame_len + frames)
                block = raw[: frames * frame_len].astype(np.complex128).reshape(frames, frame_len)
                del raw  # the float32 read dies once converted
                yield meta.start_time + k * frame_len / meta.sample_rate_hz, block
                del block  # and the block before the next read
