"""The three sensing statistics and their block kernel.

Energy detection
    T = (1/N) * sum |y(n)|^2, present when T exceeds a fixed threshold.

Lag-1 autocorrelation
    Normalized coefficient |ACF(1)| / ACF(0); noise decorrelates at lag 1
    while modulated signals and tones do not.

Correlation distance
    Euclidean distance between a calibrated reference ACF-magnitude vector
    and the observed frame's vector, scaled by 1/sqrt(L) so it lies in [0,1];
    a SMALL distance means signal-like correlation structure, so the decision
    is present when distance < gamma.

``block_statistics`` computes all three for a (frames x N) block from one
ACF pass over lags 0..L-1; every command feeds it blocks of at most
BLOCK_FRAMES (32) frames (``calibrate`` its threshold frames, once it has fed
its reference frames to ``calibrate_reference_blocks``). Row sums are
np.vecdot's dot products, which give the bits of the per-frame functions'
np.vdot and np.dot. A frame whose energy sum is not finite raises
SampleDataError, so no NaN statistic reaches an output: this one check covers
a non-finite sample as well as finite samples whose power sum overflows, and
it is the only check on frames the program makes. Every decision goes through
``detector_table.DETECTOR_TABLE`` (statistic column, threshold field, direction),
and every threshold is tuned by its row's ``Detector.tune``, a quantile of
noise-only statistics.

All autocorrelations use the linear (non-circular) convention: terms whose
lagged index would fall before the frame start are omitted. Ties on every
threshold resolve to absent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector_table import DETECTOR_BY_NAME, DETECTOR_TABLE
from .errors import OccuscanError, SampleDataError
from .iq import ComplexFrame


def decides_present(name: str, statistic, threshold: float):
    """Vectorized decision rule: > threshold for ed/acf1, < threshold for cdist."""
    return DETECTOR_BY_NAME[name].decide(statistic, threshold)


@dataclass(frozen=True)
class AcfVector:
    """Magnitude-normalized autocorrelation values at lags 0..L-1.

    values[0] is exactly 1 (the normalization anchor) and every entry lies
    in [0, 1] (so none is NaN).
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("AcfVector needs at least 2 lags")
        if arr[0] != 1.0:
            raise ValueError("values[0] must be exactly 1.0")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("AcfVector entries must be finite and lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds and reference data for one sweep.

    lambda_ed is in power units; lambda_acf and gamma are dimensionless in
    (0, 1); reference must have exactly acf_lags entries.
    """

    lambda_ed: float
    lambda_acf: float
    gamma: float
    acf_lags: int
    reference: AcfVector

    def __post_init__(self):
        if not self.lambda_ed > 0:
            raise ValueError("lambda_ed must be > 0")
        if not 0.0 < self.lambda_acf < 1.0:
            raise ValueError("lambda_acf must lie in (0, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.acf_lags < 2:
            raise ValueError("acf_lags must be >= 2")
        if len(self.reference) != self.acf_lags:
            raise ValueError(
                f"reference has {len(self.reference)} lags, config says {self.acf_lags}"
            )


def _acf_block(
    block: np.ndarray, lags: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ACF(0) and |ACF(l)| / ACF(0), l = 0..lags-1, of a (frames x N) block.

    Row sums are np.vecdot's BLAS dot products, which conjugate their first
    argument without copying the block and give the bits of np.vdot and
    np.dot on one frame; magnitudes use hypot, as abs() does.
    Cauchy-Schwarz bounds the ratios by 1; the clip guards roundoff.
    Zero-energy rows give NaN ratios. A row whose energy is not finite (finite
    samples whose power sum overflows, or non-finite samples) raises
    SampleDataError naming frame start + row.
    """
    n = block.shape[1]
    if not 1 <= lags <= n:
        raise ValueError(f"lags must lie in [1, {n}], got {lags}")
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.vecdot(block, block).real
    finite = np.isfinite(energy)
    if not finite.all():
        bad = start + int(np.argmin(finite))
        raise SampleDataError(f"frame {bad}: energy is not finite "
                              "(a sample or the power sum overflows)", bad)
    sums = np.empty((len(block), lags - 1), dtype=np.complex128)
    for lag in range(1, lags):
        np.vecdot(block[:, :-lag], block[:, lag:], out=sums[:, lag - 1])
    ratios = np.empty((len(block), lags))
    ratios[:, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.hypot(sums.real, sums.imag, out=ratios[:, 1:])
        np.divide(ratios[:, 1:], energy[:, None], out=ratios[:, 1:])
        np.minimum(ratios[:, 1:], 1.0, out=ratios[:, 1:])
    return energy, ratios


def block_statistics(block: np.ndarray, reference: AcfVector, start: int = 0) -> np.ndarray:
    """The ed, acf1 and cdist columns (DETECTOR_TABLE order) of a (frames x N) block.

    A zero-energy row (dead channel) gets the no-signal sentinels acf1 = 0 and
    cdist = 1, which every valid threshold decides absent. A row whose energy
    is not finite raises SampleDataError naming frame start + row.
    """
    energy, ratios = _acf_block(block, len(reference), start)
    diff = reference.values - ratios
    stats = np.column_stack(
        (energy / block.shape[1], ratios[:, 1], np.sqrt(np.mean(diff * diff, axis=1)))
    )
    stats[stats[:, 0] == 0.0, 1:] = (0.0, 1.0)
    return stats


def decide_block(stats: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """(frames x 3) presence decisions for a block_statistics result."""
    return np.column_stack(
        [d.decide(stats[:, d.column], d.threshold(config)) for d in DETECTOR_TABLE]
    )


def _frame_acf(frame: ComplexFrame, lags: int) -> np.ndarray:
    energy, ratios = _acf_block(frame.samples[None, :], lags)
    if energy[0] == 0.0:
        raise OccuscanError("zero-energy frame: normalized ACF undefined")
    return ratios[0]


def energy_statistic(frame: ComplexFrame) -> float:
    """Mean sample power (1/N) * sum |y(n)|^2."""
    energy, _ = _acf_block(frame.samples[None, :], 1)
    return float(energy[0]) / len(frame)


def acf(frame: ComplexFrame, lag: int) -> complex:
    """Linear autocorrelation sum_{m=lag}^{N-1} x(m) * conj(x(m-lag)).

    Out-of-range terms are omitted rather than wrapped; circular wrapping
    would fabricate correlation between the frame's ends.
    """
    x = frame.samples
    n = x.size
    if lag < 0:
        raise ValueError("lag must be >= 0")
    if lag >= n:
        raise ValueError(f"lag {lag} out of range for frame of {n} samples")
    return complex(np.vecdot(x[:n - lag], x[lag:]))


def acf1_statistic(frame: ComplexFrame) -> float:
    """Normalized lag-1 coefficient |ACF(1)| / ACF(0), in [0, 1].

    Invariant under global amplitude scaling and phase rotation of the frame.
    Raises OccuscanError for a zero-energy frame.
    """
    ratios = _frame_acf(frame, min(2, len(frame)))
    return float(ratios[1]) if ratios.size > 1 else 0.0


def acf_vector(frame: ComplexFrame, lags: int) -> AcfVector:
    """Magnitude-normalized ACF at lags 0..lags-1 (values[0] forced to 1)."""
    if not 2 <= lags <= len(frame):
        raise ValueError(f"lags must lie in [2, {len(frame)}], got {lags}")
    return AcfVector(_frame_acf(frame, lags))


def calibrate_reference_blocks(blocks, lags: int) -> AcfVector:
    """Entry-wise mean of the ACF vectors of every row of (frames x N) training blocks.

    Training frames should be known-present captures (high-SNR or clean
    synthetic signal); values[0] is forced back to exactly 1 after averaging.
    """
    vectors, start = [], 0
    for block in blocks:
        energy, ratios = _acf_block(block, lags, start)
        start += len(block)
        if np.any(energy == 0.0):
            raise OccuscanError("zero-energy frame: normalized ACF undefined")
        vectors.append(ratios)
    if not vectors:
        raise OccuscanError("reference calibration needs at least 1 training frame")
    mean = np.concatenate(vectors).mean(axis=0)
    mean[0] = 1.0
    np.clip(mean, 0.0, 1.0, out=mean)
    return AcfVector(mean)


def correlation_distance(reference: AcfVector, observed: AcfVector) -> float:
    """Euclidean distance between ACF vectors, scaled by 1/sqrt(L) into [0,1]."""
    if len(reference) != len(observed):
        raise ValueError(
            f"vector lengths differ: {len(reference)} vs {len(observed)}"
        )
    diff = reference.values - observed.values
    return float(np.sqrt(np.mean(diff * diff)))


def quantile(values, q: float) -> float:
    """np.quantile's default (linear) q quantile of a non-empty sample, bit for bit.

    Same partition indices, neighbours and rounding as numpy, without the
    np.unique call through which np.quantile imports numpy.ma (1.3 MB).
    An empty sample (no H0 statistic to tune on) raises ValueError.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < 1:
        raise ValueError("need at least one H0 statistic")
    v = (x.size - 1) * q
    i = int(v) if v < x.size - 1 else -1  # from n - 1 up, numpy takes the last value twice
    j = i + 1 if i >= 0 else -1
    x = np.partition(x, sorted({-1, 0, i, j}))  # NaNs sort last
    if np.isnan(x[-1]):
        return float(x[-1])
    a, b, g = float(x[i]), float(x[j]), v - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def calibrate_ed_threshold(noise_frames, target_pfa: float) -> float:
    """``ed``'s ``Detector.tune`` over the energies of at least 100 noise-only ComplexFrames.

    A frame whose energy is not finite raises SampleDataError naming its position.
    """
    stats = [_acf_block(f.samples[None, :], 1, k)[0][0] / len(f)
             for k, f in enumerate(noise_frames)]
    if len(stats) < 100:
        raise OccuscanError(
            f"threshold calibration needs >= 100 noise frames, got {len(stats)}"
        )
    return DETECTOR_BY_NAME["ed"].tune(stats, target_pfa)


# --- reference-vector file format -------------------------------------------
# line 1: "lags=<L>"; lines 2..L+1: one decimal value per line.

def save_reference(vector: AcfVector, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"lags={len(vector)}\n")
        for v in vector.values:
            fh.write(f"{float(v)!r}\n")


def load_reference(path) -> AcfVector:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("lags="):
        raise OccuscanError(f"{path}: first line must be lags=<L>")
    try:
        lags = int(lines[0][len("lags="):])
        values = [float(v) for v in lines[1:]]
    except ValueError as exc:
        raise OccuscanError(f"{path}: {exc}") from exc
    if len(values) != lags:
        raise OccuscanError(f"{path}: expected {lags} values, found {len(values)}")
    try:
        return AcfVector(np.array(values))
    except ValueError as exc:
        raise OccuscanError(f"{path}: {exc}") from exc
