"""Scenario files: one YAML document driving calibration, sweeps, and eval.

A scenario names the channel plan, per-channel signal/noise/schedule
parameters (defaults plus per-channel overrides keyed "BAND:INDEX"),
detector thresholds, and the calibration/eval settings. Parse errors cite
the YAML line; validation errors name the offending field.

All randomness derives from ``master_seed``: a purpose tag plus the channel's
(band position, index) feed a SeedSequence, so any sub-result can be
regenerated in isolation and no two purposes share a stream. An explicit
``seed`` key on a signal/noise mapping overrides the derivation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .channels import BUILTIN_BANDS, BandSpec, Channel, build_channel_plan
from .detectors import DETECTORS, DetectorConfig, load_reference
from .errors import ScenarioError
from .synth import NoiseSpec, OccupancySchedule, SignalSpec


class _ScenarioLoader(yaml.SafeLoader):
    """SafeLoader that also accepts exponent floats without a sign (1.0e6).

    Stock pyyaml follows YAML 1.1, where "1.0e6" is a string unless written
    "1.0e+6"; sample rates trip over that constantly.
    """


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(
        r"""^(?:[-+]?[0-9]+\.[0-9]*(?:[eE][-+]?[0-9]+)?
        |[-+]?[0-9]+[eE][-+]?[0-9]+
        |[-+]?\.[0-9]+(?:[eE][-+]?[0-9]+)?)$""",
        re.X,
    ),
    list("-+0123456789."),
)

# seed-derivation purpose tags
SEED_CHANNEL_NOISE = 10
SEED_CHANNEL_SIGNAL = 11
SEED_CAL_NOISE = 20
SEED_CAL_SIGNAL = 21
SEED_EVAL_NOISE = 30
SEED_EVAL_SIGNAL = 31


def derive_seed(master_seed: int, *tags: int) -> int:
    """Collapse (master_seed, tags...) into one u64 via SeedSequence."""
    ss = np.random.SeedSequence((int(master_seed),) + tuple(int(t) for t in tags))
    return int(ss.generate_state(1, np.uint64)[0])


def _type_name(value) -> str:
    return type(value).__name__


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get(mapping, key, path, kind, required=True, default=None):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {_type_name(mapping)}")
    if key not in mapping:
        if required:
            raise ScenarioError(f"{path}.{key}: required field is missing")
        return default
    value = mapping[key]
    if kind is float:
        if not _is_number(value):
            raise ScenarioError(f"{path}.{key}: expected a number, got {_type_name(value)}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{path}.{key}: expected an integer, got {_type_name(value)}")
        return value
    if not isinstance(value, kind):
        raise ScenarioError(
            f"{path}.{key}: expected {kind.__name__}, got {_type_name(value)}"
        )
    return value


def _numbers(values: list, path: str) -> list[float]:
    """The entries of a YAML list as floats; a non-number is named by its index."""
    for i, value in enumerate(values):
        if not _is_number(value):
            raise ScenarioError(f"{path}[{i}]: expected a number, got {_type_name(value)}")
    return [float(v) for v in values]


# 10 ** (snr_db / 10), the SNR's power ratio, overflows a float from about 3082.5 dB
_SNR_DB_MAX = 3082.0

# Most frames a sweep may make (all channels), and most eval trials: a command
# holds each frame's or trial's statistics in memory, some 160 bytes a sweep
# frame and 24 bytes a trial per hypothesis
_MAX_FRAMES = 10**8

# Most samples a frame may hold: a kernel block of 32 such frames is 512 MiB
# of complex128, plus the kernel's conjugate copy
_MAX_FRAME_LEN = 2**20


def _snr_db(value, path: str):
    """An SNR in dB (or None): a number below _SNR_DB_MAX, where -inf means no signal."""
    if value is not None and not value < _SNR_DB_MAX:
        raise ScenarioError(f"{path}: must be a number < {_SNR_DB_MAX:g} (-.inf for no signal), "
                            f"got {value}")
    return value


def _frame_len(n: int, path: str) -> int:
    """A frame length, raised as a ScenarioError naming ``path`` above _MAX_FRAME_LEN."""
    if n > _MAX_FRAME_LEN:
        raise ScenarioError(f"{path}: must be at most {_MAX_FRAME_LEN:,}, got {n:,}")
    return n


def _spec(cls, path: str, **fields):
    """cls(**fields), its ValueError raised as a ScenarioError naming ``path``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_signal(mapping, path, seed_default: int) -> SignalSpec:
    return _spec(
        SignalSpec, path,
        kind=_get(mapping, "kind", path, str),
        normalized_freq=_get(mapping, "normalized_freq", path, float, False, 0.0),
        symbol_rate_divisor=_get(mapping, "symbol_rate_divisor", path, int, False, 1),
        amplitude=_get(mapping, "amplitude", path, float, False, 1.0),
        phase=_get(mapping, "phase", path, float, False, 0.0),
        seed=_get(mapping, "seed", path, int, False, seed_default),
    )


def _parse_noise(mapping, path, seed_default: int) -> NoiseSpec:
    return _spec(NoiseSpec, path,
                 total_power=_get(mapping, "total_power", path, float, False, 1.0),
                 seed=_get(mapping, "seed", path, int, False, seed_default))


def _parse_schedule(mapping, path) -> OccupancySchedule:
    period = _get(mapping, "period_s", path, float)
    intervals = _get(mapping, "on_intervals", path, list, False, [])
    parsed = []
    for i, pair in enumerate(intervals):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{path}.on_intervals[{i}]: expected [start_s, end_s]")
        parsed.append(tuple(_numbers(pair, f"{path}.on_intervals[{i}]")))
    return _spec(OccupancySchedule, path, period_s=period, on_intervals=tuple(parsed))


@dataclass(frozen=True)
class ChannelParams:
    """Fully resolved synthesis parameters for one channel."""

    signal: SignalSpec
    noise: NoiseSpec
    schedule: OccupancySchedule
    snr_db: float


class Scenario:
    """Parsed scenario document plus the path it was loaded from."""

    def __init__(self, data: dict, path: Path | None = None):
        if not isinstance(data, dict):
            raise ScenarioError(f"scenario root: expected a mapping, got {_type_name(data)}")
        self.data = data
        self.path = Path(path) if path is not None else None
        self.name = _get(data, "name", "scenario", str, False, "scenario")
        self.master_seed = _get(data, "master_seed", "scenario", int, False, 0)
        self.sample_rate_hz = _get(data, "sample_rate_hz", "scenario", float, False, 1e6)
        self.start_time_unix = _get(data, "start_time_unix", "scenario", float, False, 0.0)
        self.bin_len_s = _get(data, "bin_len_s", "scenario", float, False, 3600.0)
        if not 0 <= self.master_seed <= 2**64 - 1:
            raise ScenarioError("master_seed: must fit in an unsigned 64-bit integer")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ScenarioError("sample_rate_hz: must be a finite number > 0")
        if not math.isfinite(self.start_time_unix):
            raise ScenarioError("start_time_unix: must be finite")
        # every frame must hold all the ACF lags the detectors use
        lags = self.acf_lags()
        if "frame_len" in data and self.frame_len() < lags:
            raise ScenarioError(f"frame_len: must be >= detector.acf_lags ({lags})")
        ev = data.get("eval")
        eval_len = _get(ev, "frame_len", "eval", int, False) if isinstance(ev, dict) else None
        if eval_len is not None and _frame_len(eval_len, "eval.frame_len") < lags:
            raise ScenarioError(f"eval.frame_len: must be >= detector.acf_lags ({lags})")
        defaults = data.get("defaults")
        if isinstance(defaults, dict):
            _snr_db(_get(defaults, "snr_db", "defaults", float, False), "defaults.snr_db")
        # cross-check override keys early so typos fail loudly
        if "channels" in data:
            plan_keys = {f"{c.band}:{c.index_in_band}" for c in self.plan()}
            for key, override in _get(data, "channels", "scenario", dict).items():
                if key not in plan_keys:
                    raise ScenarioError(f"channels.{key}: channel is not in the plan")
                if isinstance(override, dict):
                    path = f"channels.{key}"
                    _snr_db(_get(override, "snr_db", path, float, False), f"{path}.snr_db")

    @classmethod
    def load(cls, path) -> "Scenario":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        try:
            data = yaml.load(text, Loader=_ScenarioLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                raise ScenarioError(
                    f"{path}:{mark.line + 1}: {getattr(exc, 'problem', exc)}"
                ) from exc
            raise ScenarioError(f"{path}: {exc}") from exc
        if data is None:
            raise ScenarioError(f"{path}: scenario file is empty")
        return cls(data, path)

    # --- plan ---------------------------------------------------------------

    def band_specs(self) -> list[BandSpec]:
        plan = self.data.get("plan", "builtin")
        if plan == "builtin":
            return list(BUILTIN_BANDS)
        if not isinstance(plan, list):
            raise ScenarioError("plan: expected 'builtin' or a list of band mappings")
        specs = []
        for i, row in enumerate(plan):
            path = f"plan[{i}]"
            spacing = _get(row, "spacing_mhz", path, list)
            try:
                specs.append(
                    BandSpec(
                        name=_get(row, "name", path, str),
                        start_mhz=_get(row, "start_mhz", path, float),
                        stop_mhz=_get(row, "stop_mhz", path, float),
                        spacing_mhz=tuple(float(s) for s in spacing),
                        expected_channels=_get(row, "expected_channels", path, int),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"{path}: {exc}") from exc
        return specs

    def plan(self) -> list[Channel]:
        return build_channel_plan(self.band_specs())

    # --- per-channel synthesis ----------------------------------------------

    def _merged_channel_mapping(self, channel: Channel) -> dict:
        base = dict(_get(self.data, "defaults", "scenario", dict, False, {}))
        overrides = self.data.get("channels", {}).get(
            f"{channel.band}:{channel.index_in_band}", {}
        )
        if not isinstance(overrides, dict):
            raise ScenarioError(
                f"channels.{channel.band}:{channel.index_in_band}: expected a mapping"
            )
        merged = dict(base)
        merged.update(overrides)
        return merged

    def channel_params(self, channel: Channel, band_pos: int) -> ChannelParams:
        m = self._merged_channel_mapping(channel)
        where = f"channel {channel.band}:{channel.index_in_band}"
        if "signal" not in m or "noise" not in m or "schedule" not in m:
            raise ScenarioError(
                f"{where}: needs signal, noise and schedule "
                "(from defaults or a channels override)"
            )
        sig_seed = derive_seed(
            self.master_seed, SEED_CHANNEL_SIGNAL, band_pos, channel.index_in_band
        )
        noise_seed = derive_seed(
            self.master_seed, SEED_CHANNEL_NOISE, band_pos, channel.index_in_band
        )
        snr_db = _get(m, "snr_db", where, float, False)  # range checked at load
        if snr_db is None:
            raise ScenarioError(f"{where}.snr_db: required field is missing")
        return ChannelParams(
            signal=_parse_signal(m["signal"], f"{where}.signal", sig_seed),
            noise=_parse_noise(m["noise"], f"{where}.noise", noise_seed),
            schedule=_parse_schedule(m["schedule"], f"{where}.schedule"),
            snr_db=snr_db,
        )

    # --- sweep timing -------------------------------------------------------

    def frame_len(self) -> int:
        n = _get(self.data, "frame_len", "scenario", int)
        if n < 1:
            raise ScenarioError("frame_len: must be >= 1")
        return _frame_len(n, "frame_len")

    def frame_interval_s(self) -> float:
        v = _get(self.data, "frame_interval_s", "scenario", float)
        if not 0 < v < math.inf:
            raise ScenarioError("frame_interval_s: must be a finite number > 0")
        return v

    def total_s(self) -> float:
        v = _get(self.data, "total_s", "scenario", float)
        if not 0 <= v < math.inf:
            raise ScenarioError("total_s: must be a finite number >= 0")
        channels = len(self.plan())
        frames = channels * (v / self.frame_interval_s())
        if not frames <= _MAX_FRAMES:
            raise ScenarioError(f"total_s: the sweep would make {frames:.3g} frames ({channels} "
                                f"channels), more than {_MAX_FRAMES:,}")
        return v

    # --- detector config ----------------------------------------------------

    def resolve_path(self, rel) -> Path:
        p = Path(rel)
        if p.is_absolute() or self.path is None:
            return p
        return self.path.parent / p

    def acf_lags(self) -> int:
        d = _get(self.data, "detector", "scenario", dict, False, {})
        lags = _get(d, "acf_lags", "detector", int, False, 8)
        if lags < 2:
            raise ScenarioError("detector.acf_lags: must be >= 2")
        return lags

    def detector_config(self) -> DetectorConfig:
        d = _get(self.data, "detector", "scenario", dict)
        ref_path = self.resolve_path(_get(d, "reference", "detector", str))
        try:
            reference = load_reference(ref_path)
        except OSError as exc:
            raise ScenarioError(f"detector.reference: cannot read {ref_path}: {exc}") from exc
        return _spec(DetectorConfig, "detector",
                     lambda_ed=_get(d, "lambda_ed", "detector", float),
                     lambda_acf=_get(d, "lambda_acf", "detector", float),
                     gamma=_get(d, "gamma", "detector", float),
                     acf_lags=self.acf_lags(),
                     reference=reference)

    # --- calibration and eval -----------------------------------------------

    def _section_specs(self, name: str, section: dict, signal_tag: int, noise_tag: int):
        """A section's (SignalSpec, NoiseSpec): its own mappings, else those of defaults.

        A signal is required; the noise defaults to unit power. Seeds not
        given derive from master_seed and the purpose tags.
        """
        defaults = _get(self.data, "defaults", "scenario", dict, False, {})
        signal_map = section.get("signal", defaults.get("signal"))
        if signal_map is None:
            raise ScenarioError(f"{name}.signal: required (directly or via defaults.signal)")
        return (_parse_signal(signal_map, f"{name}.signal",
                              derive_seed(self.master_seed, signal_tag)),
                _parse_noise(section.get("noise", defaults.get("noise", {})), f"{name}.noise",
                             derive_seed(self.master_seed, noise_tag)))

    def calibration(self) -> dict:
        c = _get(self.data, "calibration", "scenario", dict, False, {})
        signal, noise = self._section_specs("calibration", c, SEED_CAL_SIGNAL, SEED_CAL_NOISE)
        target_pfa = _get(c, "target_pfa", "calibration", float, False, 0.05)
        if not 0.0 < target_pfa < 1.0:
            raise ScenarioError("calibration.target_pfa: must lie in (0, 1)")
        snr_db = _snr_db(_get(c, "snr_db", "calibration", float, False, 20.0),
                         "calibration.snr_db")
        if signal.kind == "none" and snr_db != -math.inf:
            raise ScenarioError("calibration.signal.kind: 'none' has no power to scale to "
                                f"calibration.snr_db {snr_db} (use tone or bpsk, or snr_db -.inf)")
        reference_frames = _get(c, "reference_frames", "calibration", int, False, 100)
        if reference_frames < 1:
            raise ScenarioError("calibration.reference_frames: must be >= 1")
        threshold_frames = _get(c, "threshold_frames", "calibration", int, False, 10000)
        if threshold_frames < 100:
            raise ScenarioError("calibration.threshold_frames: must be >= 100")
        return {
            "signal": signal,
            "noise": noise,
            "snr_db": snr_db,
            "reference_frames": reference_frames,
            "threshold_frames": threshold_frames,
            "target_pfa": target_pfa,
            "acf_lags": self.acf_lags(),
        }

    def eval_settings(self) -> dict:
        e = _get(self.data, "eval", "scenario", dict)
        signal, noise = self._section_specs("eval", e, SEED_EVAL_SIGNAL, SEED_EVAL_NOISE)
        points = _numbers(
            _get(e, "snr_db_points", "eval", list, False, [0.0, 5.0, 10.0, 20.0]),
            "eval.snr_db_points",
        )
        points = [_snr_db(p, f"eval.snr_db_points[{i}]") for i, p in enumerate(points)]
        roc = _get(e, "roc_thresholds", "eval", dict, False, {})
        trials = _get(e, "trials", "eval", int, False, 10000)
        if trials < 1:
            raise ScenarioError("eval.trials: must be >= 1")
        if trials > _MAX_FRAMES:
            raise ScenarioError(f"eval.trials: must be at most {_MAX_FRAMES:,}, got {trials:,}")
        thresholds = {}
        for det, thrs in roc.items():
            path = f"eval.roc_thresholds.{det}"
            if det not in DETECTORS:
                raise ScenarioError(f"{path}: unknown detector")
            if not isinstance(thrs, list) or len(thrs) < 2:
                raise ScenarioError(f"{path}: expected a list of >= 2 thresholds")
            thresholds[det] = _numbers(thrs, path)
            if not all(a < b for a, b in zip(thresholds[det], thresholds[det][1:])):
                raise ScenarioError(f"{path}: must be strictly increasing")
        frame_len = _get(e, "frame_len", "eval", int, False)
        return {
            "signal": signal,
            "noise": noise,
            "trials": trials,
            "frame_len": self.frame_len() if frame_len is None else frame_len,
            "snr_db_points": points,
            "roc_snr_db": _snr_db(_get(e, "roc_snr_db", "eval", float, False, 5.0),
                                  "eval.roc_snr_db"),
            "roc_thresholds": thresholds,
        }
